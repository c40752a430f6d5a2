"""LSM-tree key-value store (the LevelDB/RocksDB stand-in).

The paper runs YCSB, Twitter traces and the GET-SCAN workload on
LevelDB (modified to always ``pread()``, as RocksDB does), and the
admission-filter experiment on RocksDB with background compaction.
This package reproduces the storage architecture those experiments
depend on:

* an in-memory **memtable** in front of a write-ahead log;
* immutable **SSTables** whose data pages live in the simulated page
  cache (index pages are read once at open and cached in the table
  object, like LevelDB's table cache; the bloom filter is derived from
  the table's keys on its first probe);
* **leveled compaction** running on a background thread, reading whole
  input tables through the page cache — the pollution source the
  admission filter exists to fix (§5.6).
"""

from repro.apps.lsm.db import DbOptions, LsmDb

__all__ = ["LsmDb", "DbOptions"]
