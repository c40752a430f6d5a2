"""An SSTable built one record at a time, and a bulk load built from it.

``SSTableWriter`` fills its data pages from key and value columns and
derives the index and key range from the key list at ``finish()``;
``LsmDb.bulk_load`` sorts columns, not records.  :class:`ReferenceWriter`
maintains everything, filter bits included, as each record arrives, and
:func:`reference_bulk_load` sorts ``(key, value)`` records and feeds them
to it one by one: the stores, indexes, footers and filters the columnar
builds must equal.
"""

import bisect
from typing import Optional

from repro.apps.lsm import sstable as lsm_sstable
from repro.apps.lsm.format import (INDEX_ENTRIES_PER_PAGE, BloomFilter,
                                   filter_bits)
from repro.apps.lsm.sstable import SSTable
from tests.reference.bloom import reference_add


def encode(records: list) -> tuple:
    """A data page as stored: the records' keys and values, flat."""
    return tuple(item for record in records for item in record)


class ReferenceWriter:
    """Per-record SSTable writer: every ``add`` appends the index key,
    tracks min/max, counts the entry and sets the key's bloom bits one
    position at a time (``tests/reference/bloom.py``).  A data page
    collects ``(key, value)`` records and is encoded only when emitted,
    one ``_emit_page`` per page.  Its filter pages hold the same
    stand-in as the writer's; the table it returns carries this filter,
    where a built table derives its own on its first probe."""

    def __init__(self, fs, name, fmt, expected_entries,
                 through_cache=True) -> None:
        self.fs = fs
        self.file = fs.create(name)
        self.fmt = fmt
        self.through_cache = through_cache
        self.bloom = BloomFilter(filter_bits(expected_entries))
        self._page: list = []
        self._index: list = []
        self._n_entries = 0
        self._min_key: Optional[str] = None
        self._max_key: Optional[str] = None
        self._last_key: Optional[str] = None
        self._n_data_pages = 0

    def _emit_page(self, obj) -> None:
        if self.through_cache:
            self.fs.append_page(self.file, obj)
        else:
            index = self.file.npages
            self.file.store[index] = obj
            self.file.npages = index + 1

    def add(self, key, value) -> None:
        if self._last_key is not None and key <= self._last_key:
            raise ValueError(
                f"keys out of order: {key!r} after {self._last_key!r}")
        self._last_key = key
        if self._min_key is None:
            self._min_key = key
        self._max_key = key
        if not self._page:
            self._index.append(key)
        self._page.append((key, value))
        reference_add(self.bloom, key)
        self._n_entries += 1
        if len(self._page) >= self.fmt.entries_per_page:
            self._emit_page(encode(self._page))
            self._page = []
            self._n_data_pages += 1

    def extend(self, keys, values) -> None:
        """The writer's columnar call, taken one record at a time (so a
        database can build its tables through this class)."""
        if len(keys) != len(values):
            raise ValueError("columns of unequal length")
        for key, value in zip(keys, values):
            self.add(key, value)

    def finish(self) -> SSTable:
        if self._n_entries == 0:
            raise ValueError("cannot finish an empty SSTable")
        if self._page:
            self._emit_page(encode(self._page))
            self._n_data_pages += 1
        for _ in self.bloom.chunks:
            self._emit_page(None)
        for start in range(0, len(self._index), INDEX_ENTRIES_PER_PAGE):
            self._emit_page(tuple(self._index[start:start +
                                              INDEX_ENTRIES_PER_PAGE]))
        self._emit_page({
            "n_data_pages": self._n_data_pages,
            "n_bloom_pages": self.bloom.npages,
            "bloom_nbits": self.bloom.nbits,
            "n_entries": self._n_entries,
            "min_key": self._min_key,
            "max_key": self._max_key,
        })
        if self.through_cache:
            self.fs.fsync(self.file)
        table = SSTable(
            self.fs, self.file, next(lsm_sstable._table_seq),
            n_data_pages=self._n_data_pages,
            index=list(self._index),
            bloom_nbits=self.bloom.nbits,
            min_key=self._min_key, max_key=self._max_key,
            n_entries=self._n_entries)
        table._bloom = self.bloom.chunks
        return table


def reference_bulk_load(db, records: list) -> None:
    """``db.bulk_load`` over ``(key, value)`` records: sort them, refuse
    a repeated key or an overlap with the bottom level before writing,
    then write table-sized chunks record by record into the bottom
    level, in ``min_key`` order."""
    records = sorted(records, key=lambda record: record[0])
    keys = [key for key, _ in records]
    for prev, key in zip(keys, keys[1:]):
        if prev == key:
            raise ValueError("bulk load repeats a key")
    bottom = db.levels[db.opts.max_levels]
    if records:
        for table in bottom:
            if table.overlaps(keys[0], keys[-1]):
                raise ValueError("bulk load overlaps bottom-level table")
    per_table = db.opts.table_pages * db.opts.fmt.entries_per_page
    tables = []
    for start in range(0, len(records), per_table):
        chunk = records[start:start + per_table]
        writer = ReferenceWriter(db.machine.fs, db._next_sst_name(),
                                 db.opts.fmt, len(chunk),
                                 through_cache=False)
        for key, value in chunk:
            writer.add(key, value)
        tables.append(writer.finish())
    if tables:
        at = bisect.bisect_left([t.min_key for t in bottom], keys[0])
        bottom[at:at] = tables
    db._bump_version()
