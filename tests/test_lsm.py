"""LSM store tests: SSTables, bloom filters, compaction, DB semantics."""

import gc
import operator
import random
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import DbOptions, LsmDb
from repro.apps.lsm.compaction import CompactionJob
from repro.apps.lsm import format as lsm_format
from repro.apps.lsm.format import (BloomFilter, RecordFormat, filter_bits,
                                   fnv1a)
from repro.apps.lsm.sstable import SSTableWriter, open_sstable
from repro.experiments.harness import make_db_env
from repro.kernel import Machine
from repro.workloads import streams, ycsb
from tests.reference.bloom import reference_add, reference_test
from tests.strategies import STANDARD_SETTINGS


def make_db(limit=512, memtable=64, value_size=1000, max_levels=3):
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=limit)
    opts = DbOptions(fmt=RecordFormat(value_size=value_size),
                     memtable_entries=memtable, max_levels=max_levels)
    return machine, cg, LsmDb(machine, cg, options=opts)


def in_thread(machine, cg, fn):
    out = {}

    def step(thread):
        out["r"] = fn()
        return False

    machine.spawn("op", step, cgroup=cg)
    machine.run()
    return out.get("r")


class TestFormat:
    def test_entries_per_page(self):
        assert RecordFormat(value_size=1000).entries_per_page == 3
        assert RecordFormat(value_size=220).entries_per_page == 16

    def test_fnv_deterministic(self):
        assert fnv1a("key") == fnv1a("key")
        assert fnv1a("key", 1) != fnv1a("key", 2)
        assert fnv1a("a") != fnv1a("b")


class TestBloom:
    def test_no_false_negatives(self):
        bloom = BloomFilter(filter_bits(100))
        keys = [f"k{i}" for i in range(100)]
        bloom.add_all(keys)
        for key in keys:
            assert BloomFilter.test_chunks(bloom.chunks, bloom.nbits,
                                           key)

    def test_some_true_negatives(self):
        bloom = BloomFilter(filter_bits(50))
        bloom.add_all(f"k{i}" for i in range(50))
        negatives = sum(
            1 for i in range(1000)
            if not BloomFilter.test_chunks(bloom.chunks, bloom.nbits,
                                           f"absent{i}"))
        assert negatives > 900  # ~1% false positives at 10 bits/key

    @given(st.sets(st.text(min_size=1, max_size=12), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_membership_property(self, keys):
        bloom = BloomFilter(filter_bits(len(keys)))
        bloom.add_all(keys)
        assert all(BloomFilter.test_chunks(bloom.chunks, bloom.nbits, k)
                   for k in keys)


class TestBloomOneCrc:
    """``add_all``/``test_chunks`` derive all four probe hashes from one
    CRC of the key; ``tests/reference/bloom.py``'s ``positions`` (eight
    salted passes) is the oracle."""

    @given(st.binary(max_size=64), st.integers(0, 0xFFFFFFFF))
    @STANDARD_SETTINGS
    def test_crc32_is_affine_in_its_start_value(self, data, salt):
        zeros = bytes(len(data))
        assert zlib.crc32(data, salt) == \
            zlib.crc32(data) ^ zlib.crc32(zeros, salt) ^ zlib.crc32(zeros)

    @given(st.lists(st.text(max_size=12), unique=True),
           st.sampled_from(((1, 1), (4000, 2), (9000, 3), (12000, 4),
                            (19000, 6))),
           st.data())
    @STANDARD_SETTINGS
    def test_filter_equals_the_oracle(self, keys, sizing, data):
        expected_entries, npages = sizing
        cut = data.draw(st.integers(0, len(keys)))
        held, absent = keys[:cut], keys[cut:]
        want = BloomFilter(filter_bits(expected_entries))
        for key in held:
            reference_add(want, key)
        bloom = BloomFilter(filter_bits(expected_entries))
        chunks = list(bloom.chunks)
        assert len(chunks) == npages
        # Twice on one filter ORs, into the same chunk objects.
        split = data.draw(st.integers(0, cut))
        bloom.add_all(held[:split])
        bloom.add_all(held[split:])
        assert bloom.chunks == want.chunks
        assert all(map(operator.is_, bloom.chunks, chunks))
        for key in keys:
            verdict = reference_test(want, key)
            assert BloomFilter.test_chunks(bloom.chunks, bloom.nbits,
                                           key) is verdict
            assert verdict or key in absent

    def test_format_keeps_nothing_per_key(self):
        def sizes():
            return {name: len(value)
                    for name, value in vars(lsm_format).items()
                    if isinstance(value, (dict, list, set))}

        def load(first):
            machine, cg, db = make_db()
            indices = range(first, first + 20000, 2)
            db.bulk_load([f"user{i:012d}" for i in indices],
                         [("v0", i) for i in indices])
            return db

        before = sizes()
        db = load(0)
        # A held key, and an absent one only the filter can turn away.
        assert in_thread(db.machine, db.cgroup,
                         lambda: db.get("user000000000008")) == ("v0", 8)
        assert in_thread(db.machine, db.cgroup,
                         lambda: db.get("user000000000007")) is None
        after = sizes()
        # One probe-salt entry per distinct encoded key length, at most.
        assert all(after[name] - before[name] <= 1 for name in after)
        load(20000)
        assert sizes() == after


class TestSSTable:
    def _write_table(self, machine, cg, n=50, through_cache=False):
        fmt = RecordFormat(value_size=1000)
        writer = SSTableWriter(machine.fs, "t1", fmt,
                               expected_entries=n,
                               through_cache=through_cache)
        for i in range(n):
            writer.add(f"k{i:05d}", ("v", i))
        return writer.finish()

    def test_get_found(self):
        machine, cg, db = make_db()
        table = self._write_table(machine, cg)
        found, value = in_thread(machine, cg,
                                 lambda: table.get("k00007"))
        assert found and value == ("v", 7)

    def test_get_absent(self):
        machine, cg, db = make_db()
        table = self._write_table(machine, cg)
        found, value = in_thread(machine, cg,
                                 lambda: table.get("k99999"))
        assert not found

    def test_bloom_avoids_io_for_absent(self):
        machine, cg, db = make_db()
        table = self._write_table(machine, cg)
        in_thread(machine, cg, lambda: table.get("absent-key"))
        assert machine.disk.stats.read_pages == 0

    def test_keys_must_be_sorted(self):
        machine, cg, db = make_db()
        writer = SSTableWriter(machine.fs, "bad", RecordFormat(),
                               expected_entries=2, through_cache=False)
        writer.add("b", 1)
        with pytest.raises(ValueError):
            writer.add("a", 2)

    def test_empty_table_rejected(self):
        machine, cg, db = make_db()
        writer = SSTableWriter(machine.fs, "empty", RecordFormat(),
                               expected_entries=0, through_cache=False)
        with pytest.raises(ValueError):
            writer.finish()

    def test_iter_from(self):
        machine, cg, db = make_db()
        table = self._write_table(machine, cg, n=20)
        keys = in_thread(machine, cg, lambda: [
            k for k, _ in table.iter_from("k00015")])
        assert keys == [f"k{i:05d}" for i in range(15, 20)]

    def test_open_reparses_metadata(self):
        machine, cg, db = make_db()
        fmt = RecordFormat(value_size=1000)
        writer = SSTableWriter(machine.fs, "t2", fmt,
                               expected_entries=10, through_cache=False)
        for i in range(10):
            writer.add(f"k{i:05d}", i)
        original = writer.finish()
        reopened = in_thread(machine, cg,
                             lambda: open_sstable(machine.fs, "t2"))
        assert reopened.n_entries == original.n_entries
        assert reopened.index == original.index
        assert reopened.min_key == original.min_key
        found, value = in_thread(machine, cg,
                                 lambda: reopened.get("k00003"))
        assert found and value == 3

    def test_overlap_check(self):
        machine, cg, db = make_db()
        table = self._write_table(machine, cg)
        assert table.overlaps("k00010", "k00020")
        assert not table.overlaps("z", "zz")


class TestRecordFootprint:
    """A loaded record is its key, an int and two slots of a flat page
    tuple, and pages hold no container the cyclic collector must
    track.  Per-record containers (a pair, a value tuple, a page
    list) cost about 206 bytes a record and fail the bound."""

    N = 4000

    def test_data_pages_are_untracked_tuples(self):
        env = make_db_env("default", cgroup_pages=64, nkeys=self.N)
        gc.collect()
        pages = [table.file.store[index]
                 for table in env.db._all_tables()
                 for index in range(table.n_data_pages)]
        assert sum(len(page) for page in pages) == 2 * self.N
        assert all(type(page) is tuple for page in pages)
        assert not any(map(gc.is_tracked, pages))

    def test_bytes_per_loaded_record(self):
        n = self.N
        streams.key_strings(n)  # the key strings are the streams' own
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            env = make_db_env("default", cgroup_pages=64, nkeys=n)
            gc.collect()
            cost = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert env.db.levels[-1]
        # About 97 bytes a record, the machine's fixed cost included.
        assert cost <= 128 * n + 16384, cost / n


class TestDbBasics:
    def test_put_get(self):
        machine, cg, db = make_db()
        in_thread(machine, cg, lambda: db.put("a", 1))
        assert in_thread(machine, cg, lambda: db.get("a")) == 1

    def test_get_missing(self):
        machine, cg, db = make_db()
        assert in_thread(machine, cg, lambda: db.get("nope")) is None

    def test_overwrite(self):
        machine, cg, db = make_db()

        def ops():
            db.put("k", 1)
            db.put("k", 2)
            return db.get("k")

        assert in_thread(machine, cg, ops) == 2

    def test_delete_tombstone(self):
        machine, cg, db = make_db()

        def ops():
            db.put("k", 1)
            db.delete("k")
            return db.get("k")

        assert in_thread(machine, cg, ops) is None

    def test_flush_preserves_data(self):
        machine, cg, db = make_db(memtable=16)

        def ops():
            for i in range(40):  # forces 2 flushes
                db.put(f"k{i:04d}", i)
            return [db.get(f"k{i:04d}") for i in range(40)]

        assert in_thread(machine, cg, ops) == list(range(40))
        assert db.n_flushes >= 2
        assert len(db.levels[0]) >= 2

    def test_newer_table_shadows_older(self):
        machine, cg, db = make_db(memtable=4)

        def ops():
            for round_ in range(3):
                for i in range(4):
                    db.put(f"k{i}", (round_, i))
            return db.get("k0")

        assert in_thread(machine, cg, ops) == (2, 0)

    def test_bulk_load_visible(self):
        machine, cg, db = make_db()
        db.bulk_load([f"k{i:05d}" for i in range(500)], range(500))
        assert in_thread(machine, cg, lambda: db.get("k00400")) == 400
        assert machine.disk.stats.read_pages > 0  # cold cache: real I/O

    def test_bulk_load_no_write_io(self):
        machine, cg, db = make_db()
        db.bulk_load([f"k{i:05d}" for i in range(100)], range(100))
        assert machine.disk.stats.write_pages == 0

    def test_bulk_load_below_a_loaded_db(self):
        # The second, lower run's tables go in front: the bottom level
        # stays sorted, and the bisect over its min keys finds them all.
        machine, cg, db = make_db()
        keys = streams.key_strings(2000)
        db.bulk_load(keys[1000:], range(1000, 2000))
        db.bulk_load(keys[:1000], range(1000))
        bottom = db.levels[-1]
        assert len(bottom) > 2
        assert all(a.max_key < b.min_key for a, b in zip(bottom, bottom[1:]))
        keys = [ycsb.key_of(i) for i in (0, 999, 1000, 1500, 1999)]
        assert in_thread(machine, cg, lambda: [db.get(key) for key in keys]) \
            == [0, 999, 1000, 1500, 1999]

    @pytest.mark.parametrize("run", ((995, 1005), (1100, 1200), (0, 3000),
                                     (1999, 2100)))
    def test_overlapping_bulk_load_is_refused(self, run):
        machine, cg, db = make_db()
        db.bulk_load(streams.key_strings(2000)[1000:], range(1000, 2000))
        before = ([list(level) for level in db.levels], db._struct_version,
                  [f.name for f in machine.fs.files()])
        lo, hi = run
        with pytest.raises(ValueError, match="overlaps bottom-level table"):
            db.bulk_load(list(map(ycsb.key_of, range(lo, hi))),
                         range(lo, hi))
        assert ([list(level) for level in db.levels], db._struct_version,
                [f.name for f in machine.fs.files()]) == before
        assert in_thread(machine, cg, lambda: db.get(ycsb.key_of(1500))) \
            == 1500

    def test_scan_merges_sources(self):
        machine, cg, db = make_db(memtable=8)
        db.bulk_load([f"k{i:04d}" for i in range(50)],
                     [("old", i) for i in range(50)])

        def ops():
            db.put("k0005", ("new", 5))  # shadow in memtable
            return db.scan("k0003", 5)

        result = in_thread(machine, cg, ops)
        assert [k for k, _ in result] == [
            "k0003", "k0004", "k0005", "k0006", "k0007"]
        assert dict(result)["k0005"] == ("new", 5)

    def test_scan_skips_tombstones(self):
        machine, cg, db = make_db()
        db.bulk_load([f"k{i:04d}" for i in range(10)], range(10))

        def ops():
            db.delete("k0002")
            return db.scan("k0000", 5)

        result = in_thread(machine, cg, ops)
        assert "k0002" not in dict(result)
        assert len(result) == 5

    def test_wal_rotates_on_flush(self):
        machine, cg, db = make_db(memtable=8)

        def ops():
            for i in range(20):
                db.put(f"k{i:03d}", i)

        in_thread(machine, cg, ops)
        assert db.wal.file.name.startswith("db")
        assert "." in db.wal.file.name  # rotated at least once


class TestCompaction:
    def test_l0_compacts_into_l1(self):
        machine, cg, db = make_db(memtable=8)

        def ops():
            for i in range(80):
                db.put(f"k{i:04d}", i)

        in_thread(machine, cg, ops)
        assert len(db.levels[0]) > db.opts.l0_compaction_trigger
        in_thread(machine, cg, db.drain_compaction)
        assert len(db.levels[0]) == 0
        assert db.levels[1]
        # Data intact after compaction.
        assert in_thread(machine, cg, lambda: db.get("k0050")) == 50

    def test_level_sorted_non_overlapping(self):
        machine, cg, db = make_db(memtable=8)

        def ops():
            rng = random.Random(5)
            for _ in range(200):
                db.put(f"k{rng.randrange(500):04d}", 1)

        in_thread(machine, cg, ops)
        in_thread(machine, cg, db.drain_compaction)
        for level in db.levels[1:]:
            for left, right in zip(level, level[1:]):
                assert left.max_key < right.min_key

    def test_input_files_deleted(self):
        machine, cg, db = make_db(memtable=8)

        def ops():
            for i in range(60):
                db.put(f"k{i:04d}", i)

        in_thread(machine, cg, ops)
        before = {t.file.name for t in db.levels[0]}
        in_thread(machine, cg, db.drain_compaction)
        for name in before:
            assert not machine.fs.exists(name)

    def test_tombstones_dropped_at_bottom(self):
        machine, cg, db = make_db(memtable=8, max_levels=1)

        def ops():
            for i in range(32):
                db.put(f"k{i:04d}", i)
            for i in range(8):
                db.delete(f"k{i:04d}")
            db.flush_memtable()

        in_thread(machine, cg, ops)
        in_thread(machine, cg, db.drain_compaction)
        total = sum(t.n_entries for t in db.levels[1])
        assert total == 24  # tombstones erased, not retained

    def test_compaction_merge_dedups(self):
        machine, cg, db = make_db()
        fmt = db.opts.fmt
        w1 = SSTableWriter(machine.fs, "a", fmt, 4, through_cache=False)
        for key in ("k1", "k2"):
            w1.add(key, "old")
        t1 = w1.finish()
        w2 = SSTableWriter(machine.fs, "b", fmt, 4, through_cache=False)
        for key in ("k2", "k3"):
            w2.add(key, "new")
        t2 = w2.finish()
        assert t2.seq > t1.seq

        def ops():
            job = CompactionJob(machine.fs, [t1, t2], fmt,
                                max_table_pages=16,
                                name_fn=lambda: "out")
            return job.run_to_completion()

        outputs = in_thread(machine, cg, ops)
        out = outputs[0]
        merged = in_thread(machine, cg,
                           lambda: list(out.iter_from(out.min_key)))
        assert dict(merged) == {"k1": "old", "k2": "new", "k3": "new"}

    def test_background_thread_drains_work(self):
        machine, cg, db = make_db(memtable=8)
        db.spawn_compaction_thread()

        def step(thread, state={"i": 0}):
            if state["i"] >= 200:
                return False
            db.put(f"k{state['i']:04d}", state["i"])
            state["i"] += 1
            return True

        machine.spawn("writer", step, cgroup=cg)
        machine.run()
        # The daemon interleaved with the writer and compacted L0 at
        # least once mid-run (a backlog at the end is fine: the writer
        # outpaces compaction by design).
        assert db.n_compactions >= 1
        assert db.levels[1]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("PGD"),
                          st.integers(0, 30),
                          st.integers(0, 1000)), max_size=120))
def test_db_matches_dict_model(ops):
    """Random put/get/delete streams agree with a dict model, across
    flushes and compactions."""
    machine, cg, db = make_db(limit=2048, memtable=16, value_size=220)
    model = {}

    def run_ops():
        for op, keyn, value in ops:
            key = f"key{keyn:04d}"
            if op == "P":
                db.put(key, value)
                model[key] = value
            elif op == "G":
                assert db.get(key) == model.get(key)
            elif op == "D":
                db.delete(key)
                model.pop(key, None)
        db.drain_compaction()
        for key, value in model.items():
            assert db.get(key) == value

    in_thread(machine, cg, run_ops)
