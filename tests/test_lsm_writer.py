"""SSTableWriter builds a table from key and value columns, its index
and key range from its key list at ``finish()``, and the table derives
its bloom filter from its keys on its first probe; ``LsmDb.bulk_load``
sorts columns, not records.  The per-record writer and bulk load of
``tests/reference/writer.py`` maintain everything, filter bits
included, as each record arrives, and are the reference the built
tables must equal."""

import contextlib
import dataclasses
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.apps.lsm import DbOptions, LsmDb
from repro.apps.lsm import compaction as lsm_compaction
from repro.apps.lsm import db as lsm_db
from repro.apps.lsm.format import RecordFormat
from repro.apps.lsm.sstable import SSTable, SSTableWriter
from repro.kernel import Machine
from repro.workloads import streams
from repro.workloads.ycsb import key_of
from tests.reference.writer import ReferenceWriter, reference_bulk_load
from tests.strategies import (DETERMINISM_SETTINGS, STANDARD_SETTINGS,
                              db_options, lsm_op_sequences, sorted_runs)
from tests.strategies.lsm import apply_op, record_values

FORMATS = (RecordFormat(value_size=1000),    # 3 records per page
           RecordFormat(value_size=220))     # 16

#: Expected entries -> filter pages: one page, and powers of two (the
#: masked build) and others (the 64-bit remainder).
SIZINGS = {0: 1, 1: 1, 3276: 1, 4000: 2, 9000: 3, 12000: 4, 19000: 6}


def columns(run: list) -> tuple:
    """``(key, value)`` records as a key column and a value column."""
    return [key for key, _ in run], [value for _, value in run]


def table_filter(table: SSTable) -> list:
    """The table's filter chunks, derived now if nothing probed it."""
    return table._bloom if table._bloom is not None \
        else table._build_bloom()


def table_image(table: SSTable) -> dict:
    """Everything a table is, by value (``seq`` is process-global);
    ``store`` holds every page, footer included, and ``bloom`` every
    bit of the table's filter."""
    file = table.file
    return {
        "name": file.name,
        "npages": file.npages,
        "store": dict(file.store),
        "n_data_pages": table.n_data_pages,
        "index": table.index,
        "bloom": [bytes(chunk) for chunk in table_filter(table)],
        "bloom_nbits": table.bloom_nbits,
        "min_key": table.min_key,
        "max_key": table.max_key,
        "n_entries": table.n_entries,
    }


def metrics_image(machine) -> dict:
    """``Machine.metrics()`` by value (cgroup ids are process-global)."""
    image = dataclasses.asdict(machine.metrics())
    for cgroup in image["cgroups"].values():
        del cgroup["id"]
    return image


def tables_built_by(reference: bool) -> contextlib.ExitStack:
    """Context in which flush, bulk load and compaction build their
    tables through :class:`ReferenceWriter` (if ``reference``)."""
    stack = contextlib.ExitStack()
    if reference:
        for module in (lsm_db, lsm_compaction):
            stack.enter_context(mock.patch.object(
                module, "SSTableWriter", ReferenceWriter))
    return stack


def pieces_of(run: list, cuts: list) -> list:
    """``run`` cut at the sorted ``cuts`` (empty pieces included)."""
    bounds = [0] + sorted(cuts) + [len(run)]
    return [run[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def feed(writer, pieces: list, bulk: list) -> None:
    """Each piece through ``extend`` or record by record through
    ``add``, as ``bulk`` (cycled) says."""
    for i, piece in enumerate(pieces):
        if bulk[i % len(bulk)]:
            writer.extend(*columns(piece))
        else:
            for key, value in piece:
                writer.add(key, value)


def build(writer_cls, fmt, expected, pieces, bulk, through_cache,
          limit_pages=8):
    """One table on a fresh machine; returns what a twin must equal."""
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=limit_pages)
    out = {}

    def step(thread):
        writer = writer_cls(machine.fs, "t", fmt, expected,
                            through_cache=through_cache)
        feed(writer, pieces, bulk)
        out["image"] = table_image(writer.finish())
        out["clock_us"] = thread.clock_us
        return False

    machine.spawn("writer", step, cgroup=cg)
    machine.run()
    return (out["image"], out["clock_us"], cg.stats, machine.disk.stats,
            metrics_image(machine))


splits = st.tuples(st.lists(st.integers(0, 80), max_size=5),
                   st.lists(st.booleans(), min_size=1, max_size=6))


class TestWriterDifferential:
    @given(fmt=st.sampled_from(FORMATS), data=st.data(), split=splits,
           through_cache=st.booleans(),
           expected=st.sampled_from(sorted(SIZINGS)))
    @STANDARD_SETTINGS
    def test_any_split_of_a_run_equals_the_reference(
            self, fmt, data, split, through_cache, expected):
        run = data.draw(sorted_runs(fmt.entries_per_page))
        assume(run)     # the empty table: test_empty_finish_is_refused
        cuts, bulk = split
        pieces = pieces_of(run, [min(cut, len(run)) for cut in cuts])
        got = build(SSTableWriter, fmt, expected, pieces, bulk,
                    through_cache)
        want = build(ReferenceWriter, fmt, expected, [run], [False],
                     through_cache)
        assert got == want
        image = got[0]
        assert image["n_entries"] == len(run)
        assert image["index"] == [
            key for key, _ in run[::fmt.entries_per_page]]
        assert len(image["bloom"]) == SIZINGS[expected]

    @pytest.mark.parametrize("through_cache", (False, True))
    def test_many_index_and_bloom_pages(self, through_cache):
        # 1334 data pages: 6 index pages; 40000 bloom bits: 2 pages.
        run = [(f"key{i:05d}", None if i % 7 == 0 else i)
               for i in range(4000)]
        got = build(SSTableWriter, FORMATS[0], len(run),
                    pieces_of(run, [1, 1000, 1001, 2999]), [True, False],
                    through_cache, limit_pages=64)
        want = build(ReferenceWriter, FORMATS[0], len(run), [run], [False],
                     through_cache, limit_pages=64)
        assert got == want
        assert got[0]["npages"] == 1334 + 2 + 6 + 1
        assert len(got[0]["bloom"]) == 2

    @pytest.mark.parametrize("through_cache", (False, True))
    def test_three_bloom_pages(self, through_cache):
        # 90000 bloom bits: 3 pages, so the page of a bit is a true
        # remainder (not a mask) of the 64-bit probe hash.
        run = [(f"key{i:05d}", i) for i in range(9000)]
        got = build(SSTableWriter, FORMATS[1], len(run),
                    pieces_of(run, [5000]), [True, False],
                    through_cache, limit_pages=64)
        want = build(ReferenceWriter, FORMATS[1], len(run), [run], [False],
                     through_cache, limit_pages=64)
        assert got == want
        assert len(got[0]["bloom"]) == 3
        assert all(any(chunk) for chunk in got[0]["bloom"])


class TestWriterRefusals:
    def _writer(self, writer_cls=SSTableWriter):
        return writer_cls(Machine().fs, "t", FORMATS[0], 8,
                          through_cache=False)

    @given(data=st.data(), duplicate=st.booleans())
    @STANDARD_SETTINGS
    def test_disorder_inside_a_run_is_refused_whole(self, data,
                                                    duplicate):
        run = data.draw(sorted_runs(3).filter(lambda r: len(r) >= 2))
        at = data.draw(st.integers(1, len(run) - 1))
        bad = list(run)
        bad[at] = run[at - 1] if duplicate else (run[at - 1][0][:-1],
                                                 run[at][1])
        head = data.draw(st.integers(0, at))
        writer = self._writer()
        writer.extend(*columns(run[:head]))
        with pytest.raises(ValueError, match="out of order"):
            writer.extend(*columns(bad[head:]))
        # Nothing of the refused run was taken.
        writer.extend(*columns(run[head:]))
        reference = self._writer(ReferenceWriter)
        for key, value in run:
            reference.add(key, value)
        assert table_image(writer.finish()) == \
            table_image(reference.finish())

    @given(data=st.data(), extra=st.integers(-2, 2).filter(bool))
    @STANDARD_SETTINGS
    def test_unequal_columns_are_refused_whole(self, data, extra):
        run = data.draw(sorted_runs(3).filter(lambda r: len(r) >= 2))
        keys, values = columns(run)
        writer = self._writer()
        with pytest.raises(ValueError, match="keys but"):
            if extra > 0:
                writer.extend(keys, values + [0] * extra)
            else:
                writer.extend(keys[:extra], values)
        writer.extend(keys, values)
        reference = self._writer(ReferenceWriter)
        for key, value in run:
            reference.add(key, value)
        assert table_image(writer.finish()) == \
            table_image(reference.finish())

    @given(data=st.data(), first_bulk=st.booleans(),
           second_bulk=st.booleans())
    @STANDARD_SETTINGS
    def test_disorder_across_the_seam_is_refused(self, data, first_bulk,
                                                 second_bulk):
        run = data.draw(sorted_runs(3).filter(lambda r: len(r) >= 2))
        seam = data.draw(st.integers(1, len(run) - 1))
        back = data.draw(st.integers(1, seam))  # 1: duplicate the seam key
        writer = self._writer()
        feed(writer, [run[:seam]], [first_bulk])
        with pytest.raises(ValueError, match="out of order"):
            feed(writer, [run[seam - back:]], [second_bulk])

    def test_empty_finish_is_refused(self):
        with pytest.raises(ValueError, match="empty"):
            self._writer().finish()
        writer = self._writer()
        writer.extend([], [])
        with pytest.raises(ValueError, match="empty"):
            writer.finish()


class TestDbThroughReferenceWriter:
    @given(options=db_options(), ops=lsm_op_sequences())
    @DETERMINISM_SETTINGS
    def test_twin_dbs_agree(self, options, ops):
        def run(reference):
            machine = Machine()
            cg = machine.new_cgroup("db", limit_pages=64)
            db = LsmDb(machine, cg, name="db", options=options)
            results = []

            def step(thread):
                results.extend(apply_op(db, op) for op in ops)
                return False

            machine.spawn("op", step, cgroup=cg)
            with tables_built_by(reference):
                machine.run()
            levels = [[table_image(table) for table in level]
                      for level in db.levels]
            return (results, levels, db.n_flushes, db.n_compactions,
                    metrics_image(machine))

        assert run(reference=True) == run(reference=False)

    def test_multi_page_filters_through_flush_and_compaction(self):
        # 9000-entry memtables flush tables with 3 bloom pages; merging
        # two of them sizes the compaction writer's filters at 6.
        def run(reference):
            machine = Machine()
            cg = machine.new_cgroup("db", limit_pages=256)
            db = LsmDb(machine, cg, name="db", options=DbOptions(
                fmt=FORMATS[1], memtable_entries=9000,
                l0_compaction_trigger=1))
            stages = []

            def step(thread):
                for first in (0, 4500):
                    for i in range(first, first + 9000):
                        db.put(f"key{i:05d}", first + i)  # 9000th flushes
                stages.append([[table_image(table) for table in level]
                               for level in db.levels])
                db.drain_compaction()
                return False

            machine.spawn("op", step, cgroup=cg)
            with tables_built_by(reference):
                machine.run()
            stages.append([[table_image(table) for table in level]
                           for level in db.levels])
            return stages, db.n_compactions, metrics_image(machine)

        got = run(reference=False)
        assert got == run(reference=True)
        flushed, compacted = got[0]
        assert [len(table["bloom"]) for table in flushed[0]] == [3, 3]
        assert not compacted[0] and got[1] == 1
        assert {len(table["bloom"]) for table in compacted[1]} == {6}

    def test_bulk_load_equals_the_reference(self):
        items = [(f"key{i:05d}", ("v0", i)) for i in range(700)]
        load_twins(DbOptions(fmt=FORMATS[0], memtable_entries=64), [items])


def fresh_db(options) -> LsmDb:
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=64)
    return LsmDb(machine, cg, name="db", options=options)


def db_image(db) -> tuple:
    """Every table by value, every file's name, and the version of
    the table set."""
    levels = [[table_image(table) for table in level]
              for level in db.levels]
    files = [f.name for f in db.machine.fs.files()]
    return levels, files, db._struct_version


def load_twins(options, loads: list):
    """Each record list in ``loads`` through ``bulk_load`` (as columns)
    on one database and through :func:`reference_bulk_load` on its
    twin; returns the image both equal."""
    db, twin = fresh_db(options), fresh_db(options)
    for records in loads:
        db.bulk_load(*columns(records))
        reference_bulk_load(twin, records)
    got = db_image(db)
    assert got == db_image(twin)
    assert db._next_sst_name() == twin._next_sst_name()
    return got


class TestBulkLoadDifferential:
    @given(fmt=st.sampled_from(FORMATS),
           memtable=st.sampled_from((4, 16, 64)),
           keys=st.lists(st.integers(0, 9999), unique=True, max_size=300),
           data=st.data(), presort=st.booleans(), pivot=st.integers(0, 9999))
    @STANDARD_SETTINGS
    def test_columns_equal_the_reference(self, fmt, memtable, keys, data,
                                         presort, pivot):
        # Keys in drawn order (unsorted) or sorted; the keys at or above
        # the pivot load first, then the rest go below them.
        values = data.draw(st.lists(record_values, min_size=len(keys),
                                    max_size=len(keys)))
        records = [(f"key{k:04d}", v) for k, v in zip(keys, values)]
        if presort:
            records.sort()
        loads = [[r for r in records if r[0] >= f"key{pivot:04d}"],
                 [r for r in records if r[0] < f"key{pivot:04d}"]]
        load_twins(DbOptions(fmt=fmt, memtable_entries=memtable), loads)

    @pytest.mark.parametrize("nkeys", (1, 1001, 4000, 5000))
    def test_key_list_and_index_values(self, nkeys):
        # The harness's own load: the key list and a range of values.
        keys = streams.key_strings(nkeys)
        db, twin = fresh_db(DbOptions(memtable_entries=512)), \
            fresh_db(DbOptions(memtable_entries=512))
        db.bulk_load(keys, range(nkeys))
        reference_bulk_load(twin, list(zip(keys, range(nkeys))))
        assert db_image(db) == db_image(twin)

    @pytest.mark.parametrize("nkeys,pages", ((4000, 2), (9000, 3),
                                             (12000, 4), (19000, 6)))
    def test_multi_page_filters(self, nkeys, pages):
        # One table of nkeys records (tables hold whole pages): its
        # filter has ``pages`` pages.
        records = [(f"key{i:05d}", None if i % 7 == 0 else i)
                   for i in range(nkeys)]
        epp = FORMATS[1].entries_per_page
        levels, _, _ = load_twins(
            DbOptions(fmt=FORMATS[1], memtable_entries=-(-nkeys // epp) * epp),
            [records])
        assert [len(table["bloom"]) for table in levels[-1]] == [pages]


class TestBulkLoadRefusals:
    """A refused load writes nothing: no file, no table, no name."""

    def refused(self, db, keys, values, match):
        before = db_image(db)
        with pytest.raises(ValueError, match=match):
            db.bulk_load(keys, values)
        assert db_image(db) == before

    def test_duplicate_after_two_thousand_records(self):
        db = fresh_db(DbOptions())
        keys = streams.key_strings(2000) + [key_of(1500)]
        self.refused(db, keys, range(2001), "repeats a key")
        assert db._next_sst_name() == "db/sst-000001"

    @given(keys=st.lists(st.integers(0, 999), min_size=2, max_size=60,
                         unique=True),
           data=st.data(), kind=st.sampled_from(("duplicate", "short",
                                                 "long", "overlap")))
    @STANDARD_SETTINGS
    def test_refused_columns_leave_files_and_names(self, keys, data, kind):
        db = fresh_db(DbOptions(fmt=FORMATS[0], memtable_entries=4))
        db.bulk_load([f"key{k:04d}" for k in sorted(keys)],
                     range(len(keys)))
        n_tables = len(db.levels[-1])
        new = [f"key{k:04d}" for k in range(1000, 1000 + len(keys))]
        values = list(range(len(new)))
        if kind == "duplicate":
            at = data.draw(st.integers(1, len(new) - 1))
            new[at] = new[data.draw(st.integers(0, at - 1))]
            match = "repeats a key"
        elif kind == "short":
            values.pop()
            match = "values"
        elif kind == "long":
            values.append(0)
            match = "values"
        else:
            new[0] = f"key{keys[-1]:04d}"
            match = "overlaps"
        self.refused(db, new, values, match)
        assert db._next_sst_name() == f"db/sst-{n_tables + 1:06d}"
