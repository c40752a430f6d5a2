"""SSTableWriter builds a table from its key list at ``finish()``, and
the table derives its bloom filter from its keys on its first probe;
the per-record writer below maintains everything, filter bits included,
as each record arrives and is the reference the built tables must
equal."""

import contextlib
import dataclasses
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.apps.lsm import DbOptions, LsmDb
from repro.apps.lsm import compaction as lsm_compaction
from repro.apps.lsm import db as lsm_db
from repro.apps.lsm import sstable as lsm_sstable
from repro.apps.lsm.format import (INDEX_ENTRIES_PER_PAGE, BloomFilter,
                                   RecordFormat, filter_bits)
from repro.apps.lsm.sstable import SSTable, SSTableWriter
from repro.kernel import Machine
from tests.reference.bloom import reference_add
from tests.strategies import (DETERMINISM_SETTINGS, STANDARD_SETTINGS,
                              db_options, lsm_op_sequences, sorted_runs)
from tests.strategies.lsm import apply_op

FORMATS = (RecordFormat(value_size=1000),    # 3 records per page
           RecordFormat(value_size=220))     # 16


def encode(records: list) -> tuple:
    """A data page as stored: the records' keys and values, flat."""
    return tuple(item for record in records for item in record)


class ReferenceWriter:
    """Per-record SSTable writer: every ``add`` appends the index key,
    tracks min/max, counts the entry and sets the key's bloom bits one
    position at a time (``tests/reference/bloom.py``).  A data page
    collects ``(key, value)`` records and is encoded only when emitted.
    Its filter pages hold the same stand-in as the writer's; the table
    it returns carries this filter, where a built table derives its own
    on its first probe, so :func:`table_image` compares every bit."""

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

    def extend(self, run) -> None:
        for key, value in run:
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
            writer.extend(piece)
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
           expected=st.sampled_from((0, 7, 4000)))
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
        writer.extend(run[:head])
        with pytest.raises(ValueError, match="out of order"):
            writer.extend(bad[head:])
        # Nothing of the refused run was taken.
        writer.extend(run[head:])
        reference = self._writer(ReferenceWriter)
        reference.extend(run)
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
        writer.extend([])
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

        def load(reference):
            machine = Machine()
            cg = machine.new_cgroup("db", limit_pages=64)
            db = LsmDb(machine, cg, name="db", options=DbOptions(
                fmt=FORMATS[0], memtable_entries=64))
            with tables_built_by(reference):
                db.bulk_load(items)
            return [[table_image(table) for table in level]
                    for level in db.levels]

        assert load(reference=True) == load(reference=False)
