"""``SSTable.get`` answers a held key from the table's slot map; the
search it replaced (``tests/reference/sstable.py``) is the oracle it
must equal on every answer, recorded read and simulated number."""

import bisect
import pickle
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.apps.lsm import DbOptions, LsmDb
from repro.apps.lsm.format import BLOOM_PAGE_BITS
from repro.apps.lsm.sstable import SSTable, SSTableWriter, open_sstable
from repro.faults import DeviceFault, FaultPlan
from repro.kernel import Machine
from repro.kernel.errors import EBADF
from repro.kernel.folio import PAGE_SIZE
from repro.obs.trace import TraceSession
from tests.reference.sstable import reference_get
from tests.strategies import (DETERMINISM_SETTINGS, STANDARD_SETTINGS,
                              db_options, lsm_op_sequences, sorted_runs,
                              table_probes)
from tests.strategies.lsm import KEYS, apply_op
from tests.test_lsm_plans import in_thread, record_reads
from tests.test_lsm_writer import FORMATS, columns, metrics_image

BUILDERS = ("extend", "add", "open_sstable")


def make_table(fs, fmt, run, through_cache=False, built="extend",
               name="t"):
    writer = SSTableWriter(fs, name, fmt, len(run),
                           through_cache=through_cache)
    if built == "add":
        for key, value in run:
            writer.add(key, value)
    else:
        writer.extend(*columns(run))
    table = writer.finish()
    return open_sstable(fs, name) if built == "open_sstable" else table


def saturate_bloom(table) -> None:
    """Every in-range absent key becomes a bloom false positive: the
    table's filter, set before its first probe would derive it."""
    table._bloom = [bytearray(b"\xff" * PAGE_SIZE)
                    for _ in range(table.bloom_nbits // BLOOM_PAGE_BITS)]


def lookups(get, fmt, run, probes, through_cache, built, saturated):
    """Build one table on a fresh machine and probe it with ``get``;
    returns everything a twin machine's lookups must equal."""
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=4)
    out = {}

    def step(thread):
        table = make_table(machine.fs, fmt, run, through_cache, built)
        if saturated:
            saturate_bloom(table)
        answers = []
        for key in probes:
            reads = []
            answers.append((get(table, key, reads),
                            [(file.name, page) for file, page in reads]))
        out["answers"] = answers
        out["clock_us"] = thread.clock_us
        return False

    with TraceSession(machine, "cache:lookup") as session:
        machine.spawn("reader", step, cgroup=cg)
        machine.run()
    events = [(e.ts_us, e.tid, e.data) for e in session.events]
    return out["answers"], out["clock_us"], events, metrics_image(machine)


class TestSlotDifferential:
    @given(fmt=st.sampled_from(FORMATS), data=st.data(),
           through_cache=st.booleans(), built=st.sampled_from(BUILDERS),
           saturated=st.booleans())
    @STANDARD_SETTINGS
    def test_get_equals_the_reference_search(self, fmt, data, **how):
        run = data.draw(sorted_runs(fmt.entries_per_page))
        assume(run)
        probes = data.draw(table_probes(run))
        got = lookups(SSTable.get, fmt, run, probes, **how)
        assert got == lookups(reference_get, fmt, run, probes, **how)
        held = dict(run)
        for key, ((found, value), reads) in zip(probes, got[0]):
            assert found == (key in held) and value == held.get(key)
            assert len(reads) <= 1 and (reads or not found)

    @given(fmt=st.sampled_from(FORMATS), data=st.data(),
           built=st.sampled_from(BUILDERS))
    @STANDARD_SETTINGS
    def test_false_positive_still_reads_its_page(self, fmt, data, built):
        # nbits >= 32768 makes a natural false positive a 1e-5 event on
        # tables this small, so the filter is saturated instead.
        run = data.draw(sorted_runs(fmt.entries_per_page))
        assume(run)
        held = [key for key, _ in run]
        probes = [key for key in data.draw(table_probes(run))
                  if key not in held]
        assume(probes)
        index = held[::fmt.entries_per_page]
        answers = lookups(SSTable.get, fmt, run, probes, False, built,
                          saturated=True)[0]
        for key, (answer, reads) in zip(probes, answers):
            assert answer == (False, None)
            if held[0] <= key <= held[-1]:
                page = bisect.bisect_right(index, key) - 1
                assert reads == [("t", page)]
            else:
                assert reads == []


def twin_db(ops, options, reference, fault_prob=None):
    """``ops`` on a fresh DB whose tables answer through the slot map
    or (``reference``) the search; reads fail with ``fault_prob``."""
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=64)
    db = LsmDb(machine, cg, name="db", options=options)
    gets, plans = [], []

    def body():
        if fault_prob is not None:
            machine.arm_faults(FaultPlan(seed=3, device=(DeviceFault(
                kind="eio", prob=fault_prob, ops=("read",)),)))
        for op in ops:
            gets.append(apply_op(db, op))
            plans.append({key: ([(file.name, page) for file, page in reads],
                                value)
                          for key, (reads, value) in db._plans.items()})

    with mock.patch.object(SSTable, "get",
                           reference_get if reference else SSTable.get):
        in_thread(machine, cg, body)
    return gets, plans, db.n_io_errors, metrics_image(machine)


class TestDbThroughReferenceGet:
    @given(options=db_options(), ops=lsm_op_sequences(),
           fault_prob=st.sampled_from((None, None, 0.3, 1.0)))
    @DETERMINISM_SETTINGS
    def test_twin_dbs_agree(self, options, ops, fault_prob):
        assert twin_db(ops, options, True, fault_prob) == \
            twin_db(ops, options, False, fault_prob)

    def test_loaded_keys_never_consult_the_bloom_filter(self):
        machine = Machine()
        cg = machine.new_cgroup("db", limit_pages=64)
        db = LsmDb(machine, cg, options=DbOptions(
            fmt=FORMATS[0], memtable_entries=64))
        items = [(f"key{i:05d}", i) for i in range(700)]
        db.bulk_load(*columns(items))
        assert sum(len(level) for level in db.levels) > 1
        reads = record_reads(machine)

        def body():
            for key, value in items:
                assert db.get(key) == value

        with mock.patch.object(SSTable, "may_contain",
                               side_effect=AssertionError):
            in_thread(machine, cg, body)
        assert len(reads) == len(items)


def outcome(get, table, key):
    """The answer, or the error's type and message."""
    try:
        return get(table, key, [])
    except EBADF as exc:
        return (type(exc), str(exc))


class TestUnlinkedTable:
    RUN = [(key, i) for i, key in enumerate(KEYS)]
    #: Held, absent in range (a bloom negative), absent out of range.
    PROBES = (KEYS[0], KEYS[7], KEYS[7] + "0", "ke", "kez")

    @pytest.mark.parametrize("armed", (False, True))
    @pytest.mark.parametrize("looked_up_first", (False, True))
    @pytest.mark.parametrize("saturated", (False, True))
    def test_lookup_raises_the_typed_error(self, looked_up_first, armed,
                                           saturated):
        def run(get):
            machine = Machine()
            cg = machine.new_cgroup("db", limit_pages=8)
            out = []

            def body():
                table = make_table(machine.fs, FORMATS[0], self.RUN)
                if saturated:
                    saturate_bloom(table)
                if looked_up_first:
                    assert get(table, KEYS[7]) == (True, 7)
                if armed:
                    machine.arm_faults(FaultPlan(seed=3))
                machine.fs.delete("t")
                out.extend(outcome(get, table, key) for key in self.PROBES)

            in_thread(machine, cg, body)
            return out

        got = run(SSTable.get)
        assert got == run(reference_get)
        assert got[0] == got[1] == (EBADF, "read of deleted file: t")
        assert got[2] == ((EBADF, "read of deleted file: t") if saturated
                          else (False, None))
        assert got[3] == got[4] == (False, None)


class StoreFs:
    """``read_page`` straight off the store: with no state of its own,
    a table pickles to the same bytes whatever it has served."""

    def read_page(self, file, index):
        return file.store[index]


class TestSlotsStayOutOfImages:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_pickled_state_ignores_the_slot_map(self, fmt):
        run = [(f"key{i:04d}", None if i % 5 == 0 else i)
               for i in range(3 * fmt.entries_per_page + 1)]
        table = make_table(Machine().fs, fmt, run)
        table.fs = StoreFs()
        before = pickle.dumps(table)
        assert table._slots is None
        answers = [table.get(key) for key, _ in run]
        assert answers == [(True, value) for _, value in run]
        assert len(table._slots) == len(run)
        assert pickle.dumps(table) == before
        restored = pickle.loads(before)
        assert restored._slots is None
        assert [restored.get(key) for key, _ in run] == answers
        assert restored._slots == table._slots
