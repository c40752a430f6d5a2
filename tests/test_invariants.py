"""Whole-stack invariants under randomized operation sequences.

Hypothesis drives random mixes of reads, writes, fadvise calls, file
deletions and policy attach/detach against one machine — fault-free
and with a flaky disk armed — then checks the conservation laws the
kernel substrate must uphold (``Machine.check_invariants``):

* a cgroup's charge equals its resident folio count;
* the cgroup never exceeds its limit at rest;
* the registry of an attached policy tracks exactly the resident set;
* every folio's eviction-list node belongs to at most one list;
* global stats identities (lookups = hits + misses).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache_ext import load_policy, unload_policy
from repro.faults.plan import DeviceFault, FaultPlan
from repro.kernel import FAdvice, Machine
from repro.kernel.errors import EIO, InvariantViolation
from repro.policies import GENERIC_POLICIES

LIMIT = 24
NPAGES = 64

op_strategy = st.one_of(
    st.tuples(st.just("read"), st.integers(0, NPAGES - 1)),
    st.tuples(st.just("write"), st.integers(0, NPAGES - 1)),
    st.tuples(st.just("dontneed"), st.integers(0, NPAGES - 1)),
    st.tuples(st.just("willneed"), st.integers(0, NPAGES - 1)),
    st.tuples(st.just("fsync"), st.integers(0, 0)),
)


@pytest.mark.parametrize("policy_name",
                         [None] + sorted(GENERIC_POLICIES))
@settings(max_examples=20, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=80))
def test_invariants_under_random_ops(policy_name, ops):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=LIMIT)
    f = machine.fs.create("data")
    for i in range(NPAGES):
        f.store[i] = i
    f.npages = NPAGES
    f.ra_enabled = False
    if policy_name is not None:
        load_policy(machine, cg, GENERIC_POLICIES[policy_name]())

    def step(thread, it=iter(ops)):
        op = next(it, None)
        if op is None:
            return False
        kind, index = op
        if kind == "read":
            machine.fs.read_page(f, index)
        elif kind == "write":
            machine.fs.write_page(f, index, "w")
        elif kind == "dontneed":
            machine.fs.fadvise(f, FAdvice.DONTNEED, index, 4)
        elif kind == "willneed":
            machine.fs.fadvise(f, FAdvice.WILLNEED, index,
                               min(4, NPAGES - index))
        elif kind == "fsync":
            machine.fs.fsync(f)
        return True

    machine.spawn("ops", step, cgroup=cg)
    machine.run()
    machine.check_invariants()


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.integers(0, NPAGES - 1), min_size=5,
                    max_size=60),
       swap_at=st.integers(1, 4))
def test_invariants_across_policy_swaps(ops, swap_at):
    """Attach/detach policies mid-stream; bookkeeping must survive."""
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=LIMIT)
    f = machine.fs.create("data")
    for i in range(NPAGES):
        f.store[i] = i
    f.npages = NPAGES
    f.ra_enabled = False
    factories = [GENERIC_POLICIES["lfu"], GENERIC_POLICIES["s3fifo"],
                 GENERIC_POLICIES["fifo"]]
    state = {"i": 0, "gen": 0}

    def step(thread):
        if state["i"] >= len(ops):
            return False
        if state["i"] % (len(ops) // swap_at + 1) == 0:
            if cg.ext_policy is not None:
                unload_policy(cg.ext_policy)
            factory = factories[state["gen"] % len(factories)]
            load_policy(machine, cg, factory())
            state["gen"] += 1
        machine.fs.read_page(f, ops[state["i"]])
        state["i"] += 1
        return True

    machine.spawn("swapper", step, cgroup=cg)
    machine.run()
    machine.check_invariants()


@settings(max_examples=10, deadline=None)
@given(ops=st.lists(st.integers(0, NPAGES - 1), min_size=5,
                    max_size=50))
def test_invariants_with_file_deletion(ops):
    """Truncation mid-stream must uncharge and clean policy state."""
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=LIMIT)
    load_policy(machine, cg, GENERIC_POLICIES["s3fifo"]())
    files = []

    def new_file(n):
        f = machine.fs.create(f"f{len(files)}")
        for i in range(NPAGES):
            f.store[i] = i
        f.npages = NPAGES
        f.ra_enabled = False
        files.append(f)
        return f

    current = new_file(0)
    state = {"i": 0, "current": current}

    def step(thread):
        if state["i"] >= len(ops):
            return False
        if state["i"] == len(ops) // 2:
            machine.fs.delete(state["current"].name)
            state["current"] = new_file(1)
        machine.fs.read_page(state["current"], ops[state["i"]])
        state["i"] += 1
        return True

    machine.spawn("deleter", step, cgroup=cg)
    machine.run()
    machine.check_invariants()


faulty_op_strategy = st.one_of(
    op_strategy,
    # Runs of consecutive pages arm readahead, so a failed read has
    # readahead folios to take back out as well.
    st.tuples(st.just("read_run"), st.integers(0, NPAGES - 6)),
    st.tuples(st.just("read_range"), st.integers(0, NPAGES - 6)),
    st.tuples(st.just("delete"), st.just(0)),
)


@pytest.mark.parametrize("policy_name", [None, "lfu"])
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(faulty_op_strategy, min_size=1, max_size=60),
       seed=st.integers(0, 5))
def test_invariants_after_every_op_on_a_flaky_disk(policy_name, ops, seed):
    """Most device requests fail, so retries run out often: the
    failed-read cleanup, DONTNEED's single evictions, failed writeback
    and unlink must each leave every law standing."""
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=LIMIT)
    if policy_name is not None:
        load_policy(machine, cg, GENERIC_POLICIES[policy_name]())
    machine.arm_faults(FaultPlan(seed=seed, device=(
        DeviceFault(kind="eio", prob=0.7),)))
    state = {"generation": 0, "failed": 0}

    def new_file():
        f = machine.fs.create(f"data{state['generation']}")
        state["generation"] += 1
        for i in range(NPAGES):
            f.store[i] = i
        f.npages = NPAGES
        return f

    state["file"] = new_file()

    def apply(kind, index):
        fs, f = machine.fs, state["file"]
        if kind == "read":
            fs.read_page(f, index)
        elif kind == "read_run":
            for i in range(index, index + 6):
                fs.read_page(f, i)
        elif kind == "read_range":
            fs.read_range(f, index, 6)
        elif kind == "write":
            fs.write_page(f, index, "w")
        elif kind == "dontneed":
            fs.fadvise(f, FAdvice.DONTNEED, index, 4)
        elif kind == "willneed":
            fs.fadvise(f, FAdvice.WILLNEED, index, min(4, NPAGES - index))
        elif kind == "fsync":
            fs.fsync(f)
        elif kind == "delete":
            fs.delete(f.name)
            state["file"] = new_file()

    def step(thread, it=iter(ops)):
        op = next(it, None)
        if op is None:
            return False
        try:
            apply(*op)
        except EIO:
            state["failed"] += 1
            if op[0] == "read":
                # Only a miss does I/O, and its page never arrived.
                assert state["file"].mapping.lookup(op[1]) is None
        machine.check_invariants()
        return True

    machine.spawn("ops", step, cgroup=cg)
    machine.run()
    assert cg.stats.io_errors >= state["failed"]


def test_a_broken_law_is_named():
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=LIMIT)
    machine.check_invariants()
    cg.charged_pages += 1
    cg.stats.hits += 1
    with pytest.raises(InvariantViolation) as raised:
        machine.check_invariants()
    # The machine's counters are its cgroups' sum, so a cgroup's
    # broken counter law breaks the machine-wide one too.
    assert str(raised.value).splitlines()[1:] == [
        "  machine: lookups 0 != hits 1 + misses 0",
        "  cgroup t: lookups 0 != hits 1 + misses 0",
        "  cgroup t: charge 1 != resident 0"]
