"""Single evictions: one target folio brought into a chosen state —
clean or dirty, cold, active or refault-activated — on a small full
cgroup, under each kernel policy and a few cache_ext policies, with
and without the consumers that change which code runs (an open span,
the eviction tracepoints, a device that fails the writeback)."""

from dataclasses import dataclass
from typing import Optional

from hypothesis import strategies as st

from repro.cache_ext import load_policy
from repro.faults.plan import DeviceFault, FaultPlan
from repro.kernel import Machine
from repro.kernel.errors import EBUSY
from repro.obs.trace import TraceSession
from repro.policies import GENERIC_POLICIES, make_noop_policy

LIMIT = 16
NPAGES = 48
#: The page whose folio is evicted; the history draws from the rest.
TARGET = 0

EXT_POLICIES = {"noop": make_noop_policy, "lfu": GENERIC_POLICIES["lfu"]}


@dataclass(frozen=True)
class EvictionCase:
    kernel_policy: str
    ext_policy: Optional[str]
    #: ``(kind, index)`` reads and writes of other pages, run first.
    history: tuple
    #: Read the target, push it out with a scan, read it again: the
    #: refault activates it and marks it workingset.
    refault: bool
    #: Extra reads of the resident target (two promote it).
    touches: int
    dirty: bool
    #: Evict inside an open span (``reclaim_stall`` attribution, the
    #: block layer's completion-record path).
    span: bool
    #: ``cache:evict`` and ``cache:writeback`` subscribed.
    traced: bool
    #: Every device write fails: a dirty target stays put.
    eio: bool
    #: What makes the call refuse: a pin, another cgroup as the owner
    #: named, a folio already evicted — or nothing.
    refusal: Optional[str]


def eviction_cases() -> st.SearchStrategy:
    others = st.integers(1, NPAGES - 1)
    history = st.lists(
        st.tuples(st.sampled_from(("read", "read", "write")), others),
        max_size=40).map(tuple)
    return st.builds(
        EvictionCase,
        kernel_policy=st.sampled_from(("default", "mglru")),
        ext_policy=st.sampled_from((None, "noop", "lfu")),
        history=history,
        refault=st.booleans(),
        touches=st.integers(0, 3),
        dirty=st.booleans(),
        span=st.booleans(),
        traced=st.booleans(),
        eio=st.booleans(),
        refusal=st.sampled_from((None, None, None, "pinned", "foreign",
                                 "evicted")))


def observe(case: EvictionCase, evict) -> dict:
    """Build the case's machine, call ``evict(cache, folio, memcg)`` on
    the target from an engine thread, and return everything the call
    can be told apart by."""
    machine = Machine(kernel_policy=case.kernel_policy)
    cg = machine.new_cgroup("t", limit_pages=LIMIT)
    other = machine.new_cgroup("other", limit_pages=LIMIT)
    f = machine.fs.create("data")
    for i in range(NPAGES):
        f.store[i] = i
    f.npages = NPAGES
    f.ra_enabled = False
    if case.ext_policy is not None:
        load_policy(machine, cg, EXT_POLICIES[case.ext_policy]())

    ops = list(case.history)
    if case.refault:
        ops.append(("read", TARGET))
        ops.extend(("read", i) for i in range(1, LIMIT + 10))
    ops.extend([("read", TARGET)] * (1 + case.touches))
    if case.dirty:
        ops.append(("write", TARGET))

    def setup(thread, it=iter(ops)) -> bool:
        op = next(it, None)
        if op is None:
            return False
        kind, index = op
        if kind == "read":
            machine.fs.read_page(f, index)
        else:
            machine.fs.write_page(f, index, "w")
        return True

    machine.spawn("setup", setup, cgroup=cg)
    machine.run()
    folio = f.mapping.lookup(TARGET)
    before = dict(active=folio.active, workingset=folio.workingset,
                  dirty=folio.dirty)

    if case.eio:
        machine.arm_faults(FaultPlan(seed=1, device=(
            DeviceFault(kind="eio", prob=1.0, ops=("write",)),)))
    patterns = (["span:close"] if case.span else []) \
        + (["cache:evict", "cache:writeback"] if case.traced else [])
    session = TraceSession(machine, *patterns) if patterns else None
    cache = machine.page_cache
    outcome = {}

    def evictor(thread) -> bool:
        span = machine.spans.open(thread, "test.evict") \
            if case.span else None
        if case.refusal == "pinned":
            folio.pin()
        elif case.refusal == "evicted":
            evict(cache, folio, cg)
        try:
            outcome["returned"] = evict(
                cache, folio, other if case.refusal == "foreign" else cg)
        except EBUSY as exc:
            outcome["raised"] = str(exc)
        if span is not None:
            machine.spans.close(thread, span)
        return False

    thread = machine.spawn("evictor", evictor, cgroup=cg)
    if session is not None:
        session.start()
    machine.run()
    if session is not None:
        session.stop()

    policy = cg.ext_policy
    shadow = f.mapping.peek_shadow(TARGET)
    return dict(
        outcome, before=before,
        clock=(thread.clock_us, thread.cpu_us, machine.now_us),
        stats=cg.stats.snapshot(), machine_stats=machine.metrics().stats,
        disk=machine.disk.stats,
        charged=cg.charged_pages, eviction_clock=cg.eviction_clock,
        resident=folio.mapping is not None, dirty=folio.dirty,
        shadow=shadow and (shadow.memcg_id == cg.id, *shadow[1:]),
        on_kernel_list=folio.lru_node is not None,
        registered=policy is not None and policy.holds_reference(folio),
        ext_lists=policy is not None and [
            [fo.index for fo in lst.folios()] for lst in policy.lists],
        events=session.events if session is not None else [],
        kernel_order=[fo.index for fo
                      in cg.kernel_policy.evict_candidates(NPAGES)])
