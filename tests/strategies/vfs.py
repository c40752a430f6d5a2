"""Range reads: a small file with some pages already resident, a range
inside it, read by a cgroup small enough to evict, with or without a
cache_ext policy and an fadvise hint."""

from dataclasses import dataclass
from typing import Optional

from hypothesis import strategies as st

from repro.cache_ext import load_policy
from repro.kernel import FAdvice, Machine
from repro.obs.trace import TraceSession
from repro.policies import GENERIC_POLICIES

NPAGES_MAX = 40

EXT_POLICIES = {"mru": GENERIC_POLICIES["mru"],
                "lfu": GENERIC_POLICIES["lfu"]}


@dataclass(frozen=True)
class RangeCase:
    #: File size in pages.
    npages: int
    limit: int
    #: Pages read one by one first, in this order: the pre-resident
    #: set, and the readahead state the range read starts from.
    resident: tuple
    start: int
    count: int
    ext_policy: Optional[str]
    #: ``"random"`` (readahead off), ``"noreuse"`` (hits leave recency
    #: alone) or no advice.
    advice: Optional[str]


@st.composite
def range_cases(draw) -> RangeCase:
    npages = draw(st.integers(1, NPAGES_MAX))
    start = draw(st.integers(0, npages - 1))
    return RangeCase(
        npages=npages,
        limit=draw(st.sampled_from((8, 16, 64))),
        resident=tuple(draw(st.lists(st.integers(0, npages - 1),
                                     max_size=20))),
        start=start,
        count=draw(st.integers(0, npages - start)),
        ext_policy=draw(st.sampled_from((None, "mru", "lfu"))),
        advice=draw(st.sampled_from((None, "random", "noreuse"))))


def observe_range(case: RangeCase, read) -> dict:
    """Build the case's machine, call ``read(fs, f, start, count)`` from
    an engine thread with ``cache:lookup`` and ``span:close``
    subscribed, and return everything the call can be told apart by
    (``spans``: the ``span:close`` payloads)."""
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=case.limit)
    f = machine.fs.create("data")
    for i in range(case.npages):
        f.store[i] = ("page", i)
    f.npages = case.npages
    if case.ext_policy is not None:
        load_policy(machine, cg, EXT_POLICIES[case.ext_policy]())
    if case.advice is not None:
        machine.fs.fadvise(f, FAdvice(case.advice))

    def setup(thread, it=iter(case.resident)) -> bool:
        index = next(it, None)
        if index is None:
            return False
        machine.fs.read_page(f, index)
        return True

    machine.spawn("setup", setup, cgroup=cg)
    machine.run()

    out = {}

    def reader(thread) -> bool:
        out["values"] = read(machine.fs, f, case.start, case.count)
        return False

    with TraceSession(machine, "cache:lookup", "span:close") as session:
        thread = machine.spawn("reader", reader, cgroup=cg)
        machine.run()
    policy = cg.ext_policy
    return dict(
        out,
        resident=[(fo.index, fo.active, fo.referenced)
                  for fo in sorted(f.mapping.folios(),
                                   key=lambda fo: fo.index)],
        clock=(thread.clock_us, thread.cpu_us),
        stats=cg.stats.snapshot(), disk=machine.disk.stats,
        charged=cg.charged_pages,
        ext_lists=policy is not None and [
            [fo.index for fo in lst.folios()] for lst in policy.lists],
        lookups=[(e.data["index"], e.data["hit"])
                 for e in session.events if e.name == "cache:lookup"],
        spans=[e.data for e in session.events if e.name == "span:close"])
