"""Outside-in layer tracer.

Substitutes timing wrappers for the public callables at each layer
boundary of ``repro`` (class attributes, and module functions under
every name a ``repro`` module imported them by — policy modules hold
their own references to the kfuncs).  Nothing inside ``src/`` is
edited: every layer is measured by timing calls into it.

Each wrapped call records one span — name, start, end, parent span,
request id — in memory.  Spans of one engine step share that step's
sequence number as request id.  A span's *self time* is its duration
minus the part its child spans cover; with one host thread the
children are disjoint, so the cover is their summed duration.  A
wrapper costs about a microsecond, as much as the cheapest calls it
times, so :func:`span_cost` measures that cost on a wrapped no-op and
:class:`Summary` takes it back out of every self time.

What this cannot see: policy program bodies (they run inside the
``cache_ext.framework`` and ``cache_ext.kfuncs`` spans that dispatch
them) and the registry/charge code hand-inlined into kfuncs and hooks.
Those need spans inside the program — a later issue.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from collections import Counter

from repro import snapshot
from repro.apps.lsm.db import LsmDb
from repro.apps.lsm.memtable import MemTable
from repro.apps.lsm.sstable import SSTable
from repro.cache_ext import kfuncs
from repro.cache_ext.framework import CacheExtPolicy
from repro.ebpf import verifier
from repro.ebpf.maps import ArrayMap, HashMap, LruHashMap
from repro.experiments import harness, parallel
from repro.kernel.block import BlockDevice
from repro.kernel.default_policy import DefaultLruPolicy
from repro.kernel.mglru import MgLruPolicy
from repro.kernel.page_cache import PageCache
from repro.kernel.vfs import Filesystem
from repro.replay import ReplayEngine
from repro.sim.engine import Engine
from repro.workloads import streams


def _methods(layer: str, owner, *attrs, prefix: str = "") -> list:
    return [(owner, attr, f"{layer}.{prefix}{attr}") for attr in attrs]


#: (owner, attribute, span name).  The span name's layer is everything
#: before its last dot.
BOUNDARIES = [
    *_methods("workloads", streams, "ycsb_stream"),
    *_methods("apps.lsm", LsmDb, "get", "put", "scan", "flush_memtable",
              "compaction_step", "bulk_load"),
    *_methods("apps.lsm", SSTable, "get", "may_contain", prefix="sstable_"),
    *_methods("apps.lsm", MemTable, "get", prefix="memtable_"),
    *_methods("kernel.vfs", Filesystem, "read_page", "read_range",
              "write_page", "append_page", "fsync"),
    *_methods("kernel.page_cache", PageCache, "mark_accessed", "add_folio",
              "reclaim_cgroup", "evict_folio"),
    *_methods("kernel.policy", DefaultLruPolicy, "folio_inserted",
              "folio_accessed", "folio_removed", "evict_candidates"),
    *_methods("kernel.policy", MgLruPolicy, "folio_inserted",
              "folio_accessed", "folio_removed", "evict_candidates"),
    *_methods("cache_ext.framework", CacheExtPolicy, "folio_added",
              "folio_accessed", "folio_removed", "folios_removed",
              "propose_candidates", "admit"),
    *_methods("cache_ext.kfuncs", kfuncs, "list_add", "list_del",
              "list_move", "list_iterate"),
    *_methods("ebpf.maps", HashMap, "lookup", "update", "delete",
              "atomic_add"),
    *_methods("ebpf.maps", LruHashMap, "lookup"),
    *_methods("ebpf.maps", ArrayMap, "lookup", "update", "atomic_add"),
    *_methods("ebpf.verifier", verifier, "verify_program"),
    *_methods("kernel.block", BlockDevice, "read", "write"),
    *_methods("sim.engine", Engine, "run"),
    *_methods("replay", ReplayEngine, "run"),
    *_methods("experiments.harness", harness, "make_db_env",
              "build_machine", "attach_policy"),
    *_methods("experiments.harness", parallel, "execute"),
    *_methods("experiments.harness", harness.ExperimentResult,
              "format_table"),
    *_methods("snapshot", snapshot, "get_or_capture", "capture", "restore"),
]

#: Span names of simulated-thread steps, by who spawned the thread.
STEP_WORKLOAD = "workloads.step"
STEP_COMPACTION = "apps.lsm.compaction_thread_step"
STEP_POLICY_AGENT = "cache_ext.framework.agent_step"


def _step_name(thread_name: str) -> str:
    if thread_name.endswith("-compaction"):
        return STEP_COMPACTION
    if thread_name.endswith("-agent") or thread_name.endswith("-drainer"):
        return STEP_POLICY_AGENT
    return STEP_WORKLOAD


def layer_of(span_name: str) -> str:
    return span_name.rpartition(".")[0]


class NullTracer:
    """Tracing off: the workloads' own span points cost nothing."""

    def wrap(self, fn, name):
        return fn

    def mark(self) -> int:
        return 0


class Tracer:
    """Records spans through wrappers installed by :meth:`install`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One column per span field; a span is an index into them.
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self._stack = [-1]
        #: Engine-step sequence number of the step being run (0 outside
        #: any step): the request id spans of one step share.
        self._request = [0]
        self._steps = 0
        self._patched: list = []
        #: Results the boundary table cannot express as a span count.
        self.tallies: Counter = Counter()
        #: Machines handed out by ``snapshot.restore`` (sweep cells).
        self.restored_machines: list = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, on_result=None):
        """``fn`` with a span around every call.  ``functools.wraps``
        carries ``__name__`` and the ``__bpf_kfunc__`` marker over, so
        the verifier still accepts policies that call a wrapped kfunc."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, request = self.parent, self.request
        stack, current_request = self._stack, self._request
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(current_request[0])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_step(self, step_fn, name: str):
        traced = self.wrap(step_fn, name)
        current_request = self._request

        def step(thread):
            self._steps += 1
            current_request[0] = self._steps
            try:
                return traced(thread)
            finally:
                current_request[0] = 0

        return step

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Swap every boundary callable for its wrapper.  Call after a
        warm-up repetition, so lazily imported ``repro`` modules already
        hold their references, and before the machine is built."""
        on_result = {
            "kernel.policy.evict_candidates": lambda folios:
                self.tallies.update({"kernel.policy.candidates": len(folios)}),
            "snapshot.restore": lambda restored:
                self.restored_machines.append(restored[0]),
        }
        for owner, attr, name in BOUNDARIES:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            traced = self.wrap(fn, name, on_result.get(name))
            if isinstance(raw, staticmethod):
                traced = staticmethod(traced)
            if isinstance(owner, type):
                self._patch(owner, attr, raw, traced)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, alias, raw, traced)
        spawn = Engine.spawn

        @functools.wraps(spawn)
        def traced_spawn(engine, name, step_fn, *args, **kwargs):
            return spawn(engine, name,
                         self._wrap_step(step_fn, _step_name(name)),
                         *args, **kwargs)

        self._patch(Engine, "spawn", spawn, traced_spawn)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Index the next span will get (a phase boundary)."""
        return len(self.start)

    def write_jsonl_gz(self, path, origin: float) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            chunk = []
            for i, (nid, s, e, p, r) in enumerate(zip(
                    self.name_id, self.start, self.end, self.parent,
                    self.request)):
                chunk.append(
                    f'{{"id":{i},"name":"{names[nid]}",'
                    f'"start":{s - origin:.9f},"end":{e - origin:.9f},'
                    f'"parent":{p},"request":{r}}}\n')
                if len(chunk) == 20000:
                    out.write("".join(chunk))
                    chunk.clear()
            out.write("".join(chunk))


def self_times(start, end, parent, first: int = 0, last=None) -> list[float]:
    """Duration minus children's cover, for the spans ``first <= i <
    last`` (a parent before ``first`` is left alone).  Children of one
    parent never overlap (one host thread), so the cover is a sum."""
    last = len(start) if last is None else last
    own = [end[i] - start[i] for i in range(first, last)]
    for i in range(first, last):
        if parent[i] >= first:
            own[parent[i] - first] -= end[i] - start[i]
    return own


def span_cost(batches: int = 9, calls: int = 2000) -> tuple:
    """What one wrapper adds, in wall seconds: ``(inside, outside)`` —
    the part that falls inside its own span and the part that lands in
    its parent's self time.  Median over batches of a wrapped no-op
    against the bare no-op."""
    scratch = Tracer()

    def noop(a, b):
        return None

    traced = scratch.wrap(noop, "noop")
    clock = time.perf_counter
    inside, outside = [], []
    for _ in range(batches):
        first = scratch.mark()
        t0 = clock()
        for _ in range(calls):
            noop(1, 2)
        t1 = clock()
        for _ in range(calls):
            traced(1, 2)
        t2 = clock()
        own = sum(scratch.end[first:]) - sum(scratch.start[first:])
        inside.append(own / calls)
        outside.append(((t2 - t1) - (t1 - t0) - own) / calls)
    return statistics.median(inside), statistics.median(outside)


class Summary:
    """Per-name counts and self/total seconds over one phase (the spans
    ``first <= i < last``; a parent before ``first`` counts as none).
    ``cost`` is :func:`span_cost`'s pair; self times come net of it."""

    def __init__(self, tracer: Tracer, first: int, last: int,
                 cost: tuple = (0.0, 0.0)) -> None:
        self._tracer, self._first, self._last = tracer, first, last
        names = tracer.names
        n = len(names)
        name_id, parent = tracer.name_id, tracer.parent
        start, end = tracer.start, tracer.end
        own = self_times(start, end, parent, first, last)
        count, self_s, total_s = [0] * n, [0.0] * n, [0.0] * n
        under = [[0] * n for _ in range(n)]
        covered = 0.0
        for i in range(first, last):
            nid = name_id[i]
            duration = end[i] - start[i]
            count[nid] += 1
            self_s[nid] += own[i - first]
            total_s[nid] += duration
            p = parent[i]
            if p < first:
                covered += duration
            else:
                under[name_id[p]][nid] += 1
        inside, outside = cost
        self_s = [max(0.0, own_s - calls * inside - sum(children) * outside)
                  for own_s, calls, children in zip(self_s, count, under)]
        self.spans = last - first
        #: Wall seconds the wrappers themselves added to the phase.
        self.overhead_s = self.spans * (inside + outside)
        #: Seconds covered by spans that have no parent in the phase.
        self.covered_s = covered
        self.count = Counter(dict(zip(names, count)))
        self.self_s = Counter(dict(zip(names, self_s)))
        self.total_s = Counter(dict(zip(names, total_s)))
        #: (parent name, name) -> calls made directly under that parent.
        self.count_under = Counter({
            (names[a], names[b]): under[a][b]
            for a in range(n) for b in range(n) if under[a][b]})

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items()
                   if layer_of(name) == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.count.items()
                   if layer_of(name) == layer)

    def _walk(self, ancestors: tuple):
        """Yield ``(index, name, nested)`` over the phase, ``nested``
        telling whether some ancestor span is named in ``ancestors``."""
        tracer, first = self._tracer, self._first
        names, name_id, parent = tracer.names, tracer.name_id, tracer.parent
        wanted = {i for i, name in enumerate(names) if name in ancestors}
        nested = [False] * (self._last - first)
        for i in range(first, self._last):
            p = parent[i]
            if p >= first:
                nested[i - first] = (nested[p - first]
                                     or name_id[p] in wanted)
            yield i, names[name_id[i]], nested[i - first]

    def count_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` at any depth below an ``ancestor`` span."""
        return sum(1 for _i, span_name, nested in self._walk((ancestor,))
                   if nested and span_name == name)

    def outermost_s(self, *names: str) -> float:
        """Summed duration of the spans named in ``names`` that are not
        nested inside another of them."""
        tracer = self._tracer
        return sum(tracer.end[i] - tracer.start[i]
                   for i, span_name, nested in self._walk(names)
                   if not nested and span_name in names)
