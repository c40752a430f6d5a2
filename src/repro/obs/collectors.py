"""Metric collectors: bpftrace-style aggregation over tracepoints.

bpftrace's power comes from aggregating events in place (``hist()``,
``count()``, per-key maps) instead of shipping every event to
userspace.  These collectors do the same: each declares the
tracepoints it consumes and folds events into a compact summary while
a :class:`~repro.obs.trace.TraceSession` is active.

* :class:`Histogram` — log2-bucketed, like bpftrace ``hist()``;
* :class:`EventCounter` — per-tracepoint event counts;
* :class:`CgroupViews` — the one fold of page-cache, block, cache_ext,
  fault and span events into a :class:`CgroupView` per cgroup and
  virtual-time window.  ``cachetop``, ``cachestat``, ``biolatency``,
  ``faultstat`` and the harness's ``trace`` plane all read it; it is
  also the hit-ratio-over-time signal when only a trace is available
  (the page cache "doesn't expose system-wide hit-rate metrics",
  §6.1.1);
* :class:`InterReferenceCollector` — per-cgroup inter-reference
  distance (accesses between successive touches of the same page),
  the locality profile cache-policy papers plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fnmatch import fnmatchcase
from typing import Iterable, Optional

from repro.obs.trace import TraceEvent


class Histogram:
    """A log2-bucketed histogram of non-negative integers.

    Bucket ``0`` holds exact zeros, bucket ``k`` (k >= 1) holds values
    in ``[2**(k-1), 2**k - 1]`` — the same layout bpftrace's ``hist()``
    prints.  Negative values land in bucket ``-1`` (they indicate a
    caller bug but must not crash a tracing run).  Values up to and
    beyond ``2**63`` are fine: buckets are sparse and unbounded.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0

    @staticmethod
    def bucket_of(value) -> int:
        """Bucket index for ``value`` (floats are truncated)."""
        value = int(value)
        if value < 0:
            return -1
        return value.bit_length()

    @staticmethod
    def bucket_bounds(index: int) -> tuple:
        """Inclusive ``(low, high)`` value range of a bucket."""
        if index < 0:
            return (None, -1)
        if index == 0:
            return (0, 0)
        return (1 << (index - 1), (1 << index) - 1)

    def record(self, value, weight: int = 1) -> None:
        index = self.bucket_of(value)
        self.buckets[index] = self.buckets.get(index, 0) + weight
        self.count += weight
        self.total += int(value) * weight

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def merge(self, other: "Histogram") -> None:
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total

    def to_dict(self) -> dict:
        """JSON-safe summary (string bucket labels -> counts)."""
        out = {}
        for index in sorted(self.buckets):
            lo, hi = self.bucket_bounds(index)
            label = "<0" if index < 0 else (
                "0" if index == 0 else f"{lo}..{hi}")
            out[label] = self.buckets[index]
        return out

    def format(self, width: int = 40, unit: str = "") -> str:
        """ASCII rendering in the bpftrace style."""
        if not self.buckets:
            return "(empty)"
        peak = max(self.buckets.values())
        lines = []
        for index in sorted(self.buckets):
            lo, hi = self.bucket_bounds(index)
            label = "<0" if index < 0 else (
                "[0]" if index == 0 else f"[{lo}, {hi}]")
            n = self.buckets[index]
            bar = "@" * max(1, int(round(width * n / peak)))
            lines.append(f"{label:>24s} {n:8d} |{bar}")
        if unit:
            lines.insert(0, f"({unit})")
        return "\n".join(lines)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram(count={self.count}, buckets={len(self.buckets)})"


class Collector:
    """Base class: declares tracepoints, folds events.

    Subclasses set :attr:`tracepoints` (glob patterns are fine) and
    implement :meth:`handle`.  Pass instances to
    :class:`~repro.obs.trace.TraceSession` (``collectors=[...]``) or
    attach directly with :meth:`attach`.
    """

    tracepoints: tuple = ()

    def handle(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def attach(self, source) -> "Collector":
        from repro.obs.trace import _registry_of
        registry = _registry_of(source)
        # Extend, don't reset: attaching to a second machine must not
        # orphan the first machine's subscriptions (detach would miss
        # them and leave its tracepoints enabled forever).
        attached = getattr(self, "_attached_tps", None)
        if attached is None:
            attached = self._attached_tps = []
        for pattern in self.tracepoints:
            for tp in registry.match(pattern):
                tp.subscribe(self.handle)
                attached.append(tp)
        return self

    def detach(self) -> None:
        for tp in getattr(self, "_attached_tps", ()):
            tp.unsubscribe(self.handle)
        self._attached_tps = []

    def replay(self, events: Iterable[TraceEvent]) -> "Collector":
        """Fold a recorded trace offline: every event whose name matches
        a declared tracepoint pattern, by the rule :meth:`attach` gets
        from ``TraceRegistry.match``.  Returns ``self``."""
        wanted: dict[str, bool] = {}  # a trace has few distinct names
        for event in events:
            name = event.name
            if name not in wanted:
                wanted[name] = any(fnmatchcase(name, pattern)
                                   for pattern in self.tracepoints)
            if wanted[name]:
                self.handle(event)
        return self


class EventCounter(Collector):
    """Counts events per tracepoint name (bpftrace ``count()``)."""

    tracepoints = ("*",)

    def __init__(self, *patterns: str) -> None:
        if patterns:
            self.tracepoints = patterns
        self.counts: dict[str, int] = {}

    def handle(self, event: TraceEvent) -> None:
        self.counts[event.name] = self.counts.get(event.name, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class InterReferenceCollector(Collector):
    """Per-cgroup inter-reference distance histogram.

    Distance = number of page-cache lookups (machine-wide) between two
    successive references to the same ``(file, index)`` page.  First
    touches don't contribute.  The distribution's mass relative to the
    cgroup size predicts which eviction policy can win — the analysis
    the paper runs by hand when explaining LFU's YCSB advantage.
    """

    tracepoints = ("cache:lookup",)

    def __init__(self) -> None:
        self.per_cgroup: dict[str, Histogram] = {}
        self._clock = 0
        self._last_seen: dict[tuple, int] = {}

    def handle(self, event: TraceEvent) -> None:
        self._clock += 1
        key = (event.data.get("file"), event.data.get("index"))
        if key[0] is None:
            return
        last = self._last_seen.get(key)
        self._last_seen[key] = self._clock
        if last is None:
            return
        hist = self.per_cgroup.get(event.cgroup)
        if hist is None:
            hist = self.per_cgroup[event.cgroup] = Histogram()
        hist.record(self._clock - last - 1)

    def hist(self, cgroup: str) -> Histogram:
        return self.per_cgroup.get(cgroup, Histogram())



@dataclass
class CgroupView:
    """Counters folded from one cgroup's trace events (one window)."""

    name: str
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evicts: int = 0
    refaults: int = 0
    activations: int = 0
    writebacks: int = 0
    admission_rejects: int = 0
    fallback_evictions: int = 0
    kfunc_errors: int = 0
    watchdog_detaches: int = 0
    quarantines: int = 0
    reattaches: int = 0
    io_errors: int = 0
    io_read_pages: int = 0
    io_write_pages: int = 0
    hook_cpu_us: float = 0.0
    #: Block I/O latency, queueing delay and service time (µs).
    io_latency: Histogram = field(default_factory=Histogram)
    io_wait: Histogram = field(default_factory=Histogram)
    io_service: Histogram = field(default_factory=Histogram)
    #: Injected faults by domain, and by ``domain:kind``.
    faults: dict = field(default_factory=dict)
    fault_kinds: dict = field(default_factory=dict)
    # Latency-attribution aggregates (span:close events, when the
    # trace was recorded with spans enabled).
    span_count: int = 0
    span_dur_us: float = 0.0
    device_wait_us: float = 0.0
    device_service_us: float = 0.0
    reclaim_stall_us: float = 0.0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    @property
    def unhealthy(self) -> bool:
        return bool(self.fallback_evictions or self.kfunc_errors
                    or self.watchdog_detaches)

    def merge(self, *others: "CgroupView") -> "CgroupView":
        """Add every counter of ``others`` into this view; returns
        ``self`` (``CgroupView("*").merge(*views)`` is a machine-wide
        sum)."""
        for other in others:
            for f in fields(self)[1:]:  # every field but the name
                mine = getattr(self, f.name)
                theirs = getattr(other, f.name)
                if isinstance(mine, Histogram):
                    mine.merge(theirs)
                elif isinstance(mine, dict):
                    for key, n in theirs.items():
                        mine[key] = mine.get(key, 0) + n
                else:
                    setattr(self, f.name, mine + theirs)
        return self


#: Tracepoints a view counts one per event, and the field counting them.
_COUNTED = {
    "cache:insert": "inserts", "cache:evict": "evicts",
    "cache:refault": "refaults", "cache:activation": "activations",
    "cache:writeback": "writebacks",
    "cache:admission_reject": "admission_rejects",
    "cache_ext:fallback_eviction": "fallback_evictions",
    "cache_ext:kfunc_error": "kfunc_errors",
    "cache_ext:watchdog_detach": "watchdog_detaches",
    "cache_ext:quarantine": "quarantines",
    "cache_ext:reattach": "reattaches", "block:io_error": "io_errors",
}


class CgroupViews(Collector):
    """One :class:`CgroupView` per ``(window, cgroup)``.

    Subscribes to ``patterns`` (default ``"*"``, as
    :class:`EventCounter`).  With ``window_us``, windows are
    **half-open**: window ``k`` covers ``[k * window_us, (k + 1) *
    window_us)``, so an event timestamped exactly on a boundary lands
    in the *following* window — the convention of the sampler frames
    in :mod:`repro.obs.timeseries`.  Without it every event lands in
    window 0.
    """

    tracepoints = ("*",)

    def __init__(self, *patterns: str,
                 window_us: Optional[float] = None) -> None:
        if window_us is not None and not window_us > 0:
            raise ValueError(f"window must be positive: {window_us}")
        if patterns:
            self.tracepoints = patterns
        self.window_us = window_us
        #: ``(window index, cgroup)`` -> view.
        self.views: dict[tuple, CgroupView] = {}

    def handle(self, event: TraceEvent) -> None:
        window = (0 if self.window_us is None
                  else int(event.ts_us // self.window_us))
        view = self.views.get((window, event.cgroup))
        if view is None:
            view = self.views[window, event.cgroup] = CgroupView(event.cgroup)
        name = event.name
        data = event.data
        if name == "cache:lookup":
            view.lookups += 1
            view.hits += data.get("hit", 0)
        elif name in _COUNTED:
            attr = _COUNTED[name]
            setattr(view, attr, getattr(view, attr) + 1)
        elif name == "cache_ext:hook_exit":
            view.hook_cpu_us += data.get("cpu_us", 0.0)
        elif name == "span:close":
            view.span_count += 1
            view.span_dur_us += data.get("dur_us", 0.0)
            view.device_wait_us += data.get("device_wait", 0.0)
            view.device_service_us += data.get("device_service", 0.0)
            view.reclaim_stall_us += data.get("reclaim_stall", 0.0)
        elif name == "block:io_complete":
            pages = data.get("pages", 0)
            if data.get("op") == "write":
                view.io_write_pages += pages
            else:
                view.io_read_pages += pages
            view.io_latency.record(data.get("latency_us", 0))
            view.io_wait.record(data.get("wait_us", 0))
            view.io_service.record(data.get("service_us", 0))
        elif name == "fault:inject":
            domain = data.get("domain", "?")
            kind = f"{domain}:{data.get('kind', '?')}"
            view.faults[domain] = view.faults.get(domain, 0) + 1
            view.fault_kinds[kind] = view.fault_kinds.get(kind, 0) + 1

    def windows(self) -> list[tuple]:
        """``(window_start_us, {cgroup: view})`` per non-empty window,
        in time order (one window starting at 0.0 when unwindowed)."""
        grouped: dict[int, dict] = {}
        for window, cgroup in sorted(self.views, key=lambda key: key[0]):
            grouped.setdefault(window, {})[cgroup] = self.views[window, cgroup]
        width = self.window_us or 0.0
        return [(window * width, views) for window, views in grouped.items()]

    def cgroups(self) -> dict[str, CgroupView]:
        """``{cgroup: view}`` over the whole run (windows merged)."""
        merged: dict[str, CgroupView] = {}
        for _start, views in self.windows():
            for cgroup, view in views.items():
                merged.setdefault(cgroup, CgroupView(cgroup)).merge(view)
        return merged
