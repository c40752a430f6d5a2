"""Metric collectors: bpftrace-style aggregation over tracepoints.

bpftrace's power comes from aggregating events in place (``hist()``,
``count()``, per-key maps) instead of shipping every event to
userspace.  These collectors do the same: each declares the
tracepoints it consumes and folds events into a compact summary while
a :class:`~repro.obs.trace.TraceSession` is active.

* :class:`Histogram` — log2-bucketed, like bpftrace ``hist()``;
* :class:`EventCounter` — per-tracepoint event counts;
* :class:`IoLatencyCollector` — per-cgroup I/O latency histograms
  (``biolatency`` over the simulated block device);
* :class:`InterReferenceCollector` — per-cgroup inter-reference
  distance (accesses between successive touches of the same page),
  the locality profile cache-policy papers plot.

The event-driven hit-ratio-over-time collector lives with the
telemetry plane: :class:`repro.obs.timeseries.LookupTimeline`.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterable

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


class WindowedSeries:
    """Fixed-window time series of (numerator, denominator) pairs.

    Feeds the "X over time" collectors: each sample lands in the
    virtual-time window containing its timestamp; :meth:`series`
    returns one point per non-empty window.  Windows are aligned to
    multiples of ``window_us`` so identical runs bucket identically.

    Window boundaries are **half-open**: window ``k`` covers
    ``[k * window_us, (k + 1) * window_us)``, so a sample timestamped
    exactly at a boundary belongs to the *following* window
    (``int(ts // window)``).  The sampler frames in
    :mod:`repro.obs.timeseries` use the same ``[t, t + interval)``
    convention; ``tests/test_timeseries.py`` pins both.
    """

    __slots__ = ("window_us", "_windows")

    def __init__(self, window_us: float) -> None:
        if window_us <= 0:
            raise ValueError(f"window must be positive: {window_us}")
        self.window_us = window_us
        self._windows: dict[int, list] = {}

    def add(self, ts_us: float, num: float = 1.0, den: float = 1.0) -> None:
        index = int(ts_us // self.window_us)
        slot = self._windows.get(index)
        if slot is None:
            self._windows[index] = [num, den]
        else:
            slot[0] += num
            slot[1] += den

    def series(self) -> list[tuple]:
        """``(window_start_us, numerator, denominator)`` per window."""
        return [(index * self.window_us, num, den)
                for index, (num, den) in sorted(self._windows.items())]

    def ratios(self) -> list[tuple]:
        """``(window_start_us, num/den)`` per window (den>0 only)."""
        return [(start, num / den) for start, num, den in self.series()
                if den > 0]


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


class IoLatencyCollector(Collector):
    """Per-cgroup log2 histogram of block I/O latency (µs).

    The ``biolatency`` of the simulator: subscribes to
    ``block:io_complete`` (whose payload carries queueing + service
    time) and keys one :class:`Histogram` per issuing cgroup.
    """

    tracepoints = ("block:io_complete",)

    def __init__(self) -> None:
        self.per_cgroup: dict[str, Histogram] = {}

    def handle(self, event: TraceEvent) -> None:
        hist = self.per_cgroup.get(event.cgroup)
        if hist is None:
            hist = self.per_cgroup[event.cgroup] = Histogram()
        hist.record(event.data.get("latency_us", 0))

    def hist(self, cgroup: str) -> Histogram:
        return self.per_cgroup.get(cgroup, Histogram())


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

