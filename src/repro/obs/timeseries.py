"""Continuous metric streams sampled on the virtual clock.

End-of-run snapshots (``Machine.metrics()``) answer "how did the run
go"; they cannot answer "when did behaviour change" — the question
behind fig6's no-policy-wins-everywhere result, behind warm-up and
flash-crowd analysis at fleet scale, and behind any adaptive policy
that needs a reward signal over time.  This module is the telemetry
plane that answers it:

* :class:`TimeseriesSampler` — a deterministic sampler driven by a
  daemon :class:`~repro.sim.engine.SimThread` that wakes at fixed
  virtual-time boundaries (``sample_interval_us``) and closes one
  *frame* per interval: counter deltas plus instantaneous gauges for
  the machine and every cgroup.  Frames are half-open windows
  ``[t, t + interval)``; the final partial window is closed by
  :meth:`~TimeseriesSampler.finalize`.
* :class:`MetricFrameBuffer` — the compact columnar store behind each
  sampled machine (one list per column, one row per (frame, scope)),
  with a JSONL export.

The event-driven counterpart — hit ratio over time from a recorded
trace, with no engine to tick a sampler in — is
:class:`repro.obs.collectors.CgroupViews` with a ``window_us``.

Determinism contract (asserted in ``tests/test_timeseries.py`` and by
``python -m repro.obs.guard timeseries``):

1. **Non-perturbation** — attaching the sampler never changes any
   virtual-time result.  The sampler thread uses a reserved negative
   ``tid`` (:data:`SAMPLER_TID`) so workload tids from the engine's
   allocator are unshifted, only waits (never charges CPU, never
   touches the cache or RNG), and reads counters that already exist.
   Its only scheduler effect is ending a burst at a frame boundary,
   which the burst invariant proves schedule-neutral.
2. **Exact totals** — frames are telescoping counter diffs from an
   all-zero baseline, so summing any integer column over a machine's
   frames reproduces the end-of-run ``Machine.metrics()`` value
   exactly (float columns like ``hook_cpu_us`` agree to accumulation
   error).  No double counting: each counter update lands in exactly
   one frame — the one open when the step that performed it was
   scheduled — and on exactly one cgroup; the machine row's counter
   columns are the sum of the frame's cgroup rows, as the machine's
   counters are the sum of its cgroups'.
3. **Reproducibility** — frames are byte-identical serial vs
   ``--jobs``, cold vs snapshot-restored and full vs replay engine (the
   sampler attaches via the cell observer in every path, against
   identical zero baselines).

Latency quantiles come from the block layer, as BCC's biolatency reads
``block_rq_complete``: the sampler subscribes to ``block:io_complete``
and folds each request's queueing wait and service time into per-frame
log2 histograms, reporting approximate p50/p99 as bucket upper bounds.
The request that emits a completion is the one that counts its pages,
so a frame that moved no pages has all-zero quantiles.  Per-request
span columns are the breakdown plane's (``--breakdown``), not frames'.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from repro.kernel.stats import CacheStats, left_sum
from repro.obs.collectors import Histogram
from repro.obs.trace import TraceEvent

#: Default frame width: 10 virtual milliseconds.
DEFAULT_SAMPLE_INTERVAL_US = 10_000.0


def sample_interval(value, name: str = "sample interval") -> float:
    """``value`` as a frame width in virtual µs, or ``ValueError``.

    Only a positive, finite width is a cadence: at NaN the sampler's
    clock never reaches a frame boundary, and at infinity the frames
    artifact would carry a non-JSON ``Infinity``.
    """
    interval = float(value)
    if not interval > 0:
        raise ValueError(f"{name} must be positive: {value}")
    if interval == math.inf:
        raise ValueError(f"{name} must be finite: {value}")
    return interval


#: Reserved tid for sampler threads.  The engine hands workload
#: threads tids from ``itertools.count(1000)``; taking one of those for
#: the sampler would shift every later tid by one and perturb
#: tid-keyed policies, so the sampler pins an id no allocator emits.
SAMPLER_TID = -1

FRAME_FORMAT = "repro.obs.timeseries"
FRAME_VERSION = 2

#: Per-scope counter deltas: the full CacheStats field set (cgroup
#: rows: that cgroup's counters; machine row: the sum of the frame's
#: cgroup rows).  Field order is the dataclass definition order —
#: stable and explicit.
STAT_COLUMNS = tuple(CacheStats.__dataclass_fields__)

#: Per-scope block-I/O page deltas (machine row: device totals; cgroup
#: rows: pages issued by that cgroup's threads).
IO_COLUMNS = ("io_read_pages", "io_write_pages")

#: Instantaneous gauges read at the frame's closing boundary.  On the
#: machine row ``charged_pages`` is total resident pages (the sum over
#: cgroups — charging is flat, see MemCgroup.charge) and ``health`` the
#: minimum attached-policy health.
GAUGE_COLUMNS = ("charged_pages", "health")

#: Machine-row-only columns (zero on cgroup rows): device request
#: deltas, the queue-depth gauge, fault-plane visibility and per-frame
#: device latency quantiles from block completions.
MACHINE_COLUMNS = ("disk_reads", "disk_writes", "disk_busy_us",
                   "disk_errors", "queue_depth", "active_faults",
                   "faults_fired",
                   "device_wait_p50_us", "device_wait_p99_us",
                   "device_service_p50_us", "device_service_p99_us")

#: Columns whose per-frame values are deltas (summable over frames);
#: everything else is identity or a gauge.
DELTA_COLUMNS = (STAT_COLUMNS + IO_COLUMNS
                 + ("disk_reads", "disk_writes", "disk_busy_us",
                    "disk_errors", "faults_fired"))

#: Full column order of one frame row.
FRAME_COLUMNS = (("t_us", "dur_us", "scope") + STAT_COLUMNS + IO_COLUMNS
                 + GAUGE_COLUMNS + MACHINE_COLUMNS)


def _hist_quantile(hist: Histogram, q: float) -> float:
    """Approximate quantile of a log2 histogram: the upper bound of the
    bucket where the cumulative count crosses ``q`` (deterministic, and
    an upper bound like the histogram itself)."""
    if hist.count == 0:
        return 0.0
    target = q * hist.count
    seen = 0
    for index in sorted(hist.buckets):
        seen += hist.buckets[index]
        if seen >= target:
            _lo, hi = Histogram.bucket_bounds(index)
            return float(hi)
    _lo, hi = Histogram.bucket_bounds(max(hist.buckets))
    return float(hi)


class MetricFrameBuffer:
    """Columnar frame store for one sampled machine.

    One list per column of :data:`FRAME_COLUMNS`; a frame appends one
    row per scope (the machine row first, then every cgroup in
    creation order).  Lists of primitives keep the buffer compact and
    make the JSONL export trivial.
    """

    __slots__ = ("columns", "n_frames")

    def __init__(self) -> None:
        self.columns: dict[str, list] = {c: [] for c in FRAME_COLUMNS}
        self.n_frames = 0

    def __len__(self) -> int:
        return len(self.columns["t_us"])

    def append_row(self, values: dict) -> None:
        for column in FRAME_COLUMNS:
            self.columns[column].append(values.get(column, 0))

    def rows(self) -> list[dict]:
        """The buffer as row dicts (the JSONL row shape, no cell tag)."""
        cols = self.columns
        return [{c: cols[c][i] for c in FRAME_COLUMNS}
                for i in range(len(self))]

    def to_doc(self) -> dict:
        return {"n_frames": self.n_frames, "columns": dict(self.columns)}


class _MachineStream:
    """Sampler state for one machine: baselines, latency histograms and
    the frame buffer."""

    def __init__(self, machine, interval_us: float) -> None:
        self.machine = machine
        self.interval_us = interval_us
        self.buffer = MetricFrameBuffer()
        self.last_boundary = 0.0
        self.finalized = False
        # Telescoping baselines.  At attach every counter is zero in
        # both the cold and the snapshot-restored build path (the bulk
        # load never enters the engine), which is what makes frame
        # sums equal the end-of-run metrics exactly; a cgroup's first
        # row diffs against zero, the disk's against its state here.
        d = machine.disk.stats
        self._prev_disk = {"reads": d.reads, "writes": d.writes,
                           "read_pages": d.read_pages,
                           "write_pages": d.write_pages,
                           "busy_us": d.busy_us, "errors": d.errors}
        self._prev_cgroup: dict[str, dict] = {}
        self._prev_io: dict[str, tuple] = {}
        self._prev_fired = 0
        # Per-frame latency histograms, reset at each close.
        self._wait_hist = Histogram()
        self._service_hist = Histogram()
        self._io_tp = machine.trace.tracepoint("block:io_complete")
        self._io_tp.subscribe(self._on_io)
        machine.engine.spawn(
            "obs:timeseries", self._step, cgroup=machine.root_cgroup,
            tid=SAMPLER_TID, start_us=interval_us, daemon=True)

    # -- engine-side ---------------------------------------------------
    def _step(self, thread) -> bool:
        self.close_frame(thread.clock_us)
        thread.wait_until(thread.clock_us + self.interval_us)
        return True

    def _on_io(self, event: TraceEvent) -> None:
        data = event.data
        self._wait_hist.record(data["wait_us"])
        self._service_hist.record(data["service_us"])

    # -- frame assembly ------------------------------------------------
    def close_frame(self, now_us: float) -> None:
        if now_us <= self.last_boundary:
            return
        machine = self.machine
        t_us, dur_us = self.last_boundary, now_us - self.last_boundary
        per_cgroup_io = machine.disk.per_cgroup

        # Cgroup rows are assembled first so the machine row can carry
        # their counter and resident-pages sums and the minimum health;
        # appended after it.
        cgroup_rows = []
        resident = 0
        min_health = 1.0
        for memcg in machine.cgroups():
            name = memcg.name
            stats = memcg.stats.snapshot()
            prev = self._prev_cgroup.get(name)
            io = per_cgroup_io.get(memcg.id)
            io_r = io.read_pages if io is not None else 0
            io_w = io.write_pages if io is not None else 0
            prev_io = self._prev_io.get(name, (0, 0))
            policy = memcg.ext_policy
            health = (policy.health_score()
                      if policy is not None
                      and hasattr(policy, "health_score") else 1.0)
            row = {"t_us": t_us, "dur_us": dur_us, "scope": name,
                   "io_read_pages": io_r - prev_io[0],
                   "io_write_pages": io_w - prev_io[1],
                   "charged_pages": memcg.charged_pages,
                   "health": health}
            if prev is None:
                row.update(stats)
            else:
                for f in STAT_COLUMNS:
                    row[f] = stats[f] - prev[f]
            cgroup_rows.append(row)
            resident += memcg.charged_pages
            if health < min_health:
                min_health = health
            self._prev_cgroup[name] = stats
            self._prev_io[name] = (io_r, io_w)

        disk = machine.disk.stats
        prev_d = self._prev_disk
        faults = machine.faults
        fired = (sum(faults.fired.values()) if faults is not None else 0)
        machine_row = {
            "t_us": t_us, "dur_us": dur_us, "scope": "machine",
            "io_read_pages": disk.read_pages - prev_d["read_pages"],
            "io_write_pages": disk.write_pages - prev_d["write_pages"],
            "charged_pages": resident,
            "health": min_health,
            "disk_reads": disk.reads - prev_d["reads"],
            "disk_writes": disk.writes - prev_d["writes"],
            "disk_busy_us": disk.busy_us - prev_d["busy_us"],
            "disk_errors": disk.errors - prev_d["errors"],
            "queue_depth": machine.disk.busy_channels(now_us),
            "active_faults": self._active_faults(t_us, now_us),
            "faults_fired": fired - self._prev_fired,
            "device_wait_p50_us": _hist_quantile(self._wait_hist, 0.50),
            "device_wait_p99_us": _hist_quantile(self._wait_hist, 0.99),
            "device_service_p50_us":
                _hist_quantile(self._service_hist, 0.50),
            "device_service_p99_us":
                _hist_quantile(self._service_hist, 0.99),
        }
        # Machine.cache_stats over the frame: its rows summed, root first.
        for f in STAT_COLUMNS:
            machine_row[f] = left_sum(row[f] for row in cgroup_rows)

        self.buffer.append_row(machine_row)
        for row in cgroup_rows:
            self.buffer.append_row(row)
        self.buffer.n_frames += 1

        self._prev_disk = {"reads": disk.reads, "writes": disk.writes,
                           "read_pages": disk.read_pages,
                           "write_pages": disk.write_pages,
                           "busy_us": disk.busy_us,
                           "errors": disk.errors}
        self._prev_fired = fired
        self._wait_hist = Histogram()
        self._service_hist = Histogram()
        self.last_boundary = now_us

    def _active_faults(self, start_us: float, end_us: float) -> int:
        """Fault windows from the armed plan overlapping the frame
        ``[start_us, end_us)`` — the recorded fault timeline the
        analyzer cross-correlates degradation episodes against."""
        faults = self.machine.faults
        if faults is None:
            return 0
        plan = faults.plan
        n = 0
        for f in plan.device:
            if f.start_us < end_us and f.end_us > start_us:
                n += 1
        for f in plan.policy:
            if f.start_us < end_us and f.end_us > start_us:
                n += 1
        for f in plan.memory:
            if start_us <= f.at_us < end_us:
                n += 1
        return n

    def finalize(self) -> None:
        if self.finalized:
            return
        self.close_frame(self.machine.engine.now_us)
        self._io_tp.unsubscribe(self._on_io)
        self.finalized = True


class TimeseriesSampler:
    """Deterministic fixed-interval metric sampler for one or more
    machines (one daemon thread and one frame buffer per machine).

    Usage (any machine, directly)::

        sampler = TimeseriesSampler(interval_us=10_000.0)
        sampler.attach(machine)
        ...  # run the workload
        sampler.finalize()
        sampler.write_jsonl("frames.jsonl")

    or let the parallel runner / :func:`repro.api.run` drive it via
    ``--timeseries`` / ``timeseries=True``.
    """

    def __init__(self,
                 interval_us: float = DEFAULT_SAMPLE_INTERVAL_US) -> None:
        self.interval_us = sample_interval(interval_us)
        self.streams: list[_MachineStream] = []

    def attach(self, machine) -> "TimeseriesSampler":
        self.streams.append(_MachineStream(machine, self.interval_us))
        return self

    def finalize(self) -> None:
        """Close each machine's tail partial frame and detach from the
        block tracepoint.  Idempotent."""
        for stream in self.streams:
            stream.finalize()

    @property
    def frames_recorded(self) -> int:
        return sum(s.buffer.n_frames for s in self.streams)

    def to_doc(self) -> dict:
        """JSON-safe document: meta plus one columnar buffer per
        machine (in attach order)."""
        return {
            "format": FRAME_FORMAT,
            "version": FRAME_VERSION,
            "interval_us": self.interval_us,
            "machines": [s.buffer.to_doc() for s in self.streams],
        }

    def write_jsonl(self, path_or_file, cell: str = "") -> int:
        """Export as frames JSONL (see :func:`write_frames_jsonl`);
        returns the number of rows written."""
        return write_frames_jsonl({cell: self.to_doc()}, path_or_file)


# ----------------------------------------------------------------------
# artifact I/O
# ----------------------------------------------------------------------
def _doc_rows(docs: dict):
    """Yield ``(cell, machine_index, row_dict)`` over a ``{cell: doc}``
    mapping, cells in sorted order — the canonical row order every
    export uses, making artifacts byte-identical serial vs ``--jobs``."""
    for cell in sorted(docs):
        doc = docs[cell]
        for mi, machine_doc in enumerate(doc.get("machines", ())):
            cols = machine_doc["columns"]
            for i in range(len(cols["t_us"])):
                yield cell, mi, {c: cols[c][i] for c in FRAME_COLUMNS}


def write_frames_jsonl(docs: dict, path_or_file) -> int:
    """Write a ``{cell_id: to_doc()}`` mapping as frames JSONL.

    Line 1 is a meta record (format/version/interval/cells); every
    following line is one frame row tagged with its cell and machine
    index.  Keys sorted, compact separators — deterministic bytes.
    """
    close = False
    fh = path_or_file
    if isinstance(path_or_file, str):
        fh = open(path_or_file, "w")
        close = True
    try:
        intervals = {doc.get("interval_us") for doc in docs.values()}
        meta = {
            "format": FRAME_FORMAT,
            "version": FRAME_VERSION,
            "interval_us": (intervals.pop() if len(intervals) == 1
                            else None),
            "cells": sorted(docs),
        }
        fh.write(json.dumps(meta, sort_keys=True,
                            separators=(",", ":")) + "\n")
        n = 0
        for cell, mi, row in _doc_rows(docs):
            record = {"cell": cell, "machine": mi, **row}
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")
            n += 1
        return n
    finally:
        if close:
            fh.close()


def read_frames_jsonl(path_or_file) -> tuple:
    """Load a frames JSONL artifact; returns ``(meta, rows)`` where
    rows are plain dicts (with ``cell`` and ``machine`` tags)."""
    close = False
    fh = path_or_file
    if isinstance(path_or_file, str):
        fh = open(path_or_file)
        close = True
    try:
        meta = None
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if meta is None:
                if record.get("format") != FRAME_FORMAT:
                    raise ValueError(
                        f"not a {FRAME_FORMAT} artifact: first record "
                        f"has format={record.get('format')!r}")
                meta = record
            else:
                rows.append(record)
        if meta is None:
            raise ValueError("empty frames file")
        return meta, rows
    finally:
        if close:
            fh.close()


def frame_totals(rows, scope: str = "machine", cell: Optional[str] = None,
                 machine: Optional[int] = None) -> dict:
    """Fold frame rows back into run totals for one scope.

    Returns ``{"frames": n, "totals": {delta column -> sum}, "last":
    {gauge column -> last value}}``.  Integer totals reproduce the
    end-of-run ``Machine.metrics()`` counters exactly (the telescoping
    no-double-counting contract); float totals agree to accumulation
    error.
    """
    totals: dict = {c: 0 for c in DELTA_COLUMNS}
    last: dict = {c: 0 for c in GAUGE_COLUMNS}
    n = 0
    for row in rows:
        if row.get("scope") != scope:
            continue
        if cell is not None and row.get("cell") != cell:
            continue
        if machine is not None and row.get("machine") != machine:
            continue
        for c in DELTA_COLUMNS:
            totals[c] += row.get(c, 0)
        for c in GAUGE_COLUMNS:
            last[c] = row.get(c, 0)
        n += 1
    return {"frames": n, "totals": totals, "last": last}

