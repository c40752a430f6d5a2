"""``repro.obs`` — tracing and metrics for the simulated page cache.

The observability layer the paper wished it had: the real kernel only
lets you *infer* cache behaviour from disk access counts (§6.1.1), and
observing BPF programs themselves takes tracepoint-style hooks (the
eBPF runtime's own answer per Gbadamosi et al.).  The simulator can do
better, and this package is how:

* :mod:`repro.obs.trace` — :class:`Tracepoint` registry with
  near-zero-cost disabled dispatch, :class:`TraceSession` buffering +
  JSONL round-trip (the ftrace ring buffer analogue);
* :mod:`repro.obs.collectors` — bpftrace-style aggregation:
  log2 :class:`Histogram`, :class:`CgroupViews` (the one fold of
  trace events into per-cgroup, per-window counters every trace tool
  reads), inter-reference distance;
* :mod:`repro.obs.metrics` — one-call typed snapshots surfaced as
  ``Machine.metrics()`` / ``MemCgroup.metrics()``;
* :mod:`repro.obs.spans` / :mod:`repro.obs.attr` — span-based latency
  attribution: every request's virtual duration decomposed exactly
  into named components, aggregated per cgroup/policy/kind;
* :mod:`repro.obs.timeseries` — the continuous telemetry plane:
  deterministic fixed-interval frames of per-machine and per-cgroup
  metrics over virtual time, with a JSONL export;
* :mod:`repro.obs.analyze` — offline phase/warm-up/brownout episode
  detection over those frames;
* :mod:`repro.obs.guard` — the four plane checks (disabled-tracing
  overhead, breakdown, timeseries, faults) on the harness's own cells.

See DESIGN.md ("Observability") for the mapping from each tracepoint
to its real-kernel analogue.
"""

from repro.obs.attr import SpanAggregator, SpanStats, format_breakdown
from repro.obs.collectors import (CgroupView, CgroupViews, Collector,
                                  EventCounter, Histogram,
                                  InterReferenceCollector)
from repro.obs.metrics import (CgroupMetrics, MachineMetrics, PolicyMetrics,
                               snapshot_cgroup, snapshot_machine)
from repro.obs.spans import COMPONENTS, Span, SpanRecorder
from repro.obs.timeseries import (DEFAULT_SAMPLE_INTERVAL_US, FRAME_COLUMNS,
                                  MetricFrameBuffer, TimeseriesSampler,
                                  frame_totals, read_frames_jsonl,
                                  write_frames_jsonl)
from repro.obs.trace import (NULL_TRACEPOINT, TraceEvent, Tracepoint,
                             TraceRegistry, TraceSession, read_jsonl)

__all__ = [
    "Tracepoint", "TraceRegistry", "TraceSession", "TraceEvent",
    "NULL_TRACEPOINT", "read_jsonl",
    "Collector", "EventCounter", "Histogram", "CgroupView", "CgroupViews",
    "InterReferenceCollector",
    "MachineMetrics", "CgroupMetrics", "PolicyMetrics",
    "snapshot_machine", "snapshot_cgroup",
    "COMPONENTS", "Span", "SpanRecorder",
    "SpanAggregator", "SpanStats", "format_breakdown",
    "TimeseriesSampler", "MetricFrameBuffer",
    "DEFAULT_SAMPLE_INTERVAL_US", "FRAME_COLUMNS", "frame_totals",
    "read_frames_jsonl", "write_frames_jsonl",
]
