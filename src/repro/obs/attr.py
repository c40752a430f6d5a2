"""Latency-attribution aggregation over ``span:close`` events.

:mod:`repro.obs.spans` emits one event per request whose components
sum exactly to the request's virtual duration; this module folds those
events into the answers people actually ask:

* :class:`SpanAggregator` — a :class:`~repro.obs.collectors.Collector`
  keyed by ``(cgroup, policy, span kind)``: counts, total duration,
  per-component sums and per-component log2 µs histograms.  Attach it
  to a live machine (which *enables* spans, per the tracepoint
  contract) or :meth:`~SpanAggregator.replay` a recorded trace.
* :func:`SpanAggregator.collapsed` — flamegraph-style collapsed
  stacks, one line per ``cgroup;policy;kind;component`` with integer
  microseconds, ready for ``flamegraph.pl``.
* :func:`format_breakdown` — the human table: where every virtual
  microsecond of each request class went, in percent.

Everything here is deterministic: dict insertion order never leaks
into output (all serialisations sort), so two identical runs — or a
serial and a parallel run of the same experiment plan — produce
byte-identical artifacts.
"""

from __future__ import annotations

from repro.obs.collectors import Collector, Histogram
from repro.obs.spans import COMPONENTS
from repro.obs.trace import TraceEvent

#: Payload fields of a ``span:close`` event that are not components.
_META_FIELDS = ("span", "policy", "dur_us")


class SpanStats:
    """Aggregate state for one ``(cgroup, policy, kind)`` key."""

    __slots__ = ("count", "dur_us", "comps", "hists")

    def __init__(self) -> None:
        self.count = 0
        self.dur_us = 0.0
        #: component name -> total microseconds.
        self.comps: dict[str, float] = {}
        #: component name -> log2 histogram of per-request µs.
        self.hists: dict[str, Histogram] = {}

    def fold(self, data: dict) -> None:
        self.count += 1
        self.dur_us += data["dur_us"]
        comps = self.comps
        hists = self.hists
        for comp in COMPONENTS:
            us = data.get(comp)
            if us is None:
                continue
            comps[comp] = comps.get(comp, 0.0) + us
            hist = hists.get(comp)
            if hist is None:
                hist = hists[comp] = Histogram()
            hist.record(us)

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.dur_us += other.dur_us
        for comp, us in other.comps.items():
            self.comps[comp] = self.comps.get(comp, 0.0) + us
        for comp, hist in other.hists.items():
            mine = self.hists.get(comp)
            if mine is None:
                mine = self.hists[comp] = Histogram()
            mine.merge(hist)

    def to_dict(self) -> dict:
        """JSON-safe summary with deterministic key order."""
        return {
            "count": self.count,
            "dur_us": self.dur_us,
            "avg_us": self.dur_us / self.count if self.count else 0.0,
            "components": {c: self.comps[c] for c in COMPONENTS
                           if c in self.comps},
            "hist_us": {c: self.hists[c].to_dict() for c in COMPONENTS
                        if c in self.hists},
        }


class SpanAggregator(Collector):
    """Fold ``span:close`` events into per-(cgroup, policy, kind) stats.

    Subscribing this collector is what *enables* span recording on a
    machine (the ``span:close`` tracepoint gates the whole subsystem),
    so the usual usage is::

        agg = SpanAggregator()
        with TraceSession(machine, collectors=[agg], buffer=False):
            run_workload(machine)
        print(format_breakdown(agg))
    """

    tracepoints = ("span:close",)

    def __init__(self) -> None:
        #: (cgroup, policy, kind) -> :class:`SpanStats`.
        self.stats: dict[tuple, SpanStats] = {}

    def handle(self, event: TraceEvent) -> None:
        data = event.data
        key = (event.cgroup, data["policy"], data["span"])
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = SpanStats()
        stats.fold(data)

    def merge(self, other: "SpanAggregator") -> "SpanAggregator":
        for key, stats in other.stats.items():
            mine = self.stats.get(key)
            if mine is None:
                mine = self.stats[key] = SpanStats()
            mine.merge(stats)
        return self

    @property
    def total_spans(self) -> int:
        return sum(s.count for s in self.stats.values())

    # ------------------------------------------------------------------
    # output formats
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """``"cgroup/policy/kind" -> stats`` dict, keys sorted."""
        return {"/".join(key): self.stats[key].to_dict()
                for key in sorted(self.stats)}

    def collapsed(self) -> str:
        """Collapsed-stack text: ``cgroup;policy;kind;component <µs>``.

        One line per component of each aggregation key, integer
        microseconds (rounded), sorted — the input format flamegraph
        tools consume, and a stable golden-file format for tests.
        """
        lines = []
        for key in sorted(self.stats):
            stats = self.stats[key]
            prefix = ";".join(key)
            for comp in COMPONENTS:
                us = stats.comps.get(comp)
                if us is None:
                    continue
                lines.append(f"{prefix};{comp} {int(round(us))}")
        return "\n".join(lines) + ("\n" if lines else "")


def format_breakdown(agg: SpanAggregator, width: int = 30) -> str:
    """Human breakdown table: percent of time per component.

    One block per ``(cgroup, policy, kind)``, components in canonical
    order with their share of the total duration and average µs per
    request — the "where does every virtual microsecond go" view.
    """
    if not agg.stats:
        return "(no spans recorded)"
    lines = []
    for key in sorted(agg.stats):
        stats = agg.stats[key]
        cgroup, policy, kind = key
        avg = stats.dur_us / stats.count if stats.count else 0.0
        lines.append(f"{cgroup} policy={policy} {kind}: "
                     f"{stats.count} spans, avg {avg:.2f}us")
        denom = stats.dur_us if stats.dur_us > 0.0 else 1.0
        for comp in COMPONENTS:
            us = stats.comps.get(comp)
            if us is None:
                continue
            share = us / denom
            bar = "#" * max(0, int(round(width * share)))
            lines.append(f"  {comp:>15s} {100.0 * share:6.2f}%  "
                         f"{us / stats.count:10.3f}us/req  |{bar}")
        lines.append("")
    return "\n".join(lines).rstrip("\n")
