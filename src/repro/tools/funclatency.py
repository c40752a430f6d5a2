"""funclatency: per-hook latency histograms for cache_ext programs.

The BCC ``funclatency`` tool histograms the latency of one traced
function; this is the same view for the eBPF policy runtime: one log2
histogram per ``(policy, hook slot)`` of the CPU time each hook
invocation charged — dispatch plus every kfunc the program ran —
computed from ``cache_ext:hook_exit`` events.

Hook costs are tens of *nano*seconds at the configured cost model
(``bpf_hook_us`` = 0.03 µs), so histograms are kept in nanoseconds —
a µs histogram would collapse every invocation into bucket zero.

Offline against a recorded trace, or live against a fig6-sized cell::

    python -m repro.tools.funclatency run.jsonl
    python -m repro.tools.funclatency --live --policy lfu --workload A

Live mode enables the hook tracepoints, which takes the framework off
its inlined fast paths — virtual results are unchanged (the guard
asserts that), only host-time cost grows.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.obs.collectors import Collector, Histogram
from repro.obs.trace import TraceEvent
from repro.tools import _cli


class FuncLatencyCollector(Collector):
    """Per-(policy, slot) histograms of hook CPU time in nanoseconds."""

    tracepoints = ("cache_ext:hook_exit",)

    def __init__(self) -> None:
        #: (policy, slot) -> Histogram of per-invocation ns.
        self.per_hook: dict[tuple, Histogram] = {}

    def handle(self, event: TraceEvent) -> None:
        key = (event.data.get("policy", "?"), event.data.get("slot", "?"))
        hist = self.per_hook.get(key)
        if hist is None:
            hist = self.per_hook[key] = Histogram()
        hist.record(event.data.get("cpu_us", 0.0) * 1000.0)


def format_funclatency(collector: FuncLatencyCollector) -> str:
    if not collector.per_hook:
        return ("(no hook events observed — was the trace recorded with "
                "cache_ext:* enabled?)")
    chunks = []
    for key in sorted(collector.per_hook):
        policy, slot = key
        hist = collector.per_hook[key]
        chunks.append(f"policy {policy}, hook {slot}: "
                      f"{hist.count} calls, mean {hist.mean:.0f} ns\n"
                      + hist.format())
    return "\n\n".join(chunks)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-(policy, hook) latency histograms from "
                    "cache_ext:hook_exit events")
    parser.add_argument("trace", nargs="?",
                        help="JSONL trace file ('-' for stdin)")
    _cli.add_live_arguments(parser)
    args = parser.parse_args(argv)

    collector = _cli.collect("funclatency", parser, args,
                             FuncLatencyCollector())
    if collector is None:
        return 1
    print(format_funclatency(collector))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
