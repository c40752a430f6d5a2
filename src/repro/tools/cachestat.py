"""cachestat: page-cache hit/miss/insert/evict rates over time.

The BCC ``cachestat`` tool prints one machine-wide line per interval:
hits, misses, and cache churn.  This is the simulator's version over
*virtual* time — fixed windows of the virtual clock, so two identical
runs print identical tables — fed by ``cache:lookup`` /
``cache:insert`` / ``cache:evict`` events.

Offline against a recorded trace, or live against a fig6-sized cell::

    python -m repro.tools.cachestat run.jsonl
    python -m repro.tools.cachestat run.jsonl --window-ms 50
    python -m repro.tools.cachestat --live --policy lfu --workload A
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.obs.collectors import Collector
from repro.obs.trace import TraceEvent
from repro.tools import _cli

DEFAULT_WINDOW_MS = 100.0


class CacheStatCollector(Collector):
    """Machine-wide per-window cache counters (BCC ``cachestat``)."""

    tracepoints = ("cache:lookup", "cache:insert", "cache:evict")

    def __init__(self, window_us: float = DEFAULT_WINDOW_MS * 1000.0) -> None:
        if window_us <= 0:
            raise ValueError(f"window must be positive: {window_us}")
        self.window_us = window_us
        #: window index -> [hits, misses, inserts, evicts].
        self.windows: dict[int, list] = {}

    def _slot(self, ts_us: float) -> list:
        index = int(ts_us // self.window_us)
        slot = self.windows.get(index)
        if slot is None:
            slot = self.windows[index] = [0, 0, 0, 0]
        return slot

    def handle(self, event: TraceEvent) -> None:
        name = event.name
        slot = self._slot(event.ts_us)
        if name == "cache:lookup":
            if event.data.get("hit", 0):
                slot[0] += 1
            else:
                slot[1] += 1
        elif name == "cache:insert":
            slot[2] += 1
        elif name == "cache:evict":
            slot[3] += 1

    def rows(self) -> list[tuple]:
        """``(window_start_us, hits, misses, inserts, evicts)`` rows."""
        return [(index * self.window_us, *counts)
                for index, counts in sorted(self.windows.items())]


def format_cachestat(collector: CacheStatCollector) -> str:
    rows = collector.rows()
    if not rows:
        return "(no cache events observed)"
    lines = [f"{'TIME_MS':>10s} {'HITS':>8s} {'MISSES':>8s} {'HIT%':>7s} "
             f"{'INSERT':>8s} {'EVICT':>8s}"]
    for start_us, hits, misses, inserts, evicts in rows:
        lookups = hits + misses
        ratio = 100.0 * hits / lookups if lookups else 0.0
        lines.append(f"{start_us / 1000.0:>10.1f} {hits:>8d} {misses:>8d} "
                     f"{ratio:>6.2f}% {inserts:>8d} {evicts:>8d}")
    total_hits = sum(r[1] for r in rows)
    total_lookups = sum(r[1] + r[2] for r in rows)
    overall = 100.0 * total_hits / total_lookups if total_lookups else 0.0
    lines.append(f"overall: {total_lookups} lookups, "
                 f"{overall:.2f}% hit ratio")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Page-cache hit/miss/churn rates per virtual-time "
                    "window")
    parser.add_argument("trace", nargs="?",
                        help="JSONL trace file ('-' for stdin)")
    parser.add_argument("--window-ms", type=float, default=DEFAULT_WINDOW_MS,
                        help=f"window size in virtual ms "
                             f"(default: {DEFAULT_WINDOW_MS:.0f})")
    _cli.add_live_arguments(parser)
    args = parser.parse_args(argv)

    collector = _cli.collect(
        "cachestat", parser, args,
        CacheStatCollector(args.window_ms * 1000.0))
    if collector is None:
        return 1
    print(format_cachestat(collector))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
