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

from repro.obs.collectors import CgroupView, CgroupViews
from repro.tools import _cli

DEFAULT_WINDOW_MS = 100.0


#: What ``cachestat`` subscribes to.
TRACEPOINTS = ("cache:lookup", "cache:insert", "cache:evict")


def window_rows(views: CgroupViews) -> list[tuple]:
    """``(window_start_us, hits, misses, inserts, evicts)`` rows, summed
    over cgroups."""
    out = []
    for start_us, group in views.windows():
        v = CgroupView("*").merge(*group.values())
        out.append((start_us, v.hits, v.misses, v.inserts, v.evicts))
    return out


def format_cachestat(views: CgroupViews) -> str:
    table = window_rows(views)
    if not table:
        return "(no cache events observed)"
    lines = [f"{'TIME_MS':>10s} {'HITS':>8s} {'MISSES':>8s} {'HIT%':>7s} "
             f"{'INSERT':>8s} {'EVICT':>8s}"]
    for start_us, hits, misses, inserts, evicts in table:
        lookups = hits + misses
        ratio = 100.0 * hits / lookups if lookups else 0.0
        lines.append(f"{start_us / 1000.0:>10.1f} {hits:>8d} {misses:>8d} "
                     f"{ratio:>6.2f}% {inserts:>8d} {evicts:>8d}")
    total_hits = sum(r[1] for r in table)
    total_lookups = sum(r[1] + r[2] for r in table)
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
    parser.add_argument("--window-ms", type=_cli.window_ms,
                        default=DEFAULT_WINDOW_MS,
                        help=f"window size in virtual ms "
                             f"(default: {DEFAULT_WINDOW_MS:.0f})")
    _cli.add_live_arguments(parser)
    args = parser.parse_args(argv)

    views = _cli.collect(
        "cachestat", parser, args,
        CgroupViews(*TRACEPOINTS, window_us=args.window_ms * 1000.0))
    if views is None:
        return 1
    print(format_cachestat(views))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
