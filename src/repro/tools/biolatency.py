"""biolatency: block I/O queue-vs-service histograms per cgroup.

The BCC ``biolatency`` tool histograms block request latency from
``block_rq_issue``/``block_rq_complete``; this is the simulator's
version, with the decomposition the real tool only gets with ``-Q``:
separate log2 histograms for *queueing* delay (waiting for a free
device channel) and *service* time (the transfer itself), per cgroup.

Offline against a recorded trace, or live against a fig6-sized cell::

    python -m repro.tools.biolatency run.jsonl
    python -m repro.tools.biolatency --live --policy lfu --workload A

Both modes consume ``block:io_complete`` events, whose payload carries
``wait_us`` and ``service_us`` for every request.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.obs.collectors import Collector, Histogram
from repro.obs.trace import TraceEvent
from repro.tools import _cli


class BioLatencyCollector(Collector):
    """Per-cgroup queue/service histograms over ``block:io_complete``."""

    tracepoints = ("block:io_complete",)

    def __init__(self) -> None:
        #: cgroup -> (queue Histogram, service Histogram), µs.
        self.per_cgroup: dict[str, tuple] = {}
        self.total_ios = 0

    def handle(self, event: TraceEvent) -> None:
        pair = self.per_cgroup.get(event.cgroup)
        if pair is None:
            pair = self.per_cgroup[event.cgroup] = (Histogram(), Histogram())
        queue, service = pair
        queue.record(event.data.get("wait_us", 0))
        service.record(event.data.get("service_us", 0))
        self.total_ios += 1


def format_biolatency(collector: BioLatencyCollector) -> str:
    if not collector.per_cgroup:
        return "(no block I/O observed)"
    chunks = []
    for cgroup in sorted(collector.per_cgroup):
        queue, service = collector.per_cgroup[cgroup]
        chunks.append(
            f"cgroup {cgroup}: {queue.count} I/Os\n"
            f"queue delay (us), mean {queue.mean:.1f}\n{queue.format()}\n"
            f"service time (us), mean {service.mean:.1f}\n"
            f"{service.format()}")
    return "\n\n".join(chunks)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-cgroup block I/O queue/service histograms")
    parser.add_argument("trace", nargs="?",
                        help="JSONL trace file ('-' for stdin)")
    _cli.add_live_arguments(parser)
    args = parser.parse_args(argv)

    collector = _cli.collect("biolatency", parser, args,
                             BioLatencyCollector())
    if collector is None:
        return 1
    print(format_biolatency(collector))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
