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

from repro.obs.collectors import CgroupViews
from repro.tools import _cli


def format_biolatency(views: CgroupViews) -> str:
    chunks = []
    for cgroup, view in sorted(views.cgroups().items()):
        queue, service = view.io_wait, view.io_service
        if queue.count:
            chunks.append(
                f"cgroup {cgroup}: {queue.count} I/Os\n"
                f"queue delay (us), mean {queue.mean:.1f}\n{queue.format()}\n"
                f"service time (us), mean {service.mean:.1f}\n"
                f"{service.format()}")
    return "\n\n".join(chunks) if chunks else "(no block I/O observed)"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-cgroup block I/O queue/service histograms")
    parser.add_argument("trace", nargs="?",
                        help="JSONL trace file ('-' for stdin)")
    _cli.add_live_arguments(parser)
    args = parser.parse_args(argv)

    views = _cli.collect("biolatency", parser, args,
                         CgroupViews("block:io_complete"))
    if views is None:
        return 1
    print(format_biolatency(views))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
