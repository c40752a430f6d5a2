"""What the trace-consuming CLIs share: loading an artifact, the
``--window-ms`` type, the ``--live`` cell and the ``__main__`` footer."""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Optional

from repro.obs import guard
from repro.obs.collectors import Collector
from repro.obs.trace import TraceSession


def load(tool: str, loader: Callable, *args, **kwargs):
    """``loader(*args, **kwargs)``, or ``None`` after reporting an
    unreadable or malformed artifact on stderr as ``<tool>: <message>``
    — the caller returns 1."""
    try:
        return loader(*args, **kwargs)
    except (OSError, ValueError) as exc:
        print(f"{tool}: {exc}", file=sys.stderr)
        return None


def load_trace(tool: str, path: str) -> Optional[list]:
    """Events of the JSONL trace at ``path`` (``-`` reads stdin), or
    ``None`` as :func:`load`."""
    return load(tool, TraceSession.load,
                sys.stdin if path == "-" else path)


def window_ms(text: str) -> float:
    """``--window-ms``: a positive, finite number of virtual ms (else
    the parser exits 2 with a usage error)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite: {text}")
    return value


def add_live_arguments(parser) -> None:
    """``--live`` / ``--policy`` / ``--workload``: run the quick fig6
    cell instead of reading a trace."""
    parser.add_argument("--live", action="store_true",
                        help="run a quick fig6-sized cell instead of "
                             "reading a trace")
    guard.add_cell_arguments(parser, " for --live")


def collect(tool: str, parser, args,
            collector: Collector) -> Optional[Collector]:
    """Fill ``collector`` the way ``args`` ask: attached to the quick
    fig6 cell, or replayed over the trace file.  ``None`` after
    reporting an unreadable trace (see :func:`load_trace`)."""
    if args.live:
        observe(collector, guard.fig6_cell(args.policy, args.workload))
        return collector
    if not args.trace:
        parser.error("a trace file is required (or --live)")
    events = load_trace(tool, args.trace)
    return None if events is None else collector.replay(events)


def observe(collector: Collector, spec) -> None:
    """Run ``spec`` in-process with ``collector`` attached to every
    machine its cells build."""
    from repro.experiments import harness, parallel
    with harness.observing(collector.attach):
        parallel.execute(spec, serial=True)


def run(main: Callable[[], int]) -> None:
    """The ``__main__`` footer: exit with ``main()``'s status, quietly
    when the reader closed the pipe (``<tool> trace | head``)."""
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        raise SystemExit(0)
