"""cProfile wrapper for finding simulator hot paths.

The parallel runner (:mod:`repro.experiments.parallel`) buys wall-clock
through process fan-out; this tool guides the other half of the perf
work — single-cell CPU cost.  It profiles one or more experiment cells
in-process and prints the top functions, so "what should be a local
variable / a batch / a ``__slots__`` class" is answered by data rather
than guesswork (the eviction batching and stat-hoisting in
``page_cache.py`` came straight from these reports).

CLI::

    python -m repro.tools.profile fig6 --quick              # whole grid
    python -m repro.tools.profile fig6 --quick --cell A/lfu # one cell
    python -m repro.tools.profile fig9 --sort tottime --top 15

Library::

    from repro.tools.profile import profile_callable
    result, stats = profile_callable(my_fn, arg1, arg2)
    stats.sort_stats("cumulative").print_stats(20)
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Optional

#: Sort keys accepted by ``--sort`` (pstats names).
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def profile_callable(fn: Callable, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, pstats.Stats)``; the profiler is disabled even
    if ``fn`` raises, so partial profiles of failing runs still work.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    return result, pstats.Stats(profiler)


def format_stats(stats: pstats.Stats, sort: str = "cumulative",
                 limit: int = 25) -> str:
    """Top-of-profile report as a string (pstats prints to a stream)."""
    stream = io.StringIO()
    stats.stream = stream
    stats.sort_stats(sort).print_stats(limit)
    return stream.getvalue()


@contextmanager
def collector_log():
    """Yield ``[[passes, seconds]]`` per collector generation, filled
    from ``gc.callbacks`` while the block runs."""
    log, started = [[0, 0.0] for _ in range(3)], []

    def on_pass(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        else:
            log[info["generation"]][0] += 1
            log[info["generation"]][1] += time.perf_counter() - started.pop()
    gc.callbacks.append(on_pass)
    try:
        yield log
    finally:
        gc.callbacks.remove(on_pass)


def profile_experiment(name: str, quick: bool = False,
                       cell_id: Optional[str] = None,
                       include_prepare: bool = False):
    """Profile an experiment's cells in-process.

    Each cell of the experiment's :func:`plan` (``cell_id``: a glob)
    runs through :func:`~repro.experiments.parallel.run_cell`, collector
    paused, exactly as the parallel runner would run it; returns
    ``(payloads, pstats.Stats, collector_log)``.

    The plan's ``prepare`` hook (pre-generated workload streams) runs
    *outside* the profiled region by default, matching the runner,
    where stream generation is a one-off shared cost rather than
    per-cell work; ``include_prepare=True`` profiles it too (useful
    when tuning the generators themselves).
    """
    from repro.experiments.parallel import (_load_experiment,
                                            filter_cells, run_cell)
    spec = _load_experiment(name).plan(quick=quick)
    if cell_id is not None:
        spec = filter_cells(spec, cell_id)
    if spec.prepare is not None and not include_prepare:
        spec.prepare()

    def run_cells() -> dict:
        if spec.prepare is not None and include_prepare:
            spec.prepare()
        return {c.cell_id: run_cell(c)[0] for c in spec.cells}

    with collector_log() as log:
        payloads, stats = profile_callable(run_cells)
    return payloads, stats, log


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile an experiment's cells and print the top "
                    "functions")
    parser.add_argument("experiment",
                        help="experiment module name (fig6, table5, ...)")
    parser.add_argument("--cell", default=None,
                        help="profile only cells matching this glob "
                             "(e.g. A/lfu)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes")
    parser.add_argument("--sort", choices=SORT_KEYS,
                        default="cumulative")
    parser.add_argument("--top", type=int, default=25,
                        help="number of functions to print")
    parser.add_argument("--include-prepare", action="store_true",
                        help="profile the plan's prepare hook (stream "
                             "pre-generation) too, instead of running "
                             "it outside the profiled region")
    parser.add_argument("-o", "--output", default=None,
                        help="also dump raw profile data here "
                             "(snakeviz/pstats compatible)")
    args = parser.parse_args(argv)

    _, stats, log = profile_experiment(
        args.experiment, quick=args.quick, cell_id=args.cell,
        include_prepare=args.include_prepare)
    print(format_stats(stats, sort=args.sort, limit=args.top), end="")
    print("collector: " + ", ".join(
        f"gen{gen} {passes} passes {s:.3f} s"
        for gen, (passes, s) in enumerate(log))
        + f" (of {stats.total_tt:.3f} s profiled)")
    if args.output:
        stats.dump_stats(args.output)
        print(f"profile data written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
