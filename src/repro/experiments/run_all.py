"""Regenerate the paper's entire evaluation in one command.

Runs every table/figure module (full scale by default) and writes the
formatted tables to stdout and, optionally, a results file.  Each
experiment's independent cells are fanned across worker processes by
:mod:`repro.experiments.parallel`; ``--serial`` restores the in-process
reference path (the output tables are byte-identical either way)::

    python -m repro.experiments.run_all                 # full, parallel
    python -m repro.experiments.run_all --jobs 4        # explicit width
    python -m repro.experiments.run_all --serial        # escape hatch
    python -m repro.experiments.run_all --quick         # CI smoke
    python -m repro.experiments.run_all -o results.txt
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import (ablations, admission, fig6, fig7, fig8,
                               fig9, fig10, fig11, table1, table3,
                               table4, table5)
from repro.experiments.parallel import default_jobs, execute

#: Execution order: cheap first, so early output appears quickly.
MODULES = (table3, table4, fig9, admission, ablations, table1, fig10,
           fig11, fig7, fig8, table5, fig6)


def run_all(quick: bool = False, out_path: str | None = None,
            jobs: int | None = None) -> int:
    """``jobs=None`` runs every experiment serially in-process."""
    lines: list[str] = []
    failures = 0
    for mod in MODULES:
        started = time.time()
        name = mod.__name__.rsplit(".", 1)[-1]
        try:
            report = execute(mod.plan(quick=quick), jobs=jobs,
                             serial=jobs is None)
            block = report.result.format_table()
        except Exception as exc:  # keep going; report at the end
            failures += 1
            block = f"== {name} FAILED ==\n{type(exc).__name__}: {exc}"
        block += f"\n[{name}: {time.time() - started:.1f}s]\n"
        print(block, flush=True)
        lines.append(block)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines))
        print(f"results written to {out_path}")
    return failures


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate every table/figure of the paper")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (CI smoke)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes per experiment "
                             "(default: min(cpus, 8))")
    parser.add_argument("--serial", action="store_true",
                        help="run every cell in-process, in order")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the tables to this file")
    args = parser.parse_args(argv)
    jobs = None if args.serial else (args.jobs or default_jobs())
    return run_all(quick=args.quick, out_path=args.output, jobs=jobs)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
