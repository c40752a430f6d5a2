#!/usr/bin/env python
"""The physics gate: run the core suite, emit or check ``BENCH_core.json``.

For each experiment in the core suite the document records what the
deterministic simulation makes exact — cell and row counts, a hash of
the formatted table, simulated ops/sec (or seconds / CPU µs) and hit
ratio per table row.  Two runs on any machine emit byte-identical
documents, so a PR that moves one of these fields has changed the
simulation; ``--check`` fails on it and says which row moved.

Nothing here is wall-clock: host performance is recorded by
``python3 benchmarks/layered/run.py`` (``BENCHMARK.json``), the cost of
disabled instrumentation is asserted by ``python -m repro.obs.guard``,
and full == replay == snapshot-restored tables by CI's table diffs.

Usage::

    python benchmarks/runner.py --quick                  # regenerate
    python benchmarks/runner.py --quick --check          # physics gate
    python benchmarks/runner.py --experiments fig6 --jobs 4
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import numbers
import os
import sys
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_core.json")

#: One I/O-bound sweep (fig6), one scan-pathology run (fig9), one
#: policy-with-userspace-maps run (admission), one CPU-overhead run
#: (table4), the design-constant / extension-policy table (ablations),
#: the fault-injection grid (chaos) and the two-cgroup isolation run
#: cut off by an engine deadline (fig11): together they cross every
#: path physics can move on — eviction, hook dispatch, lists, maps, the
#: LSM store, the engine loop, the block request under every device,
#: policy and memory fault with the VFS's retries, and a YCSB stream
#: read only as far as a fixed window reaches.
CORE_SUITE = ("fig6", "fig9", "admission", "table4", "ablations", "chaos",
              "fig11")

SCHEMA = 2

#: The gated fields of one experiment entry.
FIELDS = ("cells", "rows", "table_sha256", "ops_per_sec", "hit_ratios")


def _row_key(headers: list, row: list) -> str:
    """Identify a table row by its leading label columns."""
    labels = []
    for header, value in zip(headers, row):
        if isinstance(value, numbers.Number) and not isinstance(value, bool):
            break
        labels.append(str(value))
    return "/".join(labels) if labels else str(row[0])


def _column_map(result, column: str) -> dict:
    if column not in result.headers:
        return {}
    idx = result.headers.index(column)
    return {_row_key(result.headers, row): row[idx]
            for row in result.rows}


def run_experiment(name: str, quick: bool, jobs: Optional[int]) -> dict:
    from repro.experiments.parallel import execute

    module = importlib.import_module(f"repro.experiments.{name}")
    spec = module.plan(quick=quick)
    result = execute(spec, jobs=jobs, serial=jobs is None).result
    table = result.format_table()
    ops = _column_map(result, "ops_per_sec")
    if not ops:  # time/CPU-denominated or two-cgroup experiments
        ops = _column_map(result, "noop_cpu_us_per_op") \
            or _column_map(result, "seconds") \
            or _column_map(result, "ycsb_ops_per_sec")
    return {
        "cells": len(spec.cells),
        "rows": len(result.rows),
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
        "ops_per_sec": ops,
        "hit_ratios": _column_map(result, "hit_ratio"),
    }


def run_suite(experiments, quick: bool, jobs: Optional[int]) -> dict:
    doc = {
        "schema": SCHEMA,
        "suite": "core",
        "scale": "quick" if quick else "full",
        "experiments": {},
    }
    for name in experiments:
        entry = doc["experiments"][name] = run_experiment(
            name, quick=quick, jobs=jobs)
        print(f"[{name}] {entry['cells']} cells, {entry['rows']} rows, "
              f"table {entry['table_sha256'][:12]}", flush=True)
    return doc


def _describe_change(old, new, limit: int = 5) -> str:
    """``old -> new``, per differing key when both are row maps."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return f"{old!r} -> {new!r}"
    moved = [f"{key} {old.get(key)!r} -> {new.get(key)!r}"
             for key in sorted(old.keys() | new.keys())
             if old.get(key) != new.get(key)]
    more = f", +{len(moved) - limit} more" if len(moved) > limit else ""
    return ", ".join(moved[:limit]) + more


def check_against_baseline(doc: dict, baseline_path: str,
                           subset: bool = False) -> list:
    """Compare a fresh run to the committed baseline.

    Returns a list of human-readable failures (empty = gate passes):
    any field mismatch (physics changed — a correctness regression),
    each naming the rows that moved, a baseline written under another
    ``SCHEMA``, or — unless the run was a deliberate ``subset``
    (``--experiments``) — a baseline cell the run no longer produces.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != doc.get("schema"):
        return [f"baseline schema {baseline.get('schema')}, runner "
                f"schema {doc.get('schema')} — regenerate with "
                f"`python benchmarks/runner.py --quick`"]
    if baseline.get("scale") != doc.get("scale"):
        return [f"scale mismatch: baseline {baseline.get('scale')!r} "
                f"vs run {doc.get('scale')!r} — rerun with matching "
                f"flags"]
    failures = []
    if not subset:
        failures += [
            f"{name}: in the baseline but not in this run (dropped "
            f"from CORE_SUITE?) — its physics is no longer gated"
            for name in baseline["experiments"]
            if name not in doc["experiments"]]
    for name, entry in doc["experiments"].items():
        base = baseline["experiments"].get(name)
        if base is None:
            continue  # new experiment: no baseline to regress against
        failures += [
            f"{name}: deterministic field {field!r} changed "
            f"(simulation output differs from baseline): "
            + _describe_change(base.get(field), entry.get(field))
            for field in FIELDS if base.get(field) != entry.get(field)]
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the core suite; write or check BENCH_core.json")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (CI smoke; the committed "
                             "baseline uses this scale)")
    parser.add_argument("--experiments", nargs="+", default=None,
                        metavar="NAME",
                        help=f"subset to run (default: "
                             f"{' '.join(CORE_SUITE)})")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="parallel cell workers (default: serial)")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help="output path (default: repo BENCH_core.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline; "
                             "exit 1 if a deterministic field changed")
    parser.add_argument("--baseline", default=DEFAULT_OUTPUT,
                        help="baseline path for --check")
    args = parser.parse_args(argv)

    doc = run_suite(args.experiments or CORE_SUITE, quick=args.quick,
                    jobs=args.jobs)

    if args.check:
        failures = check_against_baseline(
            doc, args.baseline, subset=args.experiments is not None)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("baseline check passed (deterministic fields equal)")
        return 0

    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"baseline written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
