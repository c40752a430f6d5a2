#!/usr/bin/env python
"""Core baseline: run the bench suite, emit ``BENCH_core.json``.

This is the repo's first committed data point; its deterministic
fields are the gate future PRs are checked against.  For each
experiment in the core suite it records:

* **non-timing fields** — simulated ops/sec per table row, hit ratios,
  cell count and a hash of the formatted table.  These derive from the
  deterministic simulation, so two runs on any machine must emit them
  byte-identically (the determinism acceptance check, and a
  correctness cross-check that perf work never changes physics);
* **timing fields** — wall-clock per experiment plus ``work_units``,
  wall-clock normalised by a calibration run of the simulator on the
  same machine.  ``--check`` prints them next to the baseline's and
  does not gate on them: one calibration per run cannot resolve a
  sub-second cell (the pipeline's ``BENCHMARK.json`` run, which
  brackets every repetition, is the perf gate).

Usage::

    python benchmarks/runner.py --quick                  # CI smoke
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
import time
from typing import Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_core.json")

#: The core suite: one I/O-bound sweep (fig6), one scan-pathology run
#: (fig9), one policy-with-userspace-maps run (admission), one
#: CPU-overhead run (table4) and one spans-disabled timing cell
#: (spans_off: the latency-attribution request sites must stay at
#: disabled-tracepoint cost) plus a faults-disarmed timing cell
#: (faults_off: the repro.faults gates on the block/VFS/hook hot paths
#: must stay at one-load-one-branch cost when no plan is armed) —
#: together they cover every hot path the perf work touches (eviction,
#: hook dispatch, lists, engine loop).  ``replay`` re-runs the fig6
#: sweep on the trace-replay fast path: its table hash must equal
#: fig6's (bit-identical payloads — checked in :func:`run_suite`) and
#: its timing entry is the committed record of the fast path's win.
#: ``snapshot`` re-runs it once more with sweep-level machine
#: snapshots (repro.snapshot): cells restore one shared post-load
#: image instead of rebuilding it; its table hash must also equal
#: fig6's, and its timing entry is the committed record of what the
#: snapshot path buys.
#: ``timeseries_off`` pins the telemetry sampler's disabled cost the
#: same way: with no sampler attached the run executes zero sampler
#: code, so this cell must track ``spans_off``-class timing exactly —
#: if plumbing the ``--timeseries`` option ever leaks work into
#: unsampled runs, this entry regresses in isolation.
CORE_SUITE = ("fig6", "replay", "snapshot", "fig9", "admission",
              "table4", "spans_off", "faults_off", "timeseries_off")

SCHEMA = 1


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed reference simulation on this machine.

    Runs a small deterministic fio job through the full stack and
    takes the fastest of ``rounds`` attempts (minimum filters noise).
    Experiment wall-clock divided by this is machine-independent to
    first order.
    """
    from repro.apps.fio import FioJob
    from repro.experiments.harness import build_machine

    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        machine = build_machine("default")
        cgroup = machine.new_cgroup("calib", limit_pages=256)
        FioJob(machine, cgroup, file_pages=1024, nthreads=4,
               ops_per_thread=500).run()
        best = min(best, time.perf_counter() - t0)
    return best


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


def run_spans_off(calibration_s: float) -> dict:
    """Time one fig6-sized cell with spans compiled out (not attached).

    The span subsystem's disabled cost — one attribute load plus a
    branch at every request site — rides the same hot paths fig6
    exercises, but this entry pins it down in isolation: if a future
    change makes disabled spans expensive, this cell regresses even if
    the parallel fig6 sweep hides it.  The entry is shaped exactly
    like :func:`run_experiment` output so the baseline gate applies
    unchanged.
    """
    from repro.obs.guard import run_cell, virtual_signature

    t0 = time.perf_counter()
    measurement = run_cell()  # quick-scale mru/C, no consumers attached
    wall_s = time.perf_counter() - t0
    signature = virtual_signature(measurement)
    table = json.dumps(signature, sort_keys=True)
    return {
        "cells": 1,
        "rows": 1,
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
        "ops_per_sec": {"C/mru": round(signature["ops_per_sec"], 1)},
        "hit_ratios": {"C/mru": round(signature["hit_ratio"], 4)},
        "timing": {
            "wall_s": round(wall_s, 3),
            "work_units": round(wall_s / calibration_s, 2),
            "jobs": 1,
        },
    }


def run_faults_off(calibration_s: float) -> dict:
    """Time one fig6-sized cell with no fault plan armed.

    The fault-injection plane gates the block device, the VFS
    read/write/fsync paths and the policy hook dispatch; unarmed, each
    gate must cost one attribute load plus a branch.  A different
    (policy, workload) pair from :func:`run_spans_off` so the two
    zero-overhead cells don't shadow each other in the baseline.
    """
    from repro.obs.guard import run_cell, virtual_signature

    t0 = time.perf_counter()
    measurement = run_cell(policy="lfu", workload="A")
    wall_s = time.perf_counter() - t0
    signature = virtual_signature(measurement)
    table = json.dumps(signature, sort_keys=True)
    return {
        "cells": 1,
        "rows": 1,
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
        "ops_per_sec": {"A/lfu": round(signature["ops_per_sec"], 1)},
        "hit_ratios": {"A/lfu": round(signature["hit_ratio"], 4)},
        "timing": {
            "wall_s": round(wall_s, 3),
            "work_units": round(wall_s / calibration_s, 2),
            "jobs": 1,
        },
    }


def run_timeseries_off(calibration_s: float) -> dict:
    """Time one fig6-sized cell with the telemetry sampler not attached.

    Disabled-mode telemetry (:mod:`repro.obs.timeseries`) must be
    free: no sampler thread is spawned, no tracepoint subscribed, no
    frame closed.  A third (policy, workload) pair so the
    zero-overhead cells (:func:`run_spans_off`, :func:`run_faults_off`)
    don't shadow each other in the baseline.
    """
    from repro.obs.guard import run_cell, virtual_signature

    t0 = time.perf_counter()
    measurement = run_cell(policy="s3fifo", workload="B")
    wall_s = time.perf_counter() - t0
    signature = virtual_signature(measurement)
    table = json.dumps(signature, sort_keys=True)
    return {
        "cells": 1,
        "rows": 1,
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
        "ops_per_sec": {"B/s3fifo": round(signature["ops_per_sec"], 1)},
        "hit_ratios": {"B/s3fifo": round(signature["hit_ratio"], 4)},
        "timing": {
            "wall_s": round(wall_s, 3),
            "work_units": round(wall_s / calibration_s, 2),
            "jobs": 1,
        },
    }


def run_experiment(name: str, quick: bool, jobs: Optional[int],
                   calibration_s: float) -> dict:
    from repro.experiments.parallel import execute

    if name == "spans_off":
        return run_spans_off(calibration_s)
    if name == "faults_off":
        return run_faults_off(calibration_s)
    if name == "timeseries_off":
        return run_timeseries_off(calibration_s)
    mode = "full"
    snapshot = "off"
    if name == "replay":
        # The fig6 sweep again, on the trace-replay fast path.  Every
        # deterministic field must match the "fig6" entry exactly
        # (enforced in run_suite); the timing delta is the committed
        # record of what replay buys.
        name, mode = "fig6", "replay"
    elif name == "snapshot":
        # The fig6 sweep a third time, restoring each cell's machine
        # from the shared post-load image (repro.snapshot) instead of
        # rebuilding it.  Deterministic fields must again match the
        # "fig6" entry exactly (enforced in run_suite).
        name, snapshot = "fig6", "on"
    module = importlib.import_module(f"repro.experiments.{name}")
    spec = module.plan(quick=quick)
    report = execute(spec, jobs=jobs, serial=jobs is None, mode=mode,
                     snapshot=snapshot)
    result = report.result
    table = result.format_table()
    ops = _column_map(result, "ops_per_sec")
    if not ops:  # time/CPU-denominated experiments
        ops = _column_map(result, "noop_cpu_us_per_op") \
            or _column_map(result, "seconds")
    return {
        "cells": len(spec.cells),
        "rows": len(result.rows),
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
        "ops_per_sec": ops,
        "hit_ratios": _column_map(result, "hit_ratio"),
        "timing": {
            "wall_s": round(report.wall_s, 3),
            "work_units": round(report.wall_s / calibration_s, 2),
            "jobs": report.jobs,
        },
    }


def run_suite(experiments, quick: bool, jobs: Optional[int]) -> dict:
    calibration_s = calibrate()
    doc = {
        "schema": SCHEMA,
        "suite": "core",
        "scale": "quick" if quick else "full",
        "experiments": {},
        "timing": {"calibration_s": round(calibration_s, 4)},
    }
    for name in experiments:
        started = time.perf_counter()
        doc["experiments"][name] = run_experiment(
            name, quick=quick, jobs=jobs, calibration_s=calibration_s)
        timing = doc["experiments"][name]["timing"]
        print(f"[{name}] {timing['wall_s']:.1f}s wall, "
              f"{timing['work_units']:.1f} work units, "
              f"jobs={timing['jobs']} "
              f"({time.perf_counter() - started:.1f}s incl. merge)",
              flush=True)
    full = doc["experiments"].get("fig6")
    fast = doc["experiments"].get("replay")
    if full is not None and fast is not None:
        # The replay contract, enforced on every bench run: same plan,
        # different engine, byte-identical table.
        if full["table_sha256"] != fast["table_sha256"]:
            raise SystemExit(
                "replay mode diverged from the full engine on fig6 "
                f"({fast['table_sha256'][:12]} != "
                f"{full['table_sha256'][:12]}) — the fast path is "
                "broken, not just slow")
        print("[replay] table hash matches fig6 (bit-identical)",
              flush=True)
    snap = doc["experiments"].get("snapshot")
    if full is not None and snap is not None:
        # The snapshot contract: restored machines produce the very
        # table cold builds do, or the subsystem is broken.
        if full["table_sha256"] != snap["table_sha256"]:
            raise SystemExit(
                "snapshot mode diverged from cold builds on fig6 "
                f"({snap['table_sha256'][:12]} != "
                f"{full['table_sha256'][:12]}) — restored machine "
                "state is wrong, not just slow")
        print("[snapshot] table hash matches fig6 (bit-identical)",
              flush=True)
    _print_trajectory(doc)
    return doc


def _print_trajectory(doc: dict) -> None:
    """The sweep-throughput story in one block: how long the same
    fig6 grid takes under each execution tier, fastest-path history
    (full engine -> trace replay -> snapshot restores)."""
    tiers = [("full", "fig6"), ("replay", "replay"),
             ("snapshot", "snapshot")]
    present = [(label, doc["experiments"][name]["timing"]["wall_s"])
               for label, name in tiers
               if name in doc["experiments"]]
    if len(present) < 2:
        return
    base = present[0][1]
    print("speedup trajectory (same fig6 grid):", flush=True)
    for label, wall_s in present:
        factor = base / wall_s if wall_s else float("inf")
        print(f"  {label:>8s}  {wall_s:7.1f}s  {factor:5.2f}x vs "
              f"{present[0][0]}", flush=True)


def strip_timing(doc: dict) -> dict:
    """The deterministic subset of a baseline document."""
    out = {k: v for k, v in doc.items() if k != "timing"}
    out["experiments"] = {
        name: {k: v for k, v in entry.items() if k != "timing"}
        for name, entry in doc["experiments"].items()}
    return out


def check_against_baseline(doc: dict, baseline_path: str,
                           subset: bool = False) -> list:
    """Compare a fresh run to the committed baseline.

    Returns a list of human-readable failures (empty = gate passes):
    any non-timing field mismatch (physics changed — a correctness
    regression, not a perf one), a baseline written under another
    ``SCHEMA``, or — unless the run was a deliberate ``subset``
    (``--experiments``) — a baseline cell the run no longer produces.
    Normalised wall-clock is printed old → new per cell and never
    fails the gate.
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
        for field in ("cells", "rows", "table_sha256", "ops_per_sec",
                      "hit_ratios"):
            if base.get(field) != entry.get(field):
                failures.append(
                    f"{name}: deterministic field {field!r} changed "
                    f"(simulation output differs from baseline)")
                break
        print(f"[{name}] work units "
              f"{base.get('timing', {}).get('work_units')} -> "
              f"{entry['timing']['work_units']} (not gated)")
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the core bench suite and write BENCH_core.json")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (CI smoke; the committed "
                             "baseline uses this scale)")
    parser.add_argument("--experiments", nargs="+", default=None,
                        metavar="NAME",
                        help=f"subset to run (default: "
                             f"{' '.join(CORE_SUITE)})")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="parallel cell workers (default: serial, "
                             "for stable timing)")
    parser.add_argument("-o", "--output", default=DEFAULT_OUTPUT,
                        help="output path (default: repo BENCH_core.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline; "
                             "exit 1 if a deterministic field changed")
    parser.add_argument("--baseline", default=DEFAULT_OUTPUT,
                        help="baseline path for --check")
    parser.add_argument("--profile", default=None, metavar="PATH",
                        help="run the suite under cProfile and dump "
                             "raw stats to PATH (CI uploads this as "
                             "an artifact for hot-path inspection)")
    args = parser.parse_args(argv)

    experiments = args.experiments or CORE_SUITE
    if args.profile:
        from repro.tools.profile import format_stats, profile_callable
        doc, stats = profile_callable(run_suite, experiments,
                                      quick=args.quick, jobs=args.jobs)
        stats.dump_stats(args.profile)
        print(f"profile data written to {args.profile}")
        print(format_stats(stats, sort="cumulative", limit=15), end="")
    else:
        doc = run_suite(experiments, quick=args.quick, jobs=args.jobs)

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
