"""Guard checks: instrumentation costs nothing off and changes nothing on.

Each check is a request — a plan of the harness's own cells, run
in-process through :func:`repro.experiments.parallel.execute` with a
plane switched on or off — plus the laws its runs must obey.  The first
law of every check is that all its runs give one
:func:`~repro.experiments.parallel.filter_cells` raw-payload table:
every payload field, bit for bit, no wall clock.

* ``overhead`` — the quick fig6 cell (``--policy``/``--workload``,
  default ``C/mru``) runs plain twice, then once under
  ``harness.observing(EventCounter("*").attach)``.  Each counted event
  is one ``tp.enabled`` check a plain run paid, so with ``N`` events,
  ``c`` per check (:func:`disabled_check_cost_ns`) and ``T`` the faster
  plain cell's wall time, disabled tracing costs at most ``N*c/T`` —
  an analytic bound: few-percent A/B wall diffs are CI noise.
* ``breakdown`` — plain vs ``breakdown=True``: spans recorded, and the
  aggregate components sum to the aggregate duration (to float
  accumulation error; ``tests/test_spans.py`` holds each span bitwise).
  The breakdown/plain wall ratio is reported, under no bound.
* ``timeseries`` — plain vs ``timeseries=2000.0`` µs, twice each: frames
  byte-identical across the sampled runs, frame totals reproducing the
  payload (hit ratio bitwise, read + write pages == ``disk_pages``), and
  the sampled/plain wall ratio under a structural-regression bound.
* ``faults`` — the quick chaos cells of workload A under ``flaky-disk``
  and ``buggy-policy`` (plus the baseline) run twice; every armed
  scenario fires (injection is a pure function of seed and virtual time).

Run ``python -m repro.obs.guard [CHECK ...] [--json]`` (all four by
default; exit 1 if any law breaks).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import Optional

from repro.experiments import harness
from repro.obs.collectors import EventCounter
from repro.obs.trace import Tracepoint
from repro.workloads.ycsb import YCSB_WORKLOADS

#: Maximum tolerated estimated overhead of disabled tracepoints.
DEFAULT_THRESHOLD = 0.046

#: Maximum tolerated sampled/plain wall ratio of the timeseries check.
TIMESERIES_THRESHOLD = 1.9


def disabled_check_cost_ns(iters: int = 200_000, repeats: int = 5) -> float:
    """Upper-bound cost of one disabled call-site check, in ns.

    Mirrors the instrumented pattern — load a cached tracepoint off an
    object, branch on ``enabled`` — and keeps the loop overhead in the
    figure so the guard errs on the side of over-counting.
    """

    class _Site:
        __slots__ = ("_tp",)

        def __init__(self, tp: Tracepoint) -> None:
            self._tp = tp

    site = _Site(Tracepoint("guard:bench"))
    sink = 0
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            tp = site._tp
            if tp.enabled:
                sink += 1
        best = min(best, time.perf_counter() - t0)
    assert sink == 0
    return best / iters * 1e9


def fig6_cell(policy: str = "mru", workload: str = "C", scale=None):
    """The quick fig6 plan narrowed to its ``workload/policy`` cell."""
    from repro.experiments import fig6, parallel
    spec = fig6.plan(quick=True, policies=(policy,), workloads=(workload,),
                     scale=scale)
    return parallel.filter_cells(spec, f"{workload}/{policy}")


def chaos_cells(policy: str = "mru", workload: str = "C", scale=None):
    """The quick chaos plan's workload-A cells; the grid fixes its own
    policy and workload, so ``policy`` and ``workload`` are unused."""
    from repro.experiments import chaos, parallel
    spec = chaos.plan(quick=True, scenarios=("flaky-disk", "buggy-policy"),
                      workloads=("A",), scale=scale)
    return parallel.filter_cells(spec, "A/*")


def payloads(report) -> dict:
    """``{cell_id: payload}`` read back from the compared table."""
    return {cell_id: json.loads(text) for cell_id, text in report.result.rows}


def _wall_s(reports) -> float:
    return min(r.timings[0].wall_s for r in reports)


def _overhead(run, threshold: float) -> tuple:
    plain = [run(), run()]
    counter = EventCounter("*")
    with harness.observing(counter.attach):
        run()
    cost_ns = disabled_check_cost_ns()
    overhead = counter.total * cost_ns * 1e-9 / _wall_s(plain)
    return ({"plain_wall_s": [round(r.timings[0].wall_s, 4) for r in plain],
             "events": counter.total,
             "event_counts": dict(sorted(counter.counts.items())),
             "disabled_check_ns": round(cost_ns, 2),
             "estimated_overhead": round(overhead, 5)},
            {f"N*c/T < {threshold:.1%}": overhead < threshold})


def _breakdown(run, threshold: float) -> tuple:
    plain = run()
    broken_down = run(breakdown=True)
    (cell,) = broken_down.breakdown.values()
    stats = cell["summary"]
    dur = sum(s["dur_us"] for s in stats.values())
    comps = sum(sum(s["components"].values()) for s in stats.values())
    ratio = _wall_s([broken_down]) / _wall_s([plain])
    return ({"spans": sum(s["count"] for s in stats.values()),
             "span_kinds": sorted({k.rsplit("/", 1)[1] for k in stats}),
             "dur_us": round(dur, 3), "components_us": round(comps, 3),
             "wall_ratio": round(ratio, 3)},
            {"spans recorded": bool(stats),
             "components sum to durations":
                 abs(comps - dur) <= 1e-6 * max(1.0, dur)})


def _timeseries(run, threshold: float) -> tuple:
    from repro.experiments.parallel import timeseries_jsonl
    from repro.obs.timeseries import frame_totals, read_frames_jsonl
    # Interleaved, so a burst of host load slows both sides alike.
    plain, sampled = [], []
    for _ in range(2):
        plain.append(run())
        sampled.append(run(timeseries=2_000.0))
    frames = [timeseries_jsonl(r) for r in sampled]
    _meta, rows = read_frames_jsonl(io.StringIO(frames[0]))
    app = frame_totals(rows, scope="app")["totals"]
    machine = frame_totals(rows, scope="machine")
    hit_ratio = app["hits"] / app["lookups"] if app["lookups"] else 0.0
    disk_pages = (machine["totals"]["io_read_pages"]
                  + machine["totals"]["io_write_pages"])
    (payload,) = payloads(sampled[0]).values()
    ratio = _wall_s(sampled) / _wall_s(plain)
    return ({"frames": machine["frames"], "frames_hit_ratio": hit_ratio,
             "frames_disk_pages": disk_pages, "wall_ratio": round(ratio, 3)},
            {"frames recorded, byte-identical":
                 machine["frames"] > 0 and frames[0] == frames[1],
             "frame totals == payload":
                 hit_ratio == payload["hit_ratio"]
                 and disk_pages == payload["disk_pages"],
             f"wall ratio < {threshold:.2f}x": ratio < threshold})


def _faults(run, threshold: float) -> tuple:
    run()
    fired = {cell_id: payload["fired"]
             for cell_id, payload in payloads(run()).items()
             if not cell_id.endswith("/baseline")}
    return {"fired": fired}, {"every scenario fired": all(fired.values())}


#: Every check, named after the :data:`~repro.experiments.parallel.PLANES`
#: entry it guards where there is one: ``(request(policy, workload, scale)
#: -> plan, law(run, threshold) -> (measurements, {law: holds}), default
#: threshold)``; ``run(**planes)`` is one serial ``execute`` of the plan.
CHECKS = {
    "overhead": (fig6_cell, _overhead, DEFAULT_THRESHOLD),
    "breakdown": (fig6_cell, _breakdown, None),
    "timeseries": (fig6_cell, _timeseries, TIMESERIES_THRESHOLD),
    "faults": (chaos_cells, _faults, None),
}


def run_check(name: str, policy: str = "mru", workload: str = "C",
              threshold: Optional[float] = None, scale=None) -> dict:
    """Run one check of :data:`CHECKS`; returns its report, with
    ``passed`` true iff every law holds."""
    from repro.experiments.parallel import execute
    request, law, default = CHECKS[name]
    spec, runs = request(policy, workload, scale), []

    def run(**planes):
        runs.append(execute(spec, serial=True, **planes))
        return runs[-1]

    measured, laws = law(run, default if threshold is None else threshold)
    laws = {"tables equal": all(r.result.rows == runs[0].result.rows
                                for r in runs), **laws}
    return {"check": name, "plan": spec.name, "cells": spec.cell_ids(),
            **measured, "laws": laws, "passed": all(laws.values())}


def format_report(report: dict) -> str:
    lines = [f"{report['check']} guard: {report['plan']} "
             f"{', '.join(report['cells'])}"]
    for key, value in report.items():
        if key not in ("check", "plan", "cells", "laws", "passed",
                       "event_counts"):
            lines.append(f"  {key:<20}: {value}")
    for law, holds in report["laws"].items():
        lines.append(f"  {'ok  ' if holds else 'FAIL'} {law}")
    lines.append("PASS" if report["passed"] else "FAIL")
    return "\n".join(lines)


def add_cell_arguments(parser, help_suffix: str = "") -> None:
    """``--policy`` / ``--workload``: the fig6 quick cell, checked
    against the harness's policy names and YCSB's workload names."""
    parser.add_argument("--policy", default="mru",
                        choices=harness.GENERIC_POLICY_NAMES,
                        help=f"policy{help_suffix} (default: mru)")
    parser.add_argument("--workload", default="C", choices=YCSB_WORKLOADS,
                        help=f"YCSB workload{help_suffix} (default: C)")


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1): {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check that instrumentation planes cost nothing when "
                    "off and perturb nothing when on.")
    parser.add_argument("checks", nargs="*", metavar="CHECK",
                        help=f"checks to run (default: all of "
                             f"{', '.join(CHECKS)})")
    add_cell_arguments(parser, " of the fig6 cell")
    parser.add_argument("--threshold", type=_fraction,
                        default=DEFAULT_THRESHOLD,
                        help=f"max tolerated overhead fraction, in (0, 1) "
                             f"(default: {DEFAULT_THRESHOLD})")
    parser.add_argument("--json", action="store_true",
                        help="emit the reports as JSON")
    args = parser.parse_args(argv)
    for name in args.checks:
        if name not in CHECKS:
            parser.error(f"unknown check {name!r} "
                         f"(choose from {', '.join(CHECKS)})")

    reports = [run_check(name, args.policy, args.workload,
                         args.threshold if name == "overhead" else None)
               for name in args.checks or CHECKS]
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        print("\n\n".join(format_report(r) for r in reports))
    return 0 if all(r["passed"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
