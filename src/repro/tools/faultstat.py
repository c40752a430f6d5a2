"""faultstat: injected faults and degradation events over time.

The fault-injection plane (:mod:`repro.faults`) emits one tracepoint
per injected fault (``fault:inject``, tagged with a domain and kind),
one per failed block request (``block:io_error``) and one per policy
quarantine transition (``cache_ext:quarantine`` /
``cache_ext:reattach``).  This tool aggregates them into fixed windows
of *virtual* time — the chaos-experiment counterpart of
:mod:`repro.tools.cachestat` — so a run's fault timeline reads as a
table: when the device browned out, when the retries spiked, when the
policy was benched and when it came back.

Offline against a recorded trace, or live against a chaos cell::

    python -m repro.tools.faultstat run.jsonl
    python -m repro.tools.faultstat run.jsonl --window-ms 20
    python -m repro.tools.faultstat --live --scenario flaky-disk
    python -m repro.tools.faultstat --frames frames.jsonl

With ``--frames`` (a :mod:`repro.obs.timeseries` export, alone or next
to a trace) the tool renders the *observed* side of the story: one
line per telemetry frame showing the armed fault windows
(``active_faults``), fired injections, I/O errors and the device
service metric, with frames inside analyzer-detected degradation
episodes (:mod:`repro.obs.analyze`) marked — injected cause and
measured effect side by side.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.experiments import chaos
from repro.experiments.parallel import filter_cells
from repro.obs.collectors import CgroupView, CgroupViews
from repro.tools import _cli
from repro.workloads.twitter import CLUSTERS
from repro.workloads.ycsb import YCSB_WORKLOADS

DEFAULT_WINDOW_MS = 20.0


#: What ``faultstat`` subscribes to.
TRACEPOINTS = ("fault:inject", "block:io_error", "cache_ext:watchdog_detach",
               "cache_ext:quarantine", "cache_ext:reattach")


def window_rows(views: CgroupViews) -> list[tuple]:
    """``(window_start_us, device, policy, memory, io_errors, detaches,
    quarantines, reattaches)`` rows, summed over cgroups; every domain
    but device and policy counts as memory."""
    out = []
    for start_us, group in views.windows():
        v = CgroupView("*").merge(*group.values())
        device = v.faults.get("device", 0)
        policy = v.faults.get("policy", 0)
        out.append((start_us, device, policy,
                    sum(v.faults.values()) - device - policy, v.io_errors,
                    v.watchdog_detaches, v.quarantines, v.reattaches))
    return out


def format_faultstat(views: CgroupViews) -> str:
    table = window_rows(views)
    if not table:
        return "(no fault events observed)"
    lines = [f"{'TIME_MS':>10s} {'DEVICE':>7s} {'POLICY':>7s} "
             f"{'MEMORY':>7s} {'IO_ERR':>7s} {'DETACH':>7s} "
             f"{'QUARAN':>7s} {'REATT':>7s}"]
    for start_us, dev, pol, mem, ioerr, det, quar, reat in table:
        lines.append(f"{start_us / 1000.0:>10.1f} {dev:>7d} {pol:>7d} "
                     f"{mem:>7d} {ioerr:>7d} {det:>7d} {quar:>7d} "
                     f"{reat:>7d}")
    total = sum(sum(r[1:4]) for r in table)
    by_kind = CgroupView("*").merge(*views.views.values()).fault_kinds
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
    lines.append(f"overall: {total} faults injected"
                 + (f" ({kinds})" if kinds else ""))
    return "\n".join(lines)


def format_frames_view(meta: dict, rows: list, **analyze_kwargs) -> str:
    """Fault windows and degradation episodes, side by side.

    ``meta``/``rows`` come from
    :func:`repro.obs.timeseries.read_frames_jsonl`.  Renders one line
    per machine-scope frame — active fault windows, fired injections,
    I/O errors, queue depth and the per-frame device service metric —
    and marks every frame that falls inside a degradation episode the
    analyzer detected, then appends the analyzer's episode report so
    the injected timeline and its measured effect read together.
    """
    from repro.obs import analyze

    doc = analyze.analyze_rows(meta, rows, **analyze_kwargs)
    machine_rows: dict[tuple, list] = {}
    for row in rows:
        if row.get("scope") != "machine":
            continue
        key = (row.get("cell", ""), row.get("machine", 0))
        machine_rows.setdefault(key, []).append(row)
    if not machine_rows:
        return "(no machine-scope frames in file)"

    degradations: dict[tuple, list] = {}
    for group in doc["groups"]:
        key = (group["cell"], group["machine"])
        degradations[key] = [ep for ep in group["episodes"]
                             if ep["type"] == "degradation"]

    lines = []
    for key in sorted(machine_rows):
        cell, machine = key
        if lines:
            lines.append("")
        title = cell or "(run)"
        lines.append(f"{title} machine {machine}")
        lines.append(f"{'TIME_MS':>10s} {'ACTIVE':>7s} {'FIRED':>6s} "
                     f"{'IO_ERR':>7s} {'QDEPTH':>7s} {'SERV_US':>8s}")
        episodes = degradations.get(key, ())
        for row in machine_rows[key]:
            t_us = row["t_us"]
            degraded = any(ep["start_us"] <= t_us < ep["end_us"]
                           for ep in episodes)
            marks = []
            if row.get("active_faults", 0) > 0:
                marks.append("fault")
            if degraded:
                marks.append("DEGRADED")
            lines.append(
                f"{t_us / 1000.0:>10.1f} {row.get('active_faults', 0):>7d} "
                f"{row.get('faults_fired', 0):>6d} "
                f"{row.get('io_errors', 0):>7d} "
                f"{row.get('queue_depth', 0):>7d} "
                f"{analyze._service_metric(row):>8.1f}"
                + (f"  << {' + '.join(marks)}" if marks else ""))
    lines.append("")
    lines.append(analyze.format_report(doc))
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Injected faults and degradation events per "
                    "virtual-time window")
    parser.add_argument("trace", nargs="?",
                        help="JSONL trace file ('-' for stdin)")
    parser.add_argument("--window-ms", type=_cli.window_ms,
                        default=DEFAULT_WINDOW_MS,
                        help=f"window size in virtual ms "
                             f"(default: {DEFAULT_WINDOW_MS:.0f})")
    parser.add_argument("--live", action="store_true",
                        help="run a quick chaos cell instead of "
                             "reading a trace")
    parser.add_argument("--scenario", default="flaky-disk",
                        choices=chaos.SCENARIOS,
                        help="chaos scenario for --live "
                             "(default: flaky-disk)")
    parser.add_argument("--workload", default="A",
                        choices=tuple(YCSB_WORKLOADS)
                        + tuple(f"tw{c}" for c in CLUSTERS),
                        metavar="WORKLOAD",
                        help="workload for --live: a YCSB letter or "
                             "twNN (default: A)")
    parser.add_argument("--frames", metavar="FRAMES",
                        help="also render a repro.obs.timeseries frames "
                             "file: fault windows next to analyzer-"
                             "detected degradation episodes")
    args = parser.parse_args(argv)

    if args.frames:
        from repro.obs.timeseries import read_frames_jsonl
        frames = _cli.load("faultstat", read_frames_jsonl, args.frames)
        if frames is None:
            return 1
        frames_view = format_frames_view(*frames)
        if not args.trace and not args.live:
            print(frames_view)
            return 0
    else:
        frames_view = None

    views = CgroupViews(*TRACEPOINTS, window_us=args.window_ms * 1000.0)
    if args.live:
        spec = chaos.plan(quick=True, scenarios=(args.scenario,),
                          workloads=(args.workload,))
        _cli.observe(views, filter_cells(
            spec, f"{args.workload}/{args.scenario}"))
    else:
        if not args.trace:
            parser.error("a trace file is required "
                         "(or --live / --frames)")
        events = _cli.load_trace("faultstat", args.trace)
        if events is None:
            return 1
        views.replay(events)
    print(format_faultstat(views))
    if frames_view is not None:
        print()
        print(frames_view)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
