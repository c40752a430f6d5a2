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

from repro.obs.collectors import Collector
from repro.obs.trace import TraceEvent, TraceSession
from repro.tools import _cli

DEFAULT_WINDOW_MS = 20.0


class FaultStatCollector(Collector):
    """Per-window fault/degradation counters."""

    tracepoints = ("fault:inject", "block:io_error",
                   "cache_ext:watchdog_detach", "cache_ext:quarantine",
                   "cache_ext:reattach")

    def __init__(self, window_us: float = DEFAULT_WINDOW_MS * 1000.0) -> None:
        if window_us <= 0:
            raise ValueError(f"window must be positive: {window_us}")
        self.window_us = window_us
        #: window index -> [device, policy, memory, io_errors,
        #: detaches, quarantines, reattaches].
        self.windows: dict[int, list] = {}
        #: ``domain:kind`` -> total count across the run.
        self.by_kind: dict[str, int] = {}

    def _slot(self, ts_us: float) -> list:
        index = int(ts_us // self.window_us)
        slot = self.windows.get(index)
        if slot is None:
            slot = self.windows[index] = [0, 0, 0, 0, 0, 0, 0]
        return slot

    def handle(self, event: TraceEvent) -> None:
        name = event.name
        slot = self._slot(event.ts_us)
        if name == "fault:inject":
            domain = event.data.get("domain", "?")
            kind = event.data.get("kind", "?")
            key = f"{domain}:{kind}"
            self.by_kind[key] = self.by_kind.get(key, 0) + 1
            if domain == "device":
                slot[0] += 1
            elif domain == "policy":
                slot[1] += 1
            else:
                slot[2] += 1
        elif name == "block:io_error":
            slot[3] += 1
        elif name == "cache_ext:watchdog_detach":
            slot[4] += 1
        elif name == "cache_ext:quarantine":
            slot[5] += 1
        elif name == "cache_ext:reattach":
            slot[6] += 1

    def rows(self) -> list[tuple]:
        """``(window_start_us, device, policy, memory, io_errors,
        detaches, quarantines, reattaches)`` rows."""
        return [(index * self.window_us, *counts)
                for index, counts in sorted(self.windows.items())]


def format_faultstat(collector: FaultStatCollector) -> str:
    rows = collector.rows()
    if not rows:
        return "(no fault events observed)"
    lines = [f"{'TIME_MS':>10s} {'DEVICE':>7s} {'POLICY':>7s} "
             f"{'MEMORY':>7s} {'IO_ERR':>7s} {'DETACH':>7s} "
             f"{'QUARAN':>7s} {'REATT':>7s}"]
    for start_us, dev, pol, mem, ioerr, det, quar, reat in rows:
        lines.append(f"{start_us / 1000.0:>10.1f} {dev:>7d} {pol:>7d} "
                     f"{mem:>7d} {ioerr:>7d} {det:>7d} {quar:>7d} "
                     f"{reat:>7d}")
    total = sum(sum(r[1:4]) for r in rows)
    kinds = ", ".join(f"{k}={v}" for k, v in
                      sorted(collector.by_kind.items()))
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


def run_live(scenario: str, workload: str,
             window_us: float) -> FaultStatCollector:
    """Run one quick-scale chaos cell with the collector attached."""
    from repro.experiments import chaos
    from repro.experiments.harness import make_db_env

    params = dict(chaos.QUICK_SCALE)
    horizon = params.pop("horizon_us")
    if workload.startswith("tw"):
        horizon *= chaos.TWITTER_HORIZON_MULT
    env = make_db_env(chaos.POLICY,
                      cgroup_pages=params["cgroup_pages"],
                      nkeys=params["nkeys"], compaction_thread=True)
    plan = chaos.scenario_plan(scenario, horizon)
    if plan is not None:
        env.machine.arm_faults(plan)
    collector = FaultStatCollector(window_us)
    session = TraceSession(env.machine, collectors=[collector],
                           buffer=False)
    session.start()
    chaos._run_workload(env, workload, params)
    session.stop()
    return collector


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Injected faults and degradation events per "
                    "virtual-time window")
    parser.add_argument("trace", nargs="?",
                        help="JSONL trace file ('-' for stdin)")
    parser.add_argument("--window-ms", type=float,
                        default=DEFAULT_WINDOW_MS,
                        help=f"window size in virtual ms "
                             f"(default: {DEFAULT_WINDOW_MS:.0f})")
    parser.add_argument("--live", action="store_true",
                        help="run a quick chaos cell instead of "
                             "reading a trace")
    parser.add_argument("--scenario", default="flaky-disk",
                        help="chaos scenario for --live "
                             "(default: flaky-disk)")
    parser.add_argument("--workload", default="A",
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

    window_us = args.window_ms * 1000.0
    if args.live:
        collector = run_live(args.scenario, args.workload, window_us)
    else:
        if not args.trace:
            parser.error("a trace file is required "
                         "(or --live / --frames)")
        events = _cli.load_trace("faultstat", args.trace)
        if events is None:
            return 1
        collector = FaultStatCollector(window_us).replay(events)
    print(format_faultstat(collector))
    if frames_view is not None:
        print()
        print(frames_view)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
