"""Offline analyzer for timeseries frames: phases, brownouts, warm-up.

The sampler (:mod:`repro.obs.timeseries`) answers "what happened
when"; this module answers "what *changed* when".  It reads a frames
JSONL artifact and emits a typed ``episodes.json`` with three episode
families, cross-correlated against the recorded fault timeline
(``active_faults`` on the machine rows — the PR 5 plan windows):

* ``warmup_complete`` — the first frame whose hit ratio enters a band
  below the steady-state ratio (median of the final quarter of
  frames): the cold-cache fill the fleet-scale ROADMAP item needs to
  see after rolling restarts.
* ``phase_change`` — windowed hit-ratio change-points: the mean over
  the ``window`` frames after a boundary differs from the mean over
  the ``window`` frames before it by at least ``phase_threshold``.
  Candidate boundaries are suppressed to local maxima so one drift
  reports one episode, not ``window`` of them.
* ``degradation`` — brownout episodes: frames whose device service
  metric (busy-µs per transferred page; zero when a frame moved no
  pages) exceeds ``degrade_factor`` x a robust baseline (median of
  the lowest quarter of positive values — immune to open-ended
  faults skewing the overall median).  Each
  episode records whether it overlaps an injected fault window
  (``fault_overlap``), which is how the chaos acceptance check
  localizes a brownout to within one sample interval.

Everything is pure arithmetic over the frames — deterministic, no
engine, no RNG — so the report is byte-stable for byte-identical
frames.

CLI::

    python -m repro.obs.analyze frames.jsonl -o episodes.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.obs.timeseries import read_frames_jsonl

ANALYZE_FORMAT = "repro.obs.analyze"
ANALYZE_VERSION = 1

#: Change-point comparison window, in frames, each side of a boundary.
DEFAULT_WINDOW = 3
#: Minimum |mean-after - mean-before| hit-ratio delta for a phase change.
DEFAULT_PHASE_THRESHOLD = 0.15
#: Degradation threshold: metric > factor x robust baseline.
DEFAULT_DEGRADE_FACTOR = 3.0
#: Warm-up band: warm once hit ratio >= steady - band.
DEFAULT_WARMUP_BAND = 0.05


def _median(values: list) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# per-group detectors (frames = machine rows of one (cell, machine))
# ----------------------------------------------------------------------
def _hit_ratios(scope_rows: list) -> list:
    """Per-frame hit ratio of one scope's rows (None when idle)."""
    out = []
    for row in scope_rows:
        lookups = row.get("lookups", 0)
        out.append(row.get("hits", 0) / lookups if lookups else None)
    return out


def detect_warmup(frames: list, ratios: list,
                  band: float = DEFAULT_WARMUP_BAND) -> tuple:
    """``(steady_ratio, episode_or_None)`` for one frame group."""
    active = [(f, r) for f, r in zip(frames, ratios) if r is not None]
    if len(active) < 4:
        return (None, None)
    tail = [r for _f, r in active[-max(1, len(active) // 4):]]
    steady = _median(tail)
    for frame, ratio in active:
        if ratio >= steady - band:
            episode = {"type": "warmup_complete",
                       "t_us": frame["t_us"] + frame["dur_us"],
                       "hit_ratio": round(ratio, 6),
                       "steady_hit_ratio": round(steady, 6)}
            return (steady, episode)
    return (steady, None)


def detect_phase_changes(frames: list, ratios: list,
                         window: int = DEFAULT_WINDOW,
                         threshold: float = DEFAULT_PHASE_THRESHOLD) -> list:
    """Windowed change-point scan over per-frame hit ratios."""
    series = [(f, r) for f, r in zip(frames, ratios) if r is not None]
    n = len(series)
    if n < 2 * window:
        return []
    deltas = {}
    for i in range(window, n - window + 1):
        before = _mean(r for _f, r in series[i - window:i])
        after = _mean(r for _f, r in series[i:i + window])
        if abs(after - before) >= threshold:
            deltas[i] = after - before
    episodes = []
    for i, delta in sorted(deltas.items()):
        # Local-maxima suppression: a drift spanning several
        # boundaries reports only the strongest one per neighbourhood.
        if any(abs(deltas[j]) > abs(delta)
               for j in range(i - window, i + window + 1)
               if j != i and j in deltas):
            continue
        frame = series[i][0]
        episodes.append({"type": "phase_change",
                         "t_us": frame["t_us"],
                         "delta": round(delta, 6),
                         "direction": "up" if delta > 0 else "down"})
    return episodes


def _service_metric(row: dict) -> float:
    """Per-frame device service signal: busy-µs per transferred page
    (continuous, fault-factor-proportional); 0.0 when no pages moved
    this frame, which then also completed no request."""
    pages = row.get("io_read_pages", 0) + row.get("io_write_pages", 0)
    if pages > 0:
        return row.get("disk_busy_us", 0.0) / pages
    return 0.0


def detect_degradation(machine_rows: list,
                       factor: float = DEFAULT_DEGRADE_FACTOR) -> list:
    """Brownout episodes: consecutive frames whose service metric
    exceeds ``factor`` x the robust baseline.

    The baseline is the median of the cheapest quartile of fault-free
    frames (``active_faults == 0``) when the timeline has any: an
    open-ended brownout can degrade nearly every frame of a run, and
    a baseline drawn from all frames would then be polluted by the
    very degradation it is meant to flag — even a single fault-free
    frame anchors better than a degraded median.  With no fault-free
    frames at all (organic degradation, or faults armed for the whole
    run) it falls back to the cheapest quartile of all frames.

    Idle frames (no pages transferred, so no block request completed
    and the service metric is zero) carry no evidence either way: they
    neither extend an episode nor terminate it — only a frame that
    actually measured healthy service closes an open episode.
    """
    metrics = [_service_metric(row) for row in machine_rows]
    clean = sorted(m for row, m in zip(machine_rows, metrics)
                   if m > 0 and not row.get("active_faults", 0))
    positive = sorted(m for m in metrics if m > 0)
    if len(positive) < 4:
        return []
    anchor = clean if clean else positive
    baseline = _median(anchor[:max(3, len(anchor) // 4)])
    if baseline <= 0:
        return []
    episodes = []
    current: Optional[dict] = None
    for row, metric in zip(machine_rows, metrics):
        if metric <= 0:
            continue
        degraded = metric > factor * baseline
        if degraded:
            ratio = metric / baseline
            if current is None:
                current = {"type": "degradation",
                           "start_us": row["t_us"],
                           "end_us": row["t_us"] + row["dur_us"],
                           "frames": 1,
                           "peak_ratio": round(ratio, 3),
                           "baseline_service_us": round(baseline, 3),
                           "fault_overlap":
                               row.get("active_faults", 0) > 0}
            else:
                current["end_us"] = row["t_us"] + row["dur_us"]
                current["frames"] += 1
                current["peak_ratio"] = max(current["peak_ratio"],
                                            round(ratio, 3))
                if row.get("active_faults", 0) > 0:
                    current["fault_overlap"] = True
        elif current is not None:
            episodes.append(current)
            current = None
    if current is not None:
        episodes.append(current)
    return episodes


def fault_windows(machine_rows: list) -> list:
    """Contiguous runs of frames with armed fault windows active —
    the injected timeline the degradation episodes are matched
    against."""
    windows = []
    current: Optional[dict] = None
    for row in machine_rows:
        active = row.get("active_faults", 0)
        if active > 0:
            if current is None:
                current = {"start_us": row["t_us"],
                           "end_us": row["t_us"] + row["dur_us"],
                           "max_active": active}
            else:
                current["end_us"] = row["t_us"] + row["dur_us"]
                current["max_active"] = max(current["max_active"], active)
        elif current is not None:
            windows.append(current)
            current = None
    if current is not None:
        windows.append(current)
    return windows


# ----------------------------------------------------------------------
# top-level analysis
# ----------------------------------------------------------------------
def analyze_rows(meta: dict, rows: list, window: int = DEFAULT_WINDOW,
                 phase_threshold: float = DEFAULT_PHASE_THRESHOLD,
                 degrade_factor: float = DEFAULT_DEGRADE_FACTOR,
                 warmup_band: float = DEFAULT_WARMUP_BAND) -> dict:
    """Analyze loaded frame rows into the episodes document."""
    groups: dict[tuple, dict] = {}
    for row in rows:
        key = (row.get("cell", ""), row.get("machine", 0))
        group = groups.setdefault(key, {})
        group.setdefault(row.get("scope", "machine"), []).append(row)

    out_groups = []
    flat = []
    for (cell, machine) in sorted(groups):
        scopes = groups[(cell, machine)]
        machine_rows = scopes.get("machine", [])
        # Primary scope: the busiest cgroup (most lookups); fall back
        # to the machine rows when no cgroup saw traffic.
        primary = "machine"
        best = -1
        for name, scope_rows in sorted(scopes.items()):
            if name == "machine":
                continue
            lookups = sum(r.get("lookups", 0) for r in scope_rows)
            if lookups > best:
                primary, best = name, lookups
        if best <= 0:
            primary = "machine"
        primary_rows = scopes.get(primary, machine_rows)

        ratios = _hit_ratios(primary_rows)
        steady, warmup = detect_warmup(primary_rows, ratios,
                                       band=warmup_band)
        episodes = []
        if warmup is not None:
            episodes.append(warmup)
        episodes.extend(detect_phase_changes(
            primary_rows, ratios, window=window,
            threshold=phase_threshold))
        episodes.extend(detect_degradation(machine_rows,
                                           factor=degrade_factor))
        episodes.sort(key=lambda e: (e.get("t_us", e.get("start_us", 0)),
                                     e["type"]))
        group_doc = {
            "cell": cell,
            "machine": machine,
            "primary_scope": primary,
            "frames": len(machine_rows),
            "steady_hit_ratio": (round(steady, 6)
                                 if steady is not None else None),
            "episodes": episodes,
            "fault_windows": fault_windows(machine_rows),
        }
        out_groups.append(group_doc)
        for episode in episodes:
            flat.append({"cell": cell, "machine": machine, **episode})

    return {
        "format": ANALYZE_FORMAT,
        "version": ANALYZE_VERSION,
        "interval_us": meta.get("interval_us"),
        "params": {"window": window,
                   "phase_threshold": phase_threshold,
                   "degrade_factor": degrade_factor,
                   "warmup_band": warmup_band},
        "groups": out_groups,
        "episodes": flat,
    }


def analyze_file(path: str, **kwargs) -> dict:
    meta, rows = read_frames_jsonl(path)
    return analyze_rows(meta, rows, **kwargs)


def format_report(doc: dict) -> str:
    """Human-readable rendering of an episodes document."""
    lines = []
    for group in doc["groups"]:
        cell = group["cell"] or "(run)"
        lines.append(f"{cell} machine {group['machine']} "
                     f"[{group['frames']} frames, "
                     f"primary scope {group['primary_scope']}]")
        if not group["episodes"]:
            lines.append("  no episodes")
        for ep in group["episodes"]:
            if ep["type"] == "warmup_complete":
                lines.append(
                    f"  warmup_complete  t={ep['t_us'] / 1000.0:10.1f}ms  "
                    f"hit {ep['hit_ratio']:.3f} "
                    f"(steady {ep['steady_hit_ratio']:.3f})")
            elif ep["type"] == "phase_change":
                lines.append(
                    f"  phase_change     t={ep['t_us'] / 1000.0:10.1f}ms  "
                    f"hit-ratio {ep['direction']} {ep['delta']:+.3f}")
            else:
                overlap = "fault" if ep["fault_overlap"] else "no fault"
                lines.append(
                    f"  degradation      "
                    f"t={ep['start_us'] / 1000.0:10.1f}ms"
                    f"..{ep['end_us'] / 1000.0:.1f}ms  "
                    f"peak {ep['peak_ratio']:.1f}x baseline  "
                    f"[{overlap} window]")
        for win in group["fault_windows"]:
            lines.append(
                f"  fault window     "
                f"t={win['start_us'] / 1000.0:10.1f}ms"
                f"..{win['end_us'] / 1000.0:.1f}ms  "
                f"max {win['max_active']} active")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Detect phases, brownouts and warm-up in a "
                    "timeseries frames artifact.")
    parser.add_argument("frames", help="frames JSONL from --timeseries")
    parser.add_argument("-o", "--output", default=None,
                        help="write episodes.json here")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="change-point window, frames per side "
                             "(default %(default)s)")
    parser.add_argument("--phase-threshold", type=float,
                        default=DEFAULT_PHASE_THRESHOLD,
                        help="min hit-ratio delta (default %(default)s)")
    parser.add_argument("--degrade-factor", type=float,
                        default=DEFAULT_DEGRADE_FACTOR,
                        help="service-vs-baseline factor "
                             "(default %(default)s)")
    parser.add_argument("--warmup-band", type=float,
                        default=DEFAULT_WARMUP_BAND,
                        help="band below steady ratio (default %(default)s)")
    args = parser.parse_args(argv)

    doc = analyze_file(args.frames, window=args.window,
                       phase_threshold=args.phase_threshold,
                       degrade_factor=args.degrade_factor,
                       warmup_band=args.warmup_band)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    try:
        print(format_report(doc))
    except BrokenPipeError:  # pragma: no cover - pager closed
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
