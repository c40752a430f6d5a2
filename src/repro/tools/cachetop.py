"""cachetop: per-cgroup page-cache summaries from a JSONL trace.

The ``cachetop`` BCC tool renders live per-process page-cache hit
ratios from kernel tracepoints; this is the same view for the
simulator, computed offline from a :class:`~repro.obs.trace.TraceSession`
JSONL export::

    python -m repro.tools.cachetop run.jsonl
    python -m repro.tools.cachetop run.jsonl --window-ms 50   # frames
    python -m repro.tools.cachetop run.jsonl --latency        # biolatency
    python -m repro.tools.cachetop --replay frames.jsonl      # scrub
    python -m repro.tools.cachetop --replay frames.jsonl --at 40
    python -m repro.tools.cachetop --selftest

One row per cgroup: lookups, hits, hit%, insertions, evictions,
refaults, block I/O pages and mean latency, plus the cache_ext health
counters (fallback evictions, kfunc errors, watchdog detaches) when
any are non-zero.  ``--window-ms`` renders one frame per virtual-time
window — the "live" display replayed from the trace.

The numbers are exact, not sampled: ``hit%`` computed from a full
trace matches ``cgroup.stats.hit_ratio`` bit-for-bit, which
``--selftest`` asserts end-to-end (simulate, export, re-read, compare).

``--replay`` takes a :mod:`repro.obs.timeseries` frames file (a run
recorded with ``--timeseries``) instead of a raw trace and renders
each fixed-interval frame as one cachetop refresh — the live view
scrubbed offline, without the event-level trace.  ``--at MS`` jumps
to the frame covering one virtual-time instant.
"""

from __future__ import annotations

import argparse
from typing import Iterable, Optional

from repro.obs.collectors import CgroupView, CgroupViews
from repro.obs.trace import TraceEvent, TraceSession
from repro.tools import _cli


def summarize(events: Iterable[TraceEvent]) -> dict[str, CgroupView]:
    """Fold a trace into one :class:`CgroupView` per cgroup."""
    return CgroupViews().replay(events).cgroups()


def format_views(views: dict, ts_us: Optional[float] = None) -> str:
    """One cachetop-style table over a set of cgroup views.

    When the trace carries ``span:close`` events, three extra columns
    break each cgroup's average request down: device wait, device
    service, and reclaim stall per span (µs).
    """
    spans = any(v.span_count for v in views.values())
    header = (f"{'CGROUP':<14s} {'LOOKUPS':>8s} {'HITS':>8s} {'HIT%':>7s} "
              f"{'INSERT':>7s} {'EVICT':>7s} {'REFLT':>6s} "
              f"{'IO_RD':>7s} {'IO_WR':>7s} {'LAT_US':>8s}")
    if spans:
        header += f" {'DWAIT':>7s} {'DSERV':>7s} {'RSTALL':>7s}"
    lines = []
    if ts_us is not None:
        lines.append(f"--- t = {ts_us / 1000.0:.1f} ms ---")
    lines.append(header)
    for name in sorted(views):
        v = views[name]
        row = (
            f"{v.name:<14.14s} {v.lookups:>8d} {v.hits:>8d} "
            f"{100.0 * v.hit_ratio:>6.2f}% {v.inserts:>7d} {v.evicts:>7d} "
            f"{v.refaults:>6d} {v.io_read_pages:>7d} {v.io_write_pages:>7d} "
            f"{v.io_latency.mean:>8.1f}")
        if spans:
            n = v.span_count if v.span_count else 1
            row += (f" {v.device_wait_us / n:>7.1f}"
                    f" {v.device_service_us / n:>7.1f}"
                    f" {v.reclaim_stall_us / n:>7.1f}")
        lines.append(row)
        if v.unhealthy:
            lines.append(
                f"{'':<14s} !! fallback={v.fallback_evictions} "
                f"kfunc_errors={v.kfunc_errors} "
                f"watchdog_detaches={v.watchdog_detaches}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# frame replay (--replay): scrub a recorded telemetry timeline
# ----------------------------------------------------------------------
def replay_frames(rows: list) -> list:
    """Group telemetry rows into ``(cell, t_us, rows)`` frames.

    ``rows`` is the row list from
    :func:`repro.obs.timeseries.read_frames_jsonl`; one frame is every
    scope row sharing a ``(cell, t_us)`` pair.  File order is
    preserved, so frames come out cell-by-cell in time order exactly
    as the sampler emitted them.
    """
    grouped: dict = {}
    order: list = []
    for row in rows:
        key = (row.get("cell", ""), row["t_us"])
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(row)
    return [(cell, t_us, grouped[(cell, t_us)]) for cell, t_us in order]


def format_frame(cell: str, t_us: float, rows: list) -> str:
    """One cachetop-style refresh for one recorded telemetry frame.

    Same column layout as :func:`format_views`, but fed from
    :mod:`repro.obs.timeseries` frame rows (per-frame counter deltas)
    instead of raw trace events.  Frames carry no per-cgroup latency,
    so the LAT_US column is dropped; the machine-scope row is rendered
    as a trailer with the device gauges (queue depth, active faults,
    service quantiles) that have no per-cgroup equivalent.
    """
    machine_row = None
    cgroup_rows = []
    for row in rows:
        if row["scope"] == "machine":
            machine_row = row
        else:
            cgroup_rows.append(row)
    dur = rows[0].get("dur_us", 0.0) if rows else 0.0
    title = f"--- t = {t_us / 1000.0:.1f}..{(t_us + dur) / 1000.0:.1f} ms"
    if cell:
        title += f"  [{cell}]"
    lines = [title + " ---",
             f"{'CGROUP':<14s} {'LOOKUPS':>8s} {'HITS':>8s} {'HIT%':>7s} "
             f"{'INSERT':>7s} {'EVICT':>7s} {'REFLT':>6s} "
             f"{'IO_RD':>7s} {'IO_WR':>7s}"]
    for row in sorted(cgroup_rows, key=lambda r: r["scope"]):
        lookups = row.get("lookups", 0)
        hits = row.get("hits", 0)
        ratio = hits / lookups if lookups else 0.0
        lines.append(
            f"{row['scope']:<14.14s} {lookups:>8d} {hits:>8d} "
            f"{100.0 * ratio:>6.2f}% {row.get('insertions', 0):>7d} "
            f"{row.get('evictions', 0):>7d} {row.get('refaults', 0):>6d} "
            f"{row.get('io_read_pages', 0):>7d} "
            f"{row.get('io_write_pages', 0):>7d}")
        unhealthy = (row.get("fallback_evictions", 0)
                     or row.get("kfunc_errors", 0)
                     or row.get("watchdog_detaches", 0))
        if unhealthy:
            lines.append(
                f"{'':<14s} !! fallback={row.get('fallback_evictions', 0)} "
                f"kfunc_errors={row.get('kfunc_errors', 0)} "
                f"watchdog_detaches={row.get('watchdog_detaches', 0)}")
    if machine_row is not None:
        m = machine_row
        lines.append(
            f"machine: qdepth={m.get('queue_depth', 0)} "
            f"active_faults={m.get('active_faults', 0)} "
            f"fired={m.get('faults_fired', 0)} "
            f"io_err={m.get('io_errors', 0)} "
            f"dserv p50/p99="
            f"{m.get('device_service_p50_us', 0.0):.0f}/"
            f"{m.get('device_service_p99_us', 0.0):.0f}us "
            f"resident={m.get('charged_pages', 0)}pg")
    return "\n".join(lines)


def select_frames(frame_list: list, at_us: float) -> list:
    """The frame covering ``at_us`` for each cell (scrub to one instant).

    Frames are contiguous half-open windows, so the frame covering
    ``at_us`` is the last one starting at or before it; past the end
    of a cell's timeline the last frame wins, before the start the
    first.
    """
    per_cell: dict = {}
    for cell, t_us, rows in frame_list:
        chosen = per_cell.get(cell)
        if chosen is None or t_us <= at_us:
            per_cell[cell] = (t_us, rows)
    return [(cell, t_us, rows)
            for cell, (t_us, rows) in per_cell.items()]


def render_replay(path, at_ms: Optional[float] = None) -> str:
    """Render a recorded frames file as a sequence of refreshes."""
    from repro.obs.timeseries import read_frames_jsonl

    meta, rows = read_frames_jsonl(path)
    frame_list = replay_frames(rows)
    if not frame_list:
        return "(no frames recorded)"
    if at_ms is not None:
        frame_list = select_frames(frame_list, at_ms * 1000.0)
    blocks = [format_frame(cell, t_us, frows)
              for cell, t_us, frows in frame_list]
    interval = meta.get("interval_us", 0.0)
    blocks.append(f"{len(frame_list)} frame(s), sample interval "
                  f"{interval / 1000.0:.1f} ms")
    return "\n\n".join(blocks)


def format_latency(views: dict) -> str:
    """biolatency-style per-cgroup latency histograms."""
    chunks = []
    for name in sorted(views):
        hist = views[name].io_latency
        if len(hist) == 0:
            continue
        chunks.append(f"cgroup {name}: block I/O latency (us)\n"
                      + hist.format())
    return "\n\n".join(chunks) if chunks else "(no block I/O in trace)"


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------
def selftest(verbose: bool = True) -> int:
    """End-to-end check: simulate, trace, export, re-read, compare.

    Runs a small scan workload under an MRU policy with a
    :class:`TraceSession` attached, round-trips the trace through
    JSONL, and asserts the hit ratio cachetop computes from the trace
    equals ``cgroup.stats.hit_ratio`` *exactly* — no sampling error,
    no drift.  Returns 0 on success (CI calls this).
    """
    import io

    from repro.kernel.machine import Machine
    from repro.policies.mru import make_mru_policy

    machine = Machine()
    cgroup = machine.new_cgroup("selftest", limit_pages=64)
    f = machine.fs.create("dataset")
    for i in range(96):
        f.store[i] = i
    f.npages = 96
    machine.attach(cgroup, make_mru_policy())

    def step(thread, state={"i": 0}):
        if state["i"] >= 4 * 96:
            return False
        machine.fs.read_page(f, state["i"] % 96)
        state["i"] += 1
        return True

    machine.spawn("scan", step, cgroup=cgroup)
    with TraceSession(machine, "cache:*", "block:*", "cache_ext:*") \
            as session:
        machine.run()

    buf = io.StringIO()
    n = session.write_jsonl(buf)
    buf.seek(0)
    events = TraceSession.load(buf)
    if len(events) != n:
        print(f"selftest: JSONL round-trip lost events "
              f"({n} written, {len(events)} read)")
        return 1
    views = summarize(events)
    view = views.get("selftest")
    if view is None:
        print("selftest: no events attributed to the workload cgroup")
        return 1
    if view.hit_ratio != cgroup.stats.hit_ratio:
        print(f"selftest: hit ratio mismatch: trace says "
              f"{view.hit_ratio!r}, stats say "
              f"{cgroup.stats.hit_ratio!r}")
        return 1
    if view.lookups != cgroup.stats.lookups:
        print(f"selftest: lookup count mismatch: trace says "
              f"{view.lookups}, stats say {cgroup.stats.lookups}")
        return 1
    if verbose:
        print(format_views(views))
        print(f"\nselftest ok: {n} events, hit ratio "
              f"{view.hit_ratio:.6f} matches cgroup stats exactly")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-cgroup page-cache summaries from a JSONL trace")
    parser.add_argument("trace", nargs="?",
                        help="JSONL trace file ('-' for stdin)")
    parser.add_argument("--window-ms", type=_cli.window_ms, default=None,
                        help="render one frame per virtual-time window")
    parser.add_argument("--latency", action="store_true",
                        help="also print per-cgroup I/O latency histograms")
    parser.add_argument("--replay", metavar="FRAMES",
                        help="scrub a recorded repro.obs.timeseries "
                             "frames file instead of reading a trace")
    parser.add_argument("--at", type=float, metavar="MS", default=None,
                        help="with --replay: show only the frame "
                             "covering this virtual-time instant (ms)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in end-to-end check and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if args.replay:
        if args.trace:
            parser.error("--replay reads frames, not a trace; "
                         "give one or the other")
        rendered = _cli.load("cachetop", render_replay, args.replay,
                             at_ms=args.at)
        if rendered is None:
            return 1
        print(rendered)
        return 0
    if args.at is not None:
        parser.error("--at only applies to --replay")
    if not args.trace:
        parser.error("a trace file is required (or --replay/--selftest)")

    events = _cli.load_trace("cachetop", args.trace)
    if events is None:
        return 1
    if not events:
        print("(empty trace)")
        return 0

    if args.window_ms is not None:
        # Per-window deltas, labelled with the window's end (a refresh).
        width = args.window_ms * 1000.0
        frames = CgroupViews(window_us=width).replay(
            sorted(events, key=lambda e: e.ts_us)).windows()
        print("\n\n".join(format_views(views, ts_us=start + width)
                           for start, views in frames))
    else:
        print(format_views(summarize(events)))
    if args.latency:
        print()
        print(format_latency(summarize(events)))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
