"""Parallel experiment runner: fan independent cells across processes.

Every figure/table in the paper is a grid of *independent* simulations
(policy x workload x size).  Each cell builds its own
:class:`~repro.kernel.machine.Machine`, so cells share nothing and can
run in separate worker processes; the merge step then reassembles the
table in the parent.  Three properties make this safe:

* **Determinism** — a cell's payload depends only on its kwargs (all
  RNGs are seeded, time is virtual), so where and when it runs cannot
  change its numbers.  Merges are pure functions of
  ``{cell_id: payload}``; all cross-cell arithmetic (baselines,
  ratios, winners, rank correlations) happens in the parent.  Serial
  and parallel runs therefore produce byte-identical tables, which
  ``tests/test_parallel.py`` asserts for every experiment.
* **Isolation** — workers are forked per cell and exit after one
  payload, so a crashing or wedged cell cannot corrupt its neighbours.
  A failed cell (crash, timeout, unpicklable payload) is retried once
  in a fresh worker — absorbing transient host-level failures (OOM
  kill, fork pressure) — and then serially in the parent, making the
  parallel path strictly a performance feature, never a correctness
  risk.  Worker tracebacks are captured and surfaced on the report.
* **Observability** — per-cell wall-clock is reported (stderr by
  default), and ``trace=True`` attaches a ``cache:lookup`` counter to
  every machine a cell builds, giving trace-derived hit ratios that
  can be compared across execution modes.

The instrumentation planes (faults, trace, breakdown, timeseries)
compose: :func:`run_cell` attaches every requested one to the cell's
machines through :func:`harness.observing` and returns what they
produced as one ``{plane: artifact}`` mapping.  Every plane runs on
either engine (``mode``: full / replay), cold or restored, with
byte-identical artifacts; :func:`resolve_execution` settles the
spellings, and the answer is recorded on the :class:`ExecutionReport`.

Usage::

    python -m repro.experiments.parallel fig6 --jobs 4
    python -m repro.experiments.parallel table5 --quick --serial

or from code::

    spec = fig6.plan(quick=True)
    report = execute(spec, jobs=4)
    print(report.result.format_table())
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import multiprocessing.connection
import os
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional

from repro.experiments import harness
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec)
from repro.sim.engine import collector_paused

#: How long the scheduler waits on worker pipes before re-checking
#: per-cell deadlines (seconds of real time).
POLL_INTERVAL_S = 0.2

#: Default per-cell timeout.  Cells are minutes at most even at full
#: scale; a worker stuck past this is presumed wedged and its cell is
#: re-run serially.
DEFAULT_TIMEOUT_S = 1800.0


def default_jobs() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, min(os.cpu_count() or 1, 8))


#: The instrumentation planes, in the order :func:`run_cell` attaches
#: them.  Every plane runs on either engine, cold or restored: the
#: replay engine runs the full engine's own unbounded loop.
PLANES = ("faults", "trace", "breakdown", "timeseries")


def requested_planes(**values) -> dict:
    """``{plane: value}`` for the planes switched on in ``values``
    (neither ``None`` nor ``False``), in attach order."""
    return {plane: values[plane] for plane in PLANES
            if values.get(plane) is not None
            and values[plane] is not False}


def resolve_execution(mode: str, snapshot="off") -> tuple:
    """Settle the spellings of ``(mode, snapshot)``.

    Returns ``(mode, snapshot)`` with ``mode`` one of
    ``"full"``/``"replay"`` (``"auto"`` is a spelling of ``"replay"``)
    and ``snapshot`` ``"on"``/``"off"`` (``"auto"`` is a spelling of
    ``"on"``).  An unknown spelling raises a ``ValueError``.
    """
    if mode not in ("full", "replay", "auto"):
        raise ValueError(f"unknown execution mode {mode!r}")
    snapshot = {False: "off", None: "off", True: "on",
                "auto": "on"}.get(snapshot, snapshot)
    if snapshot not in ("off", "on"):
        raise ValueError(f"unknown snapshot setting {snapshot!r}")
    return ("full" if mode == "full" else "replay"), snapshot


def apply_mode(spec: ExperimentSpec, mode: str) -> ExperimentSpec:
    """Rewrite a plan for the requested execution mode.

    * ``"full"`` — the spec unchanged (the reference engine).
    * ``"replay"`` — every cell that declares ``supports_replay``
      executes with ``mode="replay"`` (the trace-replay fast path,
      :mod:`repro.replay`); cells that don't opt in run full.
    * ``"auto"`` — another spelling of ``"replay"``.

    Payloads are bit-identical across full/replay/snapshot for opted-in
    cells (enforced by ``tests/test_replay.py``), so the merge result
    never depends on the choice.
    """
    mode, _ = resolve_execution(mode)
    if mode == "full":
        return spec
    cells = [dataclasses.replace(
                 cell, kwargs={**cell.kwargs, "mode": "replay"})
             if cell.supports_replay else cell
             for cell in spec.cells]
    return ExperimentSpec(spec.name, cells, spec.merge, meta=spec.meta,
                          prepare=spec.prepare)


def apply_snapshot(spec: ExperimentSpec, snapshot) -> ExperimentSpec:
    """Rewrite a plan to restore cells from sweep-level snapshots.

    * ``"off"`` / ``False`` — the spec unchanged (cold builds).
    * ``"on"`` / ``True`` / ``"auto"`` — every cell that declares a
      ``snapshot_prepare`` companion executes with ``snapshot=True``:
      its environment is restored from the shared post-load image
      (:mod:`repro.snapshot`) instead of rebuilt.  Payloads are
      byte-identical either way (``tests/test_snapshot.py``), so the
      merge result never depends on this setting.

    The rewritten spec's prepare hook additionally *warms* each
    distinct image in the parent (via those companions), mirroring the
    stream pre-generation: serial cells share the one capture, forked
    workers inherit the bytes copy-on-write.
    """
    _, snapshot = resolve_execution("full", snapshot)
    if snapshot == "off":
        return spec
    cells = [dataclasses.replace(
                 cell, kwargs={**cell.kwargs, "snapshot": True})
             if cell.snapshot_prepare is not None else cell
             for cell in spec.cells]
    warmers = [cell for cell in cells
               if cell.snapshot_prepare is not None]
    inner_prepare = spec.prepare

    def prepare() -> None:
        if inner_prepare is not None:
            inner_prepare()
        # Warm each image once; duplicate (kernel, scale) shapes are
        # deduplicated by the snapshot cache itself.
        for cell in warmers:
            cell.snapshot_prepare(**cell.kwargs)

    return ExperimentSpec(spec.name, cells, spec.merge, meta=spec.meta,
                          prepare=prepare)


def run_cell(cell: CellSpec, planes=None) -> tuple:
    """Execute one cell in this process; returns ``(payload,
    {plane: artifact})``.

    The cell runs under :func:`~repro.sim.engine.collector_paused`: no
    pass inside it, one collect before it (cheap: :func:`execute` froze
    the prepared caches first).

    ``planes`` is :func:`requested_planes`' ``{plane: value}``.  Each
    one attaches, in table order, to every machine the cell builds or
    restores (:func:`harness.observing`):

    * ``faults`` arms its :class:`~repro.faults.plan.FaultPlan` first,
      so the injected windows land in every plane behind it (no
      artifact);
    * ``trace`` counts lookups on the real tracepoint dispatch path;
    * ``breakdown`` attaches a :class:`~repro.obs.attr.SpanAggregator`
      — which *enables* span recording — and files its JSON-safe
      summary plus collapsed-stack text;
    * ``timeseries`` (a sample interval in virtual µs) attaches a
      :class:`~repro.obs.timeseries.TimeseriesSampler` — which reads
      counters and ``block:io_complete``, never spans — and files its
      columnar frame document.

    All are deterministic, so serial and parallel, cold and restored
    runs of the same cell produce byte-identical artifacts.
    """
    planes, attach, artifacts = planes or {}, [], {}
    if "faults" in planes:
        attach.append(
            lambda machine: machine.arm_faults(planes["faults"]))
    if "trace" in planes:
        # The trace-derived cross-check of the table's hit ratios.
        from repro.obs.collectors import CgroupViews
        lookups = CgroupViews("cache:lookup")
        attach.append(lookups.attach)
        artifacts["trace"] = lambda: {
            "hits": sum(v.hits for v in lookups.views.values()),
            "misses": sum(v.misses for v in lookups.views.values())}
    if "breakdown" in planes:
        from repro.obs.attr import SpanAggregator
        aggregator = SpanAggregator()
        attach.append(aggregator.attach)
        artifacts["breakdown"] = lambda: {
            "summary": aggregator.to_dict(),
            "collapsed": aggregator.collapsed()}
    if "timeseries" in planes:
        from repro.obs.timeseries import TimeseriesSampler
        sampler = TimeseriesSampler(planes["timeseries"])
        attach.append(sampler.attach)

        def timeseries_doc() -> dict:
            sampler.finalize()
            return sampler.to_doc()
        artifacts["timeseries"] = timeseries_doc
    with harness.observing(*attach), collector_paused():
        payload = cell.execute()
    return payload, {plane: make() for plane, make in artifacts.items()}


@dataclass
class CellTiming:
    """Wall-clock record for one executed cell."""

    cell_id: str
    wall_s: float
    mode: str  # "worker" | "serial" | "fallback"
    error: Optional[str] = None


@dataclass
class ExecutionReport:
    """Everything one :func:`execute` call produced."""

    result: ExperimentResult
    timings: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)
    #: cell_id -> {"summary": ..., "collapsed": ...} latency
    #: attribution (populated with ``breakdown=True``).
    breakdown: dict = field(default_factory=dict)
    #: cell_id -> columnar frame document (populated with
    #: ``timeseries=...``); export with :func:`timeseries_jsonl`.
    timeseries: dict = field(default_factory=dict)
    #: cell_ids that failed in a worker and were re-run serially.
    fallbacks: list = field(default_factory=list)
    #: cell_id -> list of worker failure messages (one per failed
    #: attempt, each carrying the child's traceback when it produced
    #: one) — populated even when a retry or fallback later succeeded.
    worker_errors: dict = field(default_factory=dict)
    wall_s: float = 0.0
    jobs: int = 1
    #: What :func:`resolve_execution` settled on for this run:
    #: ``"full"``/``"replay"`` and ``"on"``/``"off"``.
    mode: str = "full"
    snapshot: str = "off"

    def format_timings(self) -> str:
        lines = [f"[{len(self.timings)} cells, jobs={self.jobs}, "
                 f"mode={self.mode}, snapshot={self.snapshot}, "
                 f"wall {self.wall_s:.1f}s]"]
        for t in sorted(self.timings, key=lambda t: -t.wall_s):
            note = f"  ({t.mode})" if t.mode != "worker" else ""
            lines.append(f"  {t.cell_id:<32} {t.wall_s:8.2f}s{note}")
        if self.fallbacks:
            lines.append(f"  serial fallbacks: {', '.join(self.fallbacks)}")
        for cell_id in sorted(self.worker_errors):
            for attempt, error in enumerate(self.worker_errors[cell_id],
                                            start=1):
                first_line = error.splitlines()[0] if error else error
                lines.append(f"  worker error {cell_id} "
                             f"(attempt {attempt}): {first_line}")
        return "\n".join(lines)


def _worker_main(conn, cell: CellSpec, planes: dict) -> None:
    """Child entry: run one cell, send one message, exit."""
    gc.disable()  # the process exit frees the cell's machine
    try:
        conn.send(("ok", *run_cell(cell, planes)))
    except BaseException as exc:  # report, don't propagate: the parent
        import traceback          # decides how to retry
        try:
            message = (f"{type(exc).__name__}: {exc}\n"
                       f"{traceback.format_exc()}")
            conn.send(("err", message, {}))
        except Exception:
            pass
    finally:
        conn.close()


def _file_cell(report: ExecutionReport, payloads: dict,
               timing: CellTiming, payload: dict,
               artifacts: dict) -> None:
    """Record one finished cell: timing, payload, and each plane's
    artifact under ``report.<plane>[cell_id]``."""
    report.timings.append(timing)
    payloads[timing.cell_id] = payload
    for plane, artifact in artifacts.items():
        getattr(report, plane)[timing.cell_id] = artifact


def _execute_serial(spec: ExperimentSpec, planes: dict,
                    report: ExecutionReport) -> dict:
    payloads = {}
    for cell in spec.cells:
        t0 = time.perf_counter()
        result = run_cell(cell, planes)
        _file_cell(report, payloads,
                   CellTiming(cell.cell_id, time.perf_counter() - t0,
                              "serial"), *result)
    return payloads


def _execute_parallel(spec: ExperimentSpec, jobs: int, timeout_s: float,
                      planes: dict, report: ExecutionReport) -> dict:
    ctx = multiprocessing.get_context("fork")
    pending = list(spec.cells)
    running: dict = {}  # parent_conn -> (cell, process, started_at)
    payloads: dict = {}
    failed: list[tuple[CellSpec, str]] = []
    attempts: dict[str, int] = {}

    def record_failure(cell, error: str) -> None:
        # First worker failure: retry once in a fresh worker (absorbs
        # transient host-level failures); second: serial fallback.
        n = attempts.get(cell.cell_id, 0) + 1
        attempts[cell.cell_id] = n
        report.worker_errors.setdefault(cell.cell_id, []).append(error)
        if n < 2:
            pending.append(cell)
        else:
            failed.append((cell, error))

    def reap(conn, cell, proc, started) -> None:
        wall = time.perf_counter() - started
        try:
            status, value, artifacts = conn.recv()
        except (EOFError, OSError):
            status, value, artifacts = \
                "err", "worker died without a result", {}
        conn.close()
        proc.join()
        if status == "ok":
            how = "worker" if cell.cell_id not in attempts else "retry"
            _file_cell(report, payloads,
                       CellTiming(cell.cell_id, wall, how), value,
                       artifacts)
        else:
            record_failure(cell, value)

    while pending or running:
        while pending and len(running) < jobs:
            cell = pending.pop(0)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, cell, planes),
                               name=f"cell-{cell.cell_id}")
            proc.start()
            child_conn.close()
            running[parent_conn] = (cell, proc, time.perf_counter())
        ready = multiprocessing.connection.wait(
            list(running), timeout=POLL_INTERVAL_S)
        for conn in ready:
            cell, proc, started = running.pop(conn)
            reap(conn, cell, proc, started)
        now = time.perf_counter()
        for conn in [c for c, (_, _, t0) in running.items()
                     if now - t0 > timeout_s]:
            cell, proc, started = running.pop(conn)
            proc.terminate()
            proc.join()
            conn.close()
            record_failure(cell, f"timed out after {timeout_s:.0f}s")

    # Crash/timeout fallback: re-run failed cells serially, in plan
    # order, in this process — determinism makes the retry exact.
    order = {cell.cell_id: i for i, cell in enumerate(spec.cells)}
    for cell, error in sorted(failed, key=lambda f: order[f[0].cell_id]):
        t0 = time.perf_counter()
        result = run_cell(cell, planes)
        report.fallbacks.append(cell.cell_id)
        _file_cell(report, payloads,
                   CellTiming(cell.cell_id, time.perf_counter() - t0,
                              "fallback", error=error), *result)
    return payloads


def execute(spec: ExperimentSpec, jobs: Optional[int] = None,
            serial: bool = False, timeout_s: float = DEFAULT_TIMEOUT_S,
            trace: bool = False, breakdown: bool = False,
            mode: str = "full", snapshot="off",
            timeseries=None, faults=None) -> ExecutionReport:
    """Run every cell of ``spec`` and merge; returns the full report.

    ``serial=True`` (or ``jobs=1``, or a platform without ``fork``)
    runs cells in-process in plan order — the escape hatch and the
    reference behaviour the parallel path must reproduce byte for
    byte.  ``breakdown=True`` records a per-cell latency-attribution
    summary in :attr:`ExecutionReport.breakdown`.  ``timeseries``
    (``True`` for the default cadence, or a positive, finite sample
    interval in virtual µs) records per-cell telemetry frames in
    :attr:`ExecutionReport.timeseries` — export with
    :func:`timeseries_jsonl`; byte-identical serial vs ``--jobs`` and
    cold vs snapshot-restored.  ``faults`` (a
    :class:`~repro.faults.plan.FaultPlan`) is armed on every machine
    the cells build or restore, ahead of the observing planes.  ``mode``
    selects the execution engine per :func:`apply_mode` (``"replay"`` /
    ``"auto"`` route opted-in cells through the trace-replay fast
    path, with bit-identical payloads and artifacts, whatever planes
    ride them); ``snapshot`` selects
    sweep-level machine snapshots per :func:`apply_snapshot`
    (opted-in cells restore the shared post-load image instead of
    rebuilding it — byte-identical payloads again).  What was settled
    is recorded on the report.
    """
    if timeseries is None or timeseries is False:
        timeseries = None
    elif timeseries is True:
        from repro.obs.timeseries import DEFAULT_SAMPLE_INTERVAL_US
        timeseries = DEFAULT_SAMPLE_INTERVAL_US
    else:
        from repro.obs.timeseries import sample_interval
        timeseries = sample_interval(timeseries)
    planes = requested_planes(faults=faults, trace=trace,
                              breakdown=breakdown, timeseries=timeseries)
    mode, snapshot = resolve_execution(mode, snapshot)
    spec = apply_snapshot(apply_mode(spec, mode), snapshot)
    if jobs is None:
        jobs = default_jobs()
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    report = ExecutionReport(result=None, jobs=1 if serial else jobs,
                             mode=mode, snapshot=snapshot)
    t0 = time.perf_counter()
    if spec.prepare is not None:
        # Warm shared caches (pre-generated workload streams, machine
        # images) in the parent: serial cells reuse them directly;
        # forked workers inherit them copy-on-write instead of
        # regenerating per cell.
        spec.prepare()
        # The prepared caches are immortal for the process lifetime;
        # freezing them out of the cyclic collector keeps the per-cell
        # boundary collects (see run_cell) from rescanning
        # megabytes of static streams and image payloads every cell —
        # and, for forked workers, stops collector scans from dirtying
        # the inherited copy-on-write pages.
        gc.collect()
        gc.freeze()
    if serial or jobs <= 1 or len(spec.cells) <= 1 or not can_fork:
        report.jobs = 1
        payloads = _execute_serial(spec, planes, report)
    else:
        payloads = _execute_parallel(spec, jobs, timeout_s, planes,
                                     report)
    report.result = spec.merge(spec.meta, payloads)
    report.wall_s = time.perf_counter() - t0
    return report


# ----------------------------------------------------------------------
# breakdown artifacts
# ----------------------------------------------------------------------
def breakdown_json(report: ExecutionReport) -> str:
    """The ``--breakdown`` JSON artifact: per-cell attribution summary.

    Sorted keys throughout, so serial and parallel runs of the same
    plan serialize byte-identically.
    """
    summary = {cell_id: report.breakdown[cell_id]["summary"]
               for cell_id in sorted(report.breakdown)}
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def breakdown_collapsed(report: ExecutionReport) -> str:
    """Collapsed stacks across cells: ``cell;cgroup;policy;kind;comp N``."""
    lines = []
    for cell_id in sorted(report.breakdown):
        for line in report.breakdown[cell_id]["collapsed"].splitlines():
            lines.append(f"{cell_id};{line}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# timeseries artifact
# ----------------------------------------------------------------------
def timeseries_jsonl(report: ExecutionReport) -> str:
    """The ``--timeseries`` frames artifact: every cell's frames as
    JSONL (meta line + one row per frame x scope), cells in sorted
    order — serial and parallel runs serialize byte-identically."""
    import io

    from repro.obs.timeseries import write_frames_jsonl
    buf = io.StringIO()
    write_frames_jsonl(report.timeseries, buf)
    return buf.getvalue()


def _subset_merge(meta: dict, payloads: dict) -> ExperimentResult:
    """Merge for ``--cells``-filtered runs: experiment merges assume
    the full grid, so a subset is rendered as raw per-cell payloads."""
    out = ExperimentResult("cell subset", headers=["cell", "payload"])
    for cell_id in sorted(payloads):
        out.add_row(cell_id,
                    json.dumps(payloads[cell_id], sort_keys=True))
    return out


def filter_cells(spec: ExperimentSpec, pattern: str) -> ExperimentSpec:
    """A new spec containing only cells whose id matches ``pattern``.

    CI uses this to run one quick cell of a big grid with
    ``--breakdown`` without paying for the rest of the sweep.
    """
    selected = [cell for cell in spec.cells
                if fnmatchcase(cell.cell_id, pattern)]
    if not selected:
        raise NoCellsSelectedError(
            f"no cell of {spec.name!r} matches {pattern!r} "
            f"(cells: {', '.join(spec.cell_ids())})")
    return ExperimentSpec(spec.name, selected, _subset_merge,
                          meta=spec.meta, prepare=spec.prepare)


class NoCellsSelectedError(ValueError):
    """A ``--cells`` glob or ``policy=`` filter matched no cell of the
    plan; the message lists the cells there are."""


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class UnknownExperimentError(ValueError):
    """The name is not a :mod:`repro.experiments` module with a
    ``plan()``; the message lists the ones that are."""


def _load_experiment(name: str):
    import importlib
    import pkgutil
    from repro import experiments

    def load(module_name: str):
        return importlib.import_module(f"repro.experiments.{module_name}")

    names = [info.name for info in pkgutil.iter_modules(experiments.__path__)]
    if name in names and hasattr(load(name), "plan"):
        return load(name)
    known = sorted(n for n in names if hasattr(load(n), "plan"))
    raise UnknownExperimentError(
        f"unknown experiment {name!r}: known experiments are "
        + ", ".join(known))


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one experiment's cells across worker processes")
    parser.add_argument("experiment",
                        help="experiment module name (fig6, table5, ...)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes (default: min(cpus, 8))")
    parser.add_argument("--serial", action="store_true",
                        help="run cells in-process, in order")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (CI smoke)")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT_S,
                        help="per-cell timeout in seconds")
    parser.add_argument("--mode", metavar="{full,replay,auto}",
                        default="full",
                        help="execution engine: 'replay' runs "
                             "replay-capable cells on the trace-replay "
                             "fast path (bit-identical payloads); "
                             "'auto' is another spelling of 'replay'")
    parser.add_argument("--snapshot", choices=("off", "on", "auto"),
                        default="off",
                        help="sweep-level machine snapshots: 'on' "
                             "restores snapshot-capable cells from one "
                             "shared post-load image instead of "
                             "re-running the load per policy "
                             "(byte-identical tables); 'auto' is "
                             "another spelling of 'on'")
    parser.add_argument("--trace", action="store_true",
                        help="attach cache:lookup counters to every cell")
    parser.add_argument("--breakdown", default=None, metavar="PATH",
                        help="record per-cell latency attribution; "
                             "write the JSON artifact to PATH and "
                             "collapsed stacks to PATH + '.collapsed'")
    parser.add_argument("--timeseries", default=None, metavar="PATH",
                        help="sample continuous telemetry frames on "
                             "every cell's machines and write the "
                             "frames JSONL artifact to PATH (analyze "
                             "with python -m repro.obs.analyze)")
    parser.add_argument("--sample-interval-us", type=float,
                        default=None, metavar="US",
                        help="timeseries frame width in virtual "
                             "microseconds (default 10000)")
    parser.add_argument("--cells", default=None, metavar="PATTERN",
                        help="run only cells whose id matches this glob "
                             "(e.g. 'C/mru'); the table shows raw "
                             "per-cell payloads")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the table to this file")
    args = parser.parse_args(argv)

    try:
        module = _load_experiment(args.experiment)
    except UnknownExperimentError as exc:
        parser.error(str(exc))
    spec = module.plan(quick=args.quick)
    if args.cells:
        try:
            spec = filter_cells(spec, args.cells)
        except ValueError as exc:
            parser.error(str(exc))
    if args.sample_interval_us is not None and args.timeseries is None:
        parser.error("--sample-interval-us needs --timeseries PATH")
    if args.sample_interval_us is not None:
        from repro.obs.timeseries import sample_interval
        try:
            sample_interval(args.sample_interval_us, "--sample-interval-us")
        except ValueError as exc:
            parser.error(str(exc))
    timeseries = None
    if args.timeseries is not None:
        timeseries = (args.sample_interval_us
                      if args.sample_interval_us is not None else True)
    try:
        resolve_execution(args.mode, args.snapshot)
    except ValueError as exc:
        parser.error(str(exc))
    report = execute(spec, jobs=args.jobs, serial=args.serial,
                     timeout_s=args.timeout, trace=args.trace,
                     breakdown=args.breakdown is not None,
                     mode=args.mode, snapshot=args.snapshot,
                     timeseries=timeseries)
    table = report.result.format_table()
    print(table)
    if args.breakdown:
        with open(args.breakdown, "w") as fh:
            fh.write(breakdown_json(report))
        with open(args.breakdown + ".collapsed", "w") as fh:
            fh.write(breakdown_collapsed(report))
        print(f"breakdown: {args.breakdown} "
              f"(+ {args.breakdown}.collapsed)", file=sys.stderr)
    if args.timeseries:
        with open(args.timeseries, "w") as fh:
            fh.write(timeseries_jsonl(report))
        frames = sum(m["n_frames"]
                     for doc in report.timeseries.values()
                     for m in doc["machines"])
        print(f"timeseries: {args.timeseries} ({frames} frames, "
              f"{len(report.timeseries)} cells)", file=sys.stderr)
    if args.trace:
        for cell_id in sorted(report.trace):
            counts = report.trace[cell_id]
            total = counts["hits"] + counts["misses"]
            ratio = counts["hits"] / total if total else 0.0
            print(f"trace {cell_id}: {counts['hits']}/{total} "
                  f"lookups hit ({ratio:.4f})")
    print(report.format_timings(), file=sys.stderr)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(table + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
