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

Which engine (``mode``: full / replay) and which build (``snapshot``:
cold / restored) a run uses is settled in one place:
:func:`resolve_execution` checks the request against :data:`PLANES`,
the table of what each instrumentation plane (faults, breakdown,
timeseries, trace) needs, and the answer is recorded on the
:class:`ExecutionReport`.

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
from typing import NamedTuple, Optional

from repro.experiments import harness
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec)

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


class _LookupCounter:
    """Counts ``cache:lookup`` hit/miss events on every machine a cell
    builds — the trace-derived cross-check of the table's hit ratios."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def attach(self, machine) -> None:
        machine.trace.tracepoint("cache:lookup").subscribe(self._on_lookup)

    def _on_lookup(self, event) -> None:
        if event.data.get("hit"):
            self.hits += 1
        else:
            self.misses += 1

    def counts(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


class Plane(NamedTuple):
    """What one instrumentation plane requires of the run."""

    #: Refuses ``mode="replay"``; ``"auto"`` resolves to the full engine.
    full_engine: bool
    #: Refuses snapshot restores; ``snapshot="auto"`` builds cold.
    cold_build: bool
    #: Claims the per-cell machine observer
    #: (:func:`harness.set_cell_observer`).
    observer: bool
    #: Why it needs the full engine / a cold build, for the refusal
    #: message (unused by a plane that needs neither).
    why: str = ""


#: The one source of every request-level mode/plane refusal:
#: :func:`resolve_execution` derives the explicit-conflict errors and
#: ``auto``'s fallbacks from these rows, and :func:`repro.api.run`,
#: :func:`apply_mode` / :func:`execute` and the CLI all go through it.
#: (Machine-level guards — ``enable_replay``, ``TimeseriesSampler.attach``,
#: ``snapshot.capture`` — inspect live state for callers who bypass the
#: harness and stay where they are.)
PLANES = {
    "faults": Plane(
        True, True, True,
        "a fault plan arms on a pristine machine before the load and "
        "can detach a policy through the watchdog, which neither the "
        "replay registry layout nor a captured image can represent"),
    "breakdown": Plane(
        True, False, True,
        "latency attribution's contracts — components sum to durations, "
        "spans never perturb time — are asserted on the full engine only"),
    "timeseries": Plane(
        True, False, False,
        "the sampler's contracts — exact totals, zero perturbation, "
        "byte-identical frames — are asserted on the full engine only"),
    # Tracepoints fire identically on both engines (ReplayEngine.run
    # hands a run with ``sched:*`` subscribers to the full loop).
    "trace": Plane(False, False, True),
}


def requested_planes(**flags) -> list:
    """Names of the planes switched on in ``flags``, in table order."""
    return [plane for plane in PLANES if flags.get(plane)]


def resolve_execution(mode: str, snapshot="off", planes=()) -> tuple:
    """Settle ``(mode, snapshot)`` against the requested planes.

    Returns ``(mode, snapshot, reason)`` with ``mode`` one of
    ``"full"``/``"replay"``, ``snapshot`` ``"on"``/``"off"`` and
    ``reason`` a sentence when an ``"auto"`` setting fell back (else
    ``None``).  An explicit setting a plane cannot run under raises a
    ``ValueError`` naming the plane and the working alternative, as do
    two planes that cannot share the cell observer: a plane that needs
    a cold build installs its observer before the machine exists and
    holds the slot alone, while the others attach together afterwards.
    """
    if mode not in ("full", "replay", "auto"):
        raise ValueError(f"unknown execution mode {mode!r}")
    snapshot = {False: "off", None: "off", True: "on"}.get(snapshot,
                                                          snapshot)
    if snapshot not in ("off", "on", "auto"):
        raise ValueError(f"unknown snapshot setting {snapshot!r}")
    planes = [p for p in PLANES if p in planes]  # table order
    claimers = [p for p in planes if PLANES[p].observer]
    owner = next((p for p in claimers if PLANES[p].cold_build), None)
    if owner is not None and len(claimers) > 1:
        other = next(p for p in claimers if p != owner)
        raise ValueError(
            f"{owner} cannot be combined with {other}: both claim the "
            f"per-cell machine observer, and {owner} holds it alone "
            f"from the cold build on; run {other} without {owner}")
    full = [p for p in planes if PLANES[p].full_engine]
    if full and mode == "replay":
        raise ValueError(
            f"mode='replay' cannot honor {full[0]}, which needs the "
            f"full engine: {PLANES[full[0]].why}; use mode='full' or "
            f"mode='auto'")
    cold = [p for p in planes if PLANES[p].cold_build]
    if cold and snapshot == "on":
        raise ValueError(
            f"snapshot restores cannot honor {cold[0]}, which needs a "
            f"cold build: {PLANES[cold[0]].why}; use snapshot=False or "
            f"snapshot='auto'")
    reasons = []
    if mode == "auto":
        mode = "full" if full else "replay"
        if full:
            reasons.append(f"{', '.join(full)} needs the full engine")
    if snapshot == "auto":
        snapshot = "off" if cold else "on"
        if cold:
            reasons.append(f"{', '.join(cold)} needs a cold build")
    return (mode, snapshot,
            "auto: " + "; ".join(reasons) if reasons else None)


def apply_mode(spec: ExperimentSpec, mode: str, trace: bool = False,
               breakdown: bool = False,
               timeseries: bool = False) -> ExperimentSpec:
    """Rewrite a plan for the requested execution mode.

    * ``"full"`` — the spec unchanged (the reference engine).
    * ``"replay"`` — every cell that declares ``supports_replay``
      executes with ``mode="replay"`` (the trace-replay fast path,
      :mod:`repro.replay`); cells that don't opt in run full.
    * ``"auto"`` — replay, unless a requested plane needs the full
      engine (:data:`PLANES`).

    Conflicts between ``mode`` and the planes are settled by
    :func:`resolve_execution`.  Payloads are bit-identical across
    full/replay/snapshot for opted-in cells (enforced by
    ``tests/test_replay.py``), so the merge result never depends on
    the choice.
    """
    mode, _, _ = resolve_execution(
        mode, planes=requested_planes(trace=trace, breakdown=breakdown,
                                      timeseries=timeseries))
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

    ``"auto"`` is resolved against the requested planes by callers
    that know them (:func:`execute`, :func:`repro.api.run`); with none
    in sight here it behaves like ``"on"``.
    """
    _, snapshot, _ = resolve_execution("full", snapshot)
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


def _run_gc_paused(fn):
    """Run ``fn()`` with the cyclic collector paused.

    A cell allocates millions of short-lived objects; the generational
    collector's periodic sweeps are pure wall-clock with zero effect on
    the simulation (virtual time never observes the host clock), worth
    ~5-10% of a serial sweep.  The machine graph is cyclic (folio ↔
    list node, engine ↔ threads), so the dead graph is reclaimed by an
    explicit collect at the cell boundary — cheap, because
    :func:`execute` freezes the long-lived prepared caches out of the
    collector first, leaving only this cell's leftovers to scan.
    Collector state is restored even when the cell raises, and a
    caller who already disabled GC is left alone.
    """
    if not gc.isenabled():
        return fn()
    gc.disable()
    try:
        return fn()
    finally:
        gc.enable()
        gc.collect()


def run_cell(cell: CellSpec, trace: bool = False,
             breakdown: bool = False,
             timeseries: Optional[float] = None) -> tuple:
    """Execute one cell in this process; returns
    ``(payload, trace counts, latency breakdown, timeseries doc)``.

    With ``trace=True`` a lookup counter is attached to every machine
    the cell builds (via the :func:`harness.build_machine` observer),
    so tracing-enabled runs exercise the real tracepoint dispatch path.
    With ``breakdown=True`` a
    :class:`~repro.obs.attr.SpanAggregator` rides along the same way —
    which *enables* span recording on the cell's machines — and the
    third element carries its JSON-safe summary plus collapsed-stack
    text.  With ``timeseries`` (a sample interval in virtual µs) a
    :class:`~repro.obs.timeseries.TimeseriesSampler` attaches to every
    machine and the fourth element carries its columnar frame document.
    All are deterministic, so serial and parallel runs of the same
    cell produce byte-identical artifacts.

    A previously installed cell observer (e.g. :func:`repro.api.run`'s
    fault-plan armer) is chained, not replaced — faults + telemetry
    compose, and the fault windows land in the frames.
    """
    if not trace and not breakdown and timeseries is None:
        return _run_gc_paused(cell.execute), None, None, None
    counter = _LookupCounter() if trace else None
    aggregator = None
    if breakdown:
        from repro.obs.attr import SpanAggregator
        aggregator = SpanAggregator()
    sampler = None
    if timeseries is not None:
        from repro.obs.timeseries import TimeseriesSampler
        sampler = TimeseriesSampler(timeseries)

    previous = None

    def observe(machine) -> None:
        if previous is not None:
            previous(machine)
        if counter is not None:
            counter.attach(machine)
        if aggregator is not None:
            aggregator.attach(machine)
        if sampler is not None:
            sampler.attach(machine)

    previous = harness.set_cell_observer(observe)
    try:
        payload = _run_gc_paused(cell.execute)
    finally:
        harness.set_cell_observer(previous)
    bdown = None
    if aggregator is not None:
        bdown = {"summary": aggregator.to_dict(),
                 "collapsed": aggregator.collapsed()}
    tdoc = None
    if sampler is not None:
        sampler.finalize()
        tdoc = sampler.to_doc()
    return (payload, counter.counts() if counter is not None else None,
            bdown, tdoc)


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
    #: ``"full"``/``"replay"``, ``"on"``/``"off"``, and the sentence
    #: explaining an ``"auto"`` fallback (``None`` when nothing fell
    #: back).
    mode: str = "full"
    snapshot: str = "off"
    fallback_reason: Optional[str] = None

    def format_timings(self) -> str:
        why = f" ({self.fallback_reason})" if self.fallback_reason else ""
        lines = [f"[{len(self.timings)} cells, jobs={self.jobs}, "
                 f"mode={self.mode}, snapshot={self.snapshot}{why}, "
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


def _worker_main(conn, cell: CellSpec, trace: bool, breakdown: bool,
                 timeseries: Optional[float]) -> None:
    """Child entry: run one cell, send one message, exit."""
    try:
        payload, counts, bdown, tdoc = run_cell(cell, trace=trace,
                                                breakdown=breakdown,
                                                timeseries=timeseries)
        conn.send(("ok", payload, counts, bdown, tdoc))
    except BaseException as exc:  # report, don't propagate: the parent
        import traceback          # decides how to retry
        try:
            message = (f"{type(exc).__name__}: {exc}\n"
                       f"{traceback.format_exc()}")
            conn.send(("err", message, None, None, None))
        except Exception:
            pass
    finally:
        conn.close()


def _execute_serial(spec: ExperimentSpec, trace: bool, breakdown: bool,
                    timeseries: Optional[float],
                    report: ExecutionReport) -> dict:
    payloads = {}
    for cell in spec.cells:
        t0 = time.perf_counter()
        payload, counts, bdown, tdoc = run_cell(cell, trace=trace,
                                                breakdown=breakdown,
                                                timeseries=timeseries)
        report.timings.append(
            CellTiming(cell.cell_id, time.perf_counter() - t0, "serial"))
        payloads[cell.cell_id] = payload
        if counts is not None:
            report.trace[cell.cell_id] = counts
        if bdown is not None:
            report.breakdown[cell.cell_id] = bdown
        if tdoc is not None:
            report.timeseries[cell.cell_id] = tdoc
    return payloads


def _execute_parallel(spec: ExperimentSpec, jobs: int, timeout_s: float,
                      trace: bool, breakdown: bool,
                      timeseries: Optional[float],
                      report: ExecutionReport) -> dict:
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
            status, value, counts, bdown, tdoc = conn.recv()
        except (EOFError, OSError):
            status, value, counts, bdown, tdoc = \
                "err", "worker died without a result", None, None, None
        conn.close()
        proc.join()
        if status == "ok":
            mode = "worker" if cell.cell_id not in attempts else "retry"
            payloads[cell.cell_id] = value
            report.timings.append(CellTiming(cell.cell_id, wall, mode))
            if counts is not None:
                report.trace[cell.cell_id] = counts
            if bdown is not None:
                report.breakdown[cell.cell_id] = bdown
            if tdoc is not None:
                report.timeseries[cell.cell_id] = tdoc
        else:
            record_failure(cell, value)

    while pending or running:
        while pending and len(running) < jobs:
            cell = pending.pop(0)
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker_main,
                               args=(child_conn, cell, trace, breakdown,
                                     timeseries),
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
        payload, counts, bdown, tdoc = run_cell(cell, trace=trace,
                                                breakdown=breakdown,
                                                timeseries=timeseries)
        report.timings.append(
            CellTiming(cell.cell_id, time.perf_counter() - t0,
                       "fallback", error=error))
        report.fallbacks.append(cell.cell_id)
        payloads[cell.cell_id] = payload
        if counts is not None:
            report.trace[cell.cell_id] = counts
        if bdown is not None:
            report.breakdown[cell.cell_id] = bdown
        if tdoc is not None:
            report.timeseries[cell.cell_id] = tdoc
    return payloads


def execute(spec: ExperimentSpec, jobs: Optional[int] = None,
            serial: bool = False, timeout_s: float = DEFAULT_TIMEOUT_S,
            trace: bool = False, breakdown: bool = False,
            mode: str = "full", snapshot="off",
            timeseries=None) -> ExecutionReport:
    """Run every cell of ``spec`` and merge; returns the full report.

    ``serial=True`` (or ``jobs=1``, or a platform without ``fork``)
    runs cells in-process in plan order — the escape hatch and the
    reference behaviour the parallel path must reproduce byte for
    byte.  ``breakdown=True`` records a per-cell latency-attribution
    summary in :attr:`ExecutionReport.breakdown`.  ``timeseries``
    (``True`` for the default cadence, or a sample interval in virtual
    µs) records per-cell telemetry frames in
    :attr:`ExecutionReport.timeseries` — export with
    :func:`timeseries_jsonl`; byte-identical serial vs ``--jobs`` and
    cold vs snapshot-restored.  ``mode`` selects
    the execution engine per :func:`apply_mode` (``"replay"`` /
    ``"auto"`` route opted-in cells through the trace-replay fast
    path, with bit-identical payloads).  ``snapshot`` selects
    sweep-level machine snapshots per :func:`apply_snapshot`
    (opted-in cells restore the shared post-load image instead of
    rebuilding it — byte-identical payloads again).  Both are settled
    against the requested planes by :func:`resolve_execution`; the
    answer is recorded on the report.
    """
    if timeseries in (False, None):
        timeseries = None
    elif timeseries is True:
        from repro.obs.timeseries import DEFAULT_SAMPLE_INTERVAL_US
        timeseries = DEFAULT_SAMPLE_INTERVAL_US
    else:
        timeseries = float(timeseries)
        if timeseries <= 0:
            raise ValueError(
                f"sample interval must be positive: {timeseries}")
    mode, snapshot, reason = resolve_execution(
        mode, snapshot,
        requested_planes(trace=trace, breakdown=breakdown,
                         timeseries=timeseries is not None))
    spec = apply_snapshot(apply_mode(spec, mode), snapshot)
    if jobs is None:
        jobs = default_jobs()
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    report = ExecutionReport(result=None, jobs=1 if serial else jobs,
                             mode=mode, snapshot=snapshot,
                             fallback_reason=reason)
    t0 = time.perf_counter()
    if spec.prepare is not None:
        # Warm shared caches (pre-generated workload streams, machine
        # images) in the parent: serial cells reuse them directly;
        # forked workers inherit them copy-on-write instead of
        # regenerating per cell.
        spec.prepare()
        # The prepared caches are immortal for the process lifetime;
        # freezing them out of the cyclic collector keeps the per-cell
        # boundary collects (see _run_gc_paused) from rescanning
        # megabytes of static streams and image payloads every cell —
        # and, for forked workers, stops collector scans from dirtying
        # the inherited copy-on-write pages.
        gc.collect()
        gc.freeze()
    if serial or jobs <= 1 or len(spec.cells) <= 1 or not can_fork:
        report.jobs = 1
        payloads = _execute_serial(spec, trace, breakdown, timeseries,
                                   report)
    else:
        payloads = _execute_parallel(spec, jobs, timeout_s, trace,
                                     breakdown, timeseries, report)
    report.result = spec.merge(spec.meta, payloads)
    report.wall_s = time.perf_counter() - t0
    return report


def run_spec(spec: ExperimentSpec, **kwargs) -> ExperimentResult:
    """Convenience wrapper returning just the merged table."""
    return execute(spec, **kwargs).result


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
        raise ValueError(
            f"no cell of {spec.name!r} matches {pattern!r} "
            f"(cells: {', '.join(spec.cell_ids())})")
    return ExperimentSpec(spec.name, selected, _subset_merge,
                          meta=spec.meta, prepare=spec.prepare)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _load_experiment(name: str):
    import importlib
    module = importlib.import_module(f"repro.experiments.{name}")
    if not hasattr(module, "plan"):
        raise SystemExit(f"experiment {name!r} has no plan()")
    return module


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
                             "'auto' picks replay unless "
                             "--breakdown/--timeseries need the full "
                             "engine")
    parser.add_argument("--snapshot", choices=("off", "on", "auto"),
                        default="off",
                        help="sweep-level machine snapshots: 'on' "
                             "restores snapshot-capable cells from one "
                             "shared post-load image instead of "
                             "re-running the load per policy "
                             "(byte-identical tables); 'auto' is "
                             "equivalent here and exists for API "
                             "symmetry")
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

    module = _load_experiment(args.experiment)
    spec = module.plan(quick=args.quick)
    if args.cells:
        try:
            spec = filter_cells(spec, args.cells)
        except ValueError as exc:
            parser.error(str(exc))
    if args.sample_interval_us is not None and args.timeseries is None:
        parser.error("--sample-interval-us needs --timeseries PATH")
    timeseries = None
    if args.timeseries is not None:
        timeseries = (args.sample_interval_us
                      if args.sample_interval_us is not None else True)
    try:
        resolve_execution(
            args.mode, args.snapshot,
            requested_planes(trace=args.trace,
                             breakdown=args.breakdown is not None,
                             timeseries=timeseries is not None))
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
