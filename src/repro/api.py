"""One facade for building machines and running experiments.

Before this module, driving the reproduction meant knowing several
layers by name: ``Machine(...)`` plus post-construction pokes
(``machine.fs.bulk_io_enabled``), ``harness.make_db_env`` for DB
cells, ``<experiment>.plan()`` + ``parallel.execute(...)`` for sweeps,
``repro.replay.enable_replay`` for the fast path,
``machine.arm_faults`` for fault plans.  This module collapses that to
two entry points:

* :class:`MachineConfig` — a declarative machine description whose
  ``build()`` returns a ready :class:`~repro.kernel.machine.Machine`
  (kwargs that used to be scattered attribute pokes live here);
* :func:`run` — one call that takes an experiment (a name like
  ``"fig6"`` or a prepared
  :class:`~repro.experiments.harness.ExperimentSpec`), an execution
  ``mode`` (``"full"`` | ``"replay"`` | ``"auto"``), an
  optional policy filter and an optional fault plan, and returns the
  merged :class:`~repro.experiments.parallel.ExecutionReport`.

Example::

    from repro import api

    report = api.run("fig6", quick=True, mode="replay")
    print(report.result.format_table())

    machine = api.MachineConfig(
        kernel_policy="mglru", disk={"read_us": 95.0, "channels": 2},
        cgroups=(("app", 1000),)).build()

Mode rules — one table,
:data:`repro.experiments.parallel.PLANES`, settled by
:func:`~repro.experiments.parallel.resolve_execution`:

* ``mode="replay"`` runs replay-capable cells on the trace-replay
  fast path; payloads are bit-identical to the full engine.
* ``snapshot=True`` restores each snapshot-capable cell from one
  shared post-load machine image (:mod:`repro.snapshot`) instead of
  re-running the load — byte-identical tables.
* ``faults``, ``trace``, ``breakdown`` and ``timeseries`` compose in
  any combination, cold or restored, serial or ``jobs``, on either
  engine, with one rule: ``breakdown`` and ``timeseries`` need the
  full engine — an explicit ``mode="replay"`` raises a ``ValueError``
  naming the plane and the alternative, ``"auto"`` falls back and
  records why on the report (``report.mode`` / ``.snapshot`` /
  ``.fallback_reason``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.kernel.machine import Machine


@dataclass(frozen=True)
class MachineConfig:
    """Declarative description of one simulated host.

    Consolidates every knob that used to be a constructor kwarg or a
    post-construction attribute poke:

    * ``kernel_policy`` — ``"default"`` or ``"mglru"`` (Machine kwarg);
    * ``disk`` — :class:`~repro.kernel.block.BlockDevice` kwargs, e.g.
      ``{"read_us": 95.0, "write_us": 30.0, "channels": 2}``;
    * ``costs`` — a :class:`~repro.sim.resources.CpuCosts` override;
    * ``bulk_io_enabled`` — batched sequential reads in the VFS
      (previously ``machine.fs.bulk_io_enabled = ...``);
    * ``mode`` — ``"full"`` or ``"replay"`` (the latter applies
      :func:`repro.replay.enable_replay` before anything else touches
      the machine);
    * ``cgroups`` — ``(name, limit_pages)`` pairs created at build.

    Frozen, so one config can stamp out any number of machines (use
    ``dataclasses.replace`` to vary a field).
    """

    kernel_policy: str = "default"
    disk: Optional[dict] = None
    costs: Optional[object] = None
    bulk_io_enabled: bool = True
    mode: str = "full"
    cgroups: tuple = ()

    def build(self) -> Machine:
        from repro.kernel.block import BlockDevice
        if self.mode not in ("full", "replay"):
            raise ValueError(f"unknown execution mode {self.mode!r}")
        machine = Machine(
            kernel_policy=self.kernel_policy,
            disk=BlockDevice(**self.disk) if self.disk else None,
            costs=self.costs)
        if self.mode == "replay":
            from repro.replay import enable_replay
            enable_replay(machine)
        machine.fs.bulk_io_enabled = self.bulk_io_enabled
        for name, limit_pages in self.cgroups:
            machine.new_cgroup(name, limit_pages=limit_pages)
        return machine


def run(spec: Union[str, object], *, mode: str = "full",
        policy: Optional[str] = None, faults=None, quick: bool = False,
        jobs: Optional[int] = None, serial: Optional[bool] = None,
        trace: bool = False, breakdown: bool = False,
        timeout_s: Optional[float] = None, snapshot=False,
        timeseries=False):
    """Run one experiment end to end; returns the
    :class:`~repro.experiments.parallel.ExecutionReport` (merged table
    in ``.result``, per-cell timings, trace counts, breakdowns).

    Parameters
    ----------
    spec:
        An experiment name (``"fig6"``, ``"table3"``, ...) resolved
        through ``repro.experiments.<name>.plan(quick=quick)``, or a
        prepared :class:`~repro.experiments.harness.ExperimentSpec`.
    mode:
        ``"full"`` (reference engine), ``"replay"`` (trace-replay fast
        path for cells that opt in — bit-identical payloads), or
        ``"auto"`` (replay unless ``breakdown``/``timeseries`` need
        the full engine).
    policy:
        Only run cells whose id matches this policy (grid cell ids are
        ``workload/policy``); any :func:`fnmatch` glob also works.
        Matching nothing raises ``NoCellsSelectedError``.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` armed on every machine
        the cells build or restore, ahead of the observing planes (so
        the injected windows appear in the frames' ``active_faults``
        column).
    serial:
        Defaults to ``jobs is None`` — no explicit job count means
        in-process serial execution (the reference behaviour).
    snapshot:
        ``False`` (cold builds, the reference behaviour), ``True``
        (snapshot-capable cells restore one shared post-load machine
        image per sweep instead of re-running the load — byte-identical
        tables, see :mod:`repro.snapshot`); ``"auto"`` is another
        spelling of ``True``.
    timeseries:
        ``False`` (no sampling, the zero-cost default), ``True``
        (continuous telemetry frames at the default 10 ms virtual
        cadence), or a sample interval in virtual µs.  Frames land in
        ``report.timeseries`` (export with
        :func:`repro.experiments.parallel.timeseries_jsonl`, analyze
        with :mod:`repro.obs.analyze`).  Needs the full engine.
    """
    from repro.experiments.parallel import (DEFAULT_TIMEOUT_S,
                                            _load_experiment, execute,
                                            filter_cells)
    resolved = (_load_experiment(spec).plan(quick=quick)
                if isinstance(spec, str) else spec)
    if policy is not None:
        pattern = policy if any(ch in policy for ch in "*?[") \
            else f"*/{policy}"
        resolved = filter_cells(resolved, pattern)
    if serial is None:
        serial = jobs is None
    if timeout_s is None:
        timeout_s = DEFAULT_TIMEOUT_S
    return execute(resolved, jobs=jobs, serial=serial,
                   timeout_s=timeout_s, trace=trace, breakdown=breakdown,
                   mode=mode, snapshot=snapshot, timeseries=timeseries,
                   faults=faults)
