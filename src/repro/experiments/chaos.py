"""Chaos grid — workloads under deterministic fault injection.

The robustness counterpart of the performance figures: every cell
replays a YCSB or Twitter workload with a named :mod:`repro.faults`
scenario armed, and the merge compares each faulted cell against the
same workload's fault-free baseline.  The claims under test:

* **No crash** — every scenario completes end to end.  I/O errors are
  absorbed by the VFS retry path or surface as typed errors the LSM DB
  degrades on (``db.n_io_errors``); a misbehaving policy is detached by
  the watchdog, quarantined, and re-attached after backoff, never
  taking the machine down.
* **Bounded degradation** — each scenario has a throughput budget
  (fraction of the fault-free baseline it must retain).  A breach
  flags the row and the table note; ``tests/test_chaos.py`` asserts
  none occur.
* **Determinism** — a scenario's injected faults are a pure function
  of (plan seed, virtual time), so serial and parallel executions of
  the grid are byte-identical, including the per-cell fault counters.

Scenario windows are expressed against a per-workload virtual-time
``horizon_us`` (roughly the length of a fault-free run) so the same
scenario shapes scale from ``--quick`` to full runs.

Usage::

    python -m repro.experiments.chaos --quick
    python -m repro.experiments.chaos --quick --smoke   # CI-sized
    python -m repro.experiments.chaos --jobs 4
"""

from __future__ import annotations

import argparse
from typing import Iterable, Optional

from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, make_db_env)
from repro.experiments.parallel import execute
from repro.faults import (DeviceFault, FaultPlan, MemoryFault,
                          PolicyFault, QuarantineConfig)
from repro.workloads.twitter import CLUSTERS, TwitterRunner
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner

FULL_SCALE = {"nkeys": 40000, "cgroup_pages": 1000, "nops": 40000,
              "warmup_ops": 30000, "nthreads": 8, "zipf_theta": 1.1,
              "horizon_us": 1_000_000.0}
QUICK_SCALE = {"nkeys": 5000, "cgroup_pages": 192, "nops": 3000,
               "warmup_ops": 2000, "nthreads": 4, "zipf_theta": 1.1,
               "horizon_us": 40_000.0}

#: Twitter runs are longer than YCSB runs at the same op count (bigger
#: per-op footprint); their fault windows stretch accordingly.
TWITTER_HORIZON_MULT = 4.0

#: Every cell runs the same cache_ext policy: the buggy-policy scenario
#: needs an attached policy to stall/quarantine, and holding the policy
#: fixed isolates the scenario as the only variable.
POLICY = "lfu"

SCENARIOS = ("baseline", "flaky-disk", "brownout", "stuck-io",
             "buggy-policy", "mem-shock")

#: Workload axis: two YCSB mixes plus one Twitter cluster, so the
#: grid covers read-mostly, update-heavy and drifting access patterns.
DEFAULT_WORKLOADS = ("A", "B", "tw17")

#: Bounded-degradation budgets: minimum throughput retained relative
#: to the same workload's baseline cell.  Each is set just under the
#: *physical* floor its fault imposes (brownout: 8x service on half
#: the channels bounds a miss-dominated workload near 1/16) — they
#: are crash-or-collapse tripwires, not performance targets.
SCENARIO_BUDGETS = {
    "flaky-disk": 0.40,
    "brownout": 0.04,
    "stuck-io": 0.20,
    "buggy-policy": 0.35,
    "mem-shock": 0.30,
}


def scenario_plan(scenario: str, horizon_us: float,
                  seed: int = 1) -> Optional[FaultPlan]:
    """The :class:`FaultPlan` for a named scenario (None = baseline)."""
    h = horizon_us
    if scenario == "baseline":
        return None
    if scenario == "flaky-disk":
        # Persistent low-rate transient EIO on both directions; the
        # VFS retry path should absorb nearly all of it.
        return FaultPlan(seed=seed, device=(
            DeviceFault(kind="eio", prob=0.01, ops=("read", "write")),))
    if scenario == "brownout":
        # Service degradation arriving early and never lifting:
        # requests slow 8x and one channel drops out.  The window is
        # open-ended because injected slowdown stretches virtual time —
        # any fixed end would let the measured ops land past recovery.
        return FaultPlan(seed=seed, device=(
            DeviceFault(kind="latency", latency_mult=8.0,
                        start_us=0.2 * h),
            DeviceFault(kind="degrade", channels_down=1,
                        start_us=0.2 * h)))
    if scenario == "stuck-io":
        # Rare requests wedge far past the deadline; the submitter gets
        # ETIMEDOUT at the deadline and the retry path re-issues.
        return FaultPlan(
            seed=seed,
            device=(DeviceFault(kind="stuck", prob=0.004,
                                stuck_extra_us=30_000.0, ops=("read",)),),
            request_deadline_us=3_000.0)
    if scenario == "buggy-policy":
        # The attached policy goes bad for a window: hook dispatches
        # stall past the runtime budget and kfuncs misfire.  The
        # watchdog detaches it, quarantine re-attaches after backoff;
        # once the window passes the policy stays healthy.
        return FaultPlan(
            seed=seed,
            policy=(
                PolicyFault(kind="hook_stall", stall_us=500.0, prob=0.05,
                            start_us=0.1 * h, end_us=0.5 * h),
                PolicyFault(kind="kfunc_misuse", prob=0.02,
                            start_us=0.1 * h, end_us=0.5 * h)),
            hook_budget_us=100.0,
            quarantine=QuarantineConfig(base_backoff_us=0.02 * h,
                                        multiplier=2.0,
                                        max_backoff_us=0.2 * h))
    if scenario == "mem-shock":
        # The cgroup limit halves mid-run: reclaim must shed half the
        # working set at once without deadlock or ENOMEM crash.
        return FaultPlan(seed=seed, memory=(
            MemoryFault(cgroup="app", at_us=0.5 * h, shrink_factor=0.5),))
    raise ValueError(f"unknown scenario {scenario!r}")


def _runner(workload: str, params: dict) -> tuple:
    """``(runner class, its arguments after the store)``: a Twitter
    cluster for ``tw<N>``, else a YCSB mix.  The arguments are also
    the class's ``prepare_streams`` arguments."""
    if workload.startswith("tw"):
        return TwitterRunner, dict(
            profile=CLUSTERS[int(workload[2:])], nkeys=params["nkeys"],
            nops=params["nops"], warmup_ops=params["warmup_ops"],
            seed=params.get("seed", 11))
    return YcsbRunner, dict(
        spec=YCSB_WORKLOADS[workload], nkeys=params["nkeys"],
        nops=params["nops"], seed=params.get("seed", 42),
        nthreads=params["nthreads"], warmup_ops=params["warmup_ops"],
        zipf_theta=params["zipf_theta"])


def _run_workload(env, workload: str, params: dict):
    runner_cls, args = _runner(workload, params)
    return runner_cls(env.db, **args).run()


def cell(workload: str, scenario: str, horizon_us: float,
         **params) -> dict:
    """One (workload, scenario) cell as a picklable payload.

    The plan is constructed *inside* the cell from the scenario name,
    so serial and forked executions arm byte-identical plans.
    """
    env = make_db_env(POLICY, cgroup_pages=params["cgroup_pages"],
                      nkeys=params["nkeys"], compaction_thread=True)
    plan_obj = scenario_plan(scenario, horizon_us)
    injector = None
    if plan_obj is not None:
        injector = env.machine.arm_faults(plan_obj)
    result = _run_workload(env, workload, params)
    # Degrading is allowed; breaking a conservation law is not.
    env.machine.check_invariants()
    metrics = env.machine.metrics()
    cg = metrics.cgroup(env.cgroup.name)
    policy = cg.policy
    stats = cg.stats
    return {
        "throughput": result.throughput,
        "hit_ratio": cg.hit_ratio,
        "io_errors": stats["io_errors"],
        "io_retries": stats["io_retries"],
        "io_timeouts": stats["io_timeouts"],
        "writeback_errors": stats["writeback_errors"],
        "budget_overruns": stats["budget_overruns"],
        "quarantines": stats["quarantines"],
        "reattaches": stats["reattaches"],
        "reclaim_failures": stats["reclaim_failures"],
        "disk_errors": metrics.disk["errors"],
        "db_io_errors": env.db.n_io_errors,
        "policy_attached": policy.attached if policy else False,
        "policy_health": round(policy.health, 4) if policy else 1.0,
        "fired": dict(sorted(injector.fired.items()))
                 if injector is not None else {},
    }


def plan(quick: bool = False,
         scenarios: Iterable[str] = SCENARIOS,
         workloads: Iterable[str] = DEFAULT_WORKLOADS,
         scale: Optional[dict] = None) -> ExperimentSpec:
    params = dict(QUICK_SCALE if quick else FULL_SCALE)
    if scale:
        params.update(scale)
    scenarios, workloads = list(scenarios), list(workloads)
    if "baseline" not in scenarios:
        scenarios = ["baseline"] + scenarios
    base_h = params.pop("horizon_us")
    cells = []
    for w in workloads:
        h = base_h * (TWITTER_HORIZON_MULT if w.startswith("tw")
                      else 1.0)
        for s in scenarios:
            cells.append(CellSpec(
                "chaos", f"{w}/{s}", cell,
                dict(workload=w, scenario=s, horizon_us=h, **params)))

    def prepare() -> None:
        for w in workloads:
            runner_cls, args = _runner(w, params)
            runner_cls.prepare_streams(**args)

    return ExperimentSpec("chaos", cells, _merge,
                          meta={"params": params,
                                "scenarios": scenarios,
                                "workloads": workloads},
                          prepare=prepare)


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Chaos grid: workloads under fault injection",
        headers=["workload", "scenario", "ops_per_sec", "rel_tput",
                 "hit_ratio", "io_err", "timeouts", "wb_err",
                 "quarant", "reattach", "db_err", "within_budget"])
    violations = []
    for workload in meta["workloads"]:
        base = payloads[f"{workload}/baseline"]
        for scenario in meta["scenarios"]:
            c = payloads[f"{workload}/{scenario}"]
            rel = (c["throughput"] / base["throughput"]
                   if base["throughput"] else 0.0)
            budget = SCENARIO_BUDGETS.get(scenario)
            ok = budget is None or rel >= budget
            if not ok:
                violations.append(
                    f"{workload}/{scenario} ({rel:.2f} < {budget:.2f})")
            out.add_row(workload, scenario,
                        round(c["throughput"], 1), round(rel, 3),
                        round(c["hit_ratio"], 4), c["io_errors"],
                        c["io_timeouts"], c["writeback_errors"],
                        c["quarantines"], c["reattaches"],
                        c["db_io_errors"], "yes" if ok else "NO")
    if violations:
        out.notes.append(
            "BUDGET VIOLATIONS: " + ", ".join(violations))
    else:
        out.notes.append(
            "all scenarios within degradation budgets "
            f"({SCENARIO_BUDGETS})")
    out.notes.append(f"policy: {POLICY}; scale: {meta['params']}")
    return out


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run workloads under deterministic fault injection")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (CI smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal grid: one workload, three "
                             "scenarios (implies --quick)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes (default: serial)")
    parser.add_argument("-o", "--output", default=None,
                        help="also write the table to this file")
    args = parser.parse_args(argv)
    scenarios: Iterable[str] = SCENARIOS
    workloads: Iterable[str] = DEFAULT_WORKLOADS
    quick = args.quick
    if args.smoke:
        quick = True
        scenarios = ("baseline", "flaky-disk", "buggy-policy")
        workloads = ("A",)
    spec = plan(quick=quick, scenarios=scenarios, workloads=workloads)
    table = execute(spec, jobs=args.jobs,
                    serial=args.jobs is None).result.format_table()
    print(table)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(table + "\n")
    return 1 if "BUDGET VIOLATIONS" in table else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
