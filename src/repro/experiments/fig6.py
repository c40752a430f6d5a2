"""Figure 6 — YCSB throughput and P99 read latency across policies.

Paper setup: LevelDB, 100 GiB database, 10 GiB cgroup (10:1), YCSB A-F
plus uniform and uniform-R/W; policies: Linux default, MGLRU, and
cache_ext FIFO/MRU/LFU/S3-FIFO/LHD.

Paper findings this reproduction should show:

* LFU best on the zipfian workloads (up to +37% over default);
* LHD close to LFU; S3-FIFO also above the Linux policies;
* MRU clearly worst (access-pattern mismatch);
* FIFO roughly at/below default but competitive with MGLRU;
* YCSB D fits in memory, so every policy ties;
* cache_ext lowers P99 read latency (up to -55%).

Sizes are scaled ~64x down with the 10:1 DB:cgroup ratio preserved.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments.harness import (GENERIC_POLICY_NAMES, CellSpec,
                                       ExperimentResult, ExperimentSpec,
                                       make_db_env,
                                       prepare_db_env_snapshot)
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner

FULL_SCALE = {"nkeys": 40000, "cgroup_pages": 1000, "nops": 40000,
              "warmup_ops": 30000, "nthreads": 8, "zipf_theta": 1.1}
QUICK_SCALE = {"nkeys": 5000, "cgroup_pages": 192, "nops": 3000,
               "warmup_ops": 2000, "nthreads": 4, "zipf_theta": 1.1}

#: Workload E is scan-heavy (each op touches many pages); fewer ops
#: keep its runtime in line with the others.
SCAN_OPS_DIVISOR = 5

DEFAULT_WORKLOADS = ("A", "B", "C", "D", "E", "F", "uniform", "uniform-rw")


def run_one(policy: str, workload: str, nkeys: int, cgroup_pages: int,
            nops: int, warmup_ops: int = 0, nthreads: int = 8,
            zipf_theta: float = 1.1, seed: int = 42,
            mode: str = "full", snapshot: bool = False):
    """One (policy, workload) cell; returns (YcsbResult, DbEnv).

    ``zipf_theta=1.1`` is the scaled-equivalent skew: it makes the
    request mass above our (scaled) cache boundary match what YCSB's
    default theta=0.99 produces at the paper's 1000x larger keyspace
    (see EXPERIMENTS.md, "skew calibration").  Warmup ops run before
    the measured window, standing in for the paper's long runs.

    ``mode="replay"`` runs the cell on the trace-replay fast path
    (:mod:`repro.replay`); the payload is bit-identical to the full
    engine's.  ``snapshot=True`` restores the post-load machine from
    the sweep-level image cache (:mod:`repro.snapshot`) instead of
    re-running the bulk load — again bit-identical.
    """
    env = make_db_env(policy, cgroup_pages=cgroup_pages, nkeys=nkeys,
                      compaction_thread=True, mode=mode,
                      snapshot=snapshot)
    runner = YcsbRunner(env.db, **_runner_args(
        workload, nkeys, nops, warmup_ops, nthreads, zipf_theta, seed))
    result = runner.run()
    return result, env


def _runner_args(workload: str, nkeys: int, nops: int, warmup_ops: int = 0,
                 nthreads: int = 8, zipf_theta: float = 1.1,
                 seed: int = 42, **_cell) -> dict:
    """:class:`YcsbRunner`'s arguments after the store for one
    workload's cells (the cell's other parameters are ignored):
    scan-heavy E runs :data:`SCAN_OPS_DIVISOR` times fewer ops."""
    spec = YCSB_WORKLOADS[workload]
    if spec.scan > 0:
        nops = max(nops // SCAN_OPS_DIVISOR, 200)
        warmup_ops = warmup_ops // SCAN_OPS_DIVISOR
    return dict(spec=spec, nkeys=nkeys, nops=nops, nthreads=nthreads,
                seed=seed, warmup_ops=warmup_ops, zipf_theta=zipf_theta)


def _payload(result, env) -> dict:
    metrics = env.machine.metrics()
    return {"throughput": result.throughput,
            "p99_read_us": result.p99_read_us,
            "hit_ratio": metrics.cgroup(env.cgroup.name).hit_ratio,
            "disk_pages": metrics.disk["total_pages"]}


def cell(policy: str, workload: str, **params) -> dict:
    """One (policy, workload) cell as a picklable payload.

    Shared with fig7 and table5, which sweep the same grid with
    different parameters/merges.  Accepts ``mode="replay"``: every
    payload field is a counter or a virtual-time-derived number, all
    bit-identical under replay.
    """
    result, env = run_one(policy, workload, **params)
    return _payload(result, env)


def make_prepare(params: dict, workloads: Iterable[str]):
    """Pre-fork stream warmer for any plan built on :func:`cell`.

    Every policy cell of one workload replays the same op stream; this
    materializes each (workload, scale) stream once in the parent so
    serial runs share it and the parallel runner's forked workers
    inherit it copy-on-write (shipping the spec, not the data).
    """
    workloads = list(workloads)

    def prepare() -> None:
        for workload in workloads:
            YcsbRunner.prepare_streams(**_runner_args(workload, **params))

    return prepare


def plan(quick: bool = False,
         policies: Iterable[str] = GENERIC_POLICY_NAMES,
         workloads: Iterable[str] = DEFAULT_WORKLOADS,
         scale: Optional[dict] = None) -> ExperimentSpec:
    params = dict(QUICK_SCALE if quick else FULL_SCALE)
    if scale:
        params.update(scale)
    policies, workloads = list(policies), list(workloads)
    cells = [CellSpec("fig6", f"{w}/{p}", cell,
                      dict(policy=p, workload=w, **params),
                      supports_replay=True,
                      snapshot_prepare=prepare_db_env_snapshot)
             for w in workloads for p in policies]
    return ExperimentSpec("fig6", cells, _merge,
                          meta={"params": params, "policies": policies,
                                "workloads": workloads},
                          prepare=make_prepare(params, workloads))


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Figure 6: YCSB throughput and P99 read latency",
        headers=["workload", "policy", "ops_per_sec", "p99_read_us",
                 "hit_ratio", "disk_pages"])
    for workload in meta["workloads"]:
        for policy in meta["policies"]:
            c = payloads[f"{workload}/{policy}"]
            out.add_row(workload, policy,
                        round(c["throughput"], 1),
                        round(c["p99_read_us"], 1),
                        round(c["hit_ratio"], 4),
                        c["disk_pages"])
    out.notes.append(
        f"scale: {meta['params']} (paper: 100 GiB DB / 10 GiB cgroup, "
        f"same 10:1 ratio)")
    return out
