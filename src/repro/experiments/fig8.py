"""Figure 8 — Twitter cache traces: no single policy wins everywhere.

The paper replays five Twitter cluster traces (17, 18, 24, 34, 52)
through LevelDB with the cgroup at 10% of each cluster's data size and
finds a different winner per cluster: LHD on 34, LFU on 52, MGLRU on
17 and 18, the kernel default on 24 (where MGLRU OOMed).

Our traces are synthetic profiles whose structure (drift, temporal
reuse, bursts, stable skew — see :mod:`repro.workloads.twitter`)
drives the same per-cluster differentiation.  The headline to check is
Takeaway 2: the winner column is not constant.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, make_db_env,
                                       prepare_db_env_snapshot)
from repro.workloads.twitter import CLUSTERS, TwitterRunner

FULL_SCALE = {"nkeys": 40000, "cgroup_pages": 1000, "nops": 40000,
              "warmup_ops": 25000}
QUICK_SCALE = {"nkeys": 6000, "cgroup_pages": 150, "nops": 4000,
               "warmup_ops": 2000}

#: The policy set the paper compares on the Twitter workloads.
POLICIES = ("default", "mglru", "lfu", "s3fifo", "lhd")


def run_one(policy: str, cluster: int, nkeys: int, cgroup_pages: int,
            nops: int, warmup_ops: int = 0, seed: int = 11,
            mode: str = "full", snapshot: bool = False):
    env = make_db_env(policy, cgroup_pages=cgroup_pages, nkeys=nkeys,
                      compaction_thread=True, mode=mode,
                      snapshot=snapshot)
    runner = TwitterRunner(env.db, CLUSTERS[cluster], nkeys=nkeys,
                           nops=nops, warmup_ops=warmup_ops, seed=seed)
    return runner.run(), env


def cell(policy: str, cluster: int, **params) -> dict:
    """Twitter-trace payload; replay-capable: throughput and hit
    ratio are virtual-time counters, bit-identical on the trace-replay
    fast path."""
    result, env = run_one(policy, cluster, **params)
    return {"throughput": result.throughput,
            "hit_ratio": env.cgroup.metrics().hit_ratio}


def plan(quick: bool = False,
         clusters: Iterable[int] = (17, 18, 24, 34, 52),
         policies: Iterable[str] = POLICIES,
         scale: dict = None) -> ExperimentSpec:
    params = dict(QUICK_SCALE if quick else FULL_SCALE)
    if scale:
        params.update(scale)
    clusters, policies = list(clusters), list(policies)
    cells = [CellSpec("fig8", f"{c}/{p}", cell,
                      dict(policy=p, cluster=c, **params),
                      supports_replay=True,
                      snapshot_prepare=prepare_db_env_snapshot)
             for c in clusters for p in policies]

    def prepare() -> None:
        # One stream per cluster, shared by every policy cell (and,
        # under the parallel runner, by every forked worker via COW).
        for c in clusters:
            TwitterRunner.prepare_streams(
                CLUSTERS[c], nkeys=params["nkeys"],
                nops=params["nops"],
                warmup_ops=params["warmup_ops"],
                seed=params.get("seed", 11))

    return ExperimentSpec("fig8", cells, _merge,
                          meta={"clusters": clusters,
                                "policies": policies},
                          prepare=prepare)


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Figure 8: Twitter cluster traces",
        headers=["cluster", "policy", "ops_per_sec", "hit_ratio"])
    winners = {}
    for cluster in meta["clusters"]:
        best = (None, -1.0)
        for policy in meta["policies"]:
            c = payloads[f"{cluster}/{policy}"]
            out.add_row(cluster, policy, round(c["throughput"], 1),
                        round(c["hit_ratio"], 4))
            if c["throughput"] > best[1]:
                best = (policy, c["throughput"])
        winners[cluster] = best[0]
    out.notes.append(f"winners per cluster: {winners}")
    out.notes.append(
        "paper winners: 17->MGLRU, 18->MGLRU, 24->default (MGLRU "
        "OOMed), 34->LHD, 52->LFU; headline = no single winner")
    return out
