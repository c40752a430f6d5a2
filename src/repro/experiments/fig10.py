"""Figure 10 — application-informed GET-SCAN policy vs fadvise.

The 99.95% GET / 0.05% SCAN workload of §6.1.4, compared across: the
kernel default, MGLRU, the default plus each fadvise option applied to
the scan path (FADV_DONTNEED, FADV_NOREUSE, FADV_SEQUENTIAL), and the
cache_ext GET-SCAN policy (scan folios on their own list, evicted
first).

Paper results: GET-SCAN gives +70% GET throughput and -57% GET P99
while SCAN throughput drops 18%; the fadvise options "do not help
much"; MGLRU is worse than default.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cache_ext import load_policy
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, attach_policy,
                                       build_machine, make_db_env,
                                       prepare_db_env_snapshot)
from repro.policies.get_scan import make_get_scan_policy
from repro.workloads.getscan import GetScanWorkload

#: ``zipf_theta=1.5`` gives the GETs the "good cache locality" the
#: paper's workload has (the hot set fits the cgroup when scans are
#: kept from polluting it); scans span ~20% of the keyspace each.
FULL_SCALE = {"nkeys": 40000, "cgroup_pages": 1000, "n_gets": 40000,
              "scan_len": 8000, "get_threads": 4, "scan_threads": 2,
              "zipf_theta": 1.5}
QUICK_SCALE = {"nkeys": 6000, "cgroup_pages": 192, "n_gets": 4000,
               "scan_len": 1500, "get_threads": 2, "scan_threads": 1,
               "zipf_theta": 1.5}

#: (row label, policy name, fadvise mode)
VARIANTS = (
    ("default", "default", None),
    ("mglru", "mglru", None),
    ("fadv-dontneed", "default", "dontneed"),
    ("fadv-noreuse", "default", "noreuse"),
    ("fadv-sequential", "default", "sequential"),
    ("cache_ext-get-scan", "get-scan", None),
)


def _build_env(policy: str, nkeys: int, cgroup_pages: int,
               mode: str, snapshot: bool):
    """Environment + (optional) GET-SCAN ops, TID map unfilled."""
    if policy == "get-scan":
        # The TID map must be filled after threads exist, so load the
        # policy here rather than through attach_policy.
        env = make_db_env("default", cgroup_pages=cgroup_pages,
                          nkeys=nkeys, compaction_thread=True,
                          mode=mode, snapshot=snapshot)
        ops = make_get_scan_policy(map_entries=max(4 * cgroup_pages,
                                                   1024))
        load_policy(env.machine, env.cgroup, ops)
        return env, ops
    env = make_db_env(policy, cgroup_pages=cgroup_pages,
                      nkeys=nkeys, compaction_thread=True,
                      mode=mode, snapshot=snapshot)
    return env, None


def _register_scan_tids(ops, tids) -> None:
    if ops is None:
        return
    scan_tids = ops.user_maps["scan_tids"]
    for tid in tids:
        scan_tids.update(tid, 1)


def run_one(label: str, policy: str, fadvise_mode: Optional[str],
            nkeys: int, cgroup_pages: int, n_gets: int, scan_len: int,
            get_threads: int, scan_threads: int,
            zipf_theta: float = 1.5, seed: int = 5,
            mode: str = "full", snapshot: bool = False):
    env, ops = _build_env(policy, nkeys, cgroup_pages, mode, snapshot)
    workload = GetScanWorkload(env.db, nkeys=nkeys, n_gets=n_gets,
                               get_threads=get_threads,
                               scan_threads=scan_threads,
                               scan_len=scan_len, zipf_theta=zipf_theta,
                               fadvise_mode=fadvise_mode, seed=seed)
    workload.spawn()
    if ops is not None:
        _register_scan_tids(ops, workload.scan_tids)
    env.machine.run()
    return workload.result, env


def cell(label: str, policy: str, fadvise_mode: Optional[str],
         **params) -> dict:
    result, env = run_one(label, policy, fadvise_mode, **params)
    return {"get_throughput": result.get_throughput,
            "get_p99_us": result.get_p99_us,
            "scan_throughput": result.scan_throughput,
            "hit_ratio": env.cgroup.metrics().hit_ratio}


def plan(quick: bool = False, variants: Iterable[tuple] = VARIANTS,
         scale: dict = None) -> ExperimentSpec:
    params = dict(QUICK_SCALE if quick else FULL_SCALE)
    if scale:
        params.update(scale)
    variants = [tuple(v) for v in variants]
    cells = [CellSpec("fig10", label, cell,
                      dict(label=label, policy=policy,
                           fadvise_mode=fadv, **params),
                      supports_replay=True,
                      snapshot_prepare=prepare_db_env_snapshot)
             for label, policy, fadv in variants]

    def prepare() -> None:
        # All six variants replay the same GET/SCAN streams.
        GetScanWorkload.prepare_streams(
            nkeys=params["nkeys"], n_gets=params["n_gets"],
            get_threads=params["get_threads"],
            scan_threads=params["scan_threads"],
            zipf_theta=params["zipf_theta"],
            seed=params.get("seed", 5))

    return ExperimentSpec("fig10", cells, _merge,
                          meta={"labels": [v[0] for v in variants]},
                          prepare=prepare)


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Figure 10: mixed GET-SCAN workload",
        headers=["variant", "get_ops_per_sec", "get_p99_us",
                 "scan_per_sec", "hit_ratio"])
    for label in meta["labels"]:
        c = payloads[label]
        out.add_row(label, round(c["get_throughput"], 1),
                    round(c["get_p99_us"], 1),
                    round(c["scan_throughput"], 3),
                    round(c["hit_ratio"], 4))
    out.notes.append(
        "paper: cache_ext GET-SCAN +70% GET throughput, -57% GET P99, "
        "-18% SCAN throughput; fadvise options do not help; MGLRU "
        "worse than default")
    return out
