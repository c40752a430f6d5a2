"""Ablations over cache_ext's design constants, and post-paper policies.

The paper fixes several constants without sweeping them and closes on
the deployability of new policies (§7).  One YCSB-C table, one machine
per row, measures each choice against the paper's LFU:

* **eviction batch** (§4.2.3: 32 candidates per request) — smaller
  batches mean more hook crossings per reclaimed page;
* **scoring sample** (the LFU example scores N = 512 folios) — the
  quality/CPU trade-off of batch-scoring eviction;
* **candidate validation** (§4.4's valid-folio registry) — the check
  "trusted pointer" support could one day remove;
* **SIEVE and ARC** on the unmodified list API beside the kernel
  default — the claim is deployability, not victory.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments import fig6
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, attach_policy,
                                       make_db_env,
                                       prepare_db_env_snapshot)
from repro.kernel.page_cache import EVICTION_BATCH
from repro.policies.lfu import DEFAULT_NR_SCAN, make_lfu_policy
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner

FULL_SCALE = {"nkeys": 16000, "cgroup_pages": 400, "nops": 10000,
              "warmup_ops": 8000, "nthreads": 8, "zipf_theta": 1.1}
QUICK_SCALE = fig6.QUICK_SCALE

#: Table row -> what it changes from the paper's LFU.
VARIANTS = {
    "lfu": {},
    "lfu batch=1": {"eviction_batch": 1},
    "lfu batch=8": {"eviction_batch": 8},
    "lfu nr_scan=32": {"nr_scan": 32},
    "lfu nr_scan=128": {"nr_scan": 128},
    "lfu unvalidated": {"validate_registry": False},
    "default": {"policy": "default"},
    "sieve": {"policy": "sieve"},
    "arc": {"policy": "arc"},
}


def run_one(nkeys: int, cgroup_pages: int, nops: int, warmup_ops: int,
            nthreads: int, zipf_theta: float, policy: str = "lfu",
            nr_scan: int = DEFAULT_NR_SCAN,
            eviction_batch: int = EVICTION_BATCH,
            validate_registry: bool = True, mode: str = "full",
            snapshot: bool = False):
    """One variant on YCSB C; returns (YcsbResult, DbEnv)."""
    env = make_db_env("default", cgroup_pages=cgroup_pages, nkeys=nkeys,
                      compaction_thread=True, mode=mode,
                      snapshot=snapshot)
    if policy == "lfu":  # the one factory that takes nr_scan
        env.machine.attach(env.cgroup, make_lfu_policy(
            map_entries=max(4 * cgroup_pages, 1024), nr_scan=nr_scan))
    else:
        attach_policy(env.machine, env.cgroup, policy, cgroup_pages)
    cache = env.machine.page_cache
    cache.eviction_batch = eviction_batch
    cache.validate_registry = validate_registry
    runner = YcsbRunner(env.db, YCSB_WORKLOADS["C"], nkeys=nkeys,
                        nops=nops, nthreads=nthreads,
                        warmup_ops=warmup_ops, zipf_theta=zipf_theta)
    return runner.run(), env


def cell(**params) -> dict:
    """Bit-identical under ``mode="replay"`` and ``snapshot=True``."""
    result, env = run_one(**params)
    metrics = env.machine.metrics().cgroup(env.cgroup.name)
    return {"throughput": result.throughput,
            "hit_ratio": metrics.hit_ratio,
            "hook_cpu_us": metrics.stats["hook_cpu_us"]}


def plan(quick: bool = False,
         scale: Optional[dict] = None) -> ExperimentSpec:
    params = {**(QUICK_SCALE if quick else FULL_SCALE), **(scale or {})}
    cells = [CellSpec("ablations", variant, cell, {**params, **change},
                      supports_replay=True,
                      snapshot_prepare=prepare_db_env_snapshot)
             for variant, change in VARIANTS.items()]
    return ExperimentSpec("ablations", cells, _merge,
                          meta={"params": params},
                          prepare=fig6.make_prepare(params, ("C",)))


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Ablations: design constants and post-paper policies (YCSB C)",
        headers=["variant", "ops_per_sec", "hit_ratio", "hook_cpu_us"])
    for variant in VARIANTS:
        c = payloads[variant]
        out.add_row(variant, round(c["throughput"], 1),
                    round(c["hit_ratio"], 4),
                    round(c["hook_cpu_us"], 1))
    out.notes.append(f"scale: {meta['params']}")
    return out
