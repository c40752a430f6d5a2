"""Figure 7 — YCSB throughput vs. total disk I/O.

The paper plots each policy's throughput against the total disk I/O
(reads + writes) it generated for YCSB A and C, demonstrating an
inverse relationship: policies that cache well (LFU, LHD) touch the
disk less and run faster; policies that cache badly (FIFO, MRU) touch
it more and run slower.

We reuse the Figure 6 machinery and report both axes, plus the rank
correlation between throughput and disk I/O, which the "inverse
relationship" claim predicts to be strongly negative.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments import fig6
from repro.experiments.harness import (GENERIC_POLICY_NAMES, CellSpec,
                                       ExperimentResult, ExperimentSpec,
                                       prepare_db_env_snapshot)
from repro.kernel.stats import left_sum


def spearman_rank_correlation(xs: list, ys: list) -> float:
    """Spearman's rho without scipy (tiny n, no tie handling needed)."""
    def ranks(values: list) -> list:
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0] * len(values)
        for rank, idx in enumerate(order):
            out[idx] = rank
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    if n < 2:
        return 0.0
    d2 = left_sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def plan(quick: bool = False,
         policies: Iterable[str] = GENERIC_POLICY_NAMES,
         workloads: Iterable[str] = ("A", "C")) -> ExperimentSpec:
    params = dict(fig6.QUICK_SCALE if quick else fig6.FULL_SCALE)
    policies, workloads = list(policies), list(workloads)
    cells = [CellSpec("fig7", f"{w}/{p}", fig6.cell,
                      dict(policy=p, workload=w, **params),
                      supports_replay=True,
                      snapshot_prepare=prepare_db_env_snapshot)
             for w in workloads for p in policies]
    return ExperimentSpec("fig7", cells, _merge,
                          meta={"policies": policies,
                                "workloads": workloads},
                          prepare=fig6.make_prepare(params, workloads))


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Figure 7: YCSB throughput vs total disk I/O",
        headers=["workload", "policy", "ops_per_sec", "disk_pages",
                 "disk_mib"])
    for workload in meta["workloads"]:
        points = []
        for policy in meta["policies"]:
            c = payloads[f"{workload}/{policy}"]
            pages = c["disk_pages"]
            out.add_row(workload, policy, round(c["throughput"], 1),
                        pages, round(pages * 4096 / 2**20, 1))
            points.append((c["throughput"], pages))
        rho = spearman_rank_correlation([p[0] for p in points],
                                        [p[1] for p in points])
        out.notes.append(
            f"YCSB {workload}: throughput/disk-I/O Spearman rho = "
            f"{rho:.2f} (paper: inverse relationship, rho near -1)")
    return out
