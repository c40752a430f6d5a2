"""Table 5 — cache_ext MGLRU vs native MGLRU (framework fidelity).

The paper ports MGLRU onto cache_ext and compares it with the
kernel-native implementation across the YCSB suite: relative
throughput 0.96-1.06 per workload, harmonic mean 0.99 — i.e., the
framework costs about 1%.

We run the same sweep with our native MGLRU
(:mod:`repro.kernel.mglru`) and the cache_ext port
(:mod:`repro.policies.mglru`), which share the algorithm but differ in
where they run and what hook overhead they pay.
"""

from __future__ import annotations

from typing import Iterable

from repro.experiments import fig6
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec,
                                       prepare_db_env_snapshot)
from repro.kernel.stats import left_sum

WORKLOADS = ("A", "B", "C", "D", "E", "F", "uniform", "uniform-rw")


def harmonic_mean(values: list) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return len(vals) / left_sum(1.0 / v for v in vals)


def plan(quick: bool = False,
         workloads: Iterable[str] = WORKLOADS) -> ExperimentSpec:
    params = dict(fig6.QUICK_SCALE if quick else fig6.FULL_SCALE)
    workloads = list(workloads)
    cells = [CellSpec("table5", f"{w}/{p}", fig6.cell,
                      dict(policy=p, workload=w, **params),
                      supports_replay=True,
                      snapshot_prepare=prepare_db_env_snapshot)
             for w in workloads for p in ("mglru", "mglru-bpf")]
    return ExperimentSpec("table5", cells, _merge,
                          meta={"workloads": workloads},
                          prepare=fig6.make_prepare(params, workloads))


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Table 5: cache_ext MGLRU vs native MGLRU",
        headers=["workload", "native_ops_per_sec", "bpf_ops_per_sec",
                 "relative"])
    ratios = []
    for workload in meta["workloads"]:
        native = payloads[f"{workload}/mglru"]["throughput"]
        bpf = payloads[f"{workload}/mglru-bpf"]["throughput"]
        ratio = bpf / native if native > 0 else 0.0
        ratios.append(ratio)
        out.add_row(workload, round(native, 1), round(bpf, 1),
                    round(ratio, 3))
    out.notes.append(
        f"harmonic mean relative performance: "
        f"{harmonic_mean(ratios):.3f} (paper: 0.99)")
    return out
