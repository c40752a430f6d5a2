"""Table 4 — cache_ext no-op overhead (µCPU per I/O, fio randread).

A no-op cache_ext policy pays for hook dispatch, registry bookkeeping
and an eviction list nobody reads — but makes no decisions, so the
eviction stream is identical to the default kernel's (everything falls
back).  The paper measures CPU-per-I/O overhead of at most 1.7%
across cgroup sizes of 5/10/30 GiB.

We run the same fio-style randread job per (scaled) cgroup size and
report CPU microseconds per operation with and without the no-op
policy, plus the registry memory-overhead bounds of §6.3.1.
"""

from __future__ import annotations

from typing import Iterable

from repro.cache_ext.registry import BUCKET_BYTES, ENTRY_BYTES
from repro.apps.fio import FioJob
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, attach_policy,
                                       build_machine)
from repro.kernel.folio import PAGE_SIZE

#: (label, cgroup pages, file pages) — 5/10/30 GiB scaled ~1000x with
#: the file ~3x the largest cgroup, as a randread working set.
FULL_SIZES = (("5GiB", 1280, 12288), ("10GiB", 2560, 12288),
              ("30GiB", 7680, 12288))
QUICK_SIZES = (("5GiB", 256, 2048), ("10GiB", 512, 2048))

FULL_OPS = 4000
QUICK_OPS = 800


def run_one(policy: str, cgroup_pages: int, file_pages: int,
            ops_per_thread: int):
    machine = build_machine(policy)
    cgroup = machine.new_cgroup("fio", limit_pages=cgroup_pages)
    attach_policy(machine, cgroup, policy, cgroup_pages)
    job = FioJob(machine, cgroup, file_pages=file_pages, nthreads=8,
                 ops_per_thread=ops_per_thread)
    return job.run(), cgroup


def cell(policy: str, cgroup_pages: int, file_pages: int,
         ops_per_thread: int) -> dict:
    result, _ = run_one(policy, cgroup_pages, file_pages,
                        ops_per_thread)
    return {"cpu_us_per_op": result.cpu_us_per_op}


def plan(quick: bool = False,
         sizes: Iterable[tuple] = None) -> ExperimentSpec:
    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    sizes = [tuple(s) for s in sizes]
    ops_per_thread = QUICK_OPS if quick else FULL_OPS
    cells = [CellSpec("table4", f"{label}/{policy}", cell,
                      dict(policy=policy, cgroup_pages=cgroup_pages,
                           file_pages=file_pages,
                           ops_per_thread=ops_per_thread))
             for label, cgroup_pages, file_pages in sizes
             for policy in ("default", "noop")]
    return ExperimentSpec("table4", cells, _merge,
                          meta={"labels": [s[0] for s in sizes]})


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Table 4: no-op cache_ext CPU overhead (fio randread)",
        headers=["cgroup", "default_cpu_us_per_op",
                 "noop_cpu_us_per_op", "overhead_pct",
                 "registry_mem_pct"])
    for label in meta["labels"]:
        base = payloads[f"{label}/default"]["cpu_us_per_op"]
        noop = payloads[f"{label}/noop"]["cpu_us_per_op"]
        overhead = (noop - base) / base * 100.0
        # §6.3.1 analysis: one bucket per cgroup page, full registry.
        mem_pct = (BUCKET_BYTES + ENTRY_BYTES) / PAGE_SIZE * 100.0
        out.add_row(label, round(base, 3), round(noop, 3),
                    round(overhead, 2), round(mem_pct, 2))
    out.notes.append("paper: overhead 0.17%-1.66%; registry memory "
                     "0.4% empty / 1.2% full")
    return out
