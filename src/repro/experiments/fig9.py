"""Figure 9 — file search: MRU ≈ 2x faster than default and MGLRU.

Ten ripgrep passes over the kernel source tree with a cgroup ~70% of
the corpus size.  Repeated scans are LRU's classic pathology: each
pass evicts exactly the prefix the next pass needs.  MRU keeps a
stable ~70% of the corpus resident and only re-reads the remainder,
making it nearly 2x faster in the paper.
"""

from __future__ import annotations

from typing import Iterable

from repro.apps.filesearch import FileSearcher, corpus_pages, \
    make_source_tree
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, attach_policy,
                                       build_machine)

FULL_SCALE = {"nfiles": 500, "passes": 10, "cgroup_frac": 0.7,
              "nthreads": 4}
QUICK_SCALE = {"nfiles": 100, "passes": 3, "cgroup_frac": 0.7,
               "nthreads": 2}

POLICIES = ("default", "mglru", "mru")


def run_one(policy: str, nfiles: int, passes: int, cgroup_frac: float,
            nthreads: int, seed: int = 1234):
    machine = build_machine(policy)
    files = make_source_tree(machine, nfiles=nfiles, seed=seed)
    limit = max(64, int(corpus_pages(files) * cgroup_frac))
    cgroup = machine.new_cgroup("search", limit_pages=limit)
    attach_policy(machine, cgroup, policy, limit)
    searcher = FileSearcher(machine, files, cgroup, nthreads=nthreads,
                            passes=passes)
    return searcher.run(), cgroup, machine


def cell(policy: str, **params) -> dict:
    result, cgroup, machine = run_one(policy, **params)
    metrics = machine.metrics()
    return {"seconds": result.elapsed_us / 1e6,
            "hit_ratio": metrics.cgroup(cgroup.name).hit_ratio,
            "disk_pages": metrics.disk["total_pages"]}


def plan(quick: bool = False,
         policies: Iterable[str] = POLICIES,
         scale: dict = None) -> ExperimentSpec:
    params = dict(QUICK_SCALE if quick else FULL_SCALE)
    if scale:
        params.update(scale)
    policies = list(policies)
    cells = [CellSpec("fig9", policy, cell, dict(policy=policy, **params))
             for policy in policies]
    return ExperimentSpec("fig9", cells, _merge,
                          meta={"policies": policies})


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Figure 9: file search (ripgrep) completion time",
        headers=["policy", "seconds", "hit_ratio", "disk_pages",
                 "speedup_vs_default"])
    baseline = None
    for policy in meta["policies"]:
        c = payloads[policy]
        seconds = c["seconds"]
        if policy == "default":
            baseline = seconds
        speedup = (baseline / seconds) if baseline else 0.0
        out.add_row(policy, round(seconds, 2),
                    round(c["hit_ratio"], 4),
                    c["disk_pages"],
                    round(speedup, 2))
    out.notes.append("paper: MRU ~2x faster than default and MGLRU")
    return out
