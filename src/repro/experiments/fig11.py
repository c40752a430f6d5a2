"""Figure 11 — isolation: per-cgroup policies beat global ones.

Two cgroups share one machine: a YCSB C workload (10 GiB-scaled
cgroup) and a file-search workload (1 GiB-scaled cgroup), running
concurrently for a fixed window.  Four configurations:

* both on the kernel default ("global default"),
* both on LFU ("global LFU"),
* both on MRU ("global MRU"),
* the *tailored* setup — YCSB on LFU, file search on MRU — which in
  the paper wins both axes (+49.8% YCSB, +79.4% search vs baseline).

YCSB is measured as throughput over the window; file search as the
number of corpus passes completed in the window (the paper's
"searches executed in 7 minutes").
"""

from __future__ import annotations

from typing import Iterable

from repro.apps.filesearch import FileSearcher, corpus_pages, \
    make_source_tree
from repro.apps.lsm import DbOptions, LsmDb
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, attach_policy,
                                       build_machine)
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner, load_items

FULL_SCALE = {"nkeys": 40000, "ycsb_cgroup_pages": 1000,
              "search_files": 300, "search_cgroup_frac": 0.7,
              "window_s": 3.0, "nthreads": 4}
QUICK_SCALE = {"nkeys": 6000, "ycsb_cgroup_pages": 192,
               "search_files": 60, "search_cgroup_frac": 0.7,
               "window_s": 0.6, "nthreads": 2}

#: (label, YCSB policy, search policy)
CONFIGS = (
    ("default/default", "default", "default"),
    ("lfu/lfu", "lfu", "lfu"),
    ("mru/mru", "mru", "mru"),
    ("tailored lfu+mru", "lfu", "mru"),
)


def run_one(ycsb_policy: str, search_policy: str, nkeys: int,
            ycsb_cgroup_pages: int, search_files: int,
            search_cgroup_frac: float, window_s: float, nthreads: int,
            seed: int = 42):
    machine = build_machine("default")
    # cgroup A: YCSB C on the LSM store.
    ycsb_cg = machine.new_cgroup("ycsb", limit_pages=ycsb_cgroup_pages)
    db = LsmDb(machine, ycsb_cg, options=DbOptions(memtable_entries=512))
    db.bulk_load(load_items(nkeys))
    attach_policy(machine, ycsb_cg, ycsb_policy, ycsb_cgroup_pages)
    db.spawn_compaction_thread()
    # cgroup B: file search.
    files = make_source_tree(machine, nfiles=search_files, seed=seed)
    search_limit = max(64, int(corpus_pages(files) * search_cgroup_frac))
    search_cg = machine.new_cgroup("search", limit_pages=search_limit)
    attach_policy(machine, search_cg, search_policy, search_limit)

    # Both run for the whole window (ops chosen far beyond the window;
    # the engine deadline cuts them off).
    runner = YcsbRunner(db, YCSB_WORKLOADS["C"], nkeys=nkeys,
                        nops=10_000_000, nthreads=nthreads, seed=seed,
                        zipf_theta=1.1)
    runner.spawn()
    searcher = FileSearcher(machine, files, search_cg,
                            nthreads=nthreads, passes=None)
    searcher.spawn()
    window_us = window_s * 1e6
    machine.run(until_us=window_us)

    ycsb_tput = runner.result.ops / window_s
    searches = searcher.result.passes_completed
    return ycsb_tput, searches


def cell(ycsb_policy: str, search_policy: str, **params) -> dict:
    tput, searches = run_one(ycsb_policy, search_policy, **params)
    return {"ycsb_tput": tput, "searches": searches}


def plan(quick: bool = False, configs: Iterable[tuple] = CONFIGS,
         scale: dict = None) -> ExperimentSpec:
    params = dict(QUICK_SCALE if quick else FULL_SCALE)
    if scale:
        params.update(scale)
    configs = [tuple(c) for c in configs]
    cells = [CellSpec("fig11", label, cell,
                      dict(ycsb_policy=ycsb_policy,
                           search_policy=search_policy, **params))
             for label, ycsb_policy, search_policy in configs]
    return ExperimentSpec("fig11", cells, _merge,
                          meta={"labels": [c[0] for c in configs]})


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Figure 11: per-cgroup policy isolation",
        headers=["config", "ycsb_ops_per_sec", "searches_completed",
                 "ycsb_vs_baseline_pct", "search_vs_baseline_pct"])
    base = None
    for label in meta["labels"]:
        c = payloads[label]
        tput, searches = c["ycsb_tput"], c["searches"]
        if base is None:
            base = (tput, searches)
        out.add_row(label, round(tput, 1), round(searches, 2),
                    round((tput - base[0]) / base[0] * 100.0, 1),
                    round((searches - base[1]) / base[1] * 100.0, 1))
    out.notes.append(
        "paper: tailored setup +49.8% YCSB and +79.4% search over the "
        "default/default baseline; global policies hurt the mismatched "
        "workload")
    return out
