"""Table 1 — the cost of dispatching page-cache events to userspace.

The paper attaches tracepoint eBPF programs that post one ring-buffer
event per page-cache action (insert/access/evict) with a userspace
consumer that merely drains them, and measures the application-level
slowdown: −16.6% (YCSB A), −17.8% (YCSB C), −20.6% (uniform) on
RocksDB, and −4.7% on the ripgrep search workload.  No policy logic
runs — this is the *best case* for a userspace-offload architecture,
and the argument for cache_ext's in-kernel design.

We reproduce the same four rows: three KV workloads on the LSM store
(8 GiB-scaled cgroup) and the file-search workload (1 GiB-scaled).
"""

from __future__ import annotations

from repro.apps.filesearch import FileSearcher, corpus_pages, \
    make_source_tree
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec, attach_policy,
                                       build_machine, make_db_env)
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner

#: The paper's Table 1 machines give RocksDB 8 GiB of memory, so the
#: KV workloads are hit-dominated and CPU-bound — that is what makes
#: a per-event CPU tax visible as a throughput loss (when a workload
#: is disk-bound the tax hides under I/O wait, which our queueing
#: model reproduces).  The cgroup is therefore sized to hold the
#: working set after warmup.
FULL_SCALE = {"nkeys": 20000, "cgroup_pages": 7000, "nops": 40000,
              "warmup_ops": 20000, "nthreads": 8,
              "search_files": 400, "search_passes": 4,
              "search_cgroup_frac": 0.7}
QUICK_SCALE = {"nkeys": 5000, "cgroup_pages": 2000, "nops": 3000,
               "warmup_ops": 1500, "nthreads": 4,
               "search_files": 80, "search_passes": 2,
               "search_cgroup_frac": 0.7}


def _preheat(env) -> None:
    """Fault the whole database in before measurement.

    Table 1 quantifies a per-event CPU tax; that only shows up in
    throughput when the workload is CPU-bound, i.e. fully cached (on a
    disk-bound workload the tax hides under I/O wait — which the
    queueing model correctly reproduces, but is not what the paper's
    warmed 8 GiB RocksDB measures).
    """
    tables = [t for level in env.db.levels for t in level]

    def step(thread, state={"t": 0, "p": 0}):
        if state["t"] >= len(tables):
            return False
        table = tables[state["t"]]
        env.machine.fs.read_page(table.file, state["p"])
        state["p"] += 1
        if state["p"] >= table.n_data_pages:
            state["p"] = 0
            state["t"] += 1
        return True

    env.machine.spawn("preheat", step, cgroup=env.cgroup)
    env.machine.run()


def _run_kv(workload: str, dispatch: bool, params: dict) -> float:
    policy = "userspace" if dispatch else "default"
    env = make_db_env(policy, cgroup_pages=params["cgroup_pages"],
                      nkeys=params["nkeys"], compaction_thread=True)
    _preheat(env)
    theta = 1.1 if YCSB_WORKLOADS[workload].distribution == "zipfian" \
        else 0.99
    result = YcsbRunner(env.db, YCSB_WORKLOADS[workload],
                        nkeys=params["nkeys"], nops=params["nops"],
                        nthreads=params["nthreads"],
                        warmup_ops=params["warmup_ops"],
                        zipf_theta=theta).run()
    return result.throughput


def _run_search(dispatch: bool, params: dict) -> float:
    """Returns elapsed simulated seconds (lower is better)."""
    policy = "userspace" if dispatch else "default"
    machine = build_machine(policy)
    files = make_source_tree(machine, nfiles=params["search_files"])
    limit = max(64, int(corpus_pages(files)
                        * params["search_cgroup_frac"]))
    cgroup = machine.new_cgroup("search", limit_pages=limit)
    attach_policy(machine, cgroup, policy, limit)
    searcher = FileSearcher(machine, files, cgroup,
                            passes=params["search_passes"])
    result = searcher.run()
    return result.elapsed_us / 1e6


def cell_kv(workload: str, dispatch: bool, **params) -> dict:
    return {"value": _run_kv(workload, dispatch=dispatch, params=params)}


def cell_search(dispatch: bool, **params) -> dict:
    return {"value": _run_search(dispatch=dispatch, params=params)}


KV_WORKLOADS = ("A", "C", "uniform")


def plan(quick: bool = False, scale: dict = None) -> ExperimentSpec:
    params = dict(QUICK_SCALE if quick else FULL_SCALE)
    if scale:
        params.update(scale)
    cells = []
    for workload in KV_WORKLOADS:
        for dispatch in (False, True):
            suffix = "dispatch" if dispatch else "base"
            cells.append(CellSpec(
                "table1", f"kv/{workload}/{suffix}", cell_kv,
                dict(workload=workload, dispatch=dispatch, **params)))
    for dispatch in (False, True):
        suffix = "dispatch" if dispatch else "base"
        cells.append(CellSpec(
            "table1", f"search/{suffix}", cell_search,
            dict(dispatch=dispatch, **params)))
    return ExperimentSpec("table1", cells, _merge, meta={})


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Table 1: userspace-dispatch overhead",
        headers=["workload", "baseline", "benchmark", "degradation_pct",
                 "unit"])
    for workload in KV_WORKLOADS:
        base = payloads[f"kv/{workload}/base"]["value"]
        bench = payloads[f"kv/{workload}/dispatch"]["value"]
        label = {"A": "YCSB A", "C": "YCSB C",
                 "uniform": "Uniform"}[workload]
        out.add_row(label, round(base, 1), round(bench, 1),
                    round((bench - base) / base * 100.0, 1), "op/s")
    base_s = payloads["search/base"]["value"]
    bench_s = payloads["search/dispatch"]["value"]
    # For the time-based row, degradation = extra time (negative sign
    # convention matches the paper's "-4.7%").
    out.add_row("Search", round(base_s, 2), round(bench_s, 2),
                round(-(bench_s - base_s) / base_s * 100.0, 1),
                "seconds")
    out.notes.append("paper: -16.6% / -17.8% / -20.6% / -4.7%")
    return out
