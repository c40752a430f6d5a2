"""Per-layer metrics of one traced repetition.

Counts come from the span table (calls at a boundary) and from the
simulator's own counters (``Machine.metrics()``); both repeat exactly.
Times are span self times scaled to calibrated seconds.  README.md
holds the glossary and, per layer, the end-to-end metric it should move.
"""

from __future__ import annotations

from collections import Counter

from repro import snapshot

from trace import STEP_COMPACTION, STEP_POLICY_AGENT, STEP_WORKLOAD

#: Layers that report ``self_s`` / ``self_share``.
TIMED_LAYERS = ("workloads", "apps.lsm", "kernel.vfs", "kernel.page_cache",
                "kernel.policy", "cache_ext.framework", "cache_ext.kfuncs",
                "ebpf.maps", "kernel.block")
STEP_NAMES = (STEP_WORKLOAD, STEP_COMPACTION, STEP_POLICY_AGENT)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def collect(outcome, machines: list, setup, run, tallies,
            setup_scale: float, run_scale: float,
            phase_wall_s: float) -> dict:
    """``setup`` / ``run`` are the :class:`trace.Summary` of the two
    phases; ``*_scale`` turn their wall seconds into calibrated ones."""
    m: dict = {}
    # Shares are of the phase net of what the wrappers added to it.
    net_wall_s = phase_wall_s - run.overhead_s
    for layer in TIMED_LAYERS:
        self_s = run.layer_self_s(layer)
        m[f"{layer}.self_s"] = self_s * run_scale
        m[f"{layer}.self_share"] = self_s / net_wall_s
    for engine, span in (("sim.engine", "sim.engine.run"),
                         ("replay", "replay.run")):
        self_s = run.self_s[span]
        m[f"{engine}.steps"] = sum(run.count_under[span, step]
                                   for step in STEP_NAMES)
        m[f"{engine}.self_s"] = self_s * run_scale
        m[f"{engine}.self_share"] = self_s / net_wall_s
    m["sim.engine.self_ns_per_step"] = 1e9 * _ratio(
        m["sim.engine.self_s"], m["sim.engine.steps"])

    cache, disk, policies = Counter(), Counter(), []
    for snap in (machine.metrics() for machine in machines):
        cache.update(snap.stats)
        disk.update(snap.disk)
        policies += [cgroup.policy for cgroup in snap.cgroups.values()
                     if cgroup.policy is not None]

    m["workloads.steps"] = run.count[STEP_WORKLOAD]
    m["workloads.pregen_s"] = (setup.total_s["workloads.ycsb_stream"]
                               * setup_scale)

    gets = run.count["apps.lsm.get"]
    m["apps.lsm.get_calls"] = gets
    m["apps.lsm.put_calls"] = run.count["apps.lsm.put"]
    m["apps.lsm.scan_calls"] = run.count["apps.lsm.scan"]
    m["apps.lsm.flushes"] = run.count["apps.lsm.flush_memtable"]
    m["apps.lsm.compaction_steps"] = run.count["apps.lsm.compaction_step"]
    m["apps.lsm.bloom_probes"] = run.count["apps.lsm.sstable_may_contain"]
    m["apps.lsm.pages_per_get"] = _ratio(
        run.count_within("kernel.vfs.read_page", "apps.lsm.get"), gets)
    m["apps.lsm.get_sim_p99_us"] = outcome.signature.get("p99_read_us", 0.0)
    m["apps.lsm.bulk_load_s"] = (setup.total_s["apps.lsm.bulk_load"]
                                 * setup_scale)

    m["kernel.vfs.read_page_calls"] = run.count["kernel.vfs.read_page"]
    m["kernel.vfs.read_range_calls"] = run.count["kernel.vfs.read_range"]
    m["kernel.vfs.write_calls"] = run.count["kernel.vfs.write_page"]
    m["kernel.vfs.fsync_calls"] = run.count["kernel.vfs.fsync"]

    for field in ("lookups", "hits", "misses", "insertions", "evictions",
                  "refaults", "writebacks"):
        m[f"kernel.page_cache.{field}"] = cache[field]
    reclaims = run.count["kernel.page_cache.reclaim_cgroup"]
    m["kernel.page_cache.reclaim_calls"] = reclaims
    m["kernel.page_cache.evictions_per_reclaim"] = _ratio(
        cache["evictions"], reclaims)

    m["kernel.policy.calls"] = run.layer_calls("kernel.policy")
    m["kernel.policy.candidates"] = tallies["kernel.policy.candidates"]

    requests = sum(p.candidate_requests for p in policies)
    delivered = sum(p.candidates_delivered for p in policies)
    m["cache_ext.framework.hook_dispatches"] = sum(
        p.hook_dispatches for p in policies)
    m["cache_ext.framework.candidate_requests"] = requests
    m["cache_ext.framework.candidates_delivered"] = delivered
    m["cache_ext.framework.delivery_ratio"] = _ratio(delivered, requests)
    m["cache_ext.framework.invalid_candidates"] = cache[
        "ext_invalid_candidates"]
    m["cache_ext.framework.fallback_evictions"] = cache["fallback_evictions"]
    m["cache_ext.framework.policy_faults"] = cache["ext_policy_faults"]

    # list_move is implemented as a list_add: count the pair once.
    m["cache_ext.kfuncs.list_ops"] = (
        run.count["cache_ext.kfuncs.list_add"]
        + run.count["cache_ext.kfuncs.list_del"]
        + run.count["cache_ext.kfuncs.list_move"]
        - run.count_under["cache_ext.kfuncs.list_move",
                          "cache_ext.kfuncs.list_add"])
    m["cache_ext.kfuncs.iterate_calls"] = run.count[
        "cache_ext.kfuncs.list_iterate"]

    lookups = run.count["ebpf.maps.lookup"]
    m["ebpf.maps.lookups"] = lookups
    m["ebpf.maps.updates"] = (run.count["ebpf.maps.update"]
                              + run.count["ebpf.maps.delete"]
                              + run.count["ebpf.maps.atomic_add"])
    m["ebpf.maps.lookups_per_eviction"] = _ratio(lookups, cache["evictions"])

    for field in ("reads", "writes", "read_pages", "write_pages"):
        m[f"kernel.block.{field}"] = disk[field]
    m["kernel.block.sim_busy_us"] = disk["busy_us"]

    cell_wall_s = (outcome.cell_wall_s if outcome.cell_wall_s is not None
                   else phase_wall_s)
    engine_s = run.outermost_s("sim.engine.run", "replay.run")
    m["experiments.harness.cells"] = outcome.cells
    m["experiments.harness.replay_cells"] = run.count["replay.run"]
    m["experiments.harness.build_s"] = setup_scale * (
        setup.outermost_s("experiments.harness.make_db_env",
                          "experiments.harness.build_machine",
                          "snapshot.get_or_capture")
        - setup.total_s["snapshot.capture"])
    m["experiments.harness.prepare_s"] = (
        setup.total_s["experiments.harness.prepare"] * setup_scale)
    m["experiments.harness.fixed_s_per_cell"] = (
        (cell_wall_s - engine_s) / outcome.cells * run_scale)
    m["experiments.harness.merge_s"] = (
        run.total_s["experiments.harness.merge"] * run_scale)

    m["snapshot.captures"] = (setup.count["snapshot.capture"]
                              + run.count["snapshot.capture"])
    m["snapshot.restores"] = run.count["snapshot.restore"]
    m["snapshot.image_kb"] = snapshot.cache_info()["bytes"] / 1024

    m["trace.spans"] = run.spans
    m["trace.unattributed_share"] = 1.0 - run.covered_s / phase_wall_s
    return m
