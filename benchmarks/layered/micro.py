"""Per-layer microbenches: what one call into each layer costs.

Each bench times only its hot loop (fixtures and clean-up stay outside
the timed region) and returns wall seconds per operation.  A *round*
runs every bench once between two calibration-kernel runs, so every
sample is kernel-bracketed like the repetitions are; the reported
figure is the p50 over rounds in calibrated time, scaled to the unit
the metric's name ends in (``_ns`` / ``_us`` / ``_ms``).

Fixtures live outside the engine (no current thread), where the kernel
layers skip virtual-time charges they would make on a simulated thread
— the host work per call is the same code path otherwise.
"""

from __future__ import annotations

import statistics
import time

from calib import Clock, calibrated
from repro import snapshot
from repro.apps.lsm.memtable import MemTable
from repro.cache_ext import kfuncs
from repro.cache_ext.registry import FolioRegistry
from repro.ebpf.maps import HashMap
from repro.ebpf.verifier import verify_program
from repro.experiments import fig6, harness
from repro.kernel.block import BlockDevice
from repro.obs import guard
from repro.policies import make_lfu_policy
from repro.sim.engine import Engine, SimThread
from repro.workloads import streams
from repro.workloads.ycsb import YCSB_WORKLOADS

RESIDENT = 1024
UNIT_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _timed(fn, ops: int) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / ops


def _cgroup_with_folios(machine, name: str, policy: str):
    """A cgroup (far from its limit) with ``RESIDENT`` cached pages."""
    cgroup = machine.new_cgroup(name, limit_pages=1 << 20)
    harness.attach_policy(machine, cgroup, policy, 4096)
    file = machine.fs.create(f"{name}/data")
    for index in range(RESIDENT):
        file.store[index] = index
    file.npages = RESIDENT
    folios = [machine.page_cache.add_folio(file.mapping, index, cgroup)
              for index in range(RESIDENT)]
    return cgroup, file, folios


def build(seed: int) -> dict:
    """Metric name -> zero-argument bench returning seconds per op."""
    machine = harness.build_machine("default")
    cache, fs = machine.page_cache, machine.fs
    lfu_cgroup, _, lfu_folios = _cgroup_with_folios(machine, "lfu", "lfu")
    lfu = lfu_cgroup.ext_policy
    lfu_list = lfu.lists[0].id
    _, _, noop_folios = _cgroup_with_folios(machine, "noop", "noop")
    noop = noop_folios[0].memcg.ext_policy
    _, plain_file, _ = _cgroup_with_folios(machine, "plain", "default")
    # Its own cgroup, so evictions never touch the pages read_hit needs.
    churn, churn_file, _ = _cgroup_with_folios(machine, "churn", "default")
    # A stride coprime with RESIDENT: every page once, never sequential.
    hit_order = [(i * 389) % RESIDENT for i in range(RESIDENT)]

    def list_move():
        move = kfuncs.list_move
        for folio in lfu_folios:
            move(lfu_list, folio, True)

    def iterate_scoring():
        for _ in range(8):
            if len(lfu.propose_candidates(32)) != 32:
                raise RuntimeError("LFU did not deliver a full batch")

    table = HashMap(max_entries=8192, name="micro")
    for key in range(4096):
        table.update(key, key)

    def map_lookup():
        lookup = table.lookup
        for key in range(4096):
            lookup(key)

    registry = FolioRegistry(4096)

    def registry_insert():
        def insert_all():
            insert = registry.insert
            for folio in lfu_folios:
                insert(folio)

        seconds = _timed(insert_all, RESIDENT)
        for folio in lfu_folios:
            registry.remove(folio)
        return seconds

    def hit_dispatch():
        accessed = noop.folio_accessed
        for folio in noop_folios:
            accessed(folio)

    def read_hit():
        read_page = fs.read_page
        for index in hit_order:
            read_page(plain_file, index)

    next_index = [RESIDENT]

    def add_folio():
        base = next_index[0]
        next_index[0] += RESIDENT
        mapping, added = churn_file.mapping, []

        def add_all():
            add = cache.add_folio
            for index in range(base, base + RESIDENT):
                added.append(add(mapping, index, churn))

        seconds = _timed(add_all, RESIDENT)
        cache.remove_folios_no_shadow(added)
        return seconds

    def evict_batch():
        # One reclaim pass of EVICTION_BATCH folios off the kernel's
        # lists, refilled (untimed) so the cgroup never drains.
        seconds = 0.0
        for _ in range(8):
            seconds += _timed(
                lambda: cache.reclaim_cgroup(churn, nr_pages=32), 1)
            base = next_index[0]
            next_index[0] += 32
            for index in range(base, base + 32):
                cache.add_folio(churn_file.mapping, index, churn)
        return seconds / 8

    env = harness.make_db_env("default", fig6.QUICK_SCALE["cgroup_pages"],
                              fig6.QUICK_SCALE["nkeys"])
    sstable = env.db.levels[-1][0]
    keys = streams.key_strings(fig6.QUICK_SCALE["nkeys"])
    probe_keys = [k for k in keys if sstable.min_key <= k <= sstable.max_key]
    memtable = MemTable(env.db.opts.fmt)
    for key in keys[:1024:2]:
        memtable.put(key, ("v", 0))
    image = snapshot.capture(env.machine, (env.cgroup, env.db))

    def bloom_probe():
        may_contain = sstable.may_contain
        for key in probe_keys:
            may_contain(key)

    def memtable_get():
        get = memtable.get
        for key in keys[:1024]:
            get(key)

    disk = BlockDevice(**harness.EXPERIMENT_DISK)
    io_thread = SimThread(1, "micro-io", None)

    def submit():
        read = disk.read
        for _ in range(2000):
            read(io_thread, 1)

    def engine_step():
        engine = Engine()
        for worker in range(8):
            left = [500]

            def step(thread, left=left):
                thread.clock_us += 1.0
                left[0] -= 1
                return left[0] > 0

            engine.spawn(f"micro-{worker}", step)
        return _timed(engine.run, 8 * 500)

    def pregen():
        streams.clear_cache()
        return _timed(
            lambda: streams.ycsb_stream(YCSB_WORKLOADS["C"], 5000, 4000,
                                        seed, 0, 1.1, 1.4), 4000)

    attach_machine = harness.build_machine("default")
    attach_cgroup = attach_machine.new_cgroup("attach", limit_pages=1000)

    def attach():
        seconds = _timed(lambda: harness.attach_policy(
            attach_machine, attach_cgroup, "lfu", 1000), 1)
        attach_machine.detach(attach_cgroup)
        return seconds

    def verify():
        for prog in make_lfu_policy(map_entries=4096).loaded_programs():
            verify_program(prog)

    return {
        "cache_ext.kfuncs.list_move_ns":
            lambda: _timed(list_move, RESIDENT),
        "cache_ext.kfuncs.iterate_scoring_us":
            lambda: _timed(iterate_scoring, 8),
        "cache_ext.kfuncs.registry_insert_ns": registry_insert,
        "ebpf.maps.lookup_ns": lambda: _timed(map_lookup, 4096),
        "ebpf.verifier.verify_ms": lambda: _timed(verify, 1),
        "kernel.page_cache.add_folio_ns": add_folio,
        "kernel.page_cache.evict_batch_us": evict_batch,
        "kernel.vfs.read_hit_ns": lambda: _timed(read_hit, RESIDENT),
        "cache_ext.framework.hit_dispatch_ns":
            lambda: _timed(hit_dispatch, RESIDENT),
        "cache_ext.framework.attach_ms": attach,
        "apps.lsm.bloom_probe_ns":
            lambda: _timed(bloom_probe, len(probe_keys)),
        "apps.lsm.memtable_get_ns": lambda: _timed(memtable_get, 1024),
        "kernel.block.submit_ns": lambda: _timed(submit, 2000),
        "sim.engine.step_ns": engine_step,
        "workloads.pregen_ns_per_op": pregen,
        "snapshot.capture_ms": lambda: _timed(
            lambda: snapshot.capture(env.machine, (env.cgroup, env.db)), 1),
        "snapshot.restore_ms": lambda: _timed(
            lambda: snapshot.restore(image), 1),
        # The guard times its own loop and returns wall ns per check.
        "obs.disabled_check_ns": lambda: guard.disabled_check_cost_ns(
            iters=20000, repeats=1) / 1e9,
    }


def unit_scale(name: str) -> float:
    return next(scale for unit, scale in UNIT_SCALE.items()
                if name.endswith(f"_{unit}") or f"_{unit}_" in name)


def run(clock: Clock, seed: int, budget_s: float, min_rounds: int) -> tuple:
    """Rounds until ``budget_s`` wall seconds are spent (at least
    ``min_rounds``); returns ``({name: p50 in its unit}, rounds)``."""
    benches = build(seed)
    samples: dict = {name: [] for name in benches}
    deadline = time.perf_counter() + budget_s
    before = clock.tick()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        raw = {name: bench() for name, bench in benches.items()}
        after = clock.tick()
        for name, seconds in raw.items():
            samples[name].append(calibrated(seconds, before, after)
                                 * unit_scale(name))
        before = after
        rounds += 1
    return ({name: statistics.median(values)
             for name, values in samples.items()}, rounds)
