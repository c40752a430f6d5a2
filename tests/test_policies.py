"""Behavioural tests for the paper's policy suite."""

import pytest

from repro.cache_ext import load_policy
from repro.ebpf.verifier import verify_program
from repro.kernel import Machine
from repro.policies import (GENERIC_POLICIES, make_admission_filter_policy,
                            make_fifo_policy, make_get_scan_policy,
                            make_lfu_policy, make_mglru_policy,
                            make_mru_policy, make_noop_policy,
                            make_s3fifo_policy,
                            make_userspace_dispatch_policy)
from repro.policies.lhd import init_lhd, make_lhd_policy
from repro.policies.userspace import spawn_drainer


def make_env(limit=32, nfile_pages=256):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=limit)
    f = machine.fs.create("data")
    for i in range(nfile_pages):
        f.store[i] = i
    f.npages = nfile_pages
    f.ra_enabled = False
    return machine, cg, f


def run_trace(machine, f, cg, indices):
    def step(thread, it=iter(list(indices))):
        idx = next(it, None)
        if idx is None:
            return False
        machine.fs.read_page(f, idx)
        return True
    machine.spawn("trace", step, cgroup=cg)
    machine.run()


class TestAllPoliciesVerify:
    @pytest.mark.parametrize("factory", [
        make_noop_policy, make_fifo_policy, make_mru_policy,
        make_lfu_policy, make_s3fifo_policy, make_lhd_policy,
        make_mglru_policy, make_get_scan_policy,
        make_admission_filter_policy, make_userspace_dispatch_policy,
    ])
    def test_every_program_passes_the_verifier(self, factory):
        ops = factory()
        programs = ops.loaded_programs()
        assert programs, f"{ops.name} declares no programs"
        for prog in programs:
            assert verify_program(prog, raise_on_findings=False) == [], \
                f"{ops.name}:{prog.name} failed verification"

    @pytest.mark.parametrize("name", sorted(GENERIC_POLICIES))
    def test_generic_policies_load_and_run(self, name):
        machine, cg, f = make_env()
        load_policy(machine, cg, GENERIC_POLICIES[name]())
        run_trace(machine, f, cg, [i % 64 for i in range(300)])
        assert cg.charged_pages <= 32
        assert cg.stats.evictions > 0


class TestFifo:
    def test_eviction_in_arrival_order(self):
        machine, cg, f = make_env(limit=8)
        load_policy(machine, cg, make_fifo_policy())
        run_trace(machine, f, cg, range(8))
        # Touch early pages again: FIFO must ignore recency.
        run_trace(machine, f, cg, [0, 1, 2] * 3)
        run_trace(machine, f, cg, range(8, 12))
        # The oldest inserted pages (0..) are gone despite being hot.
        assert f.mapping.lookup(0) is None
        assert f.mapping.lookup(11) is not None


class TestMru:
    def test_keeps_old_evicts_new(self):
        machine, cg, f = make_env(limit=32)
        load_policy(machine, cg, make_mru_policy(skip=2))
        run_trace(machine, f, cg, range(100))
        # A stable prefix of the file stays resident under MRU.
        resident_prefix = sum(
            1 for i in range(20) if f.mapping.lookup(i) is not None)
        assert resident_prefix >= 15

    def test_mru_beats_lru_on_repeated_scans(self):
        def hit_ratio(factory):
            machine, cg, f = make_env(limit=48, nfile_pages=64)
            if factory is not None:
                load_policy(machine, cg, factory())
            for _ in range(6):
                run_trace(machine, f, cg, range(64))
            return cg.stats.hit_ratio

        assert hit_ratio(make_mru_policy) > hit_ratio(None) + 0.2


class TestLfu:
    def test_hot_pages_survive(self):
        machine, cg, f = make_env(limit=16)
        load_policy(machine, cg, make_lfu_policy(nr_scan=64))
        hot = [0, 1, 2, 3]
        trace = []
        for i in range(4, 128):
            trace.extend(hot)
            trace.append(i)
        run_trace(machine, f, cg, trace)
        assert all(f.mapping.lookup(h) is not None for h in hot)

    def test_frequency_metadata_cleaned_on_eviction(self):
        machine, cg, f = make_env(limit=8)
        ops = make_lfu_policy()
        policy = load_policy(machine, cg, ops)
        run_trace(machine, f, cg, range(64))
        # freq map tracks only resident folios (plus none leaked).
        freq_entries = len(ops.policy_init and
                           [k for k in _freq_map(ops).keys()])
        assert freq_entries == cg.charged_pages


def _freq_map(ops):
    """Reach the LFU freq map through the program closure (test aid)."""
    added = ops.folio_added
    for name, cell in zip(added.fn.__code__.co_freevars,
                          added.fn.__closure__):
        if name == "freq_map":
            return cell.cell_contents
    raise AssertionError("freq_map closure not found")


class TestS3Fifo:
    def test_ghost_readmission_goes_to_main(self):
        machine, cg, f = make_env(limit=16)
        ops = make_s3fifo_policy(ghost_entries=64)
        policy = load_policy(machine, cg, ops)
        run_trace(machine, f, cg, range(64))  # page 0 evicted by now
        assert f.mapping.lookup(0) is None
        assert ops.user_maps["ghost"].lookup((f.file_id, 0)) is not None
        run_trace(machine, f, cg, [0])
        # Readmitted straight to the main list (list index 1).
        main = policy.lists[1]
        assert f.mapping.lookup(0) in main.folios()

    def test_one_hit_wonders_filtered(self):
        """Single-touch pages die in the small FIFO while re-accessed
        pages earn main-list protection."""
        machine, cg, f = make_env(limit=24)
        load_policy(machine, cg, make_s3fifo_policy(ghost_entries=64))
        hot = list(range(6))
        trace = []
        for i in range(6, 120):
            trace.extend(hot)   # hot set re-accessed continuously
            trace.append(i)     # one-hit wonder stream
        run_trace(machine, f, cg, trace)
        survivors = sum(1 for h in hot if f.mapping.lookup(h) is not None)
        assert survivors >= 5


class TestLhd:
    def test_reconfiguration_runs_via_agent(self):
        machine, cg, f = make_env(limit=32)
        ops = make_lhd_policy(map_entries=1024)
        machine.attach(cg, ops)
        init_lhd(machine, ops)
        bss = ops.user_maps["bss"]
        initial = bss.lookup(2)
        # Push enough events to cross RECONFIG_EVERY at least once.
        from repro.policies.lhd import RECONFIG_EVERY
        per_round = 64
        rounds = RECONFIG_EVERY // per_round + 2
        for _ in range(rounds):
            run_trace(machine, f, cg, [i % 64 for i in range(per_round)])
        assert bss.lookup(2) > initial

    def test_densities_are_fixed_point_ints(self):
        machine, cg, f = make_env(limit=32)
        ops = make_lhd_policy(map_entries=1024)
        machine.attach(cg, ops)
        init_lhd(machine, ops)
        run_trace(machine, f, cg, [i % 48 for i in range(500)])
        density = None
        reconf = ops.user_maps["reconfigure"]
        for name, cell in zip(reconf.fn.__code__.co_freevars,
                              reconf.fn.__closure__):
            if name == "density":
                density = cell.cell_contents
        assert density is not None
        values = [density.lookup(i) for i in range(len(density))]
        assert all(isinstance(v, int) for v in values)
        assert any(v > 0 for v in values)


class TestMglruBpf:
    def test_four_generation_lists(self):
        machine, cg, f = make_env(limit=32)
        policy = load_policy(machine, cg, make_mglru_policy())
        assert len(policy.lists) == 4

    def test_ghost_refaults_feed_tiers(self):
        machine, cg, f = make_env(limit=16)
        ops = load_policy(machine, cg, make_mglru_policy(
            ghost_entries=128)), None
        policy = cg.ext_policy
        run_trace(machine, f, cg, range(64))
        run_trace(machine, f, cg, range(10))  # refaults
        ghost = policy.ops.user_maps["ghost"]
        # Ghost entries were consumed by the refaults.
        meta = policy.ops.user_maps["meta"]
        assert len(meta) == cg.charged_pages


class TestInformedPolicies:
    def test_get_scan_routes_by_tid(self):
        machine, cg, f = make_env(limit=64)
        ops = make_get_scan_policy()
        policy = load_policy(machine, cg, ops)
        scan_tids = ops.user_maps["scan_tids"]

        def scan_step(thread, state={"done": False}):
            if state["done"]:
                return False
            scan_tids.update(thread.tid, 1)
            machine.fs.read_page(f, 0)
            state["done"] = True
            return True

        def get_step(thread, state={"done": False}):
            if state["done"]:
                return False
            machine.fs.read_page(f, 1)
            state["done"] = True
            return True

        machine.spawn("scan", scan_step, cgroup=cg)
        machine.spawn("get", get_step, cgroup=cg)
        machine.run()
        get_list, scan_list = policy.lists[0], policy.lists[1]
        assert f.mapping.lookup(0) in scan_list.folios()
        assert f.mapping.lookup(1) in get_list.folios()

    def test_admission_filter_rejects_compaction_tid(self):
        machine, cg, f = make_env()
        ops = make_admission_filter_policy()
        load_policy(machine, cg, ops)
        tid_map = ops.user_maps["compaction_tids"]

        def compaction_step(thread, state={"done": False}):
            if state["done"]:
                return False
            tid_map.update(thread.tid, 1)
            machine.fs.read_page(f, 0)
            state["done"] = True
            return True

        machine.spawn("compactor", compaction_step, cgroup=cg)
        machine.run()
        assert f.mapping.lookup(0) is None
        assert cg.stats.admission_rejects == 1


class TestUserspaceDispatch:
    def test_events_flow_to_drainer(self):
        machine, cg, f = make_env()
        ops = make_userspace_dispatch_policy(produce_cost_us=0.5)
        load_policy(machine, cg, ops)
        spawn_drainer(machine, ops)
        run_trace(machine, f, cg, [0, 1, 0, 1])
        rb = ops.user_maps["events"]
        assert rb.produced >= 4
        # The daemon drains continuously; at most one poll batch can be
        # outstanding when the foreground work finishes.
        backlog = rb.drain()
        assert rb.consumed == rb.produced
        assert len(backlog) <= rb.produced

    def test_caching_behaviour_identical_to_baseline(self):
        """The strawman customizes nothing: eviction falls back, so
        hit patterns match the default policy exactly."""
        trace = [i % 48 for i in range(400)]

        machine, cg, f = make_env(limit=24)
        run_trace(machine, f, cg, trace)
        baseline_hits = cg.stats.hits

        machine, cg, f = make_env(limit=24)
        ops = make_userspace_dispatch_policy()
        load_policy(machine, cg, ops)
        spawn_drainer(machine, ops)
        run_trace(machine, f, cg, trace)
        assert cg.stats.hits == baseline_hits
