"""repro.faults: injection semantics, graceful degradation, determinism.

The contract under test (DESIGN.md, "Fault model & graceful
degradation"): armed faults perturb the simulation only in the ways
their plan declares; every layer degrades instead of crashing (block
retry, VFS cleanup, LSM miss/drop, watchdog + quarantine); and every
fault decision is a pure function of (plan seed, virtual time).
"""

from __future__ import annotations

import pytest

from repro.cache_ext import load_policy
from repro.faults import (FOREVER, DeviceFault, FaultPlan, MemoryFault,
                          PolicyFault, QuarantineConfig)
from repro.kernel import Machine
from repro.kernel.errors import EIO, ETIMEDOUT
from repro.policies import make_lfu_policy


def make_env(limit=64, npages=1024):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=limit)
    f = machine.fs.create("data")
    for i in range(npages):
        f.store[i] = i
    f.npages = npages
    f.ra_enabled = False
    return machine, cg, f


def read_all(machine, f, cg, indices, caught=None):
    """Drive reads from a simulated thread; optionally catch typed
    I/O errors into ``caught`` (list) instead of crashing the run."""
    def step(thread, it=iter(list(indices))):
        idx = next(it, None)
        if idx is None:
            return False
        try:
            machine.fs.read_page(f, idx)
        except (EIO, ETIMEDOUT) as exc:
            if caught is None:
                raise
            caught.append(exc)
        return True
    machine.spawn("reader", step, cgroup=cg)
    machine.run()


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------
class TestPlanValidation:
    def test_unknown_device_kind_rejected(self):
        with pytest.raises(ValueError):
            DeviceFault(kind="meltdown")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DeviceFault(kind="eio", prob=1.5)
        with pytest.raises(ValueError):
            PolicyFault(kind="hook_stall", prob=-0.1)

    @pytest.mark.parametrize("field, kwargs", [
        ("latency_mult", dict(kind="latency", latency_mult=-2.0)),
        ("channels_down", dict(kind="degrade", channels_down=-1)),
        ("stuck_extra_us", dict(kind="stuck", prob=1.0,
                                stuck_extra_us=-5.0)),
        ("start_us", dict(kind="eio", start_us=500.0, end_us=100.0)),
        ("ops", dict(kind="eio", ops=("read", "trim"))),
    ])
    def test_malformed_device_fault_rejected(self, field, kwargs):
        # Each would make a service time, a channel pool or a window
        # run backwards; the error names the field.
        with pytest.raises(ValueError, match=field):
            DeviceFault(**kwargs)

    @pytest.mark.parametrize("deadline", [0.0, -100.0])
    def test_nonpositive_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="request_deadline_us"):
            FaultPlan(request_deadline_us=deadline)

    def test_memory_fault_needs_exactly_one_shrink(self):
        with pytest.raises(ValueError):
            MemoryFault(cgroup="t", at_us=0.0)
        with pytest.raises(ValueError):
            MemoryFault(cgroup="t", at_us=0.0, shrink_to_pages=10,
                        shrink_factor=0.5)

    def test_plan_coerces_lists_to_tuples(self):
        plan = FaultPlan(device=[DeviceFault(kind="eio", prob=0.5)])
        assert isinstance(plan.device, tuple)

    def test_double_arm_rejected(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan())
        with pytest.raises(ValueError):
            machine.arm_faults(FaultPlan())

    def test_describe_is_json_safe(self):
        import json
        plan = FaultPlan(
            seed=7,
            device=(DeviceFault(kind="latency", latency_mult=2.0),),
            policy=(PolicyFault(kind="kfunc_misuse", prob=0.5),),
            memory=(MemoryFault(cgroup="t", at_us=10.0,
                                shrink_factor=0.5),),
            quarantine=QuarantineConfig())
        assert json.loads(json.dumps(plan.describe()))["seed"] == 7


# ----------------------------------------------------------------------
# device faults
# ----------------------------------------------------------------------
class TestDeviceEio:
    def test_exhausted_retries_surface_typed_error(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(device=(
            DeviceFault(kind="eio", prob=1.0, ops=("read",)),)))
        caught = []
        read_all(machine, f, cg, [0], caught=caught)
        assert len(caught) == 1 and isinstance(caught[0], EIO)
        # 1 initial + 3 retries, all failed.
        assert cg.stats.io_errors == 4
        assert cg.stats.io_retries == 3
        assert machine.disk.stats.errors == 4
        assert machine.faults.fired["device_eio"] == 4

    def test_failed_read_leaves_no_ghost_folio(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(device=(
            DeviceFault(kind="eio", prob=1.0, ops=("read",)),)))
        read_all(machine, f, cg, [0], caught=[])
        # The optimistically inserted folio was removed, uncharged,
        # and left no shadow (its data never arrived).
        assert f.mapping.lookup(0) is None
        assert f.mapping.nr_shadows == 0
        assert cg.charged_pages == 0

    def test_transient_window_recovers_after_retry(self):
        machine, cg, f = make_env()
        # Fail everything before t=100us; the first attempt completes
        # (and errors) inside the window, the backed-off retry lands
        # beyond it and succeeds.
        machine.arm_faults(FaultPlan(device=(
            DeviceFault(kind="eio", prob=1.0, ops=("read",),
                        end_us=100.0),)))
        caught = []
        read_all(machine, f, cg, [0], caught=caught)
        assert caught == []
        assert f.mapping.lookup(0) is not None
        assert cg.stats.io_errors == 1
        assert cg.stats.io_retries == 1

    def test_eio_still_occupies_the_channel(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(device=(
            DeviceFault(kind="eio", prob=1.0, ops=("read",),
                        end_us=100.0),)))
        read_all(machine, f, cg, [0], caught=[])
        # Failed attempt + successful retry both did device work.
        assert machine.disk.stats.busy_us >= 2 * machine.disk.read_us


class TestDeviceLatencyAndDegrade:
    def _timed_read(self, plan):
        machine, cg, f = make_env()
        if plan is not None:
            machine.arm_faults(plan)
        read_all(machine, f, cg, [0])
        return machine

    def test_latency_window_multiplies_service(self):
        base = self._timed_read(None)
        slow = self._timed_read(FaultPlan(device=(
            DeviceFault(kind="latency", latency_mult=10.0),)))
        # The multiplier applies to device service time only (submit
        # overhead is CPU, not device).
        assert slow.now_us - base.now_us == pytest.approx(
            9.0 * base.disk.read_us)
        assert slow.faults.fired["device_latency"] == 1

    def test_latency_outside_window_is_free(self):
        base = self._timed_read(None)
        armed = self._timed_read(FaultPlan(device=(
            DeviceFault(kind="latency", latency_mult=10.0,
                        start_us=1e9),)))
        assert armed.now_us == base.now_us
        assert armed.faults.fired["device_latency"] == 0

    def test_degraded_channels_serialize_requests(self):
        def run(plan):
            machine = Machine()
            cg = machine.new_cgroup("t", limit_pages=256)
            f = machine.fs.create("data")
            for i in range(64):
                f.store[i] = i
            f.npages = 64
            f.ra_enabled = False
            if plan is not None:
                machine.arm_faults(plan)
            for t in range(4):  # four concurrent single-page readers
                def step(thread, idx=t, done=[False]):
                    if done[0]:
                        return False
                    done[0] = True
                    machine.fs.read_page(f, idx)
                    return True
                machine.spawn(f"r{t}", step, cgroup=cg)
            machine.run()
            return machine
        base = run(None)
        degraded = run(FaultPlan(device=(
            DeviceFault(kind="degrade",
                        channels_down=base.disk.channels - 1),)))
        # One usable channel: the four reads serialize.
        assert degraded.now_us > base.now_us
        assert degraded.now_us >= 4 * degraded.disk.read_us
        assert degraded.faults.fired["device_degrade"] == 4


class TestDeadline:
    def test_stuck_request_times_out_at_deadline(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(
            device=(DeviceFault(kind="stuck", prob=1.0, ops=("read",),
                                stuck_extra_us=50_000.0),),
            request_deadline_us=1_000.0))
        caught = []
        read_all(machine, f, cg, [0], caught=caught)
        assert len(caught) == 1 and isinstance(caught[0], ETIMEDOUT)
        assert cg.stats.io_timeouts == 4  # initial + 3 retries
        assert machine.faults.fired["device_timeout"] == 4

    def test_submitter_unblocks_at_deadline_channel_stays_busy(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(
            device=(DeviceFault(kind="stuck", prob=1.0, ops=("read",),
                                stuck_extra_us=50_000.0),),
            request_deadline_us=1_000.0))
        clock = {}

        def step(thread, done=[False]):
            if done[0]:
                return False
            done[0] = True
            try:
                machine.fs.read_page(f, 0)
            except ETIMEDOUT:
                clock["after"] = thread.clock_us
            return True

        machine.spawn("r", step, cgroup=cg)
        machine.run()
        # The thread stopped waiting at the deadline of the last retry
        # (plus the retry backoffs), far before the stuck completions.
        assert clock["after"] < 10_000.0
        # The channels stay busy until the true (stuck) completions.
        assert max(machine.disk._free_at) > 50_000.0

    def test_fast_requests_unaffected_by_deadline(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(request_deadline_us=1_000.0))
        read_all(machine, f, cg, range(10))
        assert cg.stats.io_timeouts == 0
        assert cg.stats.misses == 10


class TestWritebackErrors:
    def _dirty_env(self):
        machine, cg, f = make_env(limit=100)

        def step(thread):
            machine.fs.write_page(f, 0, "x")
            return False
        machine.spawn("w", step, cgroup=cg)
        machine.run()
        return machine, cg, f

    def test_eviction_writeback_failure_keeps_folio(self):
        machine, cg, f = self._dirty_env()
        machine.arm_faults(FaultPlan(device=(
            DeviceFault(kind="eio", prob=1.0, ops=("write",)),)))
        folio = f.mapping.lookup(0)

        def step(thread):
            assert not machine.page_cache.evict_folio(folio, cg)
            return False
        machine.spawn("evict", step, cgroup=cg)
        machine.run()
        # Graceful refusal: the dirty page stays resident (its data
        # has nowhere safe to go), the failure is counted.
        assert f.mapping.lookup(0) is folio
        assert folio.dirty
        assert cg.stats.writeback_errors == 1

    def test_fsync_failure_raises_and_keeps_dirty(self):
        machine, cg, f = self._dirty_env()
        machine.arm_faults(FaultPlan(device=(
            DeviceFault(kind="eio", prob=1.0, ops=("write",)),)))
        caught = []

        def step(thread):
            try:
                machine.fs.fsync(f)
            except EIO as exc:
                caught.append(exc)
            return False
        machine.spawn("sync", step, cgroup=cg)
        machine.run()
        assert len(caught) == 1
        assert f.mapping.lookup(0).dirty  # still needs writeback
        assert cg.stats.writeback_errors >= 1


# ----------------------------------------------------------------------
# policy faults: budget, quarantine, corruption
# ----------------------------------------------------------------------
def attach_lfu(machine, cg):
    return load_policy(machine, cg, make_lfu_policy(map_entries=4096))


class TestHookBudget:
    def test_stalling_policy_is_detached(self):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        machine.arm_faults(FaultPlan(
            policy=(PolicyFault(kind="hook_stall", stall_us=500.0),),
            hook_budget_us=100.0))
        read_all(machine, f, cg, range(100))
        # No quarantine in the plan: the detach is permanent.
        assert cg.ext_policy is None
        assert cg.stats.budget_overruns >= 1
        assert cg.stats.quarantines == 0
        assert cg.charged_pages <= 32  # kernel fallback held the limit

    def test_within_budget_policy_stays(self):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        machine.arm_faults(FaultPlan(
            policy=(PolicyFault(kind="hook_stall", stall_us=1.0),),
            hook_budget_us=1_000.0))
        read_all(machine, f, cg, range(100))
        assert cg.ext_policy is not None
        assert cg.stats.budget_overruns == 0

    def test_budget_without_plan_via_set_hook_budget(self):
        machine, cg, f = make_env(limit=32)
        policy = attach_lfu(machine, cg)
        machine.set_hook_budget(1_000.0)
        assert policy._guard is not None
        read_all(machine, f, cg, range(50))
        assert cg.ext_policy is not None  # honest policy, generous cap


class TestQuarantine:
    def _plan(self, backoff_us=2_000.0, max_reattaches=None,
              window_end=FOREVER):
        return FaultPlan(
            policy=(PolicyFault(kind="hook_stall", stall_us=500.0,
                                end_us=window_end),),
            hook_budget_us=100.0,
            quarantine=QuarantineConfig(base_backoff_us=backoff_us,
                                        multiplier=2.0,
                                        max_reattaches=max_reattaches))

    def test_detach_quarantine_reattach_cycle(self):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        # The stall window ends early, so a re-attached policy stays.
        machine.arm_faults(self._plan(window_end=5_000.0))
        read_all(machine, f, cg, list(range(200)) + list(range(200)))
        assert cg.stats.quarantines >= 1
        assert cg.stats.reattaches >= 1
        assert cg.ext_policy is not None  # healthy after the window
        assert machine.quarantine.detach_counts["t"] >= 1

    def test_backoff_is_exponential(self):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        machine.arm_faults(self._plan(backoff_us=1_000.0))
        events = []
        machine.trace.tracepoint("cache_ext:quarantine").subscribe(
            lambda e: events.append(e.data["backoff_us"]))
        read_all(machine, f, cg, list(range(300)) * 3)
        assert len(events) >= 2
        for earlier, later in zip(events, events[1:]):
            assert later == pytest.approx(earlier * 2.0)

    def test_reattach_cap_makes_detach_permanent(self):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        machine.arm_faults(self._plan(backoff_us=500.0,
                                      max_reattaches=1))
        read_all(machine, f, cg, list(range(300)) * 4)
        # One second chance, then permanently off.
        assert cg.ext_policy is None
        assert machine.quarantine.detach_counts["t"] >= 2
        assert cg.stats.reattaches <= 1

    def test_reattach_visible_via_tracepoint(self):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        machine.arm_faults(self._plan(window_end=5_000.0))
        reattaches = []
        machine.trace.tracepoint("cache_ext:reattach").subscribe(
            lambda e: reattaches.append(e.data))
        read_all(machine, f, cg, list(range(200)) + list(range(200)))
        assert reattaches
        assert reattaches[0]["after"] == "budget"
        assert reattaches[0]["attempt"] == 1


class TestCandidateCorruption:
    def test_corrupt_candidates_rejected_by_validation(self):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        machine.arm_faults(FaultPlan(policy=(
            PolicyFault(kind="corrupt_candidates", corrupt_entries=4),)))
        read_all(machine, f, cg, range(200))
        assert machine.faults.fired["corrupt_candidates"] >= 1
        assert cg.stats.ext_invalid_candidates >= 4
        assert cg.charged_pages <= 32  # the limit held regardless

    def test_kfunc_misuse_degrades_health_score(self):
        machine, cg, f = make_env(limit=32)
        policy = attach_lfu(machine, cg)
        machine.arm_faults(FaultPlan(policy=(
            PolicyFault(kind="kfunc_misuse", prob=1.0),)))
        read_all(machine, f, cg, range(100))
        assert policy.kfunc_errors > 0
        assert policy.health_score() < 1.0
        assert cg.metrics().policy.health < 1.0


# ----------------------------------------------------------------------
# memory faults
# ----------------------------------------------------------------------
class TestMemoryFaults:
    def test_limit_shrink_reclaims_to_new_limit(self):
        machine, cg, f = make_env(limit=64)
        machine.arm_faults(FaultPlan(memory=(
            MemoryFault(cgroup="t", at_us=200.0, shrink_to_pages=16),)))
        read_all(machine, f, cg, range(200))
        assert cg.limit_pages == 16
        assert cg.charged_pages <= 16
        assert machine.faults.fired["memory_shrink"] == 1

    def test_shrink_factor_scales_limit(self):
        machine, cg, f = make_env(limit=64)
        machine.arm_faults(FaultPlan(memory=(
            MemoryFault(cgroup="t", at_us=200.0, shrink_factor=0.5),)))
        read_all(machine, f, cg, range(200))
        assert cg.limit_pages == 32

    def test_unknown_cgroup_is_skipped(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(memory=(
            MemoryFault(cgroup="ghost", at_us=100.0,
                        shrink_to_pages=8),)))
        read_all(machine, f, cg, range(20))
        assert machine.faults.fired["memory_shrink_skipped"] == 1

    def test_hopeless_shrink_absorbed_not_raised(self):
        machine, cg, f = make_env(limit=16)
        # Fires after the pin loop below is done (8 reads take well
        # under 2ms) while the reader idles until 3ms.
        machine.arm_faults(FaultPlan(memory=(
            MemoryFault(cgroup="t", at_us=2_000.0, shrink_to_pages=1),)))

        def step(thread, state={"i": 0}):
            i = state["i"]
            if i >= 8:
                return False
            machine.fs.read_page(f, i)
            f.mapping.lookup(i).pin()  # unevictable forever
            state["i"] += 1
            if state["i"] == 8:
                thread.wait_until(3_000.0)  # idle while the fault fires
            return True

        machine.spawn("pinner", step, cgroup=cg)
        machine.run()
        # Reclaim could not reach the new limit: the failure was
        # counted against the cgroup, never raised into the workload.
        assert machine.faults.fired["memory_shrink"] == 1
        assert machine.faults.fired["memory_oom"] == 1
        assert cg.stats.reclaim_failures == 1

    def test_window_past_end_of_run_never_fires(self):
        machine, cg, f = make_env()
        machine.arm_faults(FaultPlan(memory=(
            MemoryFault(cgroup="t", at_us=1e12, shrink_to_pages=8),)))
        read_all(machine, f, cg, range(10))  # daemon must not hold run
        assert machine.faults.fired["memory_shrink"] == 0
        assert cg.limit_pages == 64


# ----------------------------------------------------------------------
# LSM degradation
# ----------------------------------------------------------------------
class TestLsmDegradation:
    def test_get_degrades_to_miss_put_drops(self):
        from repro.apps.lsm import LsmDb
        machine = Machine()
        cg = machine.new_cgroup("db", limit_pages=64)
        db = LsmDb(machine, cg)
        db.bulk_load([f"key{i:04d}" for i in range(500)], range(500))
        machine.arm_faults(FaultPlan(device=(
            DeviceFault(kind="eio", prob=1.0, ops=("read", "write")),)))
        out = {}

        def step(thread, done=[False]):
            if done[0]:
                return False
            done[0] = True
            out["get"] = db.get("key0005")
            db.put("key9999", "v")
            out["scan"] = db.scan("key0000", 5)
            return True

        machine.spawn("app", step, cgroup=cg)
        machine.run()  # no exception reached the engine
        assert out["get"] is None
        assert out["scan"] == []
        assert db.n_io_errors >= 2

    def test_compaction_absorbs_a_timeout_on_its_first_read(self):
        # Starting a compaction job reads each input's first page.  L0
        # tables were just written through the cache, the bulk-loaded
        # L1 tables were not: that first read goes to a device whose
        # reads all hang past the request deadline for a while.
        from repro.apps.lsm import DbOptions, LsmDb
        machine = Machine()
        cg = machine.new_cgroup("db", limit_pages=64)
        db = LsmDb(machine, cg, options=DbOptions(memtable_entries=16,
                                                  max_levels=1))
        db.bulk_load([f"key{i:04d}" for i in range(500)], range(500))
        trigger = db.opts.l0_compaction_trigger

        def fill(thread):
            for i in range(16 * (trigger + 1)):
                db.put(f"key{3 * i:04d}", -i)
            return False

        machine.spawn("fill", fill, cgroup=cg)
        machine.run()
        installed = [list(level) for level in db.levels]
        assert len(installed[0]) > trigger
        hang_until = machine.now_us + 100_000.0
        machine.arm_faults(FaultPlan(
            device=(DeviceFault(kind="stuck", prob=1.0, ops=("read",),
                                end_us=hang_until,
                                stuck_extra_us=10_000.0),),
            request_deadline_us=3_000.0))
        out = {}

        def compact(thread):
            if "first" not in out:
                out["first"] = db.compaction_step()
                out["errors"] = db.n_io_errors
                out["levels"] = [list(level) for level in db.levels]
                assert thread.clock_us < hang_until
                thread.wait_until(hang_until)
                return True
            db.compaction_step()
            if db.n_compactions == 0:
                return True
            out["values"] = [db.get(k) for k in ("key0003", "key0004")]
            return False

        machine.spawn("compact", compact, cgroup=cg)
        machine.run()  # the timeout never reached the engine
        assert out["first"] is True
        assert out["errors"] == 1
        assert out["levels"] == installed
        assert machine.faults.fired["device_timeout"] >= 1
        # A later step re-picked the same merge and completed it.
        assert db.n_compactions == 1 and db.n_io_errors == 1
        assert db.levels[0] == []
        assert out["values"] == [-1, 4]
        machine.check_invariants()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    PLAN_KW = dict(
        seed=1234,
        device=(DeviceFault(kind="eio", prob=0.05, ops=("read",)),
                DeviceFault(kind="stuck", prob=0.02, ops=("read",),
                            stuck_extra_us=5_000.0)),
        policy=(PolicyFault(kind="hook_stall", prob=0.1,
                            stall_us=20.0),),
        request_deadline_us=2_000.0)

    def _run(self, seed=1234):
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        kw = dict(self.PLAN_KW)
        kw["seed"] = seed
        machine.arm_faults(FaultPlan(**kw))
        read_all(machine, f, cg, list(range(300)) * 2, caught=[])
        return (dict(machine.faults.fired), cg.stats.snapshot(),
                machine.now_us)

    def test_same_seed_same_faults(self):
        assert self._run() == self._run()

    def test_different_seed_different_faults(self):
        assert self._run(seed=1)[0] != self._run(seed=2)[0]

    def test_independent_category_streams(self):
        """Removing policy faults must not move device faults: the
        per-category RNG streams do not interleave."""
        machine, cg, f = make_env(limit=32)
        attach_lfu(machine, cg)
        kw = dict(self.PLAN_KW)
        kw["policy"] = ()
        machine.arm_faults(FaultPlan(**kw))
        read_all(machine, f, cg, list(range(300)) * 2, caught=[])
        device_only = dict(machine.faults.fired)
        full = self._run()[0]
        for key in ("device_eio", "device_stuck", "device_timeout"):
            assert device_only.get(key, 0) == full.get(key, 0)
