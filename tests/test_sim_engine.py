"""Engine and resource-model tests: clocks, scheduling, contention."""

import pytest
from hypothesis import given

from repro.obs.trace import TraceRegistry, TraceSession
from repro.replay import ReplayEngine
from repro.sim.engine import Engine, current_thread
from repro.sim.resources import Disk
from tests.reference.engine import ReferenceEngine
from tests.strategies import STANDARD_SETTINGS, engine_scenarios
from tests.strategies.engine import play


def make_counter_thread(engine, name, n, cost_us, log=None):
    state = {"left": n}

    def step(thread):
        if state["left"] <= 0:
            return False
        thread.advance(cost_us)
        if log is not None:
            log.append((name, thread.clock_us))
        state["left"] -= 1
        return True

    return engine.spawn(name, step)


class TestEngineBasics:
    def test_single_thread_runs_to_completion(self):
        engine = Engine()
        t = make_counter_thread(engine, "a", 10, 5.0)
        engine.run()
        assert t.done
        assert t.clock_us == pytest.approx(50.0)
        assert t.steps == 11  # 10 working steps + 1 finishing step

    def test_cpu_time_accounted(self):
        engine = Engine()
        t = make_counter_thread(engine, "a", 4, 2.5)
        engine.run()
        assert t.cpu_us == pytest.approx(10.0)

    def test_smallest_clock_runs_first(self):
        engine = Engine()
        log = []
        make_counter_thread(engine, "slow", 3, 100.0, log)
        make_counter_thread(engine, "fast", 3, 1.0, log)
        engine.run()
        # All of fast's work happens before slow's second step.
        fast_times = [t for n, t in log if n == "fast"]
        slow_times = [t for n, t in log if n == "slow"]
        assert max(fast_times) < slow_times[1]

    def test_current_thread_visible_during_step(self):
        engine = Engine()
        seen = []

        def step(thread):
            seen.append(current_thread())
            return False

        t = engine.spawn("x", step)
        engine.run()
        assert seen == [t]
        assert current_thread() is None

    def test_wait_until_does_not_consume_cpu(self):
        engine = Engine()

        def step(thread):
            thread.wait_until(500.0)
            return False

        t = engine.spawn("w", step)
        engine.run()
        assert t.clock_us == 500.0
        assert t.cpu_us == 0.0

    def test_wait_until_never_goes_backwards(self):
        engine = Engine()

        def step(thread):
            thread.advance(100.0)
            thread.wait_until(50.0)  # in the past: no-op
            return False

        t = engine.spawn("w", step)
        engine.run()
        assert t.clock_us == 100.0

    def test_negative_advance_rejected(self):
        engine = Engine()

        def step(thread):
            thread.advance(-1.0)
            return False

        engine.spawn("bad", step)
        with pytest.raises(ValueError):
            engine.run()

    def test_max_steps_guard(self):
        engine = Engine()

        def forever(thread):
            thread.advance(1.0)
            return True

        engine.spawn("loop", forever)
        with pytest.raises(RuntimeError):
            engine.run(max_steps=10)

    def test_max_steps_is_exact(self):
        # Regression: the guard used to allow max_steps + 1 steps.
        engine = Engine()
        t = engine.spawn("loop", lambda thread: True)
        with pytest.raises(RuntimeError):
            engine.run(max_steps=10)
        assert t.steps == 10

    def test_max_steps_zero_runs_nothing(self):
        engine = Engine()
        t = engine.spawn("loop", lambda thread: True)
        with pytest.raises(RuntimeError):
            engine.run(max_steps=0)
        assert t.steps == 0

    def test_max_steps_can_resume_after_raise(self):
        # The interrupted thread is pushed back, so a later run()
        # continues from where the budget ran out.
        engine = Engine()
        t = make_counter_thread(engine, "a", 10, 1.0)
        with pytest.raises(RuntimeError):
            engine.run(max_steps=4)
        assert not t.done
        engine.run()
        assert t.done
        assert t.clock_us == pytest.approx(10.0)

    def test_unique_tids(self):
        engine = Engine()
        threads = [make_counter_thread(engine, f"t{i}", 1, 1.0)
                   for i in range(20)]
        assert len({t.tid for t in threads}) == 20

    def test_explicit_tid(self):
        engine = Engine()
        t = engine.spawn("x", lambda thread: False, tid=42)
        assert t.tid == 42


class TestEngineWindows:
    def test_until_us_stops_early(self):
        engine = Engine()
        t = make_counter_thread(engine, "a", 1000, 10.0)
        engine.run(until_us=105.0)
        assert not t.done
        assert t.clock_us <= 115.0  # at most one step past the window

    def test_until_us_can_resume(self):
        engine = Engine()
        t = make_counter_thread(engine, "a", 10, 10.0)
        engine.run(until_us=50.0)
        engine.run()
        assert t.done
        assert t.clock_us == pytest.approx(100.0)

    def test_spawn_mid_run_starts_at_now(self):
        engine = Engine()
        spawned = []

        def parent(thread):
            thread.advance(100.0)
            child = engine.spawn("child", lambda th: False)
            spawned.append(child)
            return False

        engine.spawn("parent", parent)
        engine.run()
        assert spawned[0].clock_us >= 100.0


class TestCgroupNameCache:
    def test_default_cgroup_name_is_root(self):
        engine = Engine()
        t = engine.spawn("t", lambda thread: False)
        assert t.cgroup_name == "root"

    def test_spawn_with_cgroup_caches_name(self):
        class FakeCgroup:
            name = "db"

        engine = Engine()
        t = engine.spawn("t", lambda thread: False, cgroup=FakeCgroup())
        assert t.cgroup_name == "db"

    def test_set_cgroup_refreshes_name(self):
        class FakeCgroup:
            def __init__(self, name):
                self.name = name

        engine = Engine()
        t = engine.spawn("t", lambda thread: False,
                         cgroup=FakeCgroup("old"))
        t.set_cgroup(FakeCgroup("new"))
        assert t.cgroup is not None and t.cgroup.name == "new"
        assert t.cgroup_name == "new"
        t.set_cgroup(None)
        assert t.cgroup_name == "root"


class TestThreadCompaction:
    def test_finished_threads_compacted(self):
        engine = Engine()
        n = engine.COMPACT_MIN_DEAD * 8
        for i in range(n):
            make_counter_thread(engine, f"t{i}", 1, 1.0)
        engine.run()
        # Every thread finished; the compactor must have dropped the
        # bulk of them (the last few may remain below the trigger).
        assert len(engine.threads) < n
        assert len(engine._heap) < n

    def test_live_threads_survive_compaction(self):
        engine = Engine()
        survivors = [make_counter_thread(engine, f"live{i}", 10_000, 1.0)
                     for i in range(3)]
        for i in range(engine.COMPACT_MIN_DEAD * 8):
            make_counter_thread(engine, f"t{i}", 1, 1.0)
        engine.run()
        assert all(t.done for t in survivors)
        assert all(t.clock_us == pytest.approx(10_000.0)
                   for t in survivors)

    def test_compaction_preserves_schedule_order(self):
        # Same interleaving with and without compaction kicking in.
        def trace_run(min_dead):
            engine = Engine()
            engine.COMPACT_MIN_DEAD = min_dead
            log = []
            for i in range(300):
                make_counter_thread(engine, f"s{i}", 2, float(i % 7 + 1),
                                    log=log)
            make_counter_thread(engine, "long", 50, 3.0, log=log)
            engine.run()
            return log

        assert trace_run(min_dead=10) == trace_run(min_dead=10**9)


class TestUntilUsClamp:
    def test_until_us_does_not_move_now_backwards(self):
        # Regression: a thread finishing *past* the deadline advances
        # now_us beyond until_us; the deadline return must not then
        # drag now_us back to until_us.
        engine = Engine()

        def finisher(thread):
            thread.advance(100.0)
            return False

        engine.spawn("finisher", finisher)
        # Pending thread already past the 50us window: never stepped.
        engine.spawn("slow", lambda thread: True, start_us=70.0)
        engine.run(until_us=50.0)
        assert engine.now_us == pytest.approx(100.0)

    def test_until_us_still_advances_now(self):
        # The normal case keeps its semantics: nothing ran past the
        # window, so now_us lands exactly on the deadline.
        engine = Engine()
        make_counter_thread(engine, "a", 1000, 10.0)
        engine.run(until_us=45.0)
        assert engine.now_us == pytest.approx(45.0)


class TestBurstScheduling:
    """The burst + fused re-queue loops must be schedule-equivalent to
    the plain pop-step-push loop (tests/reference/engine.py)."""

    @staticmethod
    def _contention_scenario(engine_cls):
        """Fig11-style contention: two cgroups hammering one machine.

        Random readers (cache-thrashing, fio-style) share the disk and
        the engine with cheap sequential readers, a mid-run spawned
        thread, a daemon poller, and a fixed run window — every
        scheduling feature the burst loop interacts with.
        """
        import random

        from repro.kernel.machine import Machine

        machine = Machine()
        machine.engine = engine_cls()  # swapped as enable_replay does
        machine.engine.attach_trace(machine.trace)
        cg_a = machine.new_cgroup("rand", limit_pages=64)
        cg_b = machine.new_cgroup("seq", limit_pages=64)
        f = machine.fs.create("data")
        for idx in range(512):
            f.store[idx] = idx
        f.npages = 512

        def rand_reader(seed):
            rng = random.Random(seed)
            remaining = [200]

            def step(thread):
                if remaining[0] <= 0:
                    return False
                thread.advance(machine.costs.syscall_us)
                machine.fs.read_page(f, rng.randrange(512))
                remaining[0] -= 1
                return True
            return step

        def seq_reader():
            pos = [0]

            def step(thread):
                if pos[0] >= 400:
                    return False
                thread.advance(0.5)
                machine.fs.read_page(f, pos[0] % 512)
                pos[0] += 1
                return True
            return step

        def daemon_step(thread):
            thread.advance(25.0)
            return True

        spawned = []

        def spawner(thread):
            thread.advance(40.0)
            if thread.steps == 3:
                spawned.append(machine.spawn(
                    "late", rand_reader(7), cgroup=cg_a))
            return thread.steps < 8

        for i in range(3):
            machine.spawn(f"rand-{i}", rand_reader(100 + i), cgroup=cg_a)
        for i in range(2):
            machine.spawn(f"seq-{i}", seq_reader(), cgroup=cg_b)
        machine.spawn("poller", daemon_step, daemon=True)
        machine.spawn("spawner", spawner)

        with TraceSession(machine, "sched:*") as session:
            machine.run(until_us=900.0)
            machine.run()  # drain past the window too
        threads = sorted(
            ((t.tid, t.name, t.steps, t.clock_us, t.cpu_us, t.done)
             for t in machine.engine.threads + spawned))
        switches = [(e.ts_us, e.tid, e.data["step"])
                    for e in session.events if e.name == "sched:switch"]
        return switches, threads, machine.now_us

    def test_burst_equivalent_to_heap_loop(self):
        fast = self._contention_scenario(Engine)
        slow = self._contention_scenario(ReferenceEngine)
        # Identical step interleavings (every sched:switch), identical
        # final clocks/step counts, identical engine time.
        assert fast == slow

    @staticmethod
    def _traced(engine_cls, scenario):
        """``play`` under a ``sched:switch`` session; the session must
        tell the same story as the step functions' own log."""
        engine = engine_cls()
        registry = TraceRegistry()
        engine.attach_trace(registry)
        with TraceSession(registry, "sched:switch") as session:
            outcome = play(engine, scenario)
        assert [(e.tid, e.data["step"], e.ts_us)
                for e in session.events] == outcome[0]
        return outcome

    @STANDARD_SETTINGS
    @given(scenario=engine_scenarios())
    def test_every_loop_schedules_like_the_reference(self, scenario):
        want = self._traced(ReferenceEngine, scenario)
        # The general loop, forced by a sched:switch subscriber and
        # again by an infinite deadline.
        assert self._traced(Engine, scenario) == want
        assert play(Engine(), scenario, until_us=float("inf")) == want
        # Untraced and unbounded, the draining run() takes
        # _run_unbounded, on both engines.
        assert play(Engine(), scenario) == want
        assert play(ReplayEngine(), scenario) == want

    @pytest.mark.parametrize("engine_cls", (Engine, ReplayEngine))
    def test_unbounded_branch_only_when_nothing_can_see_it(self,
                                                           engine_cls):
        class Spy(engine_cls):
            unbounded = 0

            def _run_unbounded(self):
                Spy.unbounded += 1
                super()._run_unbounded()

        def runs(**kwargs):
            engine = Spy()
            registry = TraceRegistry()
            engine.attach_trace(registry)
            make_counter_thread(engine, "a", 3, 1.0)
            if kwargs.pop("subscribe", False):
                registry.tracepoint("sched:exit").subscribe(lambda e: None)
            before = Spy.unbounded
            engine.run(**kwargs)
            return Spy.unbounded - before

        assert runs() == 1
        assert runs(subscribe=True) == 0
        assert runs(until_us=float("inf")) == 0
        assert runs(max_steps=100) == 0

    @pytest.mark.parametrize("engine_cls", (Engine, ReplayEngine))
    def test_a_subscriber_attached_before_run_sees_every_switch(
            self, engine_cls):
        engine = engine_cls()
        registry = TraceRegistry()
        engine.attach_trace(registry)
        threads = [make_counter_thread(engine, f"t{i}", 4 + i, 1.5 + i)
                   for i in range(3)]
        seen = []
        registry.tracepoint("sched:switch").subscribe(seen.append)
        engine.run()
        # n working steps plus the finishing one, per thread.
        assert len(seen) == sum(t.steps for t in threads) == 5 + 6 + 7
        assert all(t.done for t in threads)

    @pytest.mark.parametrize("engine_cls", (Engine, ReplayEngine))
    def test_bounded_runs_honour_their_bounds(self, engine_cls):
        engine = engine_cls()
        t = make_counter_thread(engine, "a", 1000, 10.0)
        engine.run(until_us=105.0)
        assert not t.done and engine.now_us == pytest.approx(105.0)
        steps = t.steps
        with pytest.raises(RuntimeError, match="max_steps=7"):
            engine.run(max_steps=7)
        assert t.steps == steps + 7

    def test_burst_single_thread_heap_stays_idle(self):
        # A lone thread bursts to completion: the heap sees exactly one
        # push (the spawn) and one pop.
        engine = Engine()
        t = make_counter_thread(engine, "solo", 1000, 1.0)
        engine.run()
        assert t.done
        assert t.clock_us == pytest.approx(1000.0)
        # Far fewer seq numbers consumed than steps: bursting elided
        # the per-step re-push (the non-burst loop would use ~1000).
        assert next(engine._seq) < 10

    def test_burst_respects_preemption_by_spawned_thread(self):
        engine = Engine()
        log = []

        def parent(thread):
            thread.advance(1.0)
            if thread.steps == 0:
                # Spawned mid-burst at clock 1.5: the burst must end as
                # soon as the parent's clock passes it.
                engine.spawn("child", make_child(), start_us=1.5)
            log.append(("parent", thread.clock_us))
            return thread.steps < 4

        def make_child():
            def step(thread):
                log.append(("child", thread.clock_us))
                thread.advance(10.0)
                return False
            return step

        engine.spawn("parent", parent)
        engine.run()
        # Parent runs at 1.0 and 2.0; the child (clock 1.5) preempts
        # before the parent's third step at 3.0.
        assert log[:3] == [("parent", 1.0), ("parent", 2.0),
                           ("child", 1.5)]


class TestDaemonThreads:
    def test_daemons_do_not_keep_engine_alive(self):
        engine = Engine()

        def daemon_step(thread):
            thread.advance(1.0)
            return True  # would run forever

        engine.spawn("daemon", daemon_step, daemon=True)
        make_counter_thread(engine, "main", 5, 10.0)
        engine.run(max_steps=10000)  # must terminate

    def test_daemon_interleaves_with_main(self):
        engine = Engine()
        ticks = []

        def daemon_step(thread):
            ticks.append(thread.clock_us)
            thread.advance(10.0)
            return True

        engine.spawn("daemon", daemon_step, daemon=True)
        make_counter_thread(engine, "main", 10, 10.0)
        engine.run()
        assert len(ticks) >= 5

    def test_all_daemons_runs_nothing(self):
        engine = Engine()
        engine.spawn("d", lambda th: True, daemon=True)
        engine.run(max_steps=10)  # returns immediately


class TestDisk:
    def test_single_read_time(self):
        engine = Engine()
        disk = Disk(read_us=100.0, channels=1)

        def step(thread):
            disk.read(thread, 1)
            return False

        t = engine.spawn("r", step)
        engine.run()
        assert t.clock_us == pytest.approx(100.0)

    def test_batched_read_discount(self):
        disk = Disk(read_us=100.0, seq_factor=0.25)
        assert disk._service_us(100.0, 4) == pytest.approx(175.0)

    def test_contiguous_pricing(self):
        disk = Disk(read_us=100.0, seq_factor=0.25)
        assert disk._service_us(100.0, 4, contiguous=True) == \
            pytest.approx(100.0)

    def test_contention_on_single_channel(self):
        engine = Engine()
        disk = Disk(read_us=100.0, channels=1)
        finish = {}

        def make(name):
            def step(thread):
                disk.read(thread, 1)
                finish[name] = thread.clock_us
                return False
            return step

        engine.spawn("a", make("a"))
        engine.spawn("b", make("b"))
        engine.run()
        # Second request queues behind the first.
        assert sorted(finish.values()) == [pytest.approx(100.0),
                                           pytest.approx(200.0)]

    def test_channels_allow_parallelism(self):
        engine = Engine()
        disk = Disk(read_us=100.0, channels=2)
        finish = []

        def step(thread):
            disk.read(thread, 1)
            finish.append(thread.clock_us)
            return False

        engine.spawn("a", step)
        engine.spawn("b", step)
        engine.run()
        assert finish == [pytest.approx(100.0), pytest.approx(100.0)]

    def test_stats_accumulate(self):
        engine = Engine()
        disk = Disk()

        def step(thread):
            disk.read(thread, 3)
            disk.write(thread, 2)
            return False

        engine.spawn("io", step)
        engine.run()
        assert disk.stats.read_pages == 3
        assert disk.stats.write_pages == 2
        assert disk.stats.total_pages == 5
        assert disk.stats.total_bytes == 5 * 4096

    def test_invalid_page_count(self):
        engine = Engine()
        disk = Disk()

        def step(thread):
            disk.read(thread, 0)
            return False

        engine.spawn("bad", step)
        with pytest.raises(ValueError):
            engine.run()

    def test_needs_at_least_one_channel(self):
        with pytest.raises(ValueError):
            Disk(channels=0)
