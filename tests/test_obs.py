"""Observability layer: tracepoints, collectors, JSONL, determinism.

Covers the ``repro.obs`` contract end-to-end — enable/disable
semantics, log2 histogram edge cases, JSONL round-trips, bit-identical
traces across identical runs — plus the redesigned authoring surface
(:class:`PolicyBuilder`, ``Machine.attach``, typed metrics snapshots)
and the error-surfacing paths (kfunc errors, watchdog detaches).
"""

import io

import pytest

from repro.cache_ext.kfuncs import EPERM, list_add
from repro.cache_ext.ops import CacheExtOps, PolicyBuilder
from repro.ebpf.errors import VerificationError
from repro.ebpf.maps import ArrayMap
from repro.ebpf.runtime import bpf_program
from repro.experiments.chaos import scenario_plan
from repro.kernel import Machine
from repro.kernel.errors import EIO
from repro.kernel.machine import KERNEL_TRACEPOINTS
from repro.obs import (NULL_TRACEPOINT, CgroupViews, EventCounter,
                       Histogram, InterReferenceCollector, TraceEvent,
                       Tracepoint, TraceRegistry, TraceSession)
from repro.policies.fifo import FifoPolicy, make_fifo_policy
from repro.policies.mru import MruPolicy, make_mru_policy


def make_env(limit=32, npages=256, policy=None, name="t"):
    machine = Machine()
    cg = machine.new_cgroup(name, limit_pages=limit)
    f = machine.fs.create("data")
    for i in range(npages):
        f.store[i] = i
    f.npages = npages
    f.ra_enabled = False
    if policy is not None:
        machine.attach(cg, policy)
    return machine, cg, f


def run_reads(machine, f, cg, indices):
    def step(thread, it=iter(list(indices))):
        idx = next(it, None)
        if idx is None:
            return False
        machine.fs.read_page(f, idx)
        return True
    machine.spawn("reader", step, cgroup=cg)
    machine.run()


class TestTracepointSemantics:
    def test_subscribe_enables(self):
        tp = Tracepoint("x:y")
        assert not tp.enabled
        tp.subscribe(lambda e: None)
        assert tp.enabled

    def test_last_unsubscribe_disables(self):
        tp = Tracepoint("x:y")
        a, b = (lambda e: None), (lambda e: None)
        tp.subscribe(a)
        tp.subscribe(b)
        tp.unsubscribe(a)
        assert tp.enabled
        tp.unsubscribe(b)
        assert not tp.enabled

    def test_disable_mutes_with_consumers_attached(self):
        got = []
        tp = Tracepoint("x:y")
        tp.subscribe(got.append)
        tp.disable()
        tp.emit(1.0, "cg", 1, k=1)
        assert got == []
        tp.enable()
        tp.emit(2.0, "cg", 1, k=2)
        assert len(got) == 1 and got[0].data == {"k": 2}

    def test_enable_without_subscribers_is_a_noop(self):
        tp = Tracepoint("x:y")
        tp.enable()
        assert not tp.enabled

    def test_emit_while_disabled_produces_nothing(self):
        tp = Tracepoint("x:y")
        tp.emit(0.0, "cg", 0, k=1)  # must not raise, must not dispatch
        assert tp.nr_subscribers == 0

    def test_null_tracepoint_rejects_subscribers(self):
        with pytest.raises(RuntimeError):
            NULL_TRACEPOINT.subscribe(lambda e: None)
        NULL_TRACEPOINT.enable()
        assert not NULL_TRACEPOINT.enabled

    def test_registry_get_or_create_is_idempotent(self):
        reg = TraceRegistry()
        assert reg.tracepoint("a:b") is reg.tracepoint("a:b")

    def test_registry_glob_match(self):
        reg = TraceRegistry()
        for name in ("cache:lookup", "cache:evict", "block:io_issue"):
            reg.tracepoint(name)
        assert [tp.name for tp in reg.match("cache:*")] == \
            ["cache:evict", "cache:lookup"]
        assert len(reg.match("*")) == 3

    def test_registry_enable_disable_patterns(self):
        reg = TraceRegistry()
        tp = reg.tracepoint("cache:lookup")
        tp.subscribe(lambda e: None)
        reg.disable("cache:*")
        assert not tp.enabled
        reg.enable("cache:*")
        assert tp.enabled

    def test_machine_declares_full_event_surface_upfront(self):
        machine = Machine()
        assert set(KERNEL_TRACEPOINTS) <= set(machine.trace.names())

    def test_machine_tracepoints_start_disabled(self):
        machine = Machine()
        assert all(not tp.enabled for tp in machine.trace.match("*"))


class TestHistogram:
    @pytest.mark.parametrize("value,bucket", [
        (0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4),
        (1023, 10), (1024, 11), (2 ** 63, 64), (-1, -1), (-100, -1),
    ])
    def test_log2_bucketing(self, value, bucket):
        assert Histogram.bucket_of(value) == bucket

    def test_record_and_mean(self):
        h = Histogram()
        for v in (1, 2, 3, 10):
            h.record(v)
        assert h.count == 4
        assert h.mean == pytest.approx(4.0)
        assert len(h) == h.count

    def test_weighted_record(self):
        h = Histogram()
        h.record(4, weight=3)
        assert h.count == 3
        assert h.buckets == {3: 3}

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.record(1)
        b.record(1)
        b.record(100)
        a.merge(b)
        assert a.count == 3
        assert a.buckets[1] == 2

    def test_format_is_bpftrace_like(self):
        h = Histogram()
        for v in (1, 1, 1, 5):
            h.record(v)
        text = h.format(unit="us")
        assert "[1, 1]" in text and "@" in text

    def test_empty_histogram(self):
        h = Histogram()
        assert h.count == 0 and h.mean == 0.0
        assert h.format() == "(empty)"


class TestTraceSessionJsonl:
    def test_round_trip_through_stringio(self):
        machine, cg, f = make_env()
        with TraceSession(machine, "cache:*", "block:*") as session:
            run_reads(machine, f, cg, [0, 1, 0, 2])
        assert session.events
        buf = io.StringIO()
        n = session.write_jsonl(buf)
        assert n == len(session.events)
        buf.seek(0)
        loaded = TraceSession.load(buf)
        assert loaded == session.events

    def test_save_and_load_file(self, tmp_path):
        machine, cg, f = make_env()
        with TraceSession(machine, "cache:*") as session:
            run_reads(machine, f, cg, range(8))
        path = tmp_path / "run.jsonl"
        session.save(str(path))
        assert TraceSession.load(str(path)) == session.events

    def test_bad_line_raises_with_location(self):
        with pytest.raises(ValueError, match="bad trace line 2"):
            TraceSession.load(io.StringIO('{"name":"a:b","ts_us":0,'
                                          '"cgroup":"c","tid":1}\n'
                                          'not json\n'))

    def test_events_outside_session_are_dropped(self):
        machine, cg, f = make_env()
        run_reads(machine, f, cg, [0, 1])           # before: no consumer
        with TraceSession(machine, "cache:lookup") as session:
            run_reads(machine, f, cg, [0])
        run_reads(machine, f, cg, [2, 3])           # after: detached
        assert [e.name for e in session.events] == ["cache:lookup"]
        assert session.events[0].data["hit"] == 1

    def test_collector_only_session_does_not_buffer(self):
        machine, cg, f = make_env()
        counter = EventCounter("cache:lookup")
        with TraceSession(machine, collectors=[counter],
                          buffer=False) as session:
            run_reads(machine, f, cg, [0, 0, 1])
        assert session.events == []
        assert counter.total == 3

    def test_event_equality_and_payload(self):
        e = TraceEvent("cache:insert", 10.0, "t", 3, {"file": 1, "index": 2})
        assert e == TraceEvent.from_json_obj(e.to_json_obj())
        assert e != TraceEvent("cache:insert", 10.0, "t", 3, {"file": 9})


class TestDeterminism:
    @staticmethod
    def _traced_run():
        machine, cg, f = make_env(policy=MruPolicy(skip=2))
        with TraceSession(machine) as session:  # every tracepoint
            run_reads(machine, f, cg, list(range(48)) * 3)
        buf = io.StringIO()
        session.write_jsonl(buf)
        return buf.getvalue()

    def test_identical_runs_emit_identical_traces(self):
        assert self._traced_run() == self._traced_run()

    def test_tracing_does_not_change_virtual_results(self):
        machine, cg, f = make_env(policy=MruPolicy(skip=2))
        run_reads(machine, f, cg, list(range(48)) * 3)
        plain = (cg.stats.snapshot(), machine.engine.now_us)

        machine, cg, f = make_env(policy=MruPolicy(skip=2))
        with TraceSession(machine):
            run_reads(machine, f, cg, list(range(48)) * 3)
        traced = (cg.stats.snapshot(), machine.engine.now_us)
        assert plain == traced


class TestExactHitRatio:
    def test_lookup_events_reconstruct_stats_exactly(self):
        machine, cg, f = make_env(limit=16)
        with TraceSession(machine, "cache:lookup") as session:
            run_reads(machine, f, cg, [i % 24 for i in range(200)])
        hits = sum(e.data["hit"] for e in session.events)
        assert len(session.events) == cg.stats.lookups
        assert hits == cg.stats.hits
        assert hits / len(session.events) == cg.stats.hit_ratio


class TestCollectors:
    def test_io_latency_collector_sees_every_completion(self):
        machine, cg, f = make_env(limit=16)
        collector = CgroupViews("block:io_complete")
        with TraceSession(machine, collectors=[collector], buffer=False):
            run_reads(machine, f, cg, range(64))
        hist = collector.cgroups()["t"].io_latency
        assert hist.count > 0
        assert hist.mean > 0

    def test_hit_ratio_timeline_overall_matches_stats(self):
        machine, cg, f = make_env(limit=16)
        timeline = CgroupViews("cache:lookup", window_us=50.0)
        with TraceSession(machine, collectors=[timeline], buffer=False):
            run_reads(machine, f, cg, [i % 24 for i in range(200)])
        assert timeline.cgroups()["t"].hit_ratio == cg.stats.hit_ratio
        series = [(start, views["t"].hit_ratio)
                  for start, views in timeline.windows()]
        assert len(series) > 1  # the run spans multiple windows

    def test_inter_reference_distances(self):
        machine, cg, f = make_env()
        collector = InterReferenceCollector()
        with TraceSession(machine, collectors=[collector], buffer=False):
            # 0 re-referenced after 2 intervening lookups.
            run_reads(machine, f, cg, [0, 1, 2, 0])
        hist = collector.hist("t")
        assert hist.count == 1
        assert hist.buckets == {Histogram.bucket_of(2): 1}

    def test_event_counter_by_name(self):
        machine, cg, f = make_env(limit=8)
        counter = EventCounter("cache:insert", "cache:evict")
        with TraceSession(machine, collectors=[counter], buffer=False):
            run_reads(machine, f, cg, range(32))
        assert counter.counts["cache:insert"] == 32
        assert counter.counts.get("cache:evict", 0) > 0
        assert counter.total == sum(counter.counts.values())

    def test_replay_folds_what_attach_would_have_seen(self):
        # One Collector.replay for every collector: the same glob rule
        # offline that attach applies live.
        machine, cg, f = make_env(limit=8)
        live = EventCounter("cache:*", "block:io_complete")
        with TraceSession(machine, collectors=[live]) as session:
            run_reads(machine, f, cg, range(32))
        assert {e.name for e in session.events} - set(live.counts)
        offline = EventCounter("cache:*", "block:io_complete")
        assert offline.replay(session.events) is offline
        assert offline.counts == live.counts


class TestPolicyBuilder:
    def test_build_produces_cache_ext_ops(self):
        ops = FifoPolicy().build()
        assert isinstance(ops, CacheExtOps)
        assert ops.name == "fifo"
        assert ops.policy_init is not None and ops.evict_folios is not None

    def test_factory_shims_still_work(self):
        assert make_fifo_policy().name == "fifo"
        assert make_mru_policy(skip=3).name == "mru"

    def test_builder_and_factory_behave_identically(self):
        results = []
        for policy in (MruPolicy(skip=4), make_mru_policy(skip=4)):
            machine, cg, f = make_env(limit=16, policy=policy)
            run_reads(machine, f, cg, [i % 48 for i in range(300)])
            results.append(cg.stats.snapshot())
        assert results[0] == results[1]

    def test_attach_accepts_builder_instance(self):
        machine, cg, f = make_env()
        policy = machine.attach(cg, FifoPolicy())
        assert cg.ext_policy is policy
        assert policy.name == "fifo"

    def test_attach_accepts_cgroup_name(self):
        machine, cg, f = make_env()
        machine.attach("t", MruPolicy())
        assert cg.ext_policy is not None

    def test_unknown_slot_name_rejected_at_class_definition(self):
        with pytest.raises(ValueError, match="not a cache_ext_ops slot"):
            class Bad(PolicyBuilder):  # noqa: F811
                @CacheExtOps.slot("frobnicate")
                def f(self, folio):
                    return 0

    def test_float_state_rejected_at_build(self):
        class Floaty(FifoPolicy):
            def __init__(self):
                super().__init__()
                self.decay = 0.5

        with pytest.raises(VerificationError, match="float"):
            Floaty().build()

    def test_arbitrary_object_state_rejected_at_build(self):
        class Objecty(FifoPolicy):
            def __init__(self):
                super().__init__()
                self.cache = {}

        with pytest.raises(VerificationError, match="dict"):
            Objecty().build()

    def test_duplicate_slot_claim_rejected(self):
        class Dup(PolicyBuilder):
            @CacheExtOps.slot("folio_added")
            def a(self, folio):
                return 0

            @CacheExtOps.slot("folio_added")
            def b(self, folio):
                return 0

        with pytest.raises(VerificationError, match="claimed by both"):
            Dup().build()

    def test_subclass_overrides_slot(self):
        class Quiet(MruPolicy):
            @CacheExtOps.slot("folio_accessed")
            def folio_accessed(self, folio):
                return 0

        ops = Quiet().build()
        assert ops.name == "mru"
        assert ops.folio_accessed.name == "folio_accessed"

    def test_instance_state_is_per_instance(self):
        a, b = MruPolicy(skip=1), MruPolicy(skip=9)
        assert a.skip == 1 and b.skip == 9
        # Bound programs are cached per instance, not per class.
        assert a.build().evict_folios is not b.build().evict_folios


class TestErrorSurfacing:
    @staticmethod
    def _bad_list_policy():
        @bpf_program
        def added(folio):
            list_add(987654, folio, False)  # no such list: EPERM

        return CacheExtOps(name="badlist", folio_added=added)

    def test_kfunc_errors_hit_stats_and_trace(self):
        machine, cg, f = make_env(policy=self._bad_list_policy())
        with TraceSession(machine, "cache_ext:kfunc_error") as session:
            run_reads(machine, f, cg, range(5))
        assert cg.stats.kfunc_errors == 5
        assert machine.metrics().stats["kfunc_errors"] == 5
        assert cg.stats.snapshot()["kfunc_errors"] == 5
        assert len(session.events) == 5
        event = session.events[0]
        assert event.data["kfunc"] == "list_add"
        assert event.data["code"] == EPERM
        assert event.data["policy"] == "badlist"

    def test_watchdog_detach_hits_stats_and_trace(self):
        counter = ArrayMap(1, name="boom")

        @bpf_program
        def crashy(folio):
            counter.lookup(999)  # out-of-bounds: runtime fault

        machine, cg, f = make_env(
            policy=CacheExtOps(name="crashy", folio_added=crashy))
        with TraceSession(machine, "cache_ext:watchdog_detach") as session:
            run_reads(machine, f, cg, range(5))
        assert cg.ext_policy is None
        assert cg.stats.watchdog_detaches == 1
        assert cg.stats.snapshot()["watchdog_detaches"] == 1
        assert len(session.events) == 1
        assert session.events[0].data["policy"] == "crashy"
        assert session.events[0].data["reason"] == "ProgramError"


class TestMetricsApi:
    def test_cgroup_metrics_match_stats(self):
        machine, cg, f = make_env(limit=16)
        run_reads(machine, f, cg, [i % 24 for i in range(100)])
        metrics = cg.metrics()
        assert metrics.name == "t"
        assert metrics.hit_ratio == cg.stats.hit_ratio
        assert metrics.hits == cg.stats.hits
        assert metrics.lookups == cg.stats.lookups
        assert metrics.charged_pages == cg.charged_pages
        assert metrics.stats == cg.stats.snapshot()

    def test_machine_metrics_snapshot(self):
        machine, cg, f = make_env(limit=16, policy=MruPolicy())
        run_reads(machine, f, cg, range(64))
        metrics = machine.metrics()
        assert metrics.now_us == machine.engine.now_us
        assert metrics.disk["reads"] == machine.disk.stats.reads
        assert metrics.cgroup("t").policy is not None
        assert metrics.cgroup("t").policy.name == "mru"
        assert metrics.cgroup("t").policy.attached

    def test_metrics_are_snapshots_not_views(self):
        machine, cg, f = make_env(limit=16)
        run_reads(machine, f, cg, range(32))
        before = cg.metrics()
        run_reads(machine, f, cg, range(32, 64))
        assert cg.metrics().lookups == before.lookups + 32
        assert before.lookups == 32  # frozen at snapshot time

    def test_machine_stats_are_the_cgroups_sum(self):
        """Cache counters live on the cgroups; the machine's are their
        sum, root's and a cgroup created mid-run's included, with a
        policy attached, reclaim running and device faults firing."""
        machine = Machine()
        a = machine.new_cgroup("a", limit_pages=16)
        b = machine.new_cgroup("b", limit_pages=16)
        machine.attach(b, MruPolicy())
        machine.arm_faults(scenario_plan("flaky-disk", horizon_us=1e6))
        f = machine.fs.create("data")
        f.npages = 256
        f.ra_enabled = False

        def reader(n, stride, late_at=None):
            def step(thread, it=iter(range(n))):
                i = next(it, None)
                if i is None:
                    return False
                if i == late_at:
                    late = machine.new_cgroup("late", limit_pages=8)
                    machine.spawn("late", reader(300, 5), cgroup=late)
                try:
                    machine.fs.read_page(f, i * stride % 256)
                except EIO:
                    pass  # retries exhausted: still counted
                return True
            return step

        machine.spawn("a", reader(600, 7), cgroup=a)
        machine.spawn("b", reader(600, 3), cgroup=b)
        machine.spawn("root", reader(300, 11, late_at=150))
        machine.run()

        cgroups = machine.cgroups()
        assert [cg.name for cg in cgroups] == ["root", "a", "b", "late"]
        assert all(cg.stats.lookups and cg.stats.misses for cg in cgroups)
        metrics = machine.metrics()
        total = metrics.stats
        assert total["evictions"] and total["io_errors"]
        for name, value in total.items():
            if isinstance(value, int):
                assert value == sum(getattr(cg.stats, name)
                                    for cg in cgroups), name
        assert total["hook_cpu_us"] == b.stats.hook_cpu_us > 0
        assert metrics.hit_ratio == total["hits"] / total["lookups"]
        assert not hasattr(machine.page_cache, "stats")


class TestCachetop:
    def test_summarize_matches_cgroup_stats(self):
        from repro.tools.cachetop import summarize
        machine, cg, f = make_env(limit=16)
        with TraceSession(machine, "cache:*", "block:*",
                          "cache_ext:*") as session:
            run_reads(machine, f, cg, [i % 24 for i in range(200)])
        views = summarize(session.events)
        assert views["t"].hit_ratio == cg.stats.hit_ratio
        assert views["t"].lookups == cg.stats.lookups

    def test_selftest_passes(self):
        from repro.tools.cachetop import selftest
        assert selftest(verbose=False) == 0


#: A small fig6 cell for the guard's checks (well under a second).
GUARD_SCALE = {"nkeys": 2000, "cgroup_pages": 96, "nops": 1000,
               "warmup_ops": 400, "nthreads": 2}


class TestOverheadGuardPieces:
    def test_disabled_check_cost_is_sub_microsecond(self):
        from repro.obs.guard import disabled_check_cost_ns
        assert disabled_check_cost_ns(iters=20_000, repeats=2) < 1000

    def test_virtual_signature_excludes_wall_clock(self):
        from repro.experiments.parallel import execute
        from repro.obs.guard import fig6_cell, payloads
        report = execute(fig6_cell(scale=GUARD_SCALE), serial=True)
        assert report.timings[0].wall_s > 0
        (payload,) = payloads(report).values()
        assert sorted(payload) == ["disk_pages", "hit_ratio",
                                   "p99_read_us", "throughput"]
        assert "wall" not in report.result.format_table()


class TestGuardChecksCanFail:
    """One seeded defect per check: the check FAILs and its report
    names the broken law."""

    @staticmethod
    def assert_fails(report, law):
        from repro.obs.guard import format_report
        assert not report["passed"]
        assert [name for name, holds in report["laws"].items()
                if not holds] == [law]
        text = format_report(report)
        assert f"FAIL {law}" in text and text.endswith("FAIL")

    def test_overhead_fails_below_the_estimate(self):
        from repro.obs.guard import run_check
        report = run_check("overhead", threshold=1e-9, scale=GUARD_SCALE)
        self.assert_fails(report, "N*c/T < 0.0%")

    def test_breakdown_fails_on_an_inflated_component(self, monkeypatch):
        from repro.obs.attr import SpanStats
        from repro.obs.guard import run_check
        fold = SpanStats.fold

        def inflated(self, data):
            fold(self, data)
            self.comps["cpu"] = self.comps.get("cpu", 0.0) + 1.0
        monkeypatch.setattr(SpanStats, "fold", inflated)
        report = run_check("breakdown", scale=GUARD_SCALE)
        self.assert_fails(report, "components sum to durations")

    def test_timeseries_fails_on_a_doubled_frame_counter(self, monkeypatch):
        from repro.obs.guard import run_check
        from repro.obs.timeseries import TimeseriesSampler
        to_doc = TimeseriesSampler.to_doc

        def doubled(self):
            doc = to_doc(self)
            cols = doc["machines"][0]["columns"]
            i = next(i for i, (scope, pages) in enumerate(
                zip(cols["scope"], cols["io_read_pages"]))
                if scope == "machine" and pages)
            cols["io_read_pages"][i] *= 2
            return doc
        monkeypatch.setattr(TimeseriesSampler, "to_doc", doubled)
        report = run_check("timeseries", threshold=25.0, scale=GUARD_SCALE)
        self.assert_fails(report, "frame totals == payload")

    def test_faults_fails_when_a_scenario_fires_nothing(self, monkeypatch):
        from repro.experiments import chaos
        from repro.faults.plan import DeviceFault, FaultPlan
        from repro.obs.guard import run_check
        monkeypatch.setattr(
            chaos, "scenario_plan", lambda scenario, horizon_us, seed=1:
            FaultPlan(seed=seed, device=(DeviceFault(kind="eio"),)))
        report = run_check("faults", scale=dict(GUARD_SCALE,
                                                horizon_us=20_000.0))
        self.assert_fails(report, "every scenario fired")


class TestGuardCli:
    @pytest.mark.parametrize("argv,message", [
        (["--policy", "bogus"], "choose from 'default'"),
        (["--workload", "Z"], "choose from 'A'"),
        (["--threshold", "-1"], "must be in (0, 1)"),
        (["--threshold", "7"], "must be in (0, 1)"),
        (["nope"], "choose from overhead, breakdown, timeseries, faults"),
    ])
    def test_bad_arguments_are_usage_errors(self, argv, message, capsys):
        from repro.obs.guard import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
