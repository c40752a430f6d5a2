"""Span-based latency attribution: where every virtual microsecond goes.

The contract under test (see :mod:`repro.obs.spans` /
:mod:`repro.obs.attr`):

* every request span's components sum to its duration **bitwise** —
  fold the other ``COMPONENTS`` left-to-right, then ``cpu``, and you
  reproduce ``dur_us`` exactly, for single-page and range reads alike
  (and on generated charge sequences, whenever any float ``cpu`` can);
* spans are purely observational (enabling them never perturbs
  virtual time) and gated by the ``span:close`` tracepoint;
* aggregation output is deterministic: identical runs produce
  bit-identical breakdowns, serial and parallel experiment runs
  produce byte-identical ``--breakdown`` artifacts, and a golden
  collapsed-stack file pins the whole pipeline;
* :class:`~repro.obs.trace.TraceSession` unwinds cleanly on
  exceptions (sink flushed/closed, collectors detached) — the
  regression fixes that rode along with this subsystem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel import Machine
from repro.obs import COMPONENTS, SpanAggregator, TraceSession, \
    format_breakdown
from repro.obs.attr import SpanStats
from repro.obs.collectors import EventCounter
from repro.obs.trace import TraceEvent
from repro.policies.mru import make_mru_policy
from repro.sim.engine import SimThread
from repro.sim.resources import CpuCosts
from tests.strategies import STANDARD_SETTINGS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="parallel runner requires fork")

#: Small-but-real scale for fig6-shaped runs (mirrors test_parallel).
SMALL_KV = {"nkeys": 2000, "nops": 1000, "warmup_ops": 400,
            "cgroup_pages": 96, "nthreads": 2}


def make_env(limit=32, npages=256, policy=None, name="app"):
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


def run_ops(machine, cg, ops):
    """Execute zero-arg callables, one per engine step, in a thread."""
    def step(thread, it=iter(list(ops))):
        op = next(it, None)
        if op is None:
            return False
        op()
        return True
    machine.spawn("driver", step, cgroup=cg)
    machine.run()


def record_spans(machine, cg, ops):
    """Run ``ops`` with span recording on; return the span:close events."""
    with TraceSession(machine, "span:close") as session:
        run_ops(machine, cg, ops)
    return session.events


def components_sum(data):
    """Fold the components in canonical order, as a consumer would:
    the others in ``COMPONENTS`` order, then ``cpu``."""
    acc = 0.0
    for comp in COMPONENTS[1:]:
        acc += data.get(comp, 0.0)
    return acc + data.get("cpu", 0.0)


def assert_invariant(events):
    assert events, "workload produced no spans"
    for event in events:
        data = event.data
        # Bitwise, not approx: the recorder owes consumers an exact
        # decomposition of every request.
        assert components_sum(data) == data["dur_us"], data
        assert data["dur_us"] >= 0.0
        for comp in COMPONENTS[1:]:
            assert data.get(comp, 0.0) >= 0.0, data


# ----------------------------------------------------------------------
# the invariant: components sum to duration, bitwise
# ----------------------------------------------------------------------
class TestComponentSumInvariant:
    def test_per_page_reads(self):
        machine, cg, f = make_env(limit=64, npages=96)
        indices = list(range(48)) + list(range(16))  # misses then hits
        events = record_spans(
            machine, cg,
            [lambda i=i: machine.fs.read_page(f, i) for i in indices])
        assert_invariant(events)
        assert {e.data["span"] for e in events} == {"vfs.read"}
        assert len(events) == len(indices)
        assert any(e.data.get("device_service", 0.0) > 0 for e in events)
        assert any(e.data.get("cache_hit", 0.0) > 0 for e in events)

    def test_batched_range_read(self):
        machine, cg, f = make_env(limit=128, npages=96)
        events = record_spans(
            machine, cg,
            [lambda: machine.fs.read_range(f, 0, 64),    # cold: misses
             lambda: machine.fs.read_range(f, 0, 64)])   # warm: hits
        assert_invariant(events)
        assert [e.data["span"] for e in events] == \
            ["vfs.read_range", "vfs.read_range"]
        cold, warm = events
        assert cold.data.get("device_service", 0.0) > 0
        # The warm pass is 64 hits: cache_hit time, no device time.
        assert warm.data.get("cache_hit", 0.0) > 0
        assert warm.data.get("device_service", 0.0) == 0.0

    def test_range_with_policy_absorbs_nested_reads(self):
        # read_range is read_page page by page; with a cache_ext
        # policy attached the inner reads dispatch hooks, and all of it
        # is absorbed by the enclosing vfs.read_range span (spans are
        # non-reentrant).
        machine, cg, f = make_env(limit=128, npages=96,
                                  policy=make_mru_policy())
        events = record_spans(
            machine, cg, [lambda: machine.fs.read_range(f, 0, 48)])
        assert_invariant(events)
        assert [e.data["span"] for e in events] == ["vfs.read_range"]
        assert events[0].data.get("kfunc", 0.0) > 0

    def test_write_and_fsync(self):
        machine, cg, f = make_env(limit=64, npages=32)
        ops = [lambda i=i: machine.fs.write_page(f, i, ("w", i))
               for i in range(8)]
        ops.append(lambda: machine.fs.fsync(f))
        events = record_spans(machine, cg, ops)
        assert_invariant(events)
        kinds = [e.data["span"] for e in events]
        assert kinds == ["vfs.write"] * 8 + ["vfs.fsync"]
        fsync = events[-1].data
        # Writing the dirty pages back lands in the fsync component,
        # not in generic device time.
        assert fsync.get("fsync", 0.0) > 0
        assert fsync.get("device_service", 0.0) == 0.0

    def test_reclaim_stall_under_pressure(self):
        # Dirty more pages than the cgroup holds: reclaim must write
        # folios back, and that time lands in reclaim_stall.
        machine, cg, f = make_env(limit=16, npages=64)
        events = record_spans(
            machine, cg,
            [lambda i=i: machine.fs.write_page(f, i, ("w", i))
             for i in range(64)])
        assert_invariant(events)
        assert any(e.data.get("reclaim_stall", 0.0) > 0 for e in events)

    def test_kfunc_component_with_policy(self):
        machine, cg, f = make_env(limit=32, npages=64,
                                  policy=make_mru_policy())
        events = record_spans(
            machine, cg,
            [lambda i=i: machine.fs.read_page(f, i) for i in range(48)])
        assert_invariant(events)
        assert any(e.data.get("kfunc", 0.0) > 0 for e in events)
        assert all(e.data["policy"] == "mru" for e in events)

    def test_lsm_get_span_matches_recorded_read_latency(self):
        """The acceptance anchor: each lsm.get span's duration equals
        the read latency the YCSB driver measured around db.get()."""
        from repro.experiments.harness import make_db_env
        from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner

        env = make_db_env("mru", cgroup_pages=96, nkeys=1200)
        runner = YcsbRunner(env.db, YCSB_WORKLOADS["C"], nkeys=1200,
                            nops=600, nthreads=2, warmup_ops=0)
        with TraceSession(env.machine, "span:close") as session:
            result = runner.run()
        assert_invariant(session.events)
        kinds = {e.data["span"] for e in session.events}
        # All VFS work is nested inside DB requests and absorbed.
        assert kinds <= {"lsm.get", "lsm.put", "lsm.scan",
                         "lsm.compaction"}
        gets = [e.data["dur_us"] for e in session.events
                if e.data["span"] == "lsm.get"]
        assert sorted(gets) == sorted(result.read_latency.samples_us)


_COSTS = CpuCosts()
#: Every configured CPU cost, and the default device's service times.
CPU_COSTS = dataclasses.astuple(_COSTS)
SERVICE_US = (100.0, 30.0)

#: One charge as the kernel layers make it: ``("cpu", cost)`` advances
#: the clock unattributed, ``(comp, cost)`` also adds it to ``comp``,
#: ``("device", service, queued)`` waits behind ``queued`` and adds
#: wait and service, ``("reclaim", evictions)`` is a reclaim section of
#: evictions, each dispatching a hook.
charges = st.lists(st.one_of(
    st.tuples(st.just("cpu"), st.sampled_from(CPU_COSTS)),
    st.tuples(st.sampled_from(("cache_hit", "kfunc", "fsync")),
              st.sampled_from(CPU_COSTS)),
    st.tuples(st.just("device"), st.sampled_from(SERVICE_US),
              st.lists(st.sampled_from(SERVICE_US), max_size=3)),
    st.tuples(st.just("reclaim"), st.integers(1, 4))), max_size=30)


def close_charged(open_us: float, plan) -> dict:
    """Open a span at ``open_us``, charge ``plan`` as the kernel
    layers do, close it; returns the ``span:close`` event's data."""
    machine = Machine()
    thread = SimThread(1, "charger", lambda t: False)
    thread.clock_us = free_at = open_us
    with TraceSession(machine, "span:close") as session:
        span = machine.spans.open(thread, "charged")
        for charge in plan:
            kind = charge[0]
            if kind == "cpu":
                thread.advance(charge[1])
            elif kind == "device":
                free_at = sum(charge[2], free_at)
                issue = thread.clock_us
                start = max(issue, free_at)
                thread.clock_us = free_at = start + charge[1]
                if start > issue:
                    span.add("device_wait", start - issue)
                span.add("device_service", charge[1])
            elif kind == "reclaim":
                state = span.begin_section("reclaim_stall",
                                           thread.clock_us)
                for _ in range(charge[1]):
                    thread.advance(_COSTS.evict_us)
                    thread.advance(_COSTS.bpf_hook_us)
                    span.add("kfunc", _COSTS.bpf_hook_us)
                span.end_section(thread.clock_us, state)
            else:
                thread.advance(charge[1])
                span.add(kind, charge[1])
        machine.spans.close(thread, span)
    event, = session.events
    return event.data


def folds_with(data, cpu) -> bool:
    return components_sum({**data, "cpu": cpu}) == data["dur_us"]


class TestCanonicalFold:
    """``SpanRecorder.close`` sets ``cpu = dur - acc``, ``acc`` the
    others' fold: the float nearest the exact residual.  The fold is
    bitwise whenever any float ``cpu`` makes it so."""

    @given(open_us=st.one_of(st.just(0.0), st.floats(0.0, 1e7),
                             st.integers(0, 10 ** 7).map(float)),
           plan=charges)
    @STANDARD_SETTINGS
    def test_charged_span_folds_whenever_a_cpu_can(self, open_us, plan):
        data = close_charged(open_us, plan)
        cpu = data.get("cpu", 0.0)
        if components_sum(data) != data["dur_us"]:
            # The documented limit: neither neighbour folds either.
            assert not folds_with(data, math.nextafter(cpu, -math.inf))
            assert not folds_with(data, math.nextafter(cpu, math.inf))
        for comp in COMPONENTS[1:]:
            assert data.get(comp, 0.0) >= 0.0

    def test_the_documented_limit(self):
        # The others fold to 3660.447816470148 over a 7991.704504922217
        # span: acc + cpu is a tie for cpu and both its neighbours, and
        # round-half-even steps over dur.
        machine = Machine()
        thread = SimThread(1, "charger", lambda t: False)
        with TraceSession(machine, "span:close") as session:
            span = machine.spans.open(thread, "limit")
            span.add("device_service", 3660.447816470148)
            thread.clock_us = 7991.704504922217
            machine.spans.close(thread, span)
        data = session.events[0].data
        cpu = data["cpu"]
        assert cpu == 7991.704504922217 - 3660.447816470148
        assert components_sum(data) != data["dur_us"]
        assert not any(folds_with(data, c) for c in (
            math.nextafter(cpu, -math.inf), math.nextafter(cpu, math.inf)))


# ----------------------------------------------------------------------
# gating: the span:close tracepoint switches the subsystem
# ----------------------------------------------------------------------
class TestSpanGating:
    def test_disabled_by_default(self):
        machine, cg, f = make_env()
        assert not machine.trace.tracepoint("span:close").enabled
        from repro.sim.engine import current_thread
        seen = []
        run_ops(machine, cg,
                [lambda: machine.fs.read_page(f, 0),
                 lambda: seen.append(current_thread().span)])
        assert seen == [None]

    def test_session_enables_and_disables(self):
        machine, cg, f = make_env()
        tp = machine.trace.tracepoint("span:close")
        with TraceSession(machine, "span:close"):
            assert tp.enabled
        assert not tp.enabled

    def test_spans_never_perturb_virtual_time(self):
        def run(spanned):
            machine, cg, f = make_env(limit=16, npages=64,
                                      policy=make_mru_policy())
            ops = [lambda i=i: machine.fs.read_page(f, (i * 7) % 64)
                   for i in range(200)]
            if spanned:
                record_spans(machine, cg, ops)
            else:
                run_ops(machine, cg, ops)
            return (machine.engine.now_us, cg.stats.hit_ratio,
                    machine.metrics().disk["total_pages"])
        assert run(spanned=False) == run(spanned=True)


# ----------------------------------------------------------------------
# aggregation: determinism, merge, golden collapsed stacks
# ----------------------------------------------------------------------
def _aggregate_small_run():
    machine, cg, f = make_env(limit=24, npages=64,
                              policy=make_mru_policy())
    agg = SpanAggregator()
    ops = [lambda i=i: machine.fs.read_page(f, (i * 3) % 64)
           for i in range(120)]
    ops += [lambda i=i: machine.fs.write_page(f, i, ("w", i))
            for i in range(16)]
    ops.append(lambda: machine.fs.fsync(f))
    with TraceSession(machine, collectors=[agg], buffer=False):
        run_ops(machine, cg, ops)
    return agg


class TestAggregation:
    def test_identical_runs_bit_identical_breakdowns(self):
        a = _aggregate_small_run()
        b = _aggregate_small_run()
        assert a.to_dict() == b.to_dict()
        assert a.collapsed() == b.collapsed()
        assert format_breakdown(a) == format_breakdown(b)
        assert a.total_spans == 137

    def test_golden_collapsed_stacks(self):
        agg = _aggregate_small_run()
        golden = os.path.join(DATA_DIR, "spans_collapsed.golden")
        with open(golden) as fh:
            assert agg.collapsed() == fh.read()

    def test_merge_equals_single_fold(self):
        a = _aggregate_small_run()
        b = _aggregate_small_run()
        merged = SpanAggregator().merge(a).merge(b)
        assert merged.total_spans == a.total_spans + b.total_spans
        for key, stats in merged.stats.items():
            assert stats.count == 2 * a.stats[key].count
            for comp, us in stats.comps.items():
                assert us == pytest.approx(2 * a.stats[key].comps[comp])

    def test_replay_matches_live(self):
        machine, cg, f = make_env(limit=24, npages=64)
        live = SpanAggregator()
        with TraceSession(machine, "span:close",
                          collectors=[live]) as session:
            run_ops(machine, cg,
                    [lambda i=i: machine.fs.read_page(f, i % 48)
                     for i in range(96)])
        replayed = SpanAggregator().replay(session.events)
        assert replayed.to_dict() == live.to_dict()
        assert replayed.collapsed() == live.collapsed()

    def test_stats_shape(self):
        agg = _aggregate_small_run()
        summary = agg.to_dict()
        assert "app/mru/vfs.read" in summary
        entry = summary["app/mru/vfs.read"]
        assert entry["count"] > 0
        assert entry["avg_us"] == pytest.approx(
            entry["dur_us"] / entry["count"])
        assert set(entry["components"]) <= set(COMPONENTS)
        assert set(entry["hist_us"]) == set(entry["components"])

    def test_format_breakdown_empty(self):
        assert "no spans" in format_breakdown(SpanAggregator())

    def test_spanstats_fold_ignores_meta_fields(self):
        stats = SpanStats()
        stats.fold({"span": "x", "policy": "p", "dur_us": 4.0,
                    "cpu": 1.0, "device_service": 3.0})
        assert stats.comps == {"cpu": 1.0, "device_service": 3.0}
        assert stats.dur_us == 4.0


# ----------------------------------------------------------------------
# guard: spans are observational on a fig6-sized run
# ----------------------------------------------------------------------
class TestSpansGuard:
    def test_run_spans_check_passes(self):
        from repro.obs.guard import format_report, run_check
        report = run_check("breakdown", scale=SMALL_KV)
        assert report["laws"]["tables equal"]
        assert report["spans"] > 0
        assert "lsm.get" in report["span_kinds"]
        assert report["passed"]
        assert "PASS" in format_report(report)


# ----------------------------------------------------------------------
# --breakdown artifacts through the experiment runner
# ----------------------------------------------------------------------
def _fig6_subset():
    from repro.experiments import fig6
    return fig6.plan(quick=True, policies=("default", "mru"),
                     workloads=("C",), scale=SMALL_KV)


class TestBreakdownArtifacts:
    def test_serial_breakdown_artifact(self):
        from repro.experiments.parallel import (breakdown_collapsed,
                                                breakdown_json, execute)
        report = execute(_fig6_subset(), serial=True, breakdown=True)
        assert sorted(report.breakdown) == ["C/default", "C/mru"]
        doc = json.loads(breakdown_json(report))
        assert sorted(doc) == ["C/default", "C/mru"]
        entry = doc["C/mru"]
        assert any(key.endswith("lsm.get") for key in entry)
        collapsed = breakdown_collapsed(report)
        assert collapsed.startswith("C/default;")
        assert ";lsm.get;" in collapsed

    @needs_fork
    def test_serial_and_parallel_artifacts_byte_identical(self):
        from repro.experiments.parallel import (breakdown_collapsed,
                                                breakdown_json, execute)
        serial = execute(_fig6_subset(), serial=True, breakdown=True)
        parallel = execute(_fig6_subset(), jobs=2, breakdown=True)
        assert not parallel.fallbacks
        assert breakdown_json(serial) == breakdown_json(parallel)
        assert breakdown_collapsed(serial) == \
            breakdown_collapsed(parallel)

    def test_filter_cells(self):
        from repro.experiments.parallel import execute, filter_cells
        spec = filter_cells(_fig6_subset(), "C/mru")
        assert spec.cell_ids() == ["C/mru"]
        report = execute(spec, serial=True, breakdown=True)
        assert list(report.breakdown) == ["C/mru"]
        # Subset merges render raw payloads (experiment merges assume
        # the full grid).
        assert report.result.headers == ["cell", "payload"]

    def test_filter_cells_rejects_no_match(self):
        from repro.experiments.parallel import filter_cells
        with pytest.raises(ValueError, match="no cell"):
            filter_cells(_fig6_subset(), "Z/nothing")


# ----------------------------------------------------------------------
# TraceSession exception safety (regressions fixed alongside spans)
# ----------------------------------------------------------------------
class _ExplodingCollector:
    @property
    def tracepoints(self):
        raise RuntimeError("collector config error")

    def handle(self, event):  # pragma: no cover - never subscribed
        raise AssertionError


class TestTraceSessionExceptionSafety:
    def test_sink_closed_and_collectors_detached_on_unwind(self, tmp_path):
        machine, cg, f = make_env()
        sink = str(tmp_path / "crash.jsonl")
        counter = EventCounter("cache:lookup")
        session = TraceSession(machine, "cache:*", sink=sink,
                               collectors=[counter])
        with pytest.raises(RuntimeError, match="boom"):
            with session:
                run_ops(machine, cg,
                        [lambda i=i: machine.fs.read_page(f, i)
                         for i in range(8)])
                raise RuntimeError("boom")
        assert not session.active
        assert session._sink_fp is None
        for tp in machine.trace.match("cache:*"):
            assert not tp.enabled
        # The partial trace is complete and parseable up to the crash.
        events = TraceSession.load(sink)
        lookups = [e for e in events if e.name == "cache:lookup"]
        assert len(lookups) == 8
        assert counter.counts["cache:lookup"] == 8
        assert events == session.events

    def test_start_failure_unwinds_partial_subscriptions(self):
        machine, cg, f = make_env()
        session = TraceSession(machine, "cache:*",
                               collectors=[_ExplodingCollector()])
        with pytest.raises(RuntimeError, match="collector config"):
            session.start()
        assert not session.active
        for tp in machine.trace.match("cache:*"):
            assert not tp.enabled
        # The registry is clean: a fresh session works.
        with TraceSession(machine, "cache:*") as ok:
            run_ops(machine, cg, [lambda: machine.fs.read_page(f, 0)])
        assert ok.events

    def test_stop_is_idempotent(self):
        machine, _cg, _f = make_env()
        session = TraceSession(machine, "cache:*").start()
        session.stop()
        session.stop()
        assert not session.active

    def test_sink_matches_buffer_on_clean_exit(self, tmp_path):
        import io
        machine, cg, f = make_env()
        sink = str(tmp_path / "clean.jsonl")
        with TraceSession(machine, "cache:*", sink=sink) as session:
            run_ops(machine, cg,
                    [lambda i=i: machine.fs.read_page(f, i)
                     for i in range(5)])
        buf = io.StringIO()
        session.write_jsonl(buf)
        with open(sink) as fh:
            assert fh.read() == buf.getvalue()


class TestCollectorMultiMachineAttach:
    def test_detach_covers_every_attached_machine(self):
        # Regression: attach() used to reset its subscription list per
        # machine, orphaning earlier machines' subscriptions so detach
        # left their tracepoints enabled forever.
        m1, cg1, f1 = make_env(name="one")
        m2, cg2, f2 = make_env(name="two")
        counter = EventCounter("cache:lookup")
        counter.attach(m1)
        counter.attach(m2)
        run_ops(m1, cg1, [lambda: m1.fs.read_page(f1, 0)])
        run_ops(m2, cg2, [lambda: m2.fs.read_page(f2, 0)])
        assert counter.counts["cache:lookup"] == 2
        counter.detach()
        assert not m1.trace.tracepoint("cache:lookup").enabled
        assert not m2.trace.tracepoint("cache:lookup").enabled
