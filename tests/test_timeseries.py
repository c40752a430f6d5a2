"""Telemetry plane contracts: exact frames, zero perturbation,
byte-identical artifacts.

The virtual-time sampler (:mod:`repro.obs.timeseries`) promises:

* **exact totals** — summing each integer counter column across a
  run's frames reproduces the end-of-run ``Machine.metrics()``
  numbers exactly (no double counting at frame boundaries, no missed
  tail);
* **zero perturbation** — a sampled run's virtual-time results are
  bit-identical to an unsampled run's (the sampler only waits and
  reads);
* **byte-identical artifacts** — the JSONL export is the same bytes
  serial vs ``--jobs``, cold vs snapshot-restored and full vs replay
  engine;
* **refusals** — a sample interval that is not positive and finite
  is refused at every door, before any cell runs;
* **fault localization** — the analyzer (:mod:`repro.obs.analyze`)
  localizes an injected device brownout to within one sample
  interval, via the frames alone.
"""

import io
import json
from types import SimpleNamespace

import pytest

from repro import api
from repro.experiments import fig6
from repro.experiments.harness import (CellSpec, ExperimentSpec,
                                       make_db_env)
from repro.experiments.parallel import execute
from repro.experiments.parallel import main as parallel_main
from repro.experiments.parallel import timeseries_jsonl
from repro.faults.plan import DeviceFault, FaultPlan
from repro.kernel.block import BlockDevice
from repro.kernel.machine import Machine
from repro.obs import analyze, guard
from repro.obs.collectors import CgroupViews
from repro.obs.timeseries import (STAT_COLUMNS, TimeseriesSampler,
                                  frame_totals, read_frames_jsonl)
from repro.obs.trace import TraceEvent
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner

# Small-but-busy YCSB scale: enough traffic to cross many frame
# boundaries, fast enough for CI.
SCALE = dict(nkeys=2000, cgroup_pages=96, nops=2000, warmup_ops=1000,
             nthreads=2, zipf_theta=1.1)


def sampled_cell(interval_us=2_000.0, policy="mru", workload="C",
                 mode="full"):
    """One fig6-style cell with a sampler attached; returns
    ``(machine_metrics, app_cgroup_name, sampler)``."""
    env = make_db_env(policy, cgroup_pages=SCALE["cgroup_pages"],
                      nkeys=SCALE["nkeys"], compaction_thread=True,
                      mode=mode)
    sampler = TimeseriesSampler(interval_us).attach(env.machine)
    YcsbRunner(env.db, YCSB_WORKLOADS[workload], nkeys=SCALE["nkeys"],
               nops=SCALE["nops"], nthreads=SCALE["nthreads"],
               warmup_ops=SCALE["warmup_ops"],
               zipf_theta=SCALE["zipf_theta"]).run()
    sampler.finalize()
    return env.machine.metrics(), env.cgroup.name, sampler


def sampler_rows(sampler, cell=""):
    buf = io.StringIO()
    sampler.write_jsonl(buf, cell=cell)
    buf.seek(0)
    return read_frames_jsonl(buf)


class TestExactTotals:
    """Frame counter sums == end-of-run metrics, exactly."""

    def test_machine_counters_match_metrics(self):
        metrics, _app, sampler = sampled_cell()
        _meta, rows = sampler_rows(sampler)
        totals = frame_totals(rows, scope="machine")
        assert totals["frames"] > 5
        t = totals["totals"]
        for key in ("lookups", "hits", "misses", "insertions",
                    "evictions", "refaults", "io_errors"):
            assert t[key] == metrics.stats[key], key
        assert t["io_read_pages"] + t["io_write_pages"] \
            == metrics.disk["total_pages"]
        assert t["disk_reads"] == metrics.disk["reads"]
        assert t["disk_writes"] == metrics.disk["writes"]
        # The request that counts pages is the one that completes: a
        # frame that moved none has nothing to take a quantile of
        # (TestBlockQuantiles builds one).
        for row in rows:
            if row["scope"] != "machine":
                continue
            moved = row["io_read_pages"] + row["io_write_pages"] > 0
            assert (row["device_service_p50_us"] > 0) == moved, row["t_us"]
            if not moved:
                assert all(row[q] == 0.0 for q in QUANTILE_COLUMNS)

    def test_app_cgroup_counters_and_hit_ratio(self):
        metrics, app, sampler = sampled_cell()
        _meta, rows = sampler_rows(sampler)
        totals = frame_totals(rows, scope=app)
        t = totals["totals"]
        cg = metrics.cgroup(app)
        assert t["lookups"] == cg.lookups
        assert t["hits"] == cg.hits
        # Bit-exact, not approximately equal: the frames alone
        # reconstruct the reported hit ratio.
        assert t["hits"] / t["lookups"] == cg.hit_ratio
        assert t["io_read_pages"] == cg.io_read_pages

    def test_machine_row_is_its_cgroup_rows_added_in_order(self):
        # One add per cgroup row, root first: the float column's bits
        # are the same on every interpreter (repro.kernel.stats.left_sum).
        _metrics, _app, sampler = sampled_cell()
        _meta, rows = sampler_rows(sampler)
        frames: dict = {}
        for row in rows:
            frames.setdefault(row["t_us"], []).append(row)
        assert len(frames) > 5
        for machine_row, *cgroup_rows in frames.values():
            assert machine_row["scope"] == "machine"
            for column in STAT_COLUMNS:
                acc = 0
                for row in cgroup_rows:
                    acc += row[column]
                assert repr(machine_row[column]) == repr(acc), column

    def test_charged_pages_gauge_is_last_not_summed(self):
        metrics, app, sampler = sampled_cell()
        _meta, rows = sampler_rows(sampler)
        totals = frame_totals(rows, scope=app)
        assert totals["last"]["charged_pages"] \
            == metrics.cgroup(app).charged_pages


QUANTILE_COLUMNS = ("device_wait_p50_us", "device_wait_p99_us",
                    "device_service_p50_us", "device_service_p99_us")


class TestBlockQuantiles:
    """Frame quantiles fold ``block:io_complete``, per request."""

    def test_sampler_leaves_span_recording_off(self):
        machine = Machine()
        sampler = TimeseriesSampler().attach(machine)
        assert not machine.trace.tracepoint("span:close").enabled
        assert machine.trace.tracepoint("block:io_complete").enabled
        sampler.finalize()
        assert not machine.trace.tracepoint("block:io_complete").enabled

    def test_queued_reader_sets_the_wait_quantiles(self):
        # One channel, 100 us a page: two readers issuing at t = 0 wait
        # 0 and 100 us, each served 100 us (log2 bucket [64, 127]); a
        # third reads alone at 1.2 ms, leaving [0.5, 1) ms idle.
        machine = Machine(disk=BlockDevice(read_us=100.0, channels=1))
        sampler = TimeseriesSampler(500.0).attach(machine)

        def read_once(thread):
            machine.disk.read(thread, 1)
            return False

        for start_us in (0.0, 0.0, 1_200.0):
            machine.engine.spawn("reader", read_once, start_us=start_us,
                                 cgroup=machine.root_cgroup)
        machine.engine.run()
        sampler.finalize()
        _meta, rows = sampler_rows(sampler)
        frames = [(r["t_us"], r["io_read_pages"],
                   *(r[q] for q in QUANTILE_COLUMNS))
                  for r in rows if r["scope"] == "machine"]
        assert frames == [(0.0, 2, 0.0, 127.0, 127.0, 127.0),
                          (500.0, 0, 0.0, 0.0, 0.0, 0.0),
                          (1_000.0, 1, 0.0, 0.0, 127.0, 127.0)]


class TestNonPerturbation:
    def test_sampled_run_is_bit_identical_to_unsampled(self):
        spec = guard.fig6_cell(scale=SCALE)
        base = execute(spec, serial=True)
        sampled = execute(spec, serial=True, timeseries=2_000.0)
        (doc,) = sampled.timeseries.values()
        assert sum(m["n_frames"] for m in doc["machines"]) > 0
        assert base.result.rows == sampled.result.rows


class TestArtifactDeterminism:
    """Byte-identical JSONL across execution strategies."""

    def spec(self):
        return fig6.plan(quick=True, policies=("mru", "lfu"),
                         workloads=("C",),
                         scale=dict(fig6.QUICK_SCALE, **SCALE))

    def test_serial_vs_jobs_byte_identical(self):
        serial = execute(self.spec(), serial=True, timeseries=2_000.0)
        parallel = execute(self.spec(), jobs=2, serial=False,
                           timeseries=2_000.0)
        art_serial = timeseries_jsonl(serial)
        assert art_serial
        assert art_serial == timeseries_jsonl(parallel)

    def test_cold_vs_snapshot_byte_identical(self):
        cold = execute(self.spec(), serial=True, timeseries=2_000.0)
        restored = execute(self.spec(), serial=True, timeseries=2_000.0,
                           snapshot=True)
        assert timeseries_jsonl(cold) == timeseries_jsonl(restored)


    def test_replay_machine_frames_equal_full(self):
        full = sampled_cell()
        replay = sampled_cell(mode="replay")
        assert replay[2].streams[0].machine.replay_mode
        assert sampler_rows(replay[2]) == sampler_rows(full[2])
        assert replay[2].frames_recorded > 5

    def test_auto_mode_frames_equal_full(self):
        spec = lambda: fig6.plan(quick=True, policies=("mru",),
                                 workloads=("C",),
                                 scale=dict(fig6.QUICK_SCALE, **SCALE))
        full = api.run(spec(), timeseries=2_000.0)
        auto = api.run(spec(), mode="auto", timeseries=2_000.0)
        assert (full.mode, auto.mode) == ("full", "replay")
        doc = next(iter(auto.timeseries.values()))
        assert doc["machines"][0]["n_frames"] > 0
        assert timeseries_jsonl(auto) == timeseries_jsonl(full)


class TestRefusals:
    def test_nonpositive_interval_refused(self):
        with pytest.raises(ValueError):
            TimeseriesSampler(0.0)

    @pytest.mark.parametrize("interval", [0, 0.0, -1])
    def test_execute_refuses_a_nonpositive_interval(self, interval):
        # 0 == False: a zero interval must not read as "telemetry off".
        spec = fig6.plan(quick=True, policies=("mru",), workloads=("C",))
        with pytest.raises(ValueError,
                           match="sample interval must be positive"):
            execute(spec, serial=True, timeseries=interval)

    def test_cli_refuses_a_zero_interval(self, tmp_path, capsys):
        frames = tmp_path / "f.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            parallel_main(["fig6", "--quick", "--serial", "--cells",
                           "C/mru", "--timeseries", str(frames),
                           "--sample-interval-us", "0"])
        assert excinfo.value.code == 2
        assert "--sample-interval-us must be positive: 0.0" \
            in capsys.readouterr().err
        assert not frames.exists()


def _cell_must_not_run():
    raise AssertionError("a refused interval ran a cell")


def _unrunnable_plan(quick=False):
    """A one-cell plan whose cell fails if called: a refusal must come
    before any cell runs (a cell under a NaN cadence would never end)."""
    return ExperimentSpec(
        "fig6", [CellSpec("fig6", "C/mru", _cell_must_not_run)],
        merge=lambda meta, payloads: None)


NOT_A_CADENCE = [(float("nan"), "must be positive: nan"),
                 (float("inf"), "must be finite: inf"),
                 (0.0, "must be positive: 0.0")]


class TestNonFiniteRefusals:
    """Only a positive, finite interval is a cadence, at every door."""

    @pytest.mark.parametrize("interval,message", NOT_A_CADENCE)
    def test_sampler(self, interval, message):
        with pytest.raises(ValueError, match=message):
            TimeseriesSampler(interval)

    @pytest.mark.parametrize("interval,message", NOT_A_CADENCE)
    def test_execute(self, interval, message):
        with pytest.raises(ValueError, match=message):
            execute(_unrunnable_plan(), serial=True, timeseries=interval)

    @pytest.mark.parametrize("interval,message", NOT_A_CADENCE)
    def test_api_run(self, interval, message):
        with pytest.raises(ValueError, match=message):
            api.run(_unrunnable_plan(), timeseries=interval)

    @pytest.mark.parametrize("text,message",
                             [("nan", "must be positive: nan"),
                              ("inf", "must be finite: inf")])
    def test_cli_exits_2(self, text, message, tmp_path, capsys,
                         monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.parallel._load_experiment",
            lambda name: SimpleNamespace(plan=_unrunnable_plan))
        frames = tmp_path / "f.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            parallel_main(["fig6", "--quick", "--serial", "--cells",
                           "C/mru", "--timeseries", str(frames),
                           "--sample-interval-us", text])
        assert excinfo.value.code == 2
        assert f"--sample-interval-us {message}" in capsys.readouterr().err
        assert not frames.exists()


class TestFaultLocalization:
    """An injected brownout is visible — and localized — in frames."""

    INTERVAL = 5_000.0
    START, END = 30_000.0, 60_000.0

    def frames_doc(self):
        spec = fig6.plan(quick=True, policies=("mru",), workloads=("C",),
                         scale=dict(fig6.QUICK_SCALE, **SCALE))
        plan = FaultPlan(device=(DeviceFault(
            kind="latency", start_us=self.START, end_us=self.END,
            latency_mult=8.0),))
        report = api.run(spec, faults=plan, timeseries=self.INTERVAL)
        buf = io.StringIO(timeseries_jsonl(report))
        return read_frames_jsonl(buf)

    def test_analyzer_localizes_brownout_within_one_interval(self):
        meta, rows = self.frames_doc()
        doc = analyze.analyze_rows(meta, rows)
        degradations = [ep for ep in doc["episodes"]
                        if ep["type"] == "degradation"]
        assert len(degradations) == 1
        ep = degradations[0]
        assert ep["fault_overlap"]
        assert abs(ep["start_us"] - self.START) <= self.INTERVAL
        assert abs(ep["end_us"] - self.END) <= self.INTERVAL

    def test_chaos_brownout_scenario_localized(self):
        # The real chaos scenario, not a hand-built plan: open-ended
        # 8x latency + one channel down from 0.2 * horizon.  The
        # analyzer must localize the onset from the frames alone.
        from repro.experiments import chaos

        params = dict(chaos.QUICK_SCALE)
        horizon = params.pop("horizon_us")
        env = make_db_env(chaos.POLICY,
                          cgroup_pages=params["cgroup_pages"],
                          nkeys=params["nkeys"], compaction_thread=True)
        plan = chaos.scenario_plan("brownout", horizon)
        fault = plan.device[0]
        env.machine.arm_faults(plan)
        sampler = TimeseriesSampler(self.INTERVAL).attach(env.machine)
        chaos._run_workload(env, "A", params)
        sampler.finalize()
        meta, rows = sampler_rows(sampler)
        doc = analyze.analyze_rows(meta, rows)
        degradations = [ep for ep in doc["episodes"]
                        if ep["type"] == "degradation"]
        assert degradations
        first = degradations[0]
        assert first["fault_overlap"]
        assert abs(first["start_us"] - fault.start_us) <= self.INTERVAL

    def test_active_faults_column_tracks_armed_window(self):
        _meta, rows = self.frames_doc()
        for row in rows:
            if row["scope"] != "machine":
                continue
            overlaps = (row["t_us"] < self.END
                        and row["t_us"] + row["dur_us"] > self.START)
            assert (row["active_faults"] > 0) == overlaps, row["t_us"]


class TestCollectorsCompat:
    def test_lookup_timeline_windows_and_overall(self):
        timeline = CgroupViews("cache:lookup", window_us=50_000.0)
        assert timeline.window_us == 50_000.0

        class Event:
            name = "cache:lookup"
            cgroup = "app"

            def __init__(self, ts_us, hit):
                self.ts_us = ts_us
                self.data = {"hit": hit}

        for ts, hit in ((0.0, 1), (10_000.0, 0), (60_000.0, 1)):
            timeline.handle(Event(ts, hit))
        assert [(start, views["app"].hit_ratio)
                for start, views in timeline.windows()] == \
            [(0.0, 0.5), (50_000.0, 1.0)]
        assert timeline.cgroups()["app"].hit_ratio == 2 / 3

    def test_windowed_series_boundaries_are_half_open(self):
        series = CgroupViews("cache:lookup", window_us=100.0)

        def add(ts_us, num):
            series.handle(TraceEvent("cache:lookup", ts_us, "app", 1,
                                     {"hit": num}))
        add(0.0, num=1.0)
        add(99.999, num=1.0)   # still window 0
        add(100.0, num=5.0)    # exactly on a boundary -> window 1
        add(199.999, num=5.0)  # still window 1
        add(200.0, num=9.0)    # -> window 2
        assert [(start, views["app"].hits, views["app"].lookups)
                for start, views in series.windows()] == \
            [(0.0, 2.0, 2.0), (100.0, 10.0, 2.0), (200.0, 9.0, 1.0)]
        assert [(start, views["app"].hit_ratio)
                for start, views in series.windows()] == \
            [(0.0, 1.0), (100.0, 5.0), (200.0, 9.0)]


class TestGuardAndTools:
    def test_guard_timeseries_check_passes(self):
        report = guard.run_check("timeseries", scale=SCALE, threshold=25.0)
        assert report["laws"]["tables equal"]
        assert report["laws"]["frames recorded, byte-identical"]
        assert report["laws"]["frame totals == payload"]
        assert report["frames"] > 0
        assert report["passed"]

    @pytest.fixture()
    def frames_path(self, tmp_path):
        spec = fig6.plan(quick=True, policies=("mru",), workloads=("C",),
                         scale=dict(fig6.QUICK_SCALE, **SCALE))
        report = execute(spec, serial=True, timeseries=2_000.0)
        path = tmp_path / "frames.jsonl"
        path.write_text(timeseries_jsonl(report))
        return str(path)

    def test_cachetop_replay_renders_frames(self, frames_path, capsys):
        from repro.tools import cachetop
        assert cachetop.main(["--replay", frames_path]) == 0
        out = capsys.readouterr().out
        assert "CGROUP" in out and "app" in out
        assert "sample interval 2.0 ms" in out

    def test_cachetop_replay_at_selects_one_frame(self, frames_path,
                                                  capsys):
        from repro.tools import cachetop
        assert cachetop.main(["--replay", frames_path, "--at", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("--- t = ") == 1
        assert "t = 4.0..6.0 ms" in out

    def test_faultstat_frames_view(self, frames_path, capsys):
        from repro.tools import faultstat
        assert faultstat.main(["--frames", frames_path]) == 0
        out = capsys.readouterr().out
        assert "ACTIVE" in out and "SERV_US" in out
        assert "primary scope app" in out

    def test_analyze_cli_writes_episodes_json(self, frames_path,
                                              tmp_path, capsys):
        out_path = tmp_path / "episodes.json"
        assert analyze.main([frames_path, "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["format"] == "repro.obs.analyze"
        assert doc["groups"]
        assert "C/mru" in capsys.readouterr().out
