"""Trace-simulator tool tests."""

import importlib
import json
import math
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.vfs import Filesystem
from repro.obs.collectors import CgroupViews, Histogram
from repro.obs.trace import TraceEvent
from repro.tools import cachesim
from repro.tools.cachesim import (format_reports, parse_trace,
                                  replay_trace, simulate_policies)
from tests.strategies import STANDARD_SETTINGS


def ev(name, ts_us=0.0, cgroup="app", tid=1, **data):
    return TraceEvent(name, ts_us, cgroup, tid, data)


def write_jsonl(path, events):
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event.to_json_obj(),
                                separators=(",", ":"), sort_keys=True))
            fh.write("\n")


class TestParseTrace:
    def test_full_format(self):
        trace = parse_trace(["1 5 r", "2 9 w", "1 5"])
        assert trace == [(1, 5, False), (2, 9, True), (1, 5, False)]

    def test_bare_pages(self):
        assert parse_trace(["7", "3"]) == [(0, 7, False), (0, 3, False)]

    def test_comments_and_blanks_skipped(self):
        assert parse_trace(["# header", "", "0 1"]) == [(0, 1, False)]

    def test_bad_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trace(["0 1", "zero one"])


class TestReplay:
    def test_hit_accounting(self):
        trace = [(0, 0, False), (0, 0, False), (0, 1, False)]
        report = replay_trace(trace, "default", cache_pages=16)
        assert report.accesses == 3
        assert report.hits == 1
        assert report.misses == 2
        assert report.hit_ratio == pytest.approx(1 / 3)

    def test_writes_supported(self):
        trace = [(0, 0, True), (0, 0, False)]
        report = replay_trace(trace, "default", cache_pages=16)
        assert report.hits == 1

    def test_multiple_files(self):
        trace = [(1, 0, False), (2, 0, False), (1, 0, False)]
        report = replay_trace(trace, "lfu", cache_pages=16)
        assert report.hits == 1

    def test_policy_changes_results(self):
        # Cyclic scan over 24 pages with a 16-page cache.
        trace = [(0, i % 24, False) for i in range(24 * 6)]
        lru = replay_trace(trace, "default", cache_pages=16)
        mru = replay_trace(trace, "mru", cache_pages=16)
        assert mru.hit_ratio > lru.hit_ratio + 0.2

    def test_all_policies_replayable(self):
        trace = [(0, (i * 7) % 64, False) for i in range(300)]
        policies = ("default", "mglru", "fifo", "mru", "lfu", "s3fifo",
                    "lhd", "mglru-bpf", "sieve", "arc", "prefetch")
        reports = simulate_policies(trace, policies, cache_pages=32)
        assert len(reports) == len(policies)
        for report in reports:
            assert report.accesses == 300
            assert report.hits + report.misses == 300

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            replay_trace([(0, 0, False)], "nope", cache_pages=8)

    @pytest.mark.parametrize("cache_pages,ghost_entries",
                             [(32, 256), (1000, 1000)])
    def test_ghost_queue_sized_from_cache_pages(self, monkeypatch,
                                                cache_pages,
                                                ghost_entries):
        # Not the factory's 8,192 default: harness.attach_policy sizes
        # every map from the cgroup (floor 256).
        attached = []
        attach = cachesim.attach_policy
        monkeypatch.setattr(cachesim, "attach_policy",
                            lambda *args: attached.append(attach(*args)))
        replay_trace([(0, 0, False)], "s3fifo", cache_pages=cache_pages)
        ops, = attached
        assert ops.user_maps["ghost"].max_entries == ghost_entries

    def test_large_page_index_stores_nothing(self, monkeypatch):
        # Cost follows the trace's length, not its largest page index:
        # a read-only trace never writes a page store (a guarded store
        # fails on the first entry instead of filling 10^9 of them).
        class NoStore(dict):
            def __setitem__(self, index, value):
                raise AssertionError(f"page {index} stored")

        create = Filesystem.create

        def create_unstored(fs, name):
            f = create(fs, name)
            f.store = NoStore()
            return f

        monkeypatch.setattr(Filesystem, "create", create_unstored)
        report = replay_trace([(0, 10**9, False)], "lfu", 64)
        assert (report.accesses, report.hits, report.misses) == (1, 0, 1)

    def test_invalid_cache_size(self):
        with pytest.raises(ValueError):
            replay_trace([(0, 0, False)], "default", cache_pages=0)

    def test_format_reports(self):
        trace = [(0, i % 8, False) for i in range(50)]
        reports = simulate_policies(trace, ("default", "lfu"), 16)
        text = format_reports(reports)
        assert "default" in text
        assert "lfu" in text
        assert "%" in text


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        from repro.tools.cachesim import main
        trace_file = tmp_path / "trace.txt"
        trace_file.write_text(
            "# demo\n" + "\n".join(str(i % 32) for i in range(200)))
        rc = main([str(trace_file), "--cache-pages", "16",
                   "--policies", "default,sieve"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sieve" in out

    def test_missing_trace_file_exits_1(self, tmp_path, capsys):
        from repro.tools.cachesim import main
        assert main([str(tmp_path / "absent.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cachesim: ") and "absent.txt" in err

    def test_malformed_line_exits_1(self, tmp_path, capsys):
        from repro.tools.cachesim import main
        trace_file = tmp_path / "trace.txt"
        trace_file.write_text("abc\n")
        assert main([str(trace_file)]) == 1
        assert capsys.readouterr().err == "cachesim: trace line 1: 'abc'\n"

    def test_negative_page_names_the_line(self, tmp_path, capsys):
        from repro.tools.cachesim import main
        with pytest.raises(ValueError, match="trace line 2: negative"):
            parse_trace(["0 1", "0 -3"])
        trace_file = tmp_path / "trace.txt"
        trace_file.write_text("0 -3\n")
        assert main([str(trace_file)]) == 1
        assert "trace line 1: negative page index in '0 -3'" \
            in capsys.readouterr().err

    def test_nonpositive_cache_pages_is_a_usage_error(self, tmp_path,
                                                      capsys):
        from repro.tools.cachesim import main
        trace_file = tmp_path / "trace.txt"
        trace_file.write_text("1\n")
        with pytest.raises(SystemExit) as exit_info:
            main([str(trace_file), "--cache-pages", "0"])
        assert exit_info.value.code == 2
        assert "--cache-pages must be positive" in capsys.readouterr().err

    def test_unknown_policy_is_a_usage_error(self, tmp_path, capsys):
        from repro.experiments.harness import POLICY_NAMES
        from repro.tools.cachesim import main
        trace_file = tmp_path / "trace.txt"
        trace_file.write_text("1\n")
        with pytest.raises(SystemExit) as exit_info:
            main([str(trace_file), "--policies", "lfu,bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown policy 'bogus'; choose from: " \
            + ", ".join(POLICY_NAMES) in err


# ----------------------------------------------------------------------
# biolatency
# ----------------------------------------------------------------------
def _io_events():
    return [
        ev("block:io_complete", 10.0, cgroup="a", wait_us=0.0,
           service_us=100.0, pages=1, op="read", latency_us=100.0),
        ev("block:io_complete", 250.0, cgroup="a", wait_us=40.0,
           service_us=210.0, pages=2, op="read", latency_us=250.0),
        ev("block:io_complete", 500.0, cgroup="b", wait_us=3.0,
           service_us=97.0, pages=1, op="write", latency_us=100.0),
        ev("cache:lookup", 11.0, cgroup="a", hit=1),  # ignored
    ]


class TestBioLatency:
    def test_replay_splits_queue_and_service(self):
        views = CgroupViews("block:io_complete").replay(_io_events())
        per_cgroup = views.cgroups()
        assert sum(v.io_wait.count for v in per_cgroup.values()) == 3
        assert sorted(per_cgroup) == ["a", "b"]
        queue, service = per_cgroup["a"].io_wait, per_cgroup["a"].io_service
        assert queue.count == 2
        assert queue.total == 40
        assert service.total == 310

    def test_format(self):
        from repro.tools.biolatency import format_biolatency
        text = format_biolatency(
            CgroupViews("block:io_complete").replay(_io_events()))
        assert "cgroup a: 2 I/Os" in text
        assert "queue delay" in text
        assert "service time" in text
        assert format_biolatency(CgroupViews("block:io_complete")) == \
            "(no block I/O observed)"

    def test_cli(self, tmp_path, capsys):
        from repro.tools.biolatency import main
        trace = tmp_path / "io.jsonl"
        write_jsonl(trace, _io_events())
        assert main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cgroup b" in out

    def test_cli_rejects_missing_trace(self, tmp_path, capsys):
        from repro.tools.biolatency import main
        assert main([str(tmp_path / "nope.jsonl")]) == 1
        assert "biolatency:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# cachestat
# ----------------------------------------------------------------------
def _cache_events():
    # Two 1 ms windows: 3 lookups (2 hits) then 2 lookups (0 hits).
    return [
        ev("cache:lookup", 100.0, hit=1),
        ev("cache:lookup", 200.0, hit=1),
        ev("cache:lookup", 300.0, hit=0),
        ev("cache:insert", 350.0),
        ev("cache:lookup", 1100.0, hit=0),
        ev("cache:lookup", 1200.0, hit=0),
        ev("cache:insert", 1250.0),
        ev("cache:evict", 1300.0),
        ev("block:io_complete", 400.0, latency_us=10.0),  # ignored
    ]


class TestCacheStat:
    def test_window_bucketing(self):
        from repro.tools.cachestat import TRACEPOINTS, window_rows
        views = CgroupViews(*TRACEPOINTS, window_us=1000.0)
        views.replay(_cache_events())
        assert window_rows(views) == [
            (0.0, 2, 1, 1, 0),
            (1000.0, 0, 2, 1, 1),
        ]

    def test_invalid_window_rejected(self):
        from repro.tools.cachestat import TRACEPOINTS
        with pytest.raises(ValueError, match="positive"):
            CgroupViews(*TRACEPOINTS, window_us=0.0)

    def test_format(self):
        from repro.tools.cachestat import TRACEPOINTS, format_cachestat
        views = CgroupViews(*TRACEPOINTS, window_us=1000.0)
        views.replay(_cache_events())
        text = format_cachestat(views)
        assert "HITS" in text
        assert "overall: 5 lookups, 40.00% hit ratio" in text
        assert format_cachestat(
            CgroupViews(*TRACEPOINTS, window_us=1000.0)) == \
            "(no cache events observed)"

    def test_cli(self, tmp_path, capsys):
        from repro.tools.cachestat import main
        trace = tmp_path / "cache.jsonl"
        write_jsonl(trace, _cache_events())
        assert main([str(trace), "--window-ms", "1"]) == 0
        assert "overall" in capsys.readouterr().out


# ----------------------------------------------------------------------
# funclatency
# ----------------------------------------------------------------------
def _hook_events():
    return [
        ev("cache_ext:hook_exit", 10.0, policy="mru",
           slot="folio_accessed", cpu_us=0.03),
        ev("cache_ext:hook_exit", 20.0, policy="mru",
           slot="folio_accessed", cpu_us=0.03),
        ev("cache_ext:hook_exit", 30.0, policy="mru",
           slot="evict_folios", cpu_us=0.5),
        ev("cache:lookup", 40.0, hit=1),  # ignored
    ]


class TestFuncLatency:
    def test_replay_keys_and_ns_conversion(self):
        from repro.tools.funclatency import FuncLatencyCollector
        collector = FuncLatencyCollector().replay(_hook_events())
        assert sorted(collector.per_hook) == [
            ("mru", "evict_folios"), ("mru", "folio_accessed")]
        hist = collector.per_hook[("mru", "folio_accessed")]
        assert hist.count == 2
        assert hist.mean == pytest.approx(30.0)  # 0.03 µs = 30 ns

    def test_format(self):
        from repro.tools.funclatency import (FuncLatencyCollector,
                                             format_funclatency)
        text = format_funclatency(
            FuncLatencyCollector().replay(_hook_events()))
        assert "policy mru, hook evict_folios" in text
        assert "no hook events" in \
            format_funclatency(FuncLatencyCollector())

    def test_cli(self, tmp_path, capsys):
        from repro.tools.funclatency import main
        trace = tmp_path / "hooks.jsonl"
        write_jsonl(trace, _hook_events())
        assert main([str(trace)]) == 0
        assert "folio_accessed" in capsys.readouterr().out


# ----------------------------------------------------------------------
# cachetop latency-breakdown columns
# ----------------------------------------------------------------------
def _span_events():
    return [
        ev("cache:lookup", 10.0, hit=1),
        ev("span:close", 100.0, span="vfs.read", policy="kernel",
           dur_us=120.0, cpu=10.0, device_wait=20.0,
           device_service=80.0, reclaim_stall=10.0),
        ev("span:close", 300.0, span="vfs.read", policy="kernel",
           dur_us=40.0, cpu=10.0, device_service=30.0),
    ]


class TestCachetopSpanColumns:
    def test_summarize_folds_span_components(self):
        from repro.tools.cachetop import summarize
        view = summarize(_span_events())["app"]
        assert view.span_count == 2
        assert view.span_dur_us == pytest.approx(160.0)
        assert view.device_wait_us == pytest.approx(20.0)
        assert view.device_service_us == pytest.approx(110.0)
        assert view.reclaim_stall_us == pytest.approx(10.0)

    def test_columns_appear_only_with_spans(self):
        from repro.tools.cachetop import format_views, summarize
        with_spans = format_views(summarize(_span_events()))
        assert "DWAIT" in with_spans and "RSTALL" in with_spans
        # Per-span averages: 110 µs service / 2 spans = 55.0.
        assert "   55.0" in with_spans
        without = format_views(
            summarize([ev("cache:lookup", 1.0, hit=1)]))
        assert "DWAIT" not in without

    def test_cli_renders_span_columns(self, tmp_path, capsys):
        from repro.tools.cachetop import main
        trace = tmp_path / "spans.jsonl"
        write_jsonl(trace, _span_events())
        assert main([str(trace)]) == 0
        assert "DSERV" in capsys.readouterr().out


class TestToolPackageExports:
    def test_lazy_reexports(self):
        import repro.tools as tools
        for name in ("CgroupView", "FuncLatencyCollector",
                     "format_funclatency", "summarize", "format_views"):
            assert callable(getattr(tools, name))
        # The per-tool folds are gone: every tool reads CgroupViews.
        for name in ("no_such_tool", "BioLatencyCollector",
                     "CacheStatCollector"):
            with pytest.raises(AttributeError):
                getattr(tools, name)


# ----------------------------------------------------------------------
# the CgroupViews fold every trace tool reads
# ----------------------------------------------------------------------
#: Quarter-µs payloads: float sums are exact in any order, so windowed
#: and unwindowed folds must agree bit-for-bit.
_quarters = st.integers(0, 4000).map(lambda n: n / 4)


@st.composite
def _events(draw):
    name = draw(st.sampled_from((
        "cache:lookup", "cache:insert", "cache:evict", "cache:refault",
        "cache:activation", "cache:writeback", "cache:admission_reject",
        "cache_ext:fallback_eviction", "cache_ext:kfunc_error",
        "cache_ext:watchdog_detach", "cache_ext:quarantine",
        "cache_ext:reattach", "cache_ext:hook_exit", "span:close",
        "block:io_complete", "block:io_error", "fault:inject",
        "sched:switch")))
    data = {"hit": draw(st.integers(0, 1)), "cpu_us": draw(_quarters),
            "dur_us": draw(_quarters), "device_wait": draw(_quarters),
            "device_service": draw(_quarters),
            "reclaim_stall": draw(_quarters),
            "pages": draw(st.integers(1, 8)),
            "op": draw(st.sampled_from(("read", "write"))),
            "latency_us": draw(_quarters), "wait_us": draw(_quarters),
            "service_us": draw(_quarters),
            "domain": draw(st.sampled_from(("device", "policy", "memory"))),
            "kind": draw(st.sampled_from(("eio", "stall")))}
    return ev(name, draw(_quarters), cgroup=draw(st.sampled_from("abc")),
              **data)


def _as_values(view):
    """A view's fields as plain values (histograms by content)."""
    values = {}
    for f in fields(view):
        value = getattr(view, f.name)
        if isinstance(value, Histogram):
            value = (value.buckets, value.count, value.total)
        values[f.name] = value
    return values


class TestCgroupViewsFold:
    @STANDARD_SETTINGS
    @given(events=st.lists(_events(), max_size=60),
           window_us=st.integers(1, 2000).map(lambda n: n / 4))
    def test_merged_windows_equal_the_unwindowed_view(self, events,
                                                      window_us):
        whole = CgroupViews().replay(events).cgroups()
        windowed = CgroupViews(window_us=window_us).replay(events)
        merged = windowed.cgroups()
        assert sorted(merged) == sorted(whole)
        for cgroup, view in whole.items():
            assert _as_values(merged[cgroup]) == _as_values(view)
        starts = [start for start, _views in windowed.windows()]
        assert starts == sorted(set(starts))
        assert all(start % window_us == 0 for start in starts)

    @STANDARD_SETTINGS
    @given(window_us=st.integers(1, 2000).map(lambda n: n / 4),
           k=st.integers(1, 1000))
    def test_boundary_event_lands_in_the_next_window(self, window_us, k):
        boundary = k * window_us
        views = CgroupViews(window_us=window_us).replay([
            ev("cache:lookup", math.nextafter(boundary, 0.0), hit=1),
            ev("cache:lookup", boundary, hit=0)])
        assert [(start, group["app"].hits, group["app"].lookups)
                for start, group in views.windows()] == \
            [(boundary - window_us, 1, 1), (boundary, 0, 1)]


@pytest.mark.parametrize("tool", ["cachestat", "faultstat", "cachetop"])
@pytest.mark.parametrize("window", ["0", "-1"])
def test_non_positive_window_ms_is_a_usage_error(tool, window, tmp_path,
                                                 capsys):
    main = importlib.import_module(f"repro.tools.{tool}").main
    trace = tmp_path / "cache.jsonl"
    write_jsonl(trace, _cache_events())
    with pytest.raises(SystemExit) as exc:
        main([str(trace), "--window-ms", window])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


class TestLiveTools:
    """Each ``--live`` path runs one quick cell (well under a second)."""

    @pytest.mark.parametrize("tool,expected", [
        ("cachestat", "overall:"), ("biolatency", "queue delay"),
        ("funclatency", "policy mru, hook")])
    def test_live_cell(self, tool, expected, capsys):
        main = importlib.import_module(f"repro.tools.{tool}").main
        assert main(["--live"]) == 0
        out = capsys.readouterr().out
        assert expected in out and "(no " not in out

    @pytest.mark.parametrize("tool,argv,message", [
        ("cachestat", ["--policy", "bogus"], "choose from 'default'"),
        ("biolatency", ["--workload", "Z"], "choose from 'A'"),
        ("faultstat", ["--scenario", "nope"], "choose from 'baseline'"),
        ("faultstat", ["--workload", "tw0"], "choose from 'A'"),
    ])
    def test_bad_live_arguments_are_usage_errors(self, tool, argv,
                                                 message, capsys):
        main = importlib.import_module(f"repro.tools.{tool}").main
        with pytest.raises(SystemExit) as exc:
            main(["--live", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_faultstat_live_runs_the_chaos_cell(self, capsys):
        from repro.tools.faultstat import main
        assert main(["--live", "--scenario", "buggy-policy"]) == 0
        out = capsys.readouterr().out
        assert "TIME_MS" in out
        assert "faults injected (policy:hook_stall=" in out
