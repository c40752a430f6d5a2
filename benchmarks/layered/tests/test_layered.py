"""Tests of the layered benchmark itself.

Run with ``python -m pytest benchmarks/layered/tests -q`` (the tier-1
suite collects only ``tests/``).  The smoke tests start the benchmark
the way the driver does, with a one-second budget.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LAYERED = Path(__file__).resolve().parents[1]
ROOT = LAYERED.parents[1]
sys.path.insert(0, str(LAYERED))

import run  # noqa: E402  (first: it puts src/ on the path)
import calib  # noqa: E402
import layers  # noqa: E402
import trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/layered/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


def result_of(done: subprocess.CompletedProcess) -> tuple:
    """(result object of the last line, names on ``metric`` lines)."""
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    return json.loads(lines[-1]), printed


# ----------------------------------------------------------------------
# BENCHMARK.json against the driver's contract
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/layered"]
    assert SPEC["command"] == ["python3", "benchmarks/layered/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    # (4 + 22 x workloads) runs must end within 3420 s; a run lasts
    # run_seconds plus warm-up, the last repetition and start-up.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 6) <= 3420
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("lower", "higher") for metric in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def test_kernel_checksum_and_calibrated_seconds():
    clock = calib.Clock()
    assert clock.tick() == clock.kernel_s[-1] > 0  # checks the checksum
    # The kernel writes nothing into the arena: every run is the same.
    assert calib.kernel(calib.arena()) == calib.CHECKSUM
    # A phase as long as its two bracket runs reads REFERENCE_S.
    assert calib.calibrated(0.2, 0.1, 0.3) == pytest.approx(
        calib.REFERENCE_S)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def synthetic_tracer() -> trace.Tracer:
    """a[0,10] { b[1,4] { c[2,3] }  b[5,9] }   a[20,21]"""
    tracer = trace.Tracer()
    tracer.names = ["x.a", "y.b", "y.c"]
    tracer.name_id = [0, 1, 2, 1, 0]
    tracer.start = [0.0, 1.0, 2.0, 5.0, 20.0]
    tracer.end = [10.0, 4.0, 3.0, 9.0, 21.0]
    tracer.parent = [-1, 0, 1, 0, -1]
    tracer.request = [0] * 5
    return tracer


def test_self_time_is_duration_minus_childrens_cover():
    tracer = synthetic_tracer()
    assert trace.self_times(tracer.start, tracer.end, tracer.parent) == [
        3.0, 2.0, 1.0, 4.0, 1.0]
    summary = trace.Summary(tracer, 0, 5)
    assert summary.count == {"x.a": 2, "y.b": 2, "y.c": 1}
    assert summary.self_s == {"x.a": 4.0, "y.b": 6.0, "y.c": 1.0}
    assert summary.total_s == {"x.a": 11.0, "y.b": 7.0, "y.c": 1.0}
    assert summary.covered_s == 11.0  # the two top-level spans
    assert summary.layer_self_s("y") == 7.0
    assert summary.layer_calls("y") == 3
    assert summary.count_under == {("x.a", "y.b"): 2, ("y.b", "y.c"): 1}
    assert summary.count_within("y.c", "x.a") == 1
    assert summary.outermost_s("y.b", "y.c") == 7.0
    # Self times add up to the cover: nothing is counted twice.
    assert sum(summary.self_s.values()) == summary.covered_s


def test_self_time_comes_net_of_the_wrappers_cost():
    # 0.1 s inside each span, 0.2 s in its parent's self time.
    summary = trace.Summary(synthetic_tracer(), 0, 5, cost=(0.1, 0.2))
    assert summary.overhead_s == pytest.approx(5 * 0.3)
    assert summary.self_s["x.a"] == pytest.approx(4.0 - 2 * 0.1 - 2 * 0.2)
    assert summary.self_s["y.b"] == pytest.approx(6.0 - 2 * 0.1 - 1 * 0.2)
    assert summary.self_s["y.c"] == pytest.approx(1.0 - 0.1)


def test_a_phase_ignores_parents_before_it():
    summary = trace.Summary(synthetic_tracer(), 1, 4)  # b { c } b, no a
    assert summary.covered_s == 7.0
    assert summary.count_under == {("y.b", "y.c"): 1}
    assert summary.count_within("y.c", "x.a") == 0


def boundary_values() -> list:
    from repro.sim.engine import Engine
    values = [vars(owner)[attr] for owner, attr, _ in trace.BOUNDARIES]
    values.append(vars(Engine)["spawn"])
    # Every alias a repro module holds of a boundary function.
    originals = {id(v) for v in values}
    values += [value for name, module in sorted(sys.modules.items())
               if name.startswith("repro")
               for value in vars(module).values() if id(value) in originals]
    return values


def test_traced_repetition_keeps_the_signature_and_restores_wrappers():
    from repro.cache_ext import kfuncs
    from repro.policies import lfu
    workload = WORKLOADS["ycsb-c-lfu"]
    clock = calib.Clock()
    clock.tick()
    untraced = run.repetition(workload, 7, clock)
    before = boundary_values()
    tracer = trace.Tracer()
    tracer.install()
    try:
        # Policy modules hold their own references to the kfuncs; the
        # wrapper keeps the marker the verifier looks for.
        assert lfu.list_add is kfuncs.list_add is not before[0]
        assert lfu.list_add.__bpf_kfunc__ and lfu.list_add.__name__ == \
            "list_add"
        traced = run.repetition(workload, 7, clock, tracer)
    finally:
        tracer.uninstall()
    after = boundary_values()
    assert len(before) == len(after)
    assert all(a is b for a, b in zip(before, after))
    # Tracing may not perturb virtual time.
    assert traced.outcome.signature == untraced.outcome.signature
    first, middle, last = traced.marks
    assert first == 0 < middle < last == len(tracer.start)
    phase = trace.Summary(tracer, middle, last)
    assert phase.count["apps.lsm.get"] == workload.ops
    assert phase.covered_s <= traced.phase_wall_s
    # Spans of one engine step share its sequence number.
    steps = [i for i in range(middle, last)
             if tracer.names[tracer.name_id[i]] in layers.STEP_NAMES]
    assert [tracer.request[i] for i in steps[:3]] == [1, 2, 3]
    child = next(i for i in range(middle, last)
                 if tracer.parent[i] == steps[0])
    assert tracer.request[child] == tracer.request[steps[0]]


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
def test_differing_fields_names_nested_paths():
    a = {"hit_ratio": 0.5, "rows": {"C/lfu": {"ops": 1, "p99": 2.0}}}
    b = {"hit_ratio": 0.5, "rows": {"C/lfu": {"ops": 1, "p99": 2.5}},
         "extra": 1}
    assert run.differing_fields(a, b) == {"rows.C/lfu.p99", "extra"}
    assert run.differing_fields(a, json.loads(json.dumps(a))) == set()


def test_sweep_expectation_is_anchored_on_bench_core():
    """The committed sweep signature equals the fig6 ``C/*`` cells of
    BENCH_core.json: the benchmark drives the same physics as the
    tables.  (Both move together when the physics change.)"""
    expected = json.loads(
        (LAYERED / "expected" / "sweep-row-c.json").read_text())
    fig6 = json.loads((ROOT / "BENCH_core.json").read_text())[
        "experiments"]["fig6"]
    rows = expected["signature"]["rows"]
    assert len(rows) == 8
    for cell, row in rows.items():
        assert row["hit_ratio"] == fig6["hit_ratios"][cell]
        assert row["ops_per_sec"] == fig6["ops_per_sec"][cell]


# ----------------------------------------------------------------------
# the command, as the driver runs it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_smoke(name):
    result, printed = result_of(bench(
        "--workload", name, "--seed", "42", "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4 * WORKLOADS[name].ops
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert printed == list(wanted) == list(result["metrics"])
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == wanted[metric]
        assert entry["value"] > 0  # end-to-end metrics are never 0


ZERO_ON = {
    "ycsb-c-lfu": ["apps.lsm.put_calls", "kernel.block.writes",
                   "replay.steps", "cache_ext.framework.fallback_evictions"],
    "ycsb-a-default": [m["name"] for m in SPEC["per_layer"]
                       if m["name"].startswith(("cache_ext.", "ebpf.maps."))
                       and m["unit"] in ("count", "s", "fraction")],
    "fio-hit-noop": ["apps.lsm.get_calls", "apps.lsm.put_calls",
                     "apps.lsm.bloom_probes", "kernel.page_cache.evictions",
                     "cache_ext.kfuncs.iterate_calls", "apps.lsm.self_s"],
    "sweep-row-c": ["sim.engine.steps", "sim.engine.self_s"],
}
POSITIVE_ON = {
    "ycsb-c-lfu": ["cache_ext.kfuncs.iterate_calls", "ebpf.maps.lookups",
                   "sim.engine.steps", "kernel.page_cache.evictions"],
    "ycsb-a-default": ["apps.lsm.put_calls", "apps.lsm.flushes",
                       "kernel.vfs.write_calls", "kernel.vfs.fsync_calls",
                       "kernel.block.writes",
                       "kernel.policy.candidates"],
    "fio-hit-noop": ["cache_ext.framework.hook_dispatches",
                     "kernel.block.reads", "sim.engine.steps"],
    "sweep-row-c": ["replay.steps", "snapshot.restores",
                    "experiments.harness.merge_s",
                    "experiments.harness.prepare_s"],
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_reports_every_layer_with_the_predicted_zeros(name):
    result, printed = result_of(bench(
        "--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    wanted = [m["name"] for m in SPEC["per_layer"]]
    assert printed == wanted == list(result["metrics"])
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert [k for k in ZERO_ON[name] if value[k] != 0] == []
    assert [k for k in POSITIVE_ON[name] if not value[k] > 0] == []
    assert value["trace.unattributed_share"] < 0.05
    assert value["trace.overhead_ratio"] > 1
    assert value["kernel.page_cache.hits"] + value[
        "kernel.page_cache.misses"] == value["kernel.page_cache.lookups"]
    assert value["experiments.harness.cells"] == (
        8 if name == "sweep-row-c" else 1)
    assert (LAYERED / "out" / f"trace-{name}.jsonl.gz").stat().st_size > 0


def test_other_seeds_change_the_simulated_results():
    results = [result_of(bench("--workload", "fio-hit-noop", "--seed", seed,
                               "--seconds", "1"))[0]["metrics"]
               for seed in ("42", "7")]
    assert (results[0]["sim_ops_per_s"]["value"]
            != results[1]["sim_ops_per_s"]["value"])


def test_no_result_where_the_simulator_is_missing(tmp_path):
    """In a directory that holds only BENCHMARK.json and the files under
    ``paths`` the command fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LAYERED, tmp_path / "benchmarks" / "layered",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "fio-hit-noop", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
