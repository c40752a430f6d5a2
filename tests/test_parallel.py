"""Parallel-runner guarantees: equivalence, fallback, reporting.

The contract under test (see :mod:`repro.experiments.parallel`): the
parallel path is a pure performance feature — for every experiment the
merged table and the trace-derived hit counts are byte-identical to a
serial in-process run, and worker crashes/timeouts degrade to serial
re-execution rather than to wrong or missing cells.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import pkgutil
import signal
import time
from types import SimpleNamespace

import pytest

from repro import experiments
from repro.experiments import (ablations, admission, fig6, fig7, fig8,
                               fig9, fig10, fig11, run_all, table1,
                               table3, table4, table5)
from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec)
from repro.experiments.parallel import (NoCellsSelectedError,
                                        UnknownExperimentError,
                                        _load_experiment, execute,
                                        filter_cells, main, run_cell)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="parallel runner requires fork")

#: Trimmed cell grids: quick-scale parameters, subset sweeps — enough
#: cells to exercise fan-out/merge everywhere while keeping the suite
#: fast.  Every ported experiment appears.
SMALL_KV = {"nkeys": 2500, "nops": 1200, "warmup_ops": 600,
            "cgroup_pages": 128, "nthreads": 2}
EXPERIMENTS = [
    ("fig6", lambda: fig6.plan(quick=True, policies=("default", "lfu"),
                               workloads=("A", "uniform"),
                               scale=SMALL_KV)),
    ("fig7", lambda: fig7.plan(quick=True,
                               policies=("default", "mru", "lfu"),
                               workloads=("A",))),
    ("fig8", lambda: fig8.plan(quick=True, clusters=(17, 52),
                               policies=("default", "lfu"),
                               scale={"nkeys": 3000, "nops": 1500,
                                      "warmup_ops": 700,
                                      "cgroup_pages": 100})),
    ("fig9", lambda: fig9.plan(quick=True)),
    ("fig10", lambda: fig10.plan(
        quick=True, variants=(fig10.VARIANTS[0], fig10.VARIANTS[-1]),
        scale={"nkeys": 3000, "n_gets": 1500, "scan_len": 600})),
    ("fig11", lambda: fig11.plan(quick=True,
                                 configs=fig11.CONFIGS[:2])),
    ("admission", lambda: admission.plan(
        quick=True, scale={"nkeys": 3000, "nops": 1500,
                           "warmup_ops": 500, "cgroup_pages": 128})),
    ("table1", lambda: table1.plan(
        quick=True, scale={"nkeys": 2000, "nops": 1200,
                           "warmup_ops": 600, "cgroup_pages": 900,
                           "nthreads": 2, "search_files": 30,
                           "search_passes": 1})),
    ("table3", lambda: table3.plan()),
    ("table4", lambda: table4.plan(
        quick=True, sizes=(("5GiB", 128, 1024),))),
    ("table5", lambda: table5.plan(quick=True, workloads=("A",))),
    ("ablations", lambda: ablations.plan(quick=True, scale=SMALL_KV)),
]


@needs_fork
@pytest.mark.parametrize("name,planner",
                         EXPERIMENTS, ids=[e[0] for e in EXPERIMENTS])
def test_serial_parallel_equivalence(name, planner):
    """Identical tables AND identical trace-derived hit counts, with
    tracing enabled in both execution modes."""
    serial = execute(planner(), serial=True, trace=True)
    parallel = execute(planner(), jobs=3, trace=True)
    assert serial.result.format_table() == parallel.result.format_table()
    assert serial.trace == parallel.trace
    assert not parallel.fallbacks
    # Timings cover every cell exactly once, in both modes.
    spec = planner()
    assert sorted(t.cell_id for t in serial.timings) == \
        sorted(spec.cell_ids())
    assert sorted(t.cell_id for t in parallel.timings) == \
        sorted(spec.cell_ids())


@needs_fork
def test_trace_counts_are_real():
    """Tracing-enabled cells report non-trivial lookup counts that
    agree with the table's hit ratio."""
    report = execute(fig9.plan(quick=True), jobs=2, trace=True)
    for policy in ("default", "mglru", "mru"):
        counts = report.trace[policy]
        total = counts["hits"] + counts["misses"]
        assert total > 0
        table_ratio = report.result.find_rows(policy=policy)[0]["hit_ratio"]
        assert counts["hits"] / total == pytest.approx(table_ratio,
                                                       abs=5e-4)


def test_untraced_run_attaches_nothing():
    payload, artifacts = run_cell(fig9.plan(quick=True).cells[0])
    assert artifacts == {}
    assert payload["seconds"] > 0


# ----------------------------------------------------------------------
# crash / timeout fallback
# ----------------------------------------------------------------------
def _well_behaved_cell(value: int) -> dict:
    return {"value": value}


def _crashing_cell(parent_pid: int, value: int) -> dict:
    if os.getpid() != parent_pid:
        # Hard kill: the worker dies without sending any message.
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": value}


def _raising_cell(parent_pid: int, value: int) -> dict:
    if os.getpid() != parent_pid:
        raise RuntimeError("worker-only failure")
    return {"value": value}


def _hanging_cell(parent_pid: int, value: int) -> dict:
    if os.getpid() != parent_pid:
        time.sleep(300)
    return {"value": value}


def _flaky_cell(parent_pid: int, sentinel: str, value: int) -> dict:
    """Fails on the first worker attempt only (sentinel-file gated)."""
    if os.getpid() != parent_pid and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise RuntimeError("transient worker failure")
    return {"value": value}


def _sum_merge(meta: dict, payloads: dict) -> dict:
    # Merges normally build ExperimentResult; any deterministic
    # function of the payload mapping works.
    return {cell_id: payloads[cell_id]["value"]
            for cell_id in sorted(payloads)}


def _fallback_spec(bad_fn) -> ExperimentSpec:
    pid = os.getpid()
    cells = [
        CellSpec("t", "good-1", _well_behaved_cell, {"value": 1}),
        CellSpec("t", "bad", bad_fn, {"parent_pid": pid, "value": 2}),
        CellSpec("t", "good-2", _well_behaved_cell, {"value": 3}),
    ]
    return ExperimentSpec("t", cells, _sum_merge)


@needs_fork
@pytest.mark.parametrize("bad_fn", [_crashing_cell, _raising_cell],
                         ids=["sigkill", "exception"])
def test_worker_failure_falls_back_to_serial(bad_fn):
    report = execute(_fallback_spec(bad_fn), jobs=2)
    assert report.result == {"bad": 2, "good-1": 1, "good-2": 3}
    assert report.fallbacks == ["bad"]
    modes = {t.cell_id: t.mode for t in report.timings}
    assert modes["bad"] == "fallback"
    assert modes["good-1"] == "worker"
    errors = {t.cell_id: t.error for t in report.timings}
    assert errors["bad"]  # the original failure is preserved


@needs_fork
def test_transient_worker_failure_retried_in_worker(tmp_path):
    """A cell that fails once is re-run in a fresh worker and never
    reaches the serial fallback."""
    pid = os.getpid()
    sentinel = str(tmp_path / "first-attempt-failed")
    cells = [
        CellSpec("t", "good-1", _well_behaved_cell, {"value": 1}),
        CellSpec("t", "flaky", _flaky_cell,
                 {"parent_pid": pid, "sentinel": sentinel, "value": 2}),
    ]
    report = execute(ExperimentSpec("t", cells, _sum_merge), jobs=2)
    assert report.result == {"flaky": 2, "good-1": 1}
    assert report.fallbacks == []
    modes = {t.cell_id: t.mode for t in report.timings}
    assert modes["flaky"] == "retry"
    # The first attempt's failure is still on the record.
    assert len(report.worker_errors["flaky"]) == 1
    assert "transient worker failure" in report.worker_errors["flaky"][0]


@needs_fork
def test_worker_traceback_captured():
    """A raising worker ships its full traceback to the parent, and
    the report surfaces it."""
    report = execute(_fallback_spec(_raising_cell), jobs=2)
    errors = report.worker_errors["bad"]
    assert len(errors) == 2  # first attempt + retry, both failed
    for error in errors:
        assert error.startswith("RuntimeError: worker-only failure")
        assert "Traceback (most recent call last)" in error
        assert "_raising_cell" in error
    assert "worker error bad (attempt 1)" in report.format_timings()


@needs_fork
def test_worker_timeout_falls_back_to_serial():
    report = execute(_fallback_spec(_hanging_cell), jobs=3,
                     timeout_s=1.0)
    assert report.result == {"bad": 2, "good-1": 1, "good-2": 3}
    assert report.fallbacks == ["bad"]
    timing = {t.cell_id: t for t in report.timings}["bad"]
    assert timing.mode == "fallback"
    assert "timed out" in timing.error


def test_serial_execution_never_forks():
    spec = _fallback_spec(_crashing_cell)  # benign in-process
    report = execute(spec, serial=True)
    assert report.result == {"bad": 2, "good-1": 1, "good-2": 3}
    assert report.jobs == 1
    assert all(t.mode == "serial" for t in report.timings)


@pytest.mark.parametrize("name", ["nosuch", "harness", "fig6.plan", ""])
def test_unknown_experiment_is_typed_and_lists_the_known(name):
    # "harness" is a module of the package, but has no plan().
    with pytest.raises(UnknownExperimentError) as excinfo:
        _load_experiment(name)
    message = str(excinfo.value)
    assert repr(name) in message
    for known in [e[0] for e in EXPERIMENTS] + ["chaos"]:
        assert known in message
    assert "harness" not in message.split("known experiments are")[1]
    assert _load_experiment("table3") is table3


@pytest.mark.parametrize("name", ["nosuch", "harness"])
@pytest.mark.parametrize("entry", ["api.run", "profile_experiment"])
def test_every_entry_point_names_an_unknown_experiment(entry, name):
    from repro import api
    from repro.tools.profile import profile_experiment
    run = {"api.run": api.run, "profile_experiment": profile_experiment}
    with pytest.raises(UnknownExperimentError,
                       match=f"unknown experiment {name!r}: known "
                             f"experiments are .*fig6"):
        run[entry](name)


def test_empty_glob_selection_is_typed_and_lists_the_cells():
    spec = fig6.plan(quick=True, policies=("default", "lfu"),
                     workloads=("C",))
    with pytest.raises(NoCellsSelectedError) as excinfo:
        filter_cells(spec, "Z/*")
    assert str(excinfo.value) == (
        "no cell of 'fig6' matches 'Z/*' (cells: C/default, C/lfu)")


def test_empty_policy_selection_is_typed_and_lists_the_cells():
    from repro import api
    spec = fig6.plan(quick=True, policies=("default", "lfu"),
                     workloads=("C",))
    with pytest.raises(NoCellsSelectedError) as excinfo:
        api.run(spec, policy="nosuch")
    assert str(excinfo.value) == (
        "no cell of 'fig6' matches '*/nosuch' (cells: C/default, C/lfu)")


def test_cli_turns_empty_selection_into_exit_status_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table3", "--cells", "nothing*"])
    assert excinfo.value.code == 2
    assert "no cell of 'table3' matches 'nothing*' (cells: " \
        in capsys.readouterr().err


def test_cli_turns_unknown_experiment_into_exit_status_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["nosuch"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'nosuch'" in err and "fig6" in err


# ----------------------------------------------------------------------
# run_all: every plan, in order, through execute
# ----------------------------------------------------------------------
def _stub_execute(calls: list):
    """An ``execute`` that records ``(plan name, jobs, serial)`` and
    returns a one-row table instead of running any cell."""
    def fake(spec, jobs=None, serial=False):
        calls.append((spec.name, jobs, serial))
        result = ExperimentResult(spec.name, headers=["cells"])
        result.add_row(len(spec.cells))
        return SimpleNamespace(result=result)
    return fake


RUN_ALL_NAMES = [mod.__name__.rsplit(".", 1)[-1] for mod in run_all.MODULES]


@pytest.mark.parametrize("flags,jobs,serial", [
    (["--serial"], None, True),
    (["--jobs", "3"], 3, False),
])
def test_run_all_executes_every_plan_in_order(flags, jobs, serial,
                                              monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(run_all, "execute", _stub_execute(calls))
    out = tmp_path / "all.txt"
    assert run_all.main(["--quick", *flags, "-o", str(out)]) == 0
    assert calls == [(name, jobs, serial) for name in RUN_ALL_NAMES]
    text = out.read_text()
    for name in RUN_ALL_NAMES:
        assert f"== {name} ==" in text
        assert f"[{name}: " in text


def test_run_all_counts_a_failing_plan_and_keeps_going(monkeypatch,
                                                       tmp_path):
    calls = []
    monkeypatch.setattr(run_all, "execute", _stub_execute(calls))

    def broken(quick=False):
        raise RuntimeError("no plan today")

    monkeypatch.setattr(fig9, "plan", broken)
    monkeypatch.setattr(table1, "plan", broken)
    out = tmp_path / "all.txt"
    assert run_all.main(["--quick", "--serial", "-o", str(out)]) == 2
    assert [name for name, _, _ in calls] == [
        name for name in RUN_ALL_NAMES if name not in ("fig9", "table1")]
    text = out.read_text()
    for name in ("fig9", "table1"):
        assert f"== {name} FAILED ==\nRuntimeError: no plan today" in text
    for name in RUN_ALL_NAMES:
        assert f"[{name}: " in text


def test_run_all_covers_every_plan():
    planned = {info.name for info in pkgutil.iter_modules(experiments.__path__)
               if hasattr(importlib.import_module(
                   f"repro.experiments.{info.name}"), "plan")}
    # chaos is the fault-grid gate with its own CLI (exit 1 on a
    # budget violation), not a table of the paper.
    assert planned - set(RUN_ALL_NAMES) == {"chaos"}
    assert len(RUN_ALL_NAMES) == len(set(RUN_ALL_NAMES))
