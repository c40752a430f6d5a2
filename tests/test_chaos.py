"""Chaos grid acceptance: no crash, bounded degradation, determinism.

The claims under test (see :mod:`repro.experiments.chaos`): every
scenario cell completes without an unhandled exception; degradation
stays within each scenario's budget; fault injection is a pure
function of (plan seed, virtual time) so serial and parallel grid
executions — and repeated runs — are byte-identical; and spans stay
purely observational even while faults are being injected.
"""

from __future__ import annotations

import multiprocessing
from types import SimpleNamespace

import pytest

from repro.experiments import chaos
from repro.experiments.harness import ExperimentResult
from repro.experiments.parallel import execute

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK,
                                reason="parallel runner requires fork")

#: A trimmed quick-scale grid: every fault domain (device, policy,
#: memory) appears, but at sizes that keep the suite fast.
SMALL = {"nkeys": 2500, "cgroup_pages": 128, "nops": 1500,
         "warmup_ops": 800, "nthreads": 2, "zipf_theta": 1.1,
         "horizon_us": 20_000.0}
SMALL_SCENARIOS = ("flaky-disk", "buggy-policy", "mem-shock")


def small_spec(scenarios=SMALL_SCENARIOS, workloads=("A",)):
    return chaos.plan(quick=True, scenarios=scenarios,
                      workloads=workloads, scale=SMALL)


def small_cell(scenario, workload="A", **overrides):
    params = dict(SMALL, **overrides)
    horizon = params.pop("horizon_us")
    return chaos.cell(workload, scenario, horizon, **params)


# ----------------------------------------------------------------------
# no crash + degradation observable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", chaos.SCENARIOS)
def test_every_scenario_completes(scenario):
    """Each scenario runs end to end; armed cells actually inject."""
    payload = small_cell(scenario)
    assert payload["throughput"] > 0
    if scenario == "baseline":
        assert payload["fired"] == {}
    else:
        assert sum(payload["fired"].values()) > 0


def test_flaky_disk_errors_absorbed_by_retries():
    payload = small_cell("flaky-disk")
    # Injected EIOs show up on the disk, but the retry path absorbs
    # most: the app-level error count is far below the injected count.
    assert payload["disk_errors"] > 0
    assert payload["io_retries"] > 0
    assert payload["db_io_errors"] <= payload["disk_errors"]


def test_buggy_policy_quarantine_cycle_observable():
    payload = small_cell("buggy-policy")
    assert payload["budget_overruns"] >= 1
    assert payload["quarantines"] >= 1
    assert payload["reattaches"] >= 1
    # The stall window ends mid-run, so the policy finishes attached.
    assert payload["policy_attached"]


def test_mem_shock_shrinks_without_crash():
    payload = small_cell("mem-shock")
    assert payload["fired"].get("memory_shrink") == 1
    base = small_cell("baseline")
    # Half the cache is gone: hit ratio must not improve.
    assert payload["hit_ratio"] <= base["hit_ratio"]


def test_budgets_hold_on_small_grid():
    report = execute(small_spec(), serial=True)
    table = report.result.format_table()
    assert "NO" not in table.split()  # the within_budget column
    assert not any(n.startswith("BUDGET VIOLATIONS")
                   for n in report.result.notes)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        chaos.scenario_plan("gremlins", 1000.0)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_repeat_run_byte_identical():
    assert small_cell("flaky-disk") == small_cell("flaky-disk")


@needs_fork
def test_serial_parallel_equivalence():
    serial = execute(small_spec(), serial=True)
    parallel = execute(small_spec(), jobs=3)
    assert serial.result.format_table() == parallel.result.format_table()
    assert not parallel.fallbacks


def test_guard_faults_check_passes():
    from repro.obs.guard import run_check
    report = run_check("faults", scale=SMALL)
    assert report["passed"], report


# ----------------------------------------------------------------------
# spans stay observational under faults
# ----------------------------------------------------------------------
def test_span_invariant_holds_under_faults():
    """Injected waits (retries, stalls, timeouts) are attributed like
    any other wait: per-span component sums still reproduce the
    aggregate duration, and attaching the aggregator never perturbs
    the faulted run's virtual-time results."""
    from repro.obs.attr import SpanAggregator

    def run(collectors=()):
        from repro.experiments.harness import make_db_env
        from repro.obs.trace import TraceSession

        params = dict(SMALL)
        horizon = params.pop("horizon_us")
        env = make_db_env(chaos.POLICY,
                          cgroup_pages=params["cgroup_pages"],
                          nkeys=params["nkeys"], compaction_thread=True)
        env.machine.arm_faults(chaos.scenario_plan("flaky-disk", horizon))
        session = None
        if collectors:
            session = TraceSession(env.machine,
                                   collectors=list(collectors),
                                   buffer=False)
            session.start()
        result = chaos._run_workload(env, "A", params)
        if session is not None:
            session.stop()
        return result.throughput, env.machine.now_us

    base = run()
    agg = SpanAggregator()
    spanned = run(collectors=[agg])
    assert base == spanned
    assert agg.total_spans > 0
    total_dur = sum(s.dur_us for s in agg.stats.values())
    total_comp = sum(sum(s.comps.values()) for s in agg.stats.values())
    assert total_comp == pytest.approx(total_dur, rel=1e-6)


# ----------------------------------------------------------------------
# the CLI gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("note,status", [
    ("all scenarios within degradation budgets", 0),
    ("BUDGET VIOLATIONS: A/flaky-disk (0.10 < 0.40)", 1),
])
@pytest.mark.parametrize("flags,jobs,serial", [
    ([], None, True),
    (["--jobs", "2"], 2, False),
])
def test_cli_exit_status_follows_the_budget(flags, jobs, serial, note,
                                            status, monkeypatch, tmp_path,
                                            capsys):
    calls = []

    def fake_execute(spec, jobs=None, serial=False):
        calls.append((spec.cell_ids(), jobs, serial))
        result = ExperimentResult("Chaos grid", headers=["workload"])
        result.add_row("A")
        result.notes.append(note)
        return SimpleNamespace(result=result)

    monkeypatch.setattr(chaos, "execute", fake_execute)
    out = tmp_path / "chaos.txt"
    assert chaos.main(["--smoke", *flags, "-o", str(out)]) == status
    assert calls == [(["A/baseline", "A/flaky-disk", "A/buggy-policy"],
                      jobs, serial)]
    assert note in capsys.readouterr().out
    assert note in out.read_text()
