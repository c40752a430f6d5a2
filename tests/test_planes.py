"""Planes compose: one observer chain, one artifact channel.

Any subset of the instrumentation planes (faults, trace, breakdown,
timeseries) rides the same cells, on either engine, cold or
snapshot-restored, in-process or in forked workers.  The contract is
equality, against the same request with the observing planes removed
and run on the full engine, cold and serial:

* the merged table is equal — planes never perturb, the replay engine,
  restores and workers never perturb;
* every artifact is byte-equal full vs replay, cold vs restored and
  serial vs ``jobs``;
* with a fault plan armed, the sampler's and the span recorder's own
  contracts still hold: integer frame column sums equal the machine's
  end-of-run counters, span components sum to durations.

Held over generated requests (``tests/strategies/planes.py``) and, on a
multi-cell fig6 grid, for each chaos scenario with the plan shown to
fire.  The spellings of mode and snapshot are
``tests/test_refusals.py``'s.
"""

import io
import json
import multiprocessing

import pytest
from hypothesis import given

from repro import api
from repro.experiments import chaos, fig6
from repro.experiments.parallel import (breakdown_collapsed,
                                        breakdown_json, execute,
                                        timeseries_jsonl)
from repro.obs.timeseries import frame_totals, read_frames_jsonl
from tests.strategies import COMPOSITION_SETTINGS, plane_cases

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel runner requires fork")


def artifacts(report) -> tuple:
    """Everything the observing planes filed, as the bytes the CLI
    writes."""
    return (json.dumps(report.trace, sort_keys=True),
            breakdown_json(report), breakdown_collapsed(report),
            timeseries_jsonl(report) if report.timeseries else "")


def assert_frames_sum_to_counters(report) -> None:
    _meta, rows = read_frames_jsonl(io.StringIO(timeseries_jsonl(report)))
    for cell_id, payload in report.result.rows:
        payload = json.loads(payload)
        summed = frame_totals(rows, scope="machine", cell=cell_id)
        assert summed["frames"] >= 1
        t = summed["totals"]
        for counter, value in payload["stats"].items():
            assert t[counter] == value, (cell_id, counter)
        disk = payload["disk"]
        assert t["io_read_pages"] + t["io_write_pages"] \
            == disk["total_pages"]
        assert (t["disk_reads"], t["disk_writes"]) \
            == (disk["reads"], disk["writes"])


def assert_components_sum_to_durations(report) -> None:
    for cell_id, bdown in report.breakdown.items():
        assert bdown["summary"], cell_id
        for key, stats in bdown["summary"].items():
            # Per span the sum is bitwise (tests/test_spans.py); across
            # a key's spans the two totals agree to accumulation error.
            assert sum(stats["components"].values()) == pytest.approx(
                stats["dur_us"], rel=1e-9), (cell_id, key)


@needs_fork
class TestGeneratedRequests:
    @COMPOSITION_SETTINGS
    @given(case=plane_cases())
    def test_request_equals_its_plain_cold_serial_self(self, case):
        armed = [p for p in case.planes if p == "faults"]
        plain = execute(case.spec(), serial=True,
                        **case.plane_kwargs(armed))
        cold = execute(case.spec(), serial=True, **case.plane_kwargs())
        asked = execute(case.spec(), **case.how_kwargs(),
                        **case.plane_kwargs())
        assert not asked.fallbacks and not asked.worker_errors
        assert asked.mode == ("full" if case.mode == "full"
                              else "replay")
        table = plain.result.format_table()
        assert cold.result.format_table() == table
        assert asked.result.format_table() == table
        assert artifacts(asked) == artifacts(cold)
        for plane in ("trace", "breakdown", "timeseries"):
            assert bool(getattr(asked, plane)) == (plane in case.planes)
        if "timeseries" in case.planes:
            assert_frames_sum_to_counters(asked)
        if "breakdown" in case.planes:
            assert_components_sum_to_durations(asked)


#: nkeys/pages/ops large enough that every scenario's plan fires on
#: every row of the grid below.
GRID_SCALE = dict(nkeys=2000, cgroup_pages=96, nops=1500, warmup_ops=400,
                  nthreads=3, zipf_theta=1.1)


def grid():
    return fig6.plan(quick=True, policies=("mru", "lfu", "default"),
                     workloads=("C", "A"),
                     scale=dict(fig6.QUICK_SCALE, **GRID_SCALE))


@pytest.fixture(scope="module")
def clean_table():
    return api.run(grid()).result.format_table()


@needs_fork
@pytest.mark.parametrize(
    "scenario", [s for s in chaos.SCENARIOS if s != "baseline"])
def test_every_plane_rides_a_chaos_scenario(scenario, clean_table):
    """The run the paper's safety argument asks to watch: fault plan
    armed, lookups counted, latency attributed, frames sampled — on the
    replay engine, restored and forked, against the cold serial full
    run."""
    plan = chaos.scenario_plan(scenario, 60_000.0, seed=7)
    observing = dict(trace=True, breakdown=True, timeseries=2_000.0)
    alone = api.run(grid(), faults=plan)
    cold = execute(grid(), serial=True, faults=plan, **observing)
    restored = api.run(grid(), faults=plan, mode="auto", snapshot="auto",
                       jobs=3, **observing)
    table = alone.result.format_table()
    assert table != clean_table  # the plan fired
    assert cold.result.format_table() == table
    assert restored.result.format_table() == table
    assert (restored.mode, restored.snapshot) == ("replay", "on")
    assert artifacts(restored) == artifacts(cold)
    assert all(artifacts(cold))
