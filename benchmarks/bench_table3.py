"""Table 3 — policy implementation complexity (LoC)."""

from repro.experiments import table3

from conftest import run_once


def test_table3_policy_loc(benchmark, record_table):
    result = run_once(benchmark, lambda: table3.run())
    record_table(result)
    loc = {r[0]: r[1] for r in result.rows}
    # Paper's qualitative findings: the admission filter is the
    # smallest policy, LHD or MGLRU the largest, and everything fits in
    # tens-to-hundreds of lines — the same assertion as tier-1's
    # tests/test_experiments.py::TestTable3, note included.
    assert min(loc, key=loc.get) == "admission-filter"
    assert max(loc, key=loc.get) in ("mglru-bpf", "lhd")
    assert all(1 <= v <= 1000 for v in loc.values())
    note, = result.notes
    assert f"{min(loc, key=loc.get)} is smallest" in note
    assert f"{max(loc, key=loc.get)} largest" in note
    # Relative ordering broadly tracks the paper's table.
    assert loc["fifo"] < loc["s3fifo"] < loc["mglru-bpf"]
