"""Experiment harness smoke tests + loose shape assertions.

These run every table/figure module at quick scale and check the
*structure* of the results plus the most robust qualitative claims
(e.g., MRU wins file search, the no-op overhead is small).  The full
calibrated shapes are recorded in EXPERIMENTS.md from full-scale runs.
"""

import pytest

from repro.experiments import (admission, fig6, fig7, fig8, fig9, fig10,
                               fig11, table1, table3, table4, table5)
from repro.experiments.harness import ExperimentResult


class TestHarnessResult:
    def test_row_width_enforced(self):
        res = ExperimentResult("t", headers=["a", "b"])
        with pytest.raises(ValueError):
            res.add_row(1)

    def test_column_and_find(self):
        res = ExperimentResult("t", headers=["policy", "value"])
        res.add_row("lfu", 10)
        res.add_row("mru", 5)
        assert res.column("value") == [10, 5]
        assert res.find_rows(policy="mru")[0]["value"] == 5

    def test_format_table_renders(self):
        res = ExperimentResult("t", headers=["a"])
        res.add_row(1.5)
        res.notes.append("hello")
        text = res.format_table()
        assert "== t ==" in text
        assert "hello" in text


class TestTable1:
    def test_rows_and_direction(self):
        res = table1.run(quick=True)
        assert res.column("workload") == ["YCSB A", "YCSB C", "Uniform",
                                          "Search"]
        # The KV rows must show degradation (negative percentages).
        degradations = res.column("degradation_pct")
        assert sum(1 for d in degradations if d < 0) >= 2


class TestFig6:
    def test_shape_on_ycsb_c(self):
        res = fig6.run(quick=True, workloads=("C",),
                       policies=("default", "mru", "lfu"))
        tput = {row[1]: row[2] for row in res.rows}
        # The most robust ordering facts: MRU is pathological on
        # zipfian point reads; LFU at least matches the default.
        assert tput["mru"] < tput["default"]
        assert tput["lfu"] >= tput["default"] * 0.95

    def test_all_columns_present(self):
        res = fig6.run(quick=True, workloads=("C",),
                       policies=("default",))
        row = res.row_dict(0)
        assert set(row) == {"workload", "policy", "ops_per_sec",
                            "p99_read_us", "hit_ratio", "disk_pages"}


class TestFig7:
    def test_inverse_relationship(self):
        res = fig7.run(quick=True, workloads=("C",),
                       policies=("default", "mru", "lfu", "fifo"))
        rows = res.find_rows(workload="C")
        by_policy = {r["policy"]: r for r in rows}
        # MRU reads far more disk and achieves less throughput.
        assert by_policy["mru"]["disk_pages"] > \
            by_policy["lfu"]["disk_pages"]
        assert by_policy["mru"]["ops_per_sec"] < \
            by_policy["lfu"]["ops_per_sec"]

    def test_spearman_helper(self):
        assert fig7.spearman_rank_correlation(
            [1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
        assert fig7.spearman_rank_correlation(
            [1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


class TestFig8:
    def test_no_single_winner(self):
        res = fig8.run(quick=True, clusters=(24, 52),
                       policies=("default", "lfu", "lhd"))
        assert len(res.rows) == 6
        assert all(r[2] > 0 for r in res.rows)


class TestFig9:
    def test_mru_wins_file_search(self):
        res = fig9.run(quick=True)
        rows = {r[0]: r for r in res.rows}
        assert rows["mru"][1] < rows["default"][1]  # faster
        assert rows["mru"][4] > 1.3  # speedup well above 1x


class TestFig10:
    def test_get_scan_policy_improves_gets(self):
        res = fig10.run(quick=True, variants=(
            ("default", "default", None),
            ("cache_ext-get-scan", "get-scan", None)))
        rows = {r[0]: r for r in res.rows}
        assert rows["cache_ext-get-scan"][1] > rows["default"][1]


class TestAdmission:
    def test_filter_reduces_tail_latency(self):
        res = admission.run(quick=True)
        rows = {r[0]: r for r in res.rows}
        assert rows["admission-filter"][3] > 0  # rejects happened
        assert rows["admission-filter"][2] <= rows["baseline"][2] * 1.05


class TestFig11:
    def test_tailored_configuration_wins_both(self):
        res = fig11.run(quick=True)
        rows = {r[0]: r for r in res.rows}
        tailored = rows["tailored lfu+mru"]
        base = rows["default/default"]
        assert tailored[1] > base[1]      # YCSB improves
        assert tailored[2] > base[2]      # search improves
        # Global MRU hurts YCSB; global LFU hurts search relative to
        # the tailored setup.
        assert rows["mru/mru"][1] < base[1]


class TestTable3:
    def test_loc_ordering_matches_paper(self):
        res = table3.run()
        loc = {r[0]: r[1] for r in res.rows}
        assert min(loc, key=loc.get) == "admission-filter"
        assert max(loc, key=loc.get) in ("mglru-bpf", "lhd")
        assert all(1 <= v <= 1000 for v in loc.values())
        # The note is derived from the rows, not asserted beside them.
        note, = res.notes
        assert f"{min(loc, key=loc.get)} is smallest" in note
        assert f"{max(loc, key=loc.get)} largest" in note

    def test_paper_columns_included(self):
        res = table3.run()
        row = res.row_dict(0)
        assert row["paper_bpf_loc"] == 35


class TestTable4:
    def test_noop_overhead_is_small(self):
        res = table4.run(quick=True)
        for overhead in res.column("overhead_pct"):
            assert 0 <= overhead < 8.0
        for mem in res.column("registry_mem_pct"):
            assert mem == pytest.approx(1.17, abs=0.01)


class TestTable5:
    def test_bpf_port_tracks_native(self):
        res = table5.run(quick=True, workloads=("C", "uniform"))
        for ratio in res.column("relative"):
            assert 0.7 < ratio < 1.3
