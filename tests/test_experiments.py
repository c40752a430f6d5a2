"""Experiment harness smoke tests + the paper's shape assertions.

These run every table/figure module — at quick scale wherever the claim
already shows there, at a stated larger scale where it does not — and
check the *structure* of the results plus the paper's qualitative
claims (LFU wins zipfian reads, MRU wins file search, the no-op
overhead is small, no single policy wins every trace, ...).  This is
the only place those claims are asserted.  The full calibrated shapes
are recorded in EXPERIMENTS.md from full-scale runs.
"""

import pytest

from repro import api
from repro.experiments import (ablations, admission, fig6, fig7, fig8,
                               fig9, fig10, fig11, table1, table3,
                               table4, table5)
from repro.experiments.harness import (GENERIC_POLICY_NAMES,
                                       ExperimentResult, attach_policy,
                                       build_machine)


def by_label(res: ExperimentResult) -> dict:
    """``{first column: row as a dict}``."""
    return {row[0]: dict(zip(res.headers, row)) for row in res.rows}


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


class TestAttachPolicy:
    def test_arc_is_sized_from_the_cgroup(self):
        machine = build_machine("default")
        cgroup = machine.new_cgroup("app", limit_pages=128)
        ops = attach_policy(machine, cgroup, "arc", 128)
        # p's range and both ghost lists are bounded by the cache size.
        assert ops.user_maps["b1"].max_entries == 128
        assert ops.user_maps["b2"].max_entries == 128

    def test_unknown_name_lists_the_known(self):
        machine = build_machine("default")
        cgroup = machine.new_cgroup("app", limit_pages=8)
        with pytest.raises(ValueError, match="unknown policy 'nope'; "
                           "choose from: default, mglru, fifo, .*arc"):
            attach_policy(machine, cgroup, "nope", 8)


class TestTable1:
    def test_rows_and_direction(self):
        res = api.run(table1.plan(quick=True)).result
        assert res.column("workload") == ["YCSB A", "YCSB C", "Uniform",
                                          "Search"]
        # The KV rows must show degradation (negative percentages).
        degradations = res.column("degradation_pct")
        assert sum(1 for d in degradations if d < 0) >= 2
        # Paper: -16.6% to -20.6% on the KV rows, -4.7% on search.
        assert min(degradations[:3]) < -3.0
        assert all(d < 3.0 for d in degradations)


class TestFig6:
    @pytest.fixture(scope="class")
    def tput(self):
        res = api.run(fig6.plan(quick=True, workloads=("C", "D"))).result
        return lambda workload, policy: res.find_rows(
            workload=workload, policy=policy)[0]["ops_per_sec"]

    def test_shape_on_ycsb_c(self, tput):
        # Paper shapes on the zipfian read workload: LFU wins, MRU is
        # pathological, FIFO trails LFU.
        assert tput("C", "lfu") > tput("C", "default")
        assert tput("C", "mru") < tput("C", "default")
        assert tput("C", "fifo") < tput("C", "lfu")

    def test_ycsb_d_ties(self, tput):
        # YCSB D mostly fits in memory: LRU/frequency policies tie within
        # noise (paper: "cached entirely in-memory"; our scaled cache
        # leaves ~10% misses, enough for MRU's inverted ordering to still
        # lose, so it is excluded from the tie check).
        d_values = [tput("D", p) for p in GENERIC_POLICY_NAMES
                    if p != "mru"]
        assert max(d_values) / min(d_values) < 1.4

    def test_all_columns_present(self):
        res = api.run(fig6.plan(quick=True, workloads=("C",),
                                policies=("default",))).result
        row = res.row_dict(0)
        assert set(row) == {"workload", "policy", "ops_per_sec",
                            "p99_read_us", "hit_ratio", "disk_pages"}


class TestFig7:
    POLICIES = ("default", "mglru", "fifo", "mru", "lfu", "s3fifo")

    @staticmethod
    def rho(res, workload):
        rows = res.find_rows(workload=workload)
        return fig7.spearman_rank_correlation(
            [r["ops_per_sec"] for r in rows],
            [r["disk_pages"] for r in rows])

    def test_inverse_relationship(self):
        res = api.run(fig7.plan(quick=True, workloads=("C",),
                                policies=self.POLICIES)).result
        rows = res.find_rows(workload="C")
        by_policy = {r["policy"]: r for r in rows}
        # MRU reads far more disk and achieves less throughput.
        assert by_policy["mru"]["disk_pages"] > \
            by_policy["lfu"]["disk_pages"]
        assert by_policy["mru"]["ops_per_sec"] < \
            by_policy["lfu"]["ops_per_sec"]
        # The paper's claim: throughput and disk I/O rank inversely.
        assert self.rho(res, "C") < -0.5

    def test_inverse_relationship_with_writes(self, monkeypatch):
        # On YCSB A the quick scale's six points are too close to rank
        # (rho = -0.37); the claim shows at a 20,000-key database.
        monkeypatch.setattr(fig6, "FULL_SCALE", {
            "nkeys": 20000, "cgroup_pages": 500, "nops": 8000,
            "warmup_ops": 6000, "nthreads": 8, "zipf_theta": 1.1})
        res = api.run(fig7.plan(workloads=("A",),
                                policies=self.POLICIES)).result
        assert self.rho(res, "A") < -0.5

    def test_spearman_helper(self):
        assert fig7.spearman_rank_correlation(
            [1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
        assert fig7.spearman_rank_correlation(
            [1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


class TestFig8:
    def test_no_single_winner(self):
        res = api.run(fig8.plan(quick=True)).result
        assert len(res.rows) == 5 * len(fig8.POLICIES)
        assert all(r[2] > 0 for r in res.rows)
        winners, spreads = {}, {}
        for cluster in (17, 18, 24, 34, 52):
            rows = res.find_rows(cluster=cluster)
            best = max(rows, key=lambda r: r["ops_per_sec"])
            worst = min(rows, key=lambda r: r["ops_per_sec"])
            winners[cluster] = best["policy"]
            spreads[cluster] = best["ops_per_sec"] / worst["ops_per_sec"]
        # Takeaway 2: there is no one-size-fits-all policy.
        assert len(set(winners.values())) >= 2, winners
        # The policy choice matters: every cluster shows a real spread.
        assert all(s > 1.1 for s in spreads.values()), spreads


class TestFig9:
    def test_mru_wins_file_search(self):
        res = api.run(fig9.plan(quick=True)).result
        rows = {r[0]: r for r in res.rows}
        assert rows["mru"][1] < rows["default"][1]  # faster
        assert rows["mru"][1] < rows["mglru"][1]
        assert rows["mru"][4] > 1.5  # speedup well above 1x
        assert rows["mru"][3] < rows["default"][3]  # far less disk I/O


class TestFig10:
    def test_get_scan_policy_improves_gets(self):
        res = api.run(fig10.plan(quick=True, variants=(
            ("default", "default", None),
            ("cache_ext-get-scan", "get-scan", None)))).result
        rows = {r[0]: r for r in res.rows}
        assert rows["cache_ext-get-scan"][1] > rows["default"][1]

    def test_fadvise_does_not_match_the_policy(self):
        # None of the three thresholds holds at quick scale; all hold
        # at this one.
        rows = by_label(api.run(fig10.plan(scale={
            "nkeys": 20000, "cgroup_pages": 500, "n_gets": 20000,
            "scan_len": 4000, "get_threads": 4, "scan_threads": 2,
            "zipf_theta": 1.5})).result)
        get_scan = rows["cache_ext-get-scan"]["get_ops_per_sec"]
        # The application-informed policy lifts GET throughput well
        # above the default (paper: +70%) ...
        assert get_scan > rows["default"]["get_ops_per_sec"] * 1.2
        # ... while none of the fadvise options comes close (paper: "the
        # fadvise() options do not help much" — a modest gain is
        # tolerated, matching our readahead model's FADV_SEQUENTIAL
        # behaviour).
        for variant in ("fadv-dontneed", "fadv-noreuse"):
            assert rows[variant]["get_ops_per_sec"] < get_scan * 0.9


class TestAdmission:
    def test_filter_reduces_tail_latency(self):
        res = api.run(admission.plan(quick=True)).result
        rows = {r[0]: r for r in res.rows}
        assert rows["admission-filter"][3] > 0  # rejects happened
        # P99 improves (paper: -17%) and throughput does not regress.
        assert rows["admission-filter"][2] < rows["baseline"][2]
        assert rows["admission-filter"][1] > rows["baseline"][1] * 0.95


class TestFig11:
    def test_tailored_configuration_wins_both(self):
        res = api.run(fig11.plan(quick=True)).result
        rows = {r[0]: r for r in res.rows}
        tailored = rows["tailored lfu+mru"]
        base = rows["default/default"]
        assert tailored[1] > base[1]      # YCSB improves
        assert tailored[2] > base[2]      # search improves
        # Global MRU hurts YCSB; global LFU hurts search relative to
        # the tailored setup.
        assert rows["mru/mru"][1] < base[1]
        # Paper: +49.8% YCSB, +79.4% search for the tailored setup.
        assert tailored[3] > 5.0
        assert tailored[4] > 30.0
        assert rows["mru/mru"][3] < 0.0
        assert rows["lfu/lfu"][4] < tailored[4]


class TestTable3:
    def test_loc_ordering_matches_paper(self):
        res = api.run(table3.plan()).result
        loc = {r[0]: r[1] for r in res.rows}
        assert min(loc, key=loc.get) == "admission-filter"
        assert max(loc, key=loc.get) in ("mglru-bpf", "lhd")
        assert all(1 <= v <= 1000 for v in loc.values())
        # The note is derived from the rows, not asserted beside them.
        note, = res.notes
        assert f"{min(loc, key=loc.get)} is smallest" in note
        assert f"{max(loc, key=loc.get)} largest" in note
        # Relative ordering broadly tracks the paper's table.
        assert loc["fifo"] < loc["s3fifo"] < loc["mglru-bpf"]

    def test_paper_columns_included(self):
        res = api.run(table3.plan()).result
        row = res.row_dict(0)
        assert row["paper_bpf_loc"] == 35


class TestTable4:
    def test_noop_overhead_is_small(self):
        res = api.run(table4.plan(quick=True)).result
        # Paper: at most 1.7% CPU per I/O; a modest margin for the
        # simulator's coarser cost model.
        for overhead in res.column("overhead_pct"):
            assert 0 <= overhead < 4.0
        for mem in res.column("registry_mem_pct"):
            assert mem == pytest.approx(1.17, abs=0.01)


class TestTable5:
    def test_bpf_port_tracks_native(self):
        res = api.run(table5.plan(
            quick=True,
            workloads=("A", "B", "C", "uniform", "uniform-rw"))).result
        # Paper: per-workload 0.96-1.06, harmonic mean 0.99.  The port
        # shares the algorithm, so relative throughput stays near 1.
        ratios = res.column("relative")
        assert all(0.8 < r < 1.2 for r in ratios), ratios
        assert 0.9 < table5.harmonic_mean(ratios) < 1.1


class TestAblations:
    """What the paper's fixed constants buy, at the plan's own scale
    (a larger sample selecting better victims does not show below it)."""

    @pytest.fixture(scope="class")
    def rows(self):
        return by_label(api.run(ablations.plan()).result)

    def test_batching_amortizes_hook_crossings(self, rows):
        # batch=1 burns far more hook CPU than the paper's 32.
        assert rows["lfu batch=1"]["hook_cpu_us"] > \
            rows["lfu"]["hook_cpu_us"] * 1.5

    def test_larger_samples_select_better_victims(self, rows):
        assert rows["lfu"]["hit_ratio"] >= \
            rows["lfu nr_scan=32"]["hit_ratio"]

    def test_registry_validation_is_cheap(self, rows):
        # Within a few percent, matching the paper's "minimal overhead"
        # claim for the registry.
        assert rows["lfu"]["ops_per_sec"] > \
            rows["lfu unvalidated"]["ops_per_sec"] * 0.93

    @pytest.mark.parametrize("policy", ("sieve", "arc"))
    def test_post_paper_policies_are_competitive(self, rows, policy):
        # The claim is deployability on the unmodified API, not victory.
        assert rows[policy]["ops_per_sec"] > \
            rows["default"]["ops_per_sec"] * 0.85
