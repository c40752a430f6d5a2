"""Trace-replay fast path: exact equality with the full engine.

The replay contract (ISSUE: "bit-identical, not approximately equal")
is enforced here by running the same cell twice — once on the
reference engine, once with ``mode="replay"`` — and requiring the
*entire payload dict* to compare equal, floats included.  Coverage
spans the three stream families (YCSB, Twitter clusters, GET-SCAN)
and every attachable policy, plus ARC and SIEVE driven directly, and
the quick chaos grid's fault plans.

Scales are kept small: equality at any scale exercises the same code
paths, and the full-scale cross-check lives in the benchmark suite.
"""

import functools
import warnings

import pytest

from repro import api, load_policy
from repro.experiments import (ablations, admission, chaos, fig6, fig7,
                               fig8, fig10, table5)
from repro.experiments.harness import GENERIC_POLICY_NAMES, make_db_env
from repro.experiments.parallel import apply_mode, execute
from repro.kernel.machine import Machine
from repro.policies.arc import make_arc_policy
from repro.policies.sieve import make_sieve_policy
from repro.replay import ReplayEngine, enable_replay, replay_counters

# One small YCSB scale reused by the policy sweep below.
YCSB_SCALE = dict(nkeys=2000, cgroup_pages=96, nops=800,
                  warmup_ops=400, nthreads=2, zipf_theta=1.1)


def both_modes(cell_fn, **kwargs):
    full = cell_fn(mode="full", **kwargs)
    replay = cell_fn(mode="replay", **kwargs)
    return full, replay


class TestYcsbEquality:
    @pytest.mark.parametrize("policy", GENERIC_POLICY_NAMES)
    def test_policy_payloads_bit_identical(self, policy):
        full, replay = both_modes(fig6.cell, policy=policy,
                                  workload="B", **YCSB_SCALE)
        assert full == replay

    @pytest.mark.parametrize("workload", ("A", "E", "uniform-rw"))
    def test_workload_payloads_bit_identical(self, workload):
        # E is scan-heavy (bulk sequential I/O), uniform-rw exercises
        # writeback; together with B above they cover every YCSB op
        # mix the sweep uses.
        full, replay = both_modes(fig6.cell, policy="lfu",
                                  workload=workload, **YCSB_SCALE)
        assert full == replay


class TestTwitterEquality:
    @pytest.mark.parametrize("policy", ("default", "lfu", "lhd"))
    def test_cluster_payloads_bit_identical(self, policy):
        full, replay = both_modes(
            fig8.cell, policy=policy, cluster=34, nkeys=1500,
            cgroup_pages=80, nops=1200, warmup_ops=400)
        assert full == replay


class TestGetScanEquality:
    @pytest.mark.parametrize("label,policy,fadvise_mode", (
        ("default", "default", None),
        ("cache_ext-get-scan", "get-scan", None),
    ))
    def test_getscan_payloads_bit_identical(self, label, policy,
                                            fadvise_mode):
        full, replay = both_modes(
            fig10.cell, label=label, policy=policy,
            fadvise_mode=fadvise_mode, nkeys=1500, cgroup_pages=96,
            n_gets=600, scan_len=300, get_threads=2, scan_threads=1)
        assert full == replay


class TestAdmissionEquality:
    @pytest.mark.parametrize("filtered", (False, True))
    def test_admission_payloads_bit_identical(self, filtered):
        full, replay = both_modes(
            admission.cell, filtered=filtered, nkeys=1500,
            cgroup_pages=96, nops=800, warmup_ops=200, nthreads=2)
        assert full == replay


def run_direct(ops_factory, replay: bool) -> dict:
    """ARC and SIEVE off the harness: a bare machine under a mixed
    hot/scan read pattern."""
    machine = Machine()
    if replay:
        enable_replay(machine)
    cg = machine.new_cgroup("app", limit_pages=48)
    f = machine.fs.create("data")
    for i in range(256):
        f.store[i] = i
    f.npages = 256
    f.ra_enabled = False
    load_policy(machine, cg, ops_factory())

    def step(thread, state={"i": 0}):
        i = state["i"]
        if i >= 4000:
            return False
        # Deterministic mix: hot set + striding scan.
        machine.fs.read_page(f, (i * 7) % 24 if i % 3 else i % 256)
        state["i"] = i + 1
        return True

    machine.spawn("app", step, cgroup=cg)
    machine.run()
    return replay_counters(machine)


class TestDirectPolicies:
    @pytest.mark.parametrize("factory", (make_arc_policy,
                                         make_sieve_policy),
                             ids=("arc", "sieve"))
    def test_counters_bit_identical(self, factory):
        full = run_direct(factory, replay=False)
        fast = run_direct(factory, replay=True)
        assert full == fast
        assert full["lookups"] > 0 and full["evictions"] > 0


class TestDeterminism:
    def test_same_seed_same_counters(self):
        a = fig6.cell(policy="s3fifo", workload="A", mode="replay",
                      **YCSB_SCALE)
        b = fig6.cell(policy="s3fifo", workload="A", mode="replay",
                      **YCSB_SCALE)
        assert a == b

    def test_serial_equals_parallel(self):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        spec = fig6.plan(policies=("fifo", "lfu"), workloads=("B",),
                         scale=YCSB_SCALE)
        serial = api.run(spec, mode="replay")
        parallel = api.run(fig6.plan(policies=("fifo", "lfu"),
                                     workloads=("B",),
                                     scale=YCSB_SCALE),
                           mode="replay", jobs=2)
        assert serial.result.rows == parallel.result.rows


#: Plans that run ``fig6.cell`` verbatim under another merge, and the
#: one that builds fig6's environment under its own cell.
FIG6_CELL_PLANS = {
    "ablations": lambda: ablations.plan(quick=True, scale=YCSB_SCALE),
    "fig7": lambda: fig7.plan(quick=True, workloads=("A",),
                              policies=("default", "mru", "lfu")),
    "table5": lambda: table5.plan(quick=True, workloads=("A",)),
}


class TestPlansOnFig6Cells:
    @pytest.mark.parametrize("name", sorted(FIG6_CELL_PLANS))
    def test_replay_rewrites_every_cell_and_matches_full(self, name):
        # ``--mode replay`` used to report mode=replay here while
        # rewriting nothing: the plans forgot ``supports_replay``.
        plan = FIG6_CELL_PLANS[name]
        cells = apply_mode(plan(), "replay").cells
        assert cells
        assert all(cell.kwargs["mode"] == "replay" for cell in cells)
        full = execute(plan(), serial=True, mode="full")
        fast = execute(plan(), serial=True, mode="replay",
                       snapshot="on")
        assert full.result.format_table() == fast.result.format_table()


#: The quick chaos grid: every fault domain, watchdog detaches and
#: quarantine re-attaches included (the buggy-policy cells).
CHAOS_CELLS = chaos.plan(quick=True).cells


class TestFaultPlanEquality:
    @pytest.mark.parametrize("cell", CHAOS_CELLS,
                             ids=[cell.cell_id for cell in CHAOS_CELLS])
    def test_chaos_payloads_bit_identical(self, cell, monkeypatch):
        full = cell.fn(**cell.kwargs)
        monkeypatch.setattr(chaos, "make_db_env",
                            functools.partial(make_db_env, mode="replay"))
        assert cell.fn(**cell.kwargs) == full
        if cell.kwargs["scenario"] == "buggy-policy":
            assert full["quarantines"] > 0 and full["reattaches"] > 0


class TestReplayRefusals:
    def test_refuses_after_spawn(self):
        machine = Machine()
        machine.spawn("t", lambda thread: False)
        with pytest.raises(ValueError, match="before any thread"):
            enable_replay(machine)

    def test_enable_replay_idempotent(self):
        machine = enable_replay(Machine())
        assert enable_replay(machine) is machine
        assert isinstance(machine.engine, ReplayEngine)

    def test_bounded_run_still_works(self):
        # Windowed runs delegate to the full loop on a replay machine.
        machine = enable_replay(Machine())
        ticks = []

        def step(thread):
            ticks.append(thread.clock_us)
            thread.advance(10.0)
            return True

        machine.spawn("t", step)
        machine.run(until_us=100.0)
        assert machine.engine.now_us <= 110.0
        assert len(ticks) >= 5

    @pytest.mark.parametrize("name", ["sched:switch", "sched:exit"])
    def test_scheduler_tracepoints_fire_like_a_full_machine(self, name):
        # The unbounded loop emits neither; a subscriber must make the
        # run fall back to the full loop, not go silently deaf.
        def events(mode):
            machine = api.MachineConfig(mode=mode).build()
            seen = []
            machine.trace.tracepoint(name).subscribe(
                lambda e: seen.append((e.ts_us, e.tid, dict(e.data))))
            for worker in range(3):
                def step(thread, left=[4 + worker]):
                    thread.advance(10.0 + worker)
                    left[0] -= 1
                    return left[0] > 0
                machine.spawn(f"w{worker}", step)
            machine.run()
            return seen

        full = events("full")
        assert full
        assert events("replay") == full


class TestApiFacade:
    def test_machine_config_knobs_apply(self):
        config = api.MachineConfig(
            kernel_policy="mglru",
            disk={"read_us": 50.0, "channels": 4},
            bulk_io_enabled=False,
            cgroups=(("app", 128), ("side", 64)))
        machine = config.build()
        assert machine.fs.bulk_io_enabled is False
        assert machine.disk.read_us == 50.0
        assert machine.cgroup("app").limit_pages == 128
        assert machine.cgroup("side").limit_pages == 64
        assert machine.replay_mode is False

    def test_machine_config_replay_mode(self):
        machine = api.MachineConfig(mode="replay").build()
        assert machine.replay_mode is True
        assert isinstance(machine.engine, ReplayEngine)

    def test_machine_config_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            api.MachineConfig(mode="turbo").build()

    def test_machine_config_is_reusable(self):
        config = api.MachineConfig(cgroups=(("app", 32),))
        m1, m2 = config.build(), config.build()
        assert m1 is not m2
        assert m1.cgroup("app") is not m2.cgroup("app")

    def test_run_by_name_end_to_end(self):
        # Name resolution through repro.experiments.<name>.plan().
        report = api.run("table3")
        assert report.result.rows

    def test_run_spec_with_policy_filter(self):
        spec = fig6.plan(policies=("fifo", "lfu"), workloads=("B",),
                         scale=YCSB_SCALE)
        report = api.run(spec, policy="lfu", mode="replay")
        rows = report.result.rows
        assert len(rows) == 1
        assert "lfu" in rows[0][0]

    def test_run_unknown_policy_filter_raises(self):
        spec = fig6.plan(policies=("fifo",), workloads=("B",),
                         scale=YCSB_SCALE)
        with pytest.raises(ValueError, match="no cell"):
            api.run(spec, policy="nonexistent")

    def test_replay_mode_matches_full_through_facade(self):
        spec = lambda: fig6.plan(policies=("s3fifo",), workloads=("B",),
                                 scale=YCSB_SCALE)
        full = api.run(spec(), mode="full")
        fast = api.run(spec(), mode="replay")
        assert full.result.rows == fast.result.rows


class TestLhdAttach:
    def test_one_call_attach_does_not_warn(self):
        from repro.policies.lhd import init_lhd, make_lhd_policy
        machine = Machine()
        cg = machine.new_cgroup("app", limit_pages=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ops = make_lhd_policy(map_entries=512)
            machine.attach(cg, ops)
            init_lhd(machine, ops)
        assert cg.ext_policy is not None
        assert ops.name == "lhd"
