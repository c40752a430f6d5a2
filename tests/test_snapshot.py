"""Sweep-level machine snapshots: restore must equal cold start.

The snapshot contract (ISSUE: "byte-identical tables, cold-start vs
snapshot-restore") is enforced here by running the same cell twice —
once with a cold-built environment, once restored from the post-load
image (``snapshot=True``) — and requiring the *entire payload dict* to
compare equal, floats included.  Coverage spans the stream families
(YCSB, Twitter clusters, GET-SCAN, admission) and every attachable
policy, both execution modes, plus the refusal and mutation-isolation
guarantees of :mod:`repro.snapshot` driven directly.

Scales are kept small: equality at any scale exercises the same code
paths, and CI's ``snapshot-smoke`` job diffs the whole quick fig6 table,
cold against restored.
"""

import pickletools

import pytest

from repro import api, snapshot
from repro.apps.lsm.format import BLOOM_PAGE_BITS
from repro.experiments import (ablations, admission, chaos, fig6, fig8,
                               fig10)
from repro.experiments.harness import (GENERIC_POLICY_NAMES,
                                       build_machine, make_db_env,
                                       observing, warm_db_env_snapshot)
from repro.faults.plan import FaultPlan
from repro.kernel.folio import PAGE_SIZE
from repro.kernel.machine import Machine
from repro.obs.collectors import EventCounter
from repro.obs.spans import Span

# One small YCSB scale reused by the policy sweep below.
YCSB_SCALE = dict(nkeys=2000, cgroup_pages=96, nops=800,
                  warmup_ops=400, nthreads=2, zipf_theta=1.1)


def cold_and_restored(cell_fn, **kwargs):
    cold = cell_fn(snapshot=False, **kwargs)
    restored = cell_fn(snapshot=True, **kwargs)
    return cold, restored


class TestYcsbEquality:
    @pytest.mark.parametrize("policy", GENERIC_POLICY_NAMES)
    def test_policy_payloads_bit_identical(self, policy):
        cold, restored = cold_and_restored(
            fig6.cell, policy=policy, workload="B", **YCSB_SCALE)
        assert cold == restored

    @pytest.mark.parametrize("workload", ("A", "E", "uniform-rw"))
    def test_workload_payloads_bit_identical(self, workload):
        # E is scan-heavy, uniform-rw exercises writeback; together
        # with B above they cover every YCSB op mix the sweep uses.
        # All three restore the SAME cached image (the capture point
        # is pre-attach and the bulk load never enters the engine, so
        # the image is workload-agnostic).
        cold, restored = cold_and_restored(
            fig6.cell, policy="lfu", workload=workload, **YCSB_SCALE)
        assert cold == restored

    @pytest.mark.parametrize("mode", ("full", "replay"))
    def test_both_modes_bit_identical(self, mode):
        cold, restored = cold_and_restored(
            fig6.cell, policy="s3fifo", workload="B", mode=mode,
            **YCSB_SCALE)
        assert cold == restored


class TestTwitterEquality:
    @pytest.mark.parametrize("policy", ("default", "lfu", "lhd"))
    def test_cluster_payloads_bit_identical(self, policy):
        cold, restored = cold_and_restored(
            fig8.cell, policy=policy, cluster=34, nkeys=1500,
            cgroup_pages=80, nops=1200, warmup_ops=400)
        assert cold == restored


class TestGetScanEquality:
    @pytest.mark.parametrize("label,policy,fadvise_mode", (
        ("default", "default", None),
        ("cache_ext-get-scan", "get-scan", None),
    ))
    def test_getscan_payloads_bit_identical(self, label, policy,
                                            fadvise_mode):
        cold, restored = cold_and_restored(
            fig10.cell, label=label, policy=policy,
            fadvise_mode=fadvise_mode, nkeys=1500, cgroup_pages=96,
            n_gets=600, scan_len=300, get_threads=2, scan_threads=1)
        assert cold == restored


class TestAdmissionEquality:
    @pytest.mark.parametrize("filtered", (False, True))
    def test_admission_payloads_bit_identical(self, filtered):
        cold, restored = cold_and_restored(
            admission.cell, filtered=filtered, nkeys=1500,
            cgroup_pages=96, nops=800, warmup_ops=200, nthreads=2)
        assert cold == restored


class TestAblationEquality:
    @pytest.mark.parametrize("variant", ("lfu batch=1", "lfu nr_scan=32",
                                         "lfu unvalidated", "arc"))
    def test_variant_payloads_bit_identical(self, variant):
        # The cell sets its knobs on the restored machine's page cache.
        cold, restored = cold_and_restored(
            ablations.cell, **YCSB_SCALE, **ablations.VARIANTS[variant])
        assert cold == restored


class GetKeys:
    """Step function of one reader thread (a class, so the finished
    thread pickles with the image)."""

    def __init__(self, db, keys) -> None:
        self.db = db
        self.keys = keys
        self.values: list = []

    def __call__(self, thread) -> bool:
        self.values.extend(map(self.db.get, self.keys))
        return False


class ScanKeys:
    """Step function of one thread that lists every table's keys
    through :meth:`SSTable.iter_from` (a class, like :class:`GetKeys`)."""

    def __init__(self, db) -> None:
        self.db = db
        self.keys: list = []

    def __call__(self, thread) -> bool:
        for table in self.db._all_tables():
            self.keys.extend(key for key, _ in
                             table.iter_from(table.min_key))
        return False


class TestServedTablesEquality:
    def test_image_of_tables_that_served_gets(self):
        """Every sweep captures before the first lookup; here the image
        is of a quiescent machine whose tables have already answered
        gets.  What they derived to answer (slot maps, and the filter
        an absent key probed) stays out of the image, and the restored
        graph carries on exactly as the captured one does."""
        env = make_db_env("default", cgroup_pages=64, nkeys=1000)
        scan = ScanKeys(env.db)
        env.machine.spawn("scanner", scan, cgroup=env.cgroup)
        env.machine.run()
        keys = scan.keys
        assert len(keys) == 1000

        def payload(machine, cgroup, db, keys):
            step = GetKeys(db, keys)
            thread = machine.spawn("reader", step, cgroup=cgroup)
            machine.run()
            return step.values, thread.clock_us, machine.metrics()

        payload(env.machine, env.cgroup, env.db, keys[::3] + [keys[0] + "0"])
        assert all(table._slots for table in env.db._all_tables())
        assert any(table._bloom for table in env.db._all_tables())
        image = snapshot.capture(env.machine, (env.cgroup, env.db))
        restored = snapshot.restore(image)
        assert all(table._slots is None and table._bloom is None
                   for table in restored[2]._all_tables())
        again = keys[::2] + ["absent"]
        assert payload(*restored, again) == \
            payload(env.machine, env.cgroup, env.db, again)


class TestImageHoldsNoFilter:
    def test_full_scale_fig6_image(self):
        """A table's filter is derived on its first probe, so the
        pre-attach image carries none: no filter chunk, no filter bits,
        only one stand-in per filter page."""
        scale = fig6.FULL_SCALE
        snapshot.clear_cache()
        warm_db_env_snapshot("lfu", cgroup_pages=scale["cgroup_pages"],
                             nkeys=scale["nkeys"])
        (image,) = snapshot._images.values()
        snapshot.clear_cache()
        _, _, db = snapshot.restore(image)
        tables = list(db._all_tables())
        filter_pages = [table.file.store[table.n_data_pages + i]
                        for table in tables
                        for i in range(table.bloom_nbits // BLOOM_PAGE_BITS)]
        assert len(filter_pages) >= len(tables) > 1
        assert set(filter_pages) == {None}
        assert all(table._bloom is None for table in tables)
        # Nothing byte-like in the payload or among the shared leaves,
        # and the payload is smaller than the filters it used to carry.
        ops = {op.name for op, _, _ in pickletools.genops(image.payload)}
        assert not ops & {"BYTEARRAY8", "SHORT_BINBYTES", "BINBYTES",
                          "BINBYTES8"}
        assert not [leaf for leaf in image.shared
                    if isinstance(leaf, (bytes, bytearray))]
        assert image.nbytes < len(filter_pages) * PAGE_SIZE


class TestImageCache:
    def test_one_capture_serves_a_sweep(self):
        """Different policies on the same kernel flavor share one
        image; only the mglru kernel needs a second capture."""
        snapshot.clear_cache()
        before = snapshot.cache_info()
        for policy in ("fifo", "lfu", "default"):
            fig6.cell(policy=policy, workload="B", snapshot=True,
                      **YCSB_SCALE)
        info = snapshot.cache_info()
        assert info["entries"] == 1
        assert info["captures"] == before["captures"] + 1
        assert info["restores"] >= before["restores"] + 3
        fig6.cell(policy="mglru", workload="B", snapshot=True,
                  **YCSB_SCALE)
        assert snapshot.cache_info()["entries"] == 2

    def test_warm_then_restore_hits_cache(self):
        snapshot.clear_cache()
        warm_db_env_snapshot("fifo", cgroup_pages=64, nkeys=1000)
        info = snapshot.cache_info()
        assert info["entries"] == 1 and info["bytes"] > 0
        env = make_db_env("fifo", cgroup_pages=64, nkeys=1000,
                          snapshot=True)
        assert snapshot.cache_info()["cache_hits"] > info["cache_hits"]
        assert env.db.total_data_pages > 0


class TestMutationIsolation:
    def test_restored_cells_share_no_mutable_state(self):
        """Two restores of one image are fully independent graphs:
        running a destructive workload on one leaves the other's
        payload identical to a fresh restore's."""
        snapshot.clear_cache()
        warm_db_env_snapshot("lfu", cgroup_pages=96, nkeys=2000)
        a = fig6.cell(policy="lfu", workload="A", snapshot=True,
                      **YCSB_SCALE)  # writes: mutates its machine
        b = fig6.cell(policy="lfu", workload="B", snapshot=True,
                      **YCSB_SCALE)
        # Re-running each cell from the same cached image must
        # reproduce it exactly — the first run's mutations (inserted
        # keys, evicted folios, advanced clocks) must not leak back
        # into the image or into sibling restores.
        assert fig6.cell(policy="lfu", workload="A", snapshot=True,
                         **YCSB_SCALE) == a
        assert fig6.cell(policy="lfu", workload="B", snapshot=True,
                         **YCSB_SCALE) == b

    def test_restores_are_distinct_objects(self):
        snapshot.clear_cache()
        warm_db_env_snapshot("fifo", cgroup_pages=64, nkeys=1000)
        e1 = make_db_env("fifo", cgroup_pages=64, nkeys=1000,
                         snapshot=True)
        e2 = make_db_env("fifo", cgroup_pages=64, nkeys=1000,
                         snapshot=True)
        assert e1.machine is not e2.machine
        assert e1.cgroup is not e2.cgroup
        assert e1.db is not e2.db
        assert e1.db.machine is e1.machine  # graph is internally wired
        assert e2.machine.cgroup("app") is e2.cgroup


class TestDeterminism:
    def test_serial_equals_parallel_on_restored_machines(self):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        plan = lambda: fig6.plan(policies=("fifo", "lfu"),
                                 workloads=("B",), scale=YCSB_SCALE)
        serial = api.run(plan(), snapshot=True)
        parallel = api.run(plan(), snapshot=True, jobs=2)
        assert serial.result.rows == parallel.result.rows

    def test_facade_auto_matches_cold(self):
        plan = lambda: fig6.plan(policies=("s3fifo",),
                                 workloads=("B",), scale=YCSB_SCALE)
        cold = api.run(plan(), snapshot=False)
        auto = api.run(plan(), snapshot="auto")
        assert cold.result.rows == auto.result.rows

    @pytest.mark.parametrize("setting", (True, "auto"))
    def test_facade_snapshot_with_faults_matches_cold(self, setting):
        # A plan arms on a restored machine exactly as on a cold one —
        # the same faults fire, the same rows come out, and they are
        # not the clean run's.
        plan = lambda: fig6.plan(policies=("fifo",), workloads=("B",),
                                 scale=YCSB_SCALE)
        faults = chaos.scenario_plan("flaky-disk", 60_000.0, seed=7)
        clean = api.run(plan())
        cold = api.run(plan(), faults=faults)
        restored = api.run(plan(), snapshot=setting, faults=faults)
        assert cold.result.rows == restored.result.rows
        assert cold.result.rows != clean.result.rows
        assert restored.snapshot == "on"


class TestObserverChain:
    """``harness.observing``: planes append to one chain instead of
    owning a slot."""

    ENV = dict(cgroup_pages=64, nkeys=1000)

    def test_nested_blocks_apply_in_order_to_built_and_restored(self):
        snapshot.clear_cache()
        seen = []
        first = lambda machine: seen.append(("first", machine))
        second = lambda machine: seen.append(("second", machine))
        with observing(first):
            with observing(second):
                # The capture happens inside both blocks ...
                restored = make_db_env("fifo", snapshot=True, **self.ENV)
                built = build_machine("default")
            after_inner = build_machine("default")
        outside = build_machine("default")
        assert seen == [("first", restored.machine),
                        ("second", restored.machine),
                        ("first", built), ("second", built),
                        ("first", after_inner)]
        assert outside not in [machine for _, machine in seen]

    def test_unwinds_on_exception(self):
        seen = []
        with pytest.raises(RuntimeError, match="cell died"):
            with observing(seen.append):
                with observing(seen.append):
                    raise RuntimeError("cell died")
        build_machine("default")
        assert seen == []

    def test_captured_image_is_pristine(self):
        # ... yet nothing attached to the captured machine: restoring
        # the same image outside any block yields an unarmed machine
        # with no subscribers.
        snapshot.clear_cache()
        counter = EventCounter("cache:*")
        with observing(lambda m: m.arm_faults(FaultPlan(seed=3)),
                       counter.attach):
            armed = make_db_env("fifo", snapshot=True, **self.ENV)
        assert armed.machine.faults is not None
        assert armed.machine.trace.tracepoint("cache:lookup").enabled
        info = snapshot.cache_info()
        clean = make_db_env("fifo", snapshot=True, **self.ENV)
        assert snapshot.cache_info()["cache_hits"] > info["cache_hits"]
        assert clean.machine.faults is None
        assert not any(tp.nr_subscribers
                       for tp in clean.machine.trace.match())


def _one_step(thread) -> bool:
    return False


class TestRefusals:
    def test_refuses_armed_faults(self):
        machine = Machine()
        machine.arm_faults(FaultPlan(seed=3))
        with pytest.raises(snapshot.SnapshotError,
                           match="armed fault plan"):
            snapshot.capture(machine)

    def test_refuses_live_threads(self):
        machine = Machine()
        machine.spawn("worker", lambda thread: False)
        with pytest.raises(snapshot.SnapshotError, match="live thread"):
            snapshot.capture(machine)

    def test_refuses_open_span(self):
        machine = Machine()
        thread = machine.spawn("req", lambda t: False)
        machine.run()
        thread.span = Span("get", open_us=0.0)  # request mid-flight
        with pytest.raises(snapshot.SnapshotError, match="open span"):
            snapshot.capture(machine)

    def test_quiescent_machine_captures(self):
        # Step fn must be module-level: lambdas don't pickle, and the
        # harness capture point never has threads anyway.
        machine = Machine()
        machine.spawn("req", _one_step)
        machine.run()
        image = snapshot.capture(machine)
        assert image.nbytes > 0
        restored, = snapshot.restore(image)
        assert restored.engine.now_us == machine.engine.now_us

