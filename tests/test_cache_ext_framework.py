"""Loader and framework tests: attach/detach, hooks, admission."""

import collections

import pytest

from repro.cache_ext import load_policy, unload_policy
from repro.cache_ext.framework import CacheExtPolicy
from repro.cache_ext.kfuncs import list_add, list_move
from repro.cache_ext.ops import CacheExtOps
from repro.ebpf.errors import ProgramError, VerificationError
from repro.ebpf.maps import ArrayMap
from repro.ebpf.runtime import bpf_program
from repro.kernel import Machine
from repro.obs.trace import TraceSession


def make_env(limit=64):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=limit)
    f = machine.fs.create("data")
    for i in range(256):
        f.store[i] = i
    f.npages = 256
    f.ra_enabled = False
    return machine, cg, f


def read_n(machine, f, cg, indices):
    def step(thread, it=iter(indices)):
        idx = next(it, None)
        if idx is None:
            return False
        machine.fs.read_page(f, idx)
        return True
    machine.spawn("reader", step, cgroup=cg)
    machine.run()


def counting_ops(name="counting"):
    counts = ArrayMap(4, name="counts")

    @bpf_program
    def on_added(folio):
        counts.atomic_add(0, 1)

    @bpf_program
    def on_accessed(folio):
        counts.atomic_add(1, 1)

    @bpf_program
    def on_removed(folio):
        counts.atomic_add(2, 1)

    return CacheExtOps(name=name, folio_added=on_added,
                       folio_accessed=on_accessed,
                       folio_removed=on_removed,
                       user_maps={"counts": counts})


class TestLoader:
    def test_load_and_hooks_fire(self):
        machine, cg, f = make_env()
        ops = counting_ops()
        load_policy(machine, cg, ops)
        read_n(machine, f, cg, [0, 1, 0, 1, 2])
        counts = ops.user_maps["counts"]
        assert counts.lookup(0) == 3  # added: pages 0,1,2
        assert counts.lookup(1) == 2  # accessed: two hits

    def test_removal_hook_fires_on_eviction(self):
        machine, cg, f = make_env(limit=16)
        ops = counting_ops()
        load_policy(machine, cg, ops)
        read_n(machine, f, cg, range(64))
        assert ops.user_maps["counts"].lookup(2) == cg.stats.evictions

    def test_removal_hook_fires_on_truncate(self):
        machine, cg, f = make_env()
        ops = counting_ops()
        load_policy(machine, cg, ops)
        read_n(machine, f, cg, range(4))
        machine.fs.delete("data")
        assert ops.user_maps["counts"].lookup(2) == 4

    def test_double_load_rejected(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, counting_ops("a"))
        with pytest.raises(VerificationError):
            load_policy(machine, cg, counting_ops("b"))

    def test_unverifiable_program_rejected(self):
        machine, cg, f = make_env()

        @bpf_program
        def bad(folio):
            return 0.5

        with pytest.raises(VerificationError):
            load_policy(machine, cg, CacheExtOps(name="bad",
                                                 folio_added=bad))
        assert cg.ext_policy is None  # nothing half-attached

    def test_policy_init_failure_aborts_load(self):
        machine, cg, f = make_env()

        @bpf_program
        def failing_init(memcg):
            return -1

        with pytest.raises(ProgramError):
            load_policy(machine, cg, CacheExtOps(
                name="failing", policy_init=failing_init))
        assert cg.ext_policy is None
        # struct_ops slot released: a retry can attach.
        load_policy(machine, cg, counting_ops())

    def test_resident_folios_replayed_on_attach(self):
        machine, cg, f = make_env()
        read_n(machine, f, cg, range(5))  # populate before attach
        ops = counting_ops()
        policy = load_policy(machine, cg, ops)
        assert ops.user_maps["counts"].lookup(0) == 5
        assert len(policy.registry) == 5

    def test_per_cgroup_independence(self):
        machine = Machine()
        cg_a = machine.new_cgroup("a", limit_pages=32)
        cg_b = machine.new_cgroup("b", limit_pages=32)
        ops_a = counting_ops("pa")
        load_policy(machine, cg_a, ops_a)
        fb = machine.fs.create("fb")
        fb.store[0] = 0
        fb.npages = 1
        read_n(machine, fb, cg_b, [0])
        # cgroup B's traffic never reaches cgroup A's policy.
        assert ops_a.user_maps["counts"].lookup(0) == 0


class TestUnload:
    def test_unload_restores_kernel_policy(self):
        machine, cg, f = make_env(limit=16)
        ops = counting_ops()
        policy = load_policy(machine, cg, ops)
        read_n(machine, f, cg, range(8))
        unload_policy(policy)
        assert cg.ext_policy is None
        read_n(machine, f, cg, range(8, 64))
        assert cg.charged_pages <= 16  # kernel policy took over

    def test_unload_clears_ext_nodes(self):
        machine, cg, f = make_env()
        from repro.cache_ext.kfuncs import list_add, list_create
        policy = load_policy(machine, cg, CacheExtOps(name="p"))
        lst = list_create(cg)
        read_n(machine, f, cg, range(3))
        for i in range(3):
            list_add(lst, f.mapping.lookup(i), True)
        unload_policy(policy)
        for i in range(3):
            assert f.mapping.lookup(i).ext_node is None

    def test_double_unload_rejected(self):
        machine, cg, f = make_env()
        policy = load_policy(machine, cg, counting_ops())
        unload_policy(policy)
        with pytest.raises(ProgramError):
            unload_policy(policy)

    def test_reload_after_unload(self):
        machine, cg, f = make_env()
        policy = load_policy(machine, cg, counting_ops("one"))
        unload_policy(policy)
        load_policy(machine, cg, counting_ops("two"))
        assert cg.ext_policy.name == "two"


class TestAdmission:
    def test_admission_filter_blocks_caching(self):
        machine, cg, f = make_env()
        blocked_tid = []

        tids = ArrayMap(1, name="tid")

        @bpf_program
        def admit(mapping_id, index, tid):
            if tid == tids.lookup(0):
                return 0
            return 1

        load_policy(machine, cg, CacheExtOps(name="adm", admit=admit))

        def blocked_step(thread):
            tids.update(0, thread.tid)
            machine.fs.read_page(f, 0)
            blocked_tid.append(thread.tid)
            return False

        machine.spawn("blocked", blocked_step, cgroup=cg)
        machine.run()
        assert f.mapping.lookup(0) is None  # never cached
        assert cg.stats.admission_rejects >= 1
        assert machine.disk.stats.read_pages >= 1  # data still served

        def allowed_step(thread):
            machine.fs.read_page(f, 1)
            return False

        machine.spawn("allowed", allowed_step, cgroup=cg)
        machine.run()
        assert f.mapping.lookup(1) is not None

    def test_hook_cpu_accounted(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, counting_ops())
        read_n(machine, f, cg, range(10))
        assert cg.stats.hook_cpu_us > 0


class TestDispatchResolution:
    """What to call for each per-folio slot is decided at attach; the
    guard and tracepoint gates are still read on every dispatch."""

    def test_program_and_bare_callable_slots_both_dispatch(self):
        machine, cg, f = make_env()
        counts = ArrayMap(2, name="counts")

        @bpf_program
        def on_added(folio):
            counts.atomic_add(0, 1)

        def on_accessed(folio):  # no BpfProgram wrapper, no ``.fn``
            counts.atomic_add(1, 1)

        # The loader refuses a slot that is not a BpfProgram, so the
        # framework object is attached directly (as test_page_cache's
        # compromised-policy case does).
        policy = CacheExtPolicy(machine, cg, CacheExtOps(
            name="mixed", folio_added=on_added, folio_accessed=on_accessed))
        cg.ext_policy = policy
        policy.attached = True
        read_n(machine, f, cg, [0, 1, 0, 1, 2])
        assert (counts.lookup(0), counts.lookup(1)) == (3, 2)
        # Only the BpfProgram has an invocation counter to bump.
        assert on_added.invocations == 3
        assert policy.hook_dispatches() == 3

    def test_empty_slots_still_charge_the_hook(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, CacheExtOps(name="empty"))
        read_n(machine, f, cg, [0, 1, 0, 1, 2])  # 3 adds + 2 hits
        want = pytest.approx(5 * machine.costs.bpf_hook_us)
        assert cg.stats.hook_cpu_us == want
        assert machine.metrics().stats["hook_cpu_us"] == want

    def test_budget_armed_after_attach_applies_to_next_dispatch(self):
        machine, cg, f = make_env()
        ops = counting_ops()
        load_policy(machine, cg, ops)
        read_n(machine, f, cg, [0, 0, 0])       # guard-free dispatches
        assert cg.ext_policy is not None
        # Below one hook's own charge: any dispatch now overruns.
        machine.set_hook_budget(machine.costs.bpf_hook_us / 2)
        read_n(machine, f, cg, [0, 0, 0])
        assert cg.ext_policy is None
        assert cg.stats.budget_overruns == 1
        # The overrunning dispatch still ran its program; none after.
        assert ops.user_maps["counts"].lookup(1) == 3

    def test_hook_entry_subscriber_mid_run_sees_next_dispatch(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, counting_ops())
        session = TraceSession(machine, "cache_ext:hook_entry")

        def step(thread):
            if thread.steps == 3:
                session.start()
            machine.fs.read_page(f, 0)
            return thread.steps < 5

        machine.spawn("reader", step, cgroup=cg)
        machine.run()
        session.stop()
        # Steps 0-2 dispatched untraced (one add, two hits).
        assert [e.data["slot"] for e in session.events] == \
            ["folio_accessed"] * 3


SLOTS = ("folio_added", "folio_accessed", "folio_removed")


class TestGatedEqualsTraced:
    """The generated hooks' inlined charge-and-dispatch and the one
    traced body are the same physics: identically built machines that
    differ only in what opens the per-event gate end in equal state."""

    VARIANTS = ("untraced", "traced", "budget")
    Env = collections.namedtuple(
        "Env", "machine cg f policy progs calls session")
    #: Adds, hits and enough distinct pages to evict from 16.
    READS = [*range(12), 0, 3, 5, 0, *range(12, 40), 39, 38, 20]

    def _build(self, slot, kind, variant):
        machine, cg, f = make_env(limit=16)
        calls, state = [], {}

        def body(which):
            def run(folio):
                calls.append((which, folio.index))
                if which == slot and kind == "raises" \
                        and sum(1 for c in calls if c[0] == slot) == 3:
                    raise RuntimeError("policy bug")
                if which == "folio_added":
                    list_add(state["list"], folio, True)
                elif which == "folio_accessed":
                    list_move(state["list"], folio, True)
            return run

        progs = {which: bpf_program(body(which)) for which in SLOTS}
        if kind == "bare":
            progs[slot] = body(slot)
        elif kind == "empty":
            progs[slot] = None
        if variant == "budget":
            machine.set_hook_budget(1e9)       # armed, never trips
        # Attached directly: the loader refuses a bare callable.
        policy = CacheExtPolicy(machine, cg,
                                CacheExtOps(name="probe", **progs))
        state["list"] = policy.create_list().id
        cg.ext_policy = policy
        policy.attached = True
        names = ["span:close"]
        if variant == "traced":
            names += ["cache_ext:hook_entry", "cache_ext:hook_exit"]
        return self.Env(machine, cg, f, policy, progs, calls,
                        TraceSession(machine, *names))

    def _drive(self, env, *phases):
        """Run each phase's callables, one per engine step, then report
        everything the gate must not move; registry and list membership
        are recorded after every phase."""
        machine, cg, f, policy = env[:4]
        snapshots = []

        def membership():
            snapshots.append((
                sorted(folio.index for folio in f.mapping.folios()
                       if policy.registry.contains(folio)),
                len(policy.registry),
                [folio.index for folio in policy.lists[0].items()]))

        steps = [op for phase in phases for op in (*phase, membership)]

        def step(thread, it=iter(steps)):
            op = next(it, None)
            if op is None:
                return False
            op()
            return True

        with env.session:
            thread = machine.spawn("driver", step, cgroup=cg)
            machine.run()
        return {
            "clock_us": thread.clock_us, "cpu_us": thread.cpu_us,
            "hook_cpu_us": (cg.stats.hook_cpu_us,
                            machine.metrics().stats["hook_cpu_us"]),
            "invocations": {which: getattr(prog, "invocations", None)
                            for which, prog in env.progs.items()},
            "calls": env.calls,
            "faults": (cg.stats.ext_policy_faults,
                       cg.stats.watchdog_detaches, policy.attached),
            "kfunc": [e.data.get("kfunc", 0.0) for e in env.session.events
                      if e.name == "span:close"],
            "snapshots": snapshots,
        }

    @pytest.mark.parametrize("kind",
                             ["program", "bare", "empty", "raises"])
    @pytest.mark.parametrize("slot", SLOTS)
    def test_every_gate_state_same_physics(self, slot, kind):
        seen = []
        for variant in self.VARIANTS:
            env = self._build(slot, kind, variant)
            machine, cg, f, policy = env[:4]
            reads = [lambda i=i: machine.fs.read_page(f, i)
                     for i in self.READS]
            seen.append(self._drive(
                env, reads, [lambda: machine.fs.delete("data")]))
            # The traced machine really took the traced body.
            hook_events = [e for e in env.session.events
                           if e.name.startswith("cache_ext:hook_")]
            assert bool(hook_events) == (variant == "traced")
        assert seen[0] == seen[1] == seen[2]
        assert seen[0]["hook_cpu_us"][0] > 0
        resident, registered, listed = seen[0]["snapshots"][0]
        if kind != "raises":
            assert len(resident) == registered == 16
            # Only folio_added's program links a folio on insertion.
            if (slot, kind) == ("folio_added", "empty"):
                assert set(listed) < set(resident)
            else:
                assert sorted(listed) == resident
        assert seen[0]["faults"][:2] == ((1, 1) if kind == "raises"
                                         else (0, 0))

    @pytest.mark.parametrize("kind", ["program", "raises"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_removal_is_the_loop(self, variant, kind):
        seen = []
        for batched in (True, False):
            env = self._build("folio_removed", kind, variant)
            machine, cg, f, policy = env[:4]

            def remove_all():
                batch = list(f.mapping.folios())
                if batched:
                    policy.folios_removed(batch)
                    return
                for folio in batch:
                    policy.folio_removed(folio)
                    if not policy.attached:
                        break

            reads = [lambda i=i: machine.fs.read_page(f, i)
                     for i in range(10)]
            seen.append(self._drive(env, reads, [remove_all]))
        assert seen[0] == seen[1]
        removed = [c for c in seen[0]["calls"] if c[0] == "folio_removed"]
        # The third program call raises: the watchdog detaches and the
        # rest of the batch is no longer dispatched.
        assert len(removed) == (3 if kind == "raises" else 10)
        assert seen[0]["faults"][2] == (kind != "raises")
