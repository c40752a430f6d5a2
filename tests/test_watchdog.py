"""Watchdog tests: misbehaving policies are forcibly detached."""

from repro.cache_ext import load_policy
from repro.cache_ext.ops import CacheExtOps
from repro.ebpf.maps import ArrayMap
from repro.ebpf.runtime import bpf_program
from repro.kernel import Machine


def make_env(limit=32):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=limit)
    f = machine.fs.create("data")
    for i in range(256):
        f.store[i] = i
    f.npages = 256
    f.ra_enabled = False
    return machine, cg, f


def run_trace(machine, f, cg, indices):
    def step(thread, it=iter(list(indices))):
        idx = next(it, None)
        if idx is None:
            return False
        machine.fs.read_page(f, idx)
        return True
    machine.spawn("trace", step, cgroup=cg)
    machine.run()


def faulting_after(n):
    """A policy whose folio_added crashes on the nth invocation."""
    counter = ArrayMap(1, name="crash_counter")
    crash_at = n

    @bpf_program
    def crashy_added(folio):
        count = counter.atomic_add(0, 1)
        if count >= crash_at:
            # Runtime fault a verifier cannot see: bad map index.
            counter.lookup(999)
        return 0

    return CacheExtOps(name="crashy", folio_added=crashy_added)


class TestWatchdog:
    def test_faulting_policy_is_detached(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, faulting_after(5))
        run_trace(machine, f, cg, range(20))
        assert cg.ext_policy is None            # forcibly removed
        assert cg.stats.ext_policy_faults == 1  # one fault, one kill

    def test_workload_survives_the_fault(self):
        machine, cg, f = make_env(limit=16)
        load_policy(machine, cg, faulting_after(3))
        run_trace(machine, f, cg, range(200))
        # The kernel policy took over seamlessly: limit held, caching
        # continued, no exception reached the application.
        assert cg.charged_pages <= 16
        assert cg.stats.hits + cg.stats.misses >= 200

    def test_fault_on_a_hit_is_detached(self):
        counter = ArrayMap(1, name="hits")

        @bpf_program
        def crashy_accessed(folio):
            if counter.atomic_add(0, 1) >= 2:
                counter.lookup(999)
            return 0

        machine, cg, f = make_env()
        load_policy(machine, cg, CacheExtOps(
            name="crashy-hit", folio_accessed=crashy_accessed))
        run_trace(machine, f, cg, [0, 0, 0, 0, 0])
        assert cg.ext_policy is None
        assert cg.stats.ext_policy_faults == 1
        assert cg.stats.watchdog_detaches == 1
        assert crashy_accessed.invocations == 2   # none after the kill
        assert cg.stats.hits == 4                 # the reads went on

    def test_detached_policy_slot_is_reusable(self):
        machine, cg, f = make_env()
        load_policy(machine, cg, faulting_after(1))
        run_trace(machine, f, cg, range(5))
        assert cg.ext_policy is None
        # struct_ops slot was released: a fixed policy can attach.
        from repro.policies import make_fifo_policy
        load_policy(machine, cg, make_fifo_policy())
        assert cg.ext_policy.name == "fifo"

    def test_fault_in_evict_falls_back(self):
        machine, cg, f = make_env(limit=16)

        bad_map = ArrayMap(1, name="oob")

        @bpf_program
        def bad_evict(ctx, memcg):
            return bad_map.lookup(42)  # out-of-bounds: runtime fault

        load_policy(machine, cg, CacheExtOps(name="bad-evict",
                                             evict_folios=bad_evict))
        run_trace(machine, f, cg, range(100))
        assert cg.charged_pages <= 16
        assert cg.stats.ext_policy_faults >= 1
        assert cg.stats.fallback_evictions > 0

    def test_budget_detach_mid_eviction_leaves_cache_consistent(self):
        """A runtime-budget detach that fires *during* an
        ``evict_folios`` pass must leave the page cache invariant-
        clean: every ext list node torn down, charges matching
        residency, the limit enforced by the kernel fallback, and the
        workload never sees an exception."""
        machine, cg, f = make_env(limit=16)
        from repro.policies import make_fifo_policy
        load_policy(machine, cg, make_fifo_policy())
        # A dispatch costs 0.03us plus 0.02us per kfunc, so every
        # single-folio hook (folio_added, demand-paged evictions) stays
        # at 0.05us — under a 0.1us budget.  Shrinking the limit
        # mid-run forces one *large* evict_folios pass whose
        # list_iterate scans a dozen folios (~0.3us): the detach lands
        # inside that shrink pass, with reclaim still owing pages.
        machine.set_hook_budget(0.1)
        detaches = []
        machine.trace.tracepoint("cache_ext:watchdog_detach").subscribe(
            lambda e: detaches.append(e.data))
        overruns = []
        machine.trace.tracepoint("cache_ext:hook_exit").subscribe(
            lambda e: overruns.append(e.data["slot"])
            if e.data["cpu_us"] > 0.1 else None)

        def step(thread, it=iter(range(200))):
            idx = next(it, None)
            if idx is None:
                return False
            if idx == 100:
                cg.limit_pages = 4  # next insert owes a 12-page pass
            machine.fs.read_page(f, idx)
            return True
        machine.spawn("trace", step, cgroup=cg)
        machine.run()

        # Detached for the budget overrun, during eviction.
        assert cg.ext_policy is None
        assert cg.stats.budget_overruns == 1
        assert [d["reason"] for d in detaches] == ["budget"]
        # The one dispatch that blew the budget was the big shrink
        # pass, not any bookkeeping hook.
        assert overruns == ["evict_folios"]
        # Page-cache invariants: no orphaned ext nodes, charges agree
        # with residency, the (shrunk) limit held because the kernel
        # fallback finished the interrupted pass.
        resident = list(f.mapping.folios())
        assert all(folio.ext_node is None for folio in resident)
        assert cg.charged_pages == len(resident)
        assert cg.charged_pages <= 4
        # The default policy carried the remaining ~100 demand-paged
        # evictions after the detach; the workload never noticed.
        assert cg.stats.evictions >= 190
        assert cg.stats.hits + cg.stats.misses >= 200

    def test_ext_nodes_cleared_on_watchdog_kill(self):
        machine, cg, f = make_env()
        from repro.cache_ext.kfuncs import list_add, list_create
        counter = ArrayMap(1, name="c2")

        @bpf_program
        def init(memcg):
            bss.update(0, list_create(memcg))
            return 0

        bss = ArrayMap(1, name="bss2")

        @bpf_program
        def added(folio):
            list_add(bss.lookup(0), folio, True)
            if counter.atomic_add(0, 1) >= 4:
                counter.lookup(999)

        load_policy(machine, cg, CacheExtOps(
            name="listy", policy_init=init, folio_added=added))
        run_trace(machine, f, cg, range(10))
        assert cg.ext_policy is None
        for folio in f.mapping.folios():
            assert folio.ext_node is None
