"""Reclaim driver tests: batching, validation, fallback, removal paths."""

import pytest
from hypothesis import given

from repro.cache_ext import load_policy
from repro.cache_ext.ops import CacheExtOps, EvictionCtx
from repro.ebpf.runtime import bpf_program
from repro.kernel import Machine
from repro.kernel.errors import EBUSY, ENOMEM
from repro.kernel.folio import Folio
from repro.kernel.page_cache import EVICTION_BATCH, PageCache
from tests.reference.page_cache import reference_evict_folio
from tests.strategies import STANDARD_SETTINGS, eviction_cases
from tests.strategies.eviction import observe


def make_machine(limit=64, kernel="default"):
    machine = Machine(kernel_policy=kernel)
    cg = machine.new_cgroup("t", limit_pages=limit)
    f = machine.fs.create("data")
    for i in range(1024):
        f.store[i] = i
    f.npages = 1024
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


class TestBasicCaching:
    def test_hit_miss_accounting(self):
        machine, cg, f = make_machine()
        read_n(machine, f, cg, [0, 0, 1, 0])
        assert cg.stats.misses == 2
        assert cg.stats.hits == 2
        assert cg.stats.lookups == 4
        assert cg.stats.hit_ratio == pytest.approx(0.5)

    def test_limit_enforced(self):
        machine, cg, f = make_machine(limit=64)
        read_n(machine, f, cg, range(300))
        assert cg.charged_pages <= 64

    def test_reclaim_has_batch_slack(self):
        machine, cg, f = make_machine(limit=64)
        read_n(machine, f, cg, range(100))
        # Watermark hysteresis: after reclaim we sit a batch below max.
        assert cg.charged_pages <= 64
        assert cg.charged_pages >= 64 - EVICTION_BATCH - 1

    def test_eviction_batch_is_32(self):
        assert EVICTION_BATCH == 32

    def test_eviction_batch_is_set_per_machine(self):
        ablated, cg, f = make_machine(limit=512)
        ablated.page_cache.eviction_batch = 1
        read_n(ablated, f, cg, range(600))
        # One folio per pass: no slack below the limit ...
        assert cg.charged_pages == 512
        # ... and a machine built in the same process still reads 32.
        other, cg, f = make_machine(limit=512)
        assert other.page_cache.eviction_batch == EVICTION_BATCH
        read_n(other, f, cg, range(600))
        assert cg.charged_pages < 512

    def test_evictions_leave_shadows(self):
        machine, cg, f = make_machine(limit=64)
        read_n(machine, f, cg, range(100))
        assert f.mapping.nr_shadows == cg.stats.evictions

    def test_refault_detected(self):
        machine, cg, f = make_machine(limit=64)
        read_n(machine, f, cg, list(range(100)) + [0])
        assert cg.stats.refaults >= 1

    def test_unlimited_root_never_reclaims(self):
        machine = Machine()
        f = machine.fs.create("big")
        for i in range(500):
            f.store[i] = i
        f.npages = 500
        read_n(machine, f, machine.root_cgroup, range(500))
        assert machine.root_cgroup.stats.evictions == 0


class TestDirtyWriteback:
    def test_dirty_eviction_writes_back(self):
        machine, cg, f = make_machine(limit=32)

        def step(thread, state={"i": 0}):
            if state["i"] >= 100:
                return False
            machine.fs.write_page(f, 2000 + state["i"], "x")
            state["i"] += 1
            return True

        machine.spawn("writer", step, cgroup=cg)
        machine.run()
        assert cg.stats.writebacks > 0
        assert machine.disk.stats.write_pages >= cg.stats.writebacks

    def test_eviction_clears_dirty(self):
        machine, cg, f = make_machine(limit=100)

        def step(thread):
            machine.fs.write_page(f, 0, "x")
            return False

        machine.spawn("w", step, cgroup=cg)
        machine.run()
        folio = f.mapping.lookup(0)
        assert folio.dirty
        assert machine.page_cache.evict_folio(folio, cg)
        assert not folio.dirty


class TestEvictFolioGuards:
    def test_pinned_folio_raises_ebusy(self):
        machine, cg, f = make_machine()
        machine.fs.read_page(f, 0)  # root context outside engine? via cg
        folio = f.mapping.lookup(0)
        folio.memcg.charge(0)
        folio.pin()
        with pytest.raises(EBUSY):
            machine.page_cache.evict_folio(folio, folio.memcg)
        # The refused eviction must leave the folio untouched: still
        # resident, still charged, no eviction counted.
        assert f.mapping.lookup(0) is folio
        assert folio.memcg.stats.evictions == 0
        folio.unpin()
        assert machine.page_cache.evict_folio(folio, folio.memcg)

    def test_foreign_cgroup_refused(self):
        machine, cg, f = make_machine()
        other = machine.new_cgroup("other", limit_pages=10)
        machine.fs.read_page(f, 0)
        folio = f.mapping.lookup(0)
        assert not machine.page_cache.evict_folio(folio, other)

    def test_evicted_folio_refused_again(self):
        machine, cg, f = make_machine()
        machine.fs.read_page(f, 0)
        folio = f.mapping.lookup(0)
        assert machine.page_cache.evict_folio(folio, folio.memcg)
        assert not machine.page_cache.evict_folio(folio, folio.memcg)


class TestEvictFolioIsABatchOfOne:
    """``evict_folio`` runs the batch body on one folio; it must stay
    indistinguishable from the spelled-out single eviction."""

    @STANDARD_SETTINGS
    @given(eviction_cases())
    def test_matches_reference(self, case):
        assert observe(case, PageCache.evict_folio) \
            == observe(case, reference_evict_folio)


class TestExtValidationAndFallback:
    def _attach_malicious(self, machine, cg):
        """A policy proposing stale candidates.

        The verifier would reject a program holding raw object
        references (see test_ebpf_verifier), so this models a
        hypothetically-compromised policy by attaching the framework
        object directly — exactly the attack surface the valid-folio
        registry exists to neutralize.
        """
        from repro.cache_ext.framework import CacheExtPolicy
        stash = {}

        @bpf_program
        def evil_evict(ctx, memcg):
            folio = stash.get("stale")
            if folio is not None:
                ctx.add_candidate(folio)
                ctx.add_candidate(folio)  # duplicate
            return 0

        ops = CacheExtOps(name="evil", evict_folios=evil_evict)
        policy = CacheExtPolicy(machine, cg, ops)
        cg.ext_policy = policy
        return stash

    def test_stale_reference_rejected_and_fallback_used(self):
        machine, cg, f = make_machine(limit=32)
        stash = self._attach_malicious(machine, cg)
        read_n(machine, f, cg, range(5))
        # Grab a folio reference, then let it be evicted by pressure.
        stash["stale"] = f.mapping.lookup(0)
        read_n(machine, f, cg, range(5, 200))
        assert cg.charged_pages <= 32
        # The stale reference was eventually rejected by the registry
        # and the kernel fallback did the real work.
        assert cg.stats.fallback_evictions > 0
        assert cg.stats.ext_invalid_candidates > 0

    def test_underdelivering_policy_falls_back(self):
        machine, cg, f = make_machine(limit=32)

        @bpf_program
        def lazy_evict(ctx, memcg):
            return 0  # proposes nothing

        load_policy(machine, cg, CacheExtOps(name="lazy",
                                             evict_folios=lazy_evict))
        read_n(machine, f, cg, range(100))
        assert cg.charged_pages <= 32
        assert cg.stats.fallback_evictions > 0

    def test_non_folio_candidate_rejected(self):
        machine, cg, f = make_machine(limit=32)

        @bpf_program
        def junk_evict(ctx, memcg):
            ctx.add_candidate(12345)
            return 0

        load_policy(machine, cg, CacheExtOps(name="junk",
                                             evict_folios=junk_evict))
        read_n(machine, f, cg, range(100))
        assert cg.charged_pages <= 32
        assert cg.stats.ext_invalid_candidates > 0


class TestEnomem:
    def test_unreclaimable_cgroup_raises(self):
        machine, cg, f = make_machine(limit=8)
        cache = machine.page_cache

        def step(thread):
            for i in range(8):
                cache.add_folio(f.mapping, i, cg)
            for folio in f.mapping.folios():
                folio.pin()  # everything resident becomes unevictable
            cg.charge(1)  # an unaccounted allocation pushes over limit
            return False

        machine.spawn("pinner", step, cgroup=cg)
        machine.run()
        with pytest.raises(ENOMEM):
            cache.reclaim_cgroup(cg)

    def test_no_progress_insertion_raises(self):
        """The ENOMEM no-progress path reached the way applications
        reach it: a fault-in triggers direct reclaim, but pinned folios
        plus an unreclaimable kernel charge mean 16 stalled passes give
        up with the cgroup still over its limit, and the error
        propagates out of ``read_page``."""
        machine, cg, f = make_machine(limit=8)
        caught = {}

        def step(thread):
            for i in range(8):
                machine.fs.read_page(f, i)
            for folio in f.mapping.folios():
                folio.pin()
            cg.charge(5)  # unreclaimable kernel allocation
            try:
                machine.fs.read_page(f, 100)  # insert triggers reclaim
            except ENOMEM as exc:
                caught["exc"] = exc
            return False

        machine.spawn("pinner", step, cgroup=cg)
        machine.run()
        assert "exc" in caught
        assert cg.name in str(caught["exc"])
        # Reclaim made what little progress it could (the unpinned
        # insertion itself) before giving up; pinned folios untouched.
        assert cg.stats.evictions == 1
        assert cg.charged_pages == 13
        assert cg.over_limit
        assert all(folio.pinned for folio in f.mapping.folios())


class TestRemovalPaths:
    def test_truncate_leaves_no_shadows(self):
        machine, cg, f = make_machine(limit=64)
        read_n(machine, f, cg, range(10))
        machine.fs.delete("data")
        assert f.mapping.nr_folios == 0
        assert cg.charged_pages == 0
        assert f.mapping.nr_shadows == 0  # removal path, not eviction

    def test_eviction_ctx_caps_candidates(self):
        ctx = EvictionCtx(100)
        assert ctx.nr_candidates_requested == 32

    def test_eviction_ctx_add_until_full(self):
        machine, cg, f = make_machine()
        read_n(machine, f, cg, range(3))
        ctx = EvictionCtx(2)
        folios = list(f.mapping.folios())
        assert ctx.add_candidate(folios[0])
        assert ctx.add_candidate(folios[1])
        assert ctx.full
        assert not ctx.add_candidate(folios[2])
        assert ctx.nr_candidates_proposed == 2

    def test_eviction_ctx_rejects_zero_request(self):
        with pytest.raises(ValueError):
            EvictionCtx(0)
