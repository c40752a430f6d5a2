"""The page cache: folio lifecycle, reclaim driver, policy dispatch.

This module is the seam where everything meets.  It owns:

* the **insert path**: admission (including the cache_ext admission
  filter of §5.6), refault detection against shadow entries, cgroup
  charging, and policy notification;
* the **access path**: hit accounting and ``folio_mark_accessed``
  semantics;
* the **reclaim driver**: per-cgroup direct reclaim in 32-folio batches
  through the eviction-candidate interface (§4.2.3), candidate
  *validation* against the valid-folio registry and pin counts (§4.4),
  and the **eviction fallback** to the kernel policy when a custom
  policy underdelivers;
* the **removal paths** — the paper's distinction between a "request
  for eviction" (:meth:`PageCache._evict_batch`, per folio) and a
  "folio removal" that bypasses it
  (:meth:`PageCache.remove_folios_no_shadow`, grouped per cgroup).
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from typing import TYPE_CHECKING, Optional

from repro.kernel.address_space import AddressSpace
from repro.kernel.cgroup import MemCgroup
from repro.kernel.default_policy import DefaultLruPolicy, KernelPolicy
from repro.kernel.errors import EBUSY, EIO, ENOMEM, ETIMEDOUT
from repro.kernel.folio import Folio
from repro.kernel.mglru import MgLruPolicy
from repro.kernel.shadow import make_shadow, refault_should_activate
from repro.sim import engine as _engine
from repro.sim.engine import current_thread, trace_stamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.machine import Machine

#: Eviction candidates are proposed to the kernel in batches of up to 32
#: folios (struct eviction_ctx in Figure 3 of the paper).
EVICTION_BATCH = 32


class ExtPolicyBase:
    """Hook surface a cache_ext policy presents to the reclaim driver.

    The real framework lives in :mod:`repro.cache_ext.framework`; this
    base class only defines the contract (and the no-hook defaults) so
    the kernel layer has no import dependency on cache_ext.
    """

    name = "ext-policy"

    def admit(self, mapping: AddressSpace, index: int) -> bool:
        """Admission filter: False means serve the I/O uncached."""
        return True

    def readahead_hint(self, mapping: AddressSpace, index: int,
                       seq_streak: int) -> Optional[int]:
        """Custom readahead window for a miss (the FetchBPF-style
        extension hook); None keeps the kernel heuristic."""
        return None

    def folio_added(self, folio: Folio) -> None:
        raise NotImplementedError

    def folio_accessed(self, folio: Folio) -> None:
        raise NotImplementedError

    def folio_removed(self, folio: Folio) -> None:
        raise NotImplementedError

    def folios_removed(self, folios: list[Folio]) -> None:
        """Batched removal notification; semantically a loop over
        :meth:`folio_removed` (overridden by the framework to bind the
        dispatch machinery once per batch)."""
        for folio in folios:
            self.folio_removed(folio)

    def propose_candidates(self, nr: int) -> list[Folio]:
        """Run the policy's evict_folios program; returns raw proposals
        (the kernel validates them afterwards)."""
        raise NotImplementedError

    def holds_reference(self, folio: Folio) -> bool:
        """Registry membership test used during validation."""
        raise NotImplementedError


class PageCache(SnapshotFriendly):
    """The machine-wide page cache."""

    #: Candidates requested per eviction pass (§4.2.3).  A class
    #: attribute: an ablation sets it on one machine's cache, every
    #: other cache keeps reading the default from here.
    eviction_batch = EVICTION_BATCH

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        # Cached tracepoints (repro.obs): the hot-path pattern is one
        # attribute load + branch per event site when tracing is off.
        trace = machine.trace
        self._tp_lookup = trace.tracepoint("cache:lookup")
        self._tp_insert = trace.tracepoint("cache:insert")
        self._tp_evict = trace.tracepoint("cache:evict")
        self._tp_refault = trace.tracepoint("cache:refault")
        self._tp_activation = trace.tracepoint("cache:activation")
        self._tp_admission_reject = trace.tracepoint("cache:admission_reject")
        self._tp_writeback = trace.tracepoint("cache:writeback")
        self._tp_fallback = trace.tracepoint("cache_ext:fallback_eviction")
        #: Ablation switch for §4.4's safety/overhead trade-off: when
        #: False, candidate folios skip the registry lookup (pin and
        #: residency checks remain — the simulator must not crash).
        #: The paper anticipates removing the registry check once eBPF
        #: can track trusted pointers; this measures what that buys.
        self.validate_registry = True
        #: CPU cost of one registry validation (hash lookup under a
        #: bucket lock).
        self.registry_check_us = 0.05

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _current_cgroup(self) -> MemCgroup:
        thread = current_thread()
        if thread is not None and thread.cgroup is not None:
            return thread.cgroup
        return self.machine.root_cgroup

    @staticmethod
    def make_kernel_policy(kind: str, memcg: MemCgroup) -> KernelPolicy:
        """Instantiate the kernel-resident policy for a cgroup.

        ``kind`` selects between the default two-list LRU and MGLRU,
        mirroring the ``lru_gen`` boot/runtime switch.
        """
        if kind == "default":
            return DefaultLruPolicy(memcg)
        if kind == "mglru":
            return MgLruPolicy(memcg)
        raise ValueError(f"unknown kernel policy: {kind!r}")

    # ------------------------------------------------------------------
    # access path
    # ------------------------------------------------------------------
    def mark_accessed(self, folio: Folio, update_recency: bool = True) -> None:
        """``folio_mark_accessed``: record a hit on a resident folio.

        Hit statistics accrue to the *accessing* cgroup (a task in
        cgroup A hitting cgroup B's folio counts towards A's workload),
        while the recency update lands in the owning cgroup's lists —
        the cross-cgroup sharing semantics of §2.1.

        ``update_recency=False`` implements FADV_NOREUSE semantics: the
        data is read but the folio earns no promotion.
        """
        # The calling thread is resolved once per hit, and read
        # straight from the engine module: this path runs once per
        # operation and the current_thread() frame is measurable.
        thread = _engine._current
        if thread is not None and thread.cgroup is not None:
            accessor = thread.cgroup
        else:
            accessor = self.machine.root_cgroup
        # The stats object is bound once per call: the access path runs
        # once per operation and the attribute chains add up.
        astats = accessor.stats
        astats.hits += 1
        astats.lookups += 1
        tp = self._tp_lookup
        if tp.enabled:
            ts, tid = trace_stamp(self.machine.engine)
            tp.emit(ts, accessor.name, tid, hit=1,
                    file=folio.mapping.file_id, index=folio.index)
        if thread is not None:
            # Inlined thread.advance; the hit cost is configured, >= 0.
            us = self.machine.costs.cache_hit_us
            thread.clock_us += us
            thread.cpu_us += us
            span = thread.span
            if span is not None:
                span.add("cache_hit", us)
        if not update_recency:
            return
        owner = folio.memcg
        owner.kernel_policy.folio_accessed(folio)
        ext = owner.ext_policy
        if ext is not None:
            ext.folio_accessed(folio)

    # ------------------------------------------------------------------
    # insert path
    # ------------------------------------------------------------------
    def add_folio(self, mapping: AddressSpace, index: int,
                  memcg: Optional[MemCgroup] = None) -> Optional[Folio]:
        """Insert a freshly read page into the cache.

        Returns the new folio, or ``None`` if the cgroup's admission
        filter rejected it (the caller then treats the read as direct
        I/O: the device transfer has already happened, nothing is
        cached).

        Runs refault detection, charges the cgroup, notifies both the
        kernel policy and any attached cache_ext policy, and triggers
        direct reclaim if the charge pushed the cgroup over its limit.
        """
        # The calling thread is resolved once for the whole insert:
        # cgroup attribution, every trace point and the CPU charge all
        # need it, and each current_thread() lookup costs a module-
        # global load plus None checks.
        thread = current_thread()
        if memcg is None:
            if thread is not None and thread.cgroup is not None:
                memcg = thread.cgroup  # inlined _current_cgroup()
            else:
                memcg = self.machine.root_cgroup

        ext = memcg.ext_policy
        if ext is not None and not ext.admit(mapping, index):
            memcg.stats.admission_rejects += 1
            tp = self._tp_admission_reject
            if tp.enabled:
                ts, tid = trace_stamp(self.machine.engine)
                tp.emit(ts, memcg.name, tid, file=mapping.file_id,
                        index=index)
            return None

        folio = Folio(mapping, index, memcg)
        folio.uptodate = True
        folio.inserted_at = self.machine.engine.now_us

        mstats = memcg.stats
        refault_activate = False
        shadow = mapping.take_shadow(index)
        if shadow is not None and shadow.memcg_id == memcg.id:
            mstats.refaults += 1
            tp = self._tp_refault
            if tp.enabled:
                ts, tid = trace_stamp(self.machine.engine)
                tp.emit(ts, memcg.name, tid, file=mapping.file_id,
                        index=index)
            kernel_policy = memcg.kernel_policy
            if isinstance(kernel_policy, MgLruPolicy):
                kernel_policy.record_refault(shadow.tier)
            refault_activate = refault_should_activate(shadow, memcg)
            if refault_activate:
                mstats.activations += 1
                tp = self._tp_activation
                if tp.enabled:
                    ts, tid = trace_stamp(self.machine.engine)
                    tp.emit(ts, memcg.name, tid, file=mapping.file_id,
                            index=index)

        # Inlined mapping.insert(folio): the duplicate guard is kept;
        # the shadow pop it would repeat is a no-op here because
        # take_shadow() above already consumed the slot.
        folios = mapping._folios
        if index in folios:
            raise RuntimeError(
                f"mapping {mapping.file_id}: duplicate insert at {index}")
        folios[index] = folio
        memcg.charged_pages += 1  # inlined memcg.charge()
        memcg.kernel_policy.folio_inserted(folio, refault_activate)
        # Re-read ext_policy: admit() may have watchdog-detached it.
        ext = memcg.ext_policy
        if ext is not None:
            ext.folio_added(folio)
        mstats.insertions += 1
        tp = self._tp_insert
        if tp.enabled:
            ts, tid = trace_stamp(self.machine.engine)
            tp.emit(ts, memcg.name, tid, file=mapping.file_id, index=index,
                    charged=memcg.charged_pages)
        if thread is not None:
            # Inlined thread.advance; the miss cost is configured, >= 0.
            us = self.machine.costs.cache_miss_us
            thread.clock_us += us
            thread.cpu_us += us

        limit = memcg.limit_pages
        if limit is not None and memcg.charged_pages > limit:
            # (Inlined memcg.over_limit.)  Direct reclaim with slack:
            # reclaim a little beyond the excess (SWAP_CLUSTER_MAX-
            # style, but proportional so tiny cgroups aren't flushed
            # wholesale) so steady-state insertions don't pay a reclaim
            # pass each — kernel watermark hysteresis.
            slack = min(self.eviction_batch,
                        max(1, (memcg.limit_pages or 4096) // 32))
            self.reclaim_cgroup(
                memcg, nr_pages=max(memcg.excess_pages(), slack))
        return folio

    # ------------------------------------------------------------------
    # reclaim
    # ------------------------------------------------------------------
    def reclaim_cgroup(self, memcg: MemCgroup,
                       nr_pages: Optional[int] = None) -> int:
        """Direct reclaim: evict until the cgroup is under its limit.

        Raises :class:`ENOMEM` if repeated passes make no progress (the
        cgroup OOM case).  Returns the number of folios evicted.
        """
        if nr_pages is None:
            target = memcg.excess_pages()
        else:
            target = min(nr_pages, memcg.charged_pages)
        # Attribution: everything inside direct reclaim — candidate
        # proposal, validation, eviction CPU, writeback I/O — is a
        # stall on the access path; only explicit kfunc charges stay
        # attributed as policy time (repro.obs.spans section deltas).
        thread = current_thread()
        span = thread.span if thread is not None else None
        if span is not None:
            sect = span.begin_section("reclaim_stall", thread.clock_us)
        try:
            total_evicted = 0
            stalled_passes = 0
            while total_evicted < target or memcg.over_limit:
                remaining = max(target - total_evicted,
                                memcg.excess_pages())
                batch = min(self.eviction_batch, remaining)
                if batch <= 0:
                    break
                evicted = self._shrink_batch(memcg, batch)
                total_evicted += evicted
                if evicted == 0:
                    stalled_passes += 1
                    # The kernel retries reclaim many times before
                    # OOMing; policies like MGLRU legitimately need
                    # several passes when a scan keeps promoting
                    # protected folios.
                    if stalled_passes >= 16:
                        if memcg.over_limit:
                            raise ENOMEM(
                                f"cgroup {memcg.name}: cannot reclaim "
                                f"{remaining} pages "
                                f"({memcg.charged_pages}/"
                                f"{memcg.limit_pages})")
                        break  # slack portion is best-effort
                else:
                    stalled_passes = 0
            return total_evicted
        finally:
            if span is not None:
                span.end_section(thread.clock_us, sect)

    def _shrink_batch(self, memcg: MemCgroup, nr: int) -> int:
        """One batched pass of the eviction-candidate interface."""
        candidates: list[Folio] = []
        seen: set[int] = set()

        ext = memcg.ext_policy
        if ext is None:
            # Lazy quarantine exit: a watchdog-detached policy whose
            # backoff has elapsed re-attaches on the cgroup's next
            # reclaim pass (None when no quarantine is configured —
            # one attribute load and branch on the batch path).
            quarantine = self.machine.quarantine
            if quarantine is not None:
                ext = quarantine.maybe_reattach(memcg)
        if ext is not None:
            proposals = ext.propose_candidates(nr)
            mstats = memcg.stats
            mstats.ext_candidates += len(proposals)
            # The kernel-side safety checks of §4.4, with the thread,
            # registry switch and per-check CPU cost bound once per
            # batch instead of once per proposed folio.  A candidate
            # is acceptable only if the registry still holds the
            # reference (i.e., the pointer is a live folio of this
            # policy's cgroup), the folio is resident, charged to this
            # cgroup, and not pinned by the kernel; the registry CPU
            # charge lands before the lookup, as before.
            thread = current_thread()
            validate = self.validate_registry
            check_us = self.registry_check_us
            holds_reference = ext.holds_reference
            for folio in proposals:
                ok = isinstance(folio, Folio)
                if ok and validate:
                    if thread is not None:
                        # Inlined thread.advance; check_us >= 0.
                        thread.clock_us += check_us
                        thread.cpu_us += check_us
                    ok = holds_reference(folio)
                if not (ok and folio.mapping is not None
                        and folio.memcg is memcg
                        and folio.pin_count == 0):
                    mstats.ext_invalid_candidates += 1
                    continue
                if folio.id in seen:
                    continue
                seen.add(folio.id)
                candidates.append(folio)

        shortfall = nr - len(candidates)
        fallback_from = len(candidates)
        if shortfall > 0:
            # Eviction fallback (§4.4): the kernel's own lists fill the
            # gap left by an absent, lazy, or adversarial policy.
            for folio in memcg.kernel_policy.evict_candidates(shortfall):
                if folio.id in seen:
                    continue
                seen.add(folio.id)
                candidates.append(folio)

        return self._evict_batch(memcg, ext, candidates, fallback_from)

    def _evict_batch(self, memcg: MemCgroup, ext, candidates: list[Folio],
                     fallback_from: int) -> int:
        """Complete eviction for a validated candidate batch — the one
        body of the paper's "request for eviction".

        Writeback, shadow entry, unmap, both policies' notification,
        uncharge and the CPU charge happen folio by folio, in that
        order, so disk queueing and virtual time are those of a
        per-folio loop; the cgroup's stats, tracepoints, the disk, the
        kernel policy and the CPU-cost constants are bound once per
        batch.  :meth:`evict_folio` is a batch of one.
        """
        disk_write = self.machine.disk.write
        thread = current_thread()
        mstats = memcg.stats
        kernel_policy = memcg.kernel_policy
        eviction_tier = kernel_policy.eviction_tier
        kp_removed = kernel_policy.folio_removed
        evict_us = self.machine.costs.evict_us
        tp_writeback = self._tp_writeback
        tp_evict = self._tp_evict
        tp_fallback = self._tp_fallback

        evicted = 0
        for pos, folio in enumerate(candidates):
            mapping = folio.mapping
            if mapping is None or folio.pin_count > 0 \
                    or folio.memcg is not memcg:
                continue
            if folio.dirty:
                try:
                    disk_write(thread, 1)
                except (EIO, ETIMEDOUT):
                    # Writeback failed: the folio stays dirty and
                    # resident, reclaim moves on to the next candidate
                    # (the kernel's PG_error + redirty path).
                    mstats.writeback_errors += 1
                    continue
                folio.dirty = False
                mstats.writebacks += 1
                if tp_writeback.enabled:
                    ts, tid = trace_stamp(self.machine.engine)
                    tp_writeback.emit(ts, memcg.name, tid,
                                      file=mapping.file_id,
                                      index=folio.index)
            shadow = make_shadow(
                memcg,
                workingset=folio.active or folio.workingset,
                tier=eviction_tier(folio))
            mapping.store_shadow(folio.index, shadow)
            file_id = mapping.file_id
            index = folio.index
            active = folio.active
            # Inlined mapping.remove(): its non-resident guard is
            # provably redundant here — ``folio.mapping is mapping``
            # was checked above, and only insert/remove ever set it,
            # so ``mapping._folios[index] is folio`` holds.
            del mapping._folios[index]
            folio.mapping = None
            kp_removed(folio)
            # Re-read ext_policy per folio: a policy program fault may
            # watchdog-detach it mid-batch.
            live_ext = memcg.ext_policy
            if live_ext is not None:
                live_ext.folio_removed(folio)
            # Inlined memcg.uncharge(), underflow guard preserved.
            if memcg.charged_pages < 1:
                raise RuntimeError(
                    f"cgroup {memcg.name}: uncharge below zero "
                    f"({memcg.charged_pages} - 1)")
            memcg.charged_pages -= 1
            memcg.eviction_clock += 1
            mstats.evictions += 1
            if tp_evict.enabled:
                ts, tid = trace_stamp(self.machine.engine)
                tp_evict.emit(ts, memcg.name, tid, file=file_id,
                              index=index, active=1 if active else 0,
                              charged=memcg.charged_pages)
            if thread is not None:
                # Inlined thread.advance; evict_us is configured, >= 0.
                thread.clock_us += evict_us
                thread.cpu_us += evict_us
            evicted += 1
            if ext is not None and pos >= fallback_from:
                mstats.fallback_evictions += 1
                if tp_fallback.enabled:
                    ts, tid = trace_stamp(self.machine.engine)
                    tp_fallback.emit(ts, memcg.name, tid, policy=ext.name,
                                     file=file_id, index=index)
        return evicted

    # ------------------------------------------------------------------
    # removal path
    # ------------------------------------------------------------------
    def evict_folio(self, folio: Folio, memcg: MemCgroup) -> bool:
        """Complete one eviction; returns False if the folio cannot go.

        Dirty folios are written back first (counted disk I/O — this is
        how write-heavy workloads show up on Figure 7's x-axis).

        Raises :class:`EBUSY` for a pinned folio: the caller asked to
        evict a page the kernel is actively using (batch reclaim never
        does — candidates are validated against pin counts first).
        """
        if folio.mapping is None or folio.memcg is not memcg:
            return False
        if folio.pinned:
            raise EBUSY(
                f"folio {folio.mapping.file_id}:{folio.index} is pinned "
                f"(pin_count={folio.pin_count})")
        # Attribution: eviction work (writeback, shadow entry, list
        # surgery) is a reclaim stall.  Nested inside reclaim_cgroup's
        # section this is a harmless save/restore; standalone callers
        # (DONTNEED) get their eviction time labelled too.
        thread = current_thread()
        span = thread.span if thread is not None else None
        if span is not None:
            sect = span.begin_section("reclaim_stall", thread.clock_us)
        try:
            # ext=None: a direct eviction is never a fallback eviction.
            return self._evict_batch(memcg, None, (folio,), 1) == 1
        finally:
            if span is not None:
                span.end_section(thread.clock_us, sect)

    def remove_folios_no_shadow(self, folios) -> None:
        """Removal outside the eviction path (truncate, file delete, a
        read that failed after its folios were inserted).

        This is the paper's "folio removal" event that bypasses the
        eviction request: policies are told to clean up metadata, no
        shadow entry is left.  The whole batch goes through one
        ``folios_removed`` dispatch per cgroup policy instead of
        re-entering the policy layer per folio.  Safe to batch because
        this path does no I/O and leaves no shadow entries: regrouping
        the per-folio hook charges does not move any disk request in
        virtual time.
        """
        by_memcg: dict = {}
        for folio in [fo for fo in folios if fo.mapping is not None]:
            folio.mapping.remove(folio)
            group = by_memcg.get(folio.memcg)
            if group is None:
                by_memcg[folio.memcg] = [folio]
            else:
                group.append(folio)
        for memcg, group in by_memcg.items():
            kp_removed = memcg.kernel_policy.folio_removed
            for folio in group:
                kp_removed(folio)
            ext = memcg.ext_policy
            if ext is not None:
                ext.folios_removed(group)
            memcg.uncharge(len(group))
