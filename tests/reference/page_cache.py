"""A single eviction in its plain, spelled-out form.

``PageCache.evict_folio`` is ``_evict_batch`` of one behind its own
guards; :func:`reference_evict_folio` is the per-folio body it
replaced — writeback, shadow entry, unmap, both policies' removal
hooks, uncharge, the eviction's CPU charge — resolving every stats
object, tracepoint and cost at the point of use.
"""

from repro.kernel.errors import EBUSY, EIO, ETIMEDOUT
from repro.kernel.shadow import make_shadow
from repro.sim.engine import current_thread, trace_stamp


def reference_evict_folio(cache, folio, memcg) -> bool:
    if folio.mapping is None or folio.memcg is not memcg:
        return False
    if folio.pinned:
        raise EBUSY(
            f"folio {folio.mapping.file_id}:{folio.index} is pinned "
            f"(pin_count={folio.pin_count})")
    thread = current_thread()
    span = thread.span if thread is not None else None
    if span is not None:
        sect = span.begin_section("reclaim_stall", thread.clock_us)
    try:
        if folio.dirty:
            try:
                cache.machine.disk.write(thread, 1)
            except (EIO, ETIMEDOUT):
                # Writeback failed: leave the folio dirty+resident.
                memcg.stats.writeback_errors += 1
                return False
            folio.dirty = False
            memcg.stats.writebacks += 1
            tp = cache._tp_writeback
            if tp.enabled:
                ts, tid = trace_stamp(cache.machine.engine)
                tp.emit(ts, memcg.name, tid,
                        file=folio.mapping.file_id,
                        index=folio.index)
        shadow = make_shadow(
            memcg,
            workingset=folio.active or folio.workingset,
            tier=memcg.kernel_policy.eviction_tier(folio))
        folio.mapping.store_shadow(folio.index, shadow)
        file_id = folio.mapping.file_id
        index = folio.index
        active = folio.active
        folio.mapping.remove(folio)
        memcg.kernel_policy.folio_removed(folio)
        if memcg.ext_policy is not None:
            memcg.ext_policy.folio_removed(folio)
        memcg.uncharge()
        memcg.eviction_clock += 1
        memcg.stats.evictions += 1
        tp = cache._tp_evict
        if tp.enabled:
            ts, tid = trace_stamp(cache.machine.engine)
            tp.emit(ts, memcg.name, tid, file=file_id, index=index,
                    active=1 if active else 0,
                    charged=memcg.charged_pages)
        if thread is not None:
            thread.advance(cache.machine.costs.evict_us)
        return True
    finally:
        if span is not None:
            span.end_section(thread.clock_us, sect)
