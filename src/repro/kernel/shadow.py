"""Workingset shadow entries and refault distance.

When the kernel evicts a file folio it leaves a *shadow entry* in the
mapping recording the cgroup's eviction clock at that moment.  When the
same offset is faulted back in, the *refault distance* — evictions that
happened in between — tells the kernel whether the page would have been
a hit had the cache been slightly larger.  A small distance activates
the refaulted folio directly into the active list (§2.1 of the paper)
and feeds MGLRU's PID controller (§5.3).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.kernel.cgroup import MemCgroup


class ShadowEntry(NamedTuple):
    """Metadata left behind by an evicted folio.

    Attributes
    ----------
    memcg_id:
        The cgroup the folio was charged to when evicted.
    eviction_clock:
        That cgroup's eviction counter at eviction time.
    workingset:
        Whether the folio was active/workingset when it left memory.
    tier:
        MGLRU access-frequency tier at eviction (0 for non-MGLRU
        policies); lets MGLRU attribute refaults to tiers.
    """

    memcg_id: int
    eviction_clock: int
    workingset: bool = False
    tier: int = 0


def make_shadow(memcg: MemCgroup, workingset: bool, tier: int = 0) -> ShadowEntry:
    """Build a shadow entry at the cgroup's current eviction clock."""
    return ShadowEntry(memcg_id=memcg.id,
                       eviction_clock=memcg.eviction_clock,
                       workingset=workingset,
                       tier=tier)


def refault_distance(entry: ShadowEntry, memcg: MemCgroup) -> int:
    """Evictions from ``memcg`` since ``entry`` was written.

    The clock only moves forward; a negative distance indicates a bug.
    """
    distance = memcg.eviction_clock - entry.eviction_clock
    if distance < 0:
        raise RuntimeError("refault distance went backwards")
    return distance


def refault_should_activate(entry: ShadowEntry, memcg: MemCgroup) -> bool:
    """Linux's workingset test, simplified to cgroup granularity.

    The kernel compares the refault distance against the size of the
    workingset (roughly the cgroup's resident file pages).  If the
    distance is smaller, the page was pushed out prematurely and is
    activated on refault.
    """
    if entry.memcg_id != memcg.id:
        # Refault observed from a different cgroup; be conservative.
        return False
    return refault_distance(entry, memcg) <= memcg.charged_pages
