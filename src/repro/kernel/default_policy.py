"""Linux's default page-cache eviction policy (v6.6.8 behaviour).

The policy described in §2.1 and Figure 1 of the paper:

* two FIFO lists per cgroup, *active* and *inactive*;
* a newly faulted folio enters the **tail** of the inactive list;
* a folio accessed again while inactive gets its referenced bit set and
  is promoted to the active list on the next access (the kernel's
  ``folio_mark_accessed`` two-touch rule);
* eviction removes folios from the **head** of the inactive list;
* balancing demotes folios from the head of the active list to the tail
  of the inactive list — notably, referenced active folios are demoted
  rather than given a second chance, exactly as the paper points out;
* refaulting folios whose refault distance is small are inserted
  directly into the active list (workingset activation).

The kernel maintains these lists for *every* folio even when a
cache_ext policy is attached; they are the fallback eviction path
(§4.4, "Eviction fallback").
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from typing import Optional

from repro.kernel.cgroup import MemCgroup
from repro.kernel.folio import Folio
from repro.kernel.list import IntrusiveList, ListNode


class KernelPolicy(SnapshotFriendly):
    """Interface the reclaim driver uses to talk to a kernel policy.

    Concrete implementations: :class:`DefaultLruPolicy` (two-list LRU)
    and :class:`~repro.kernel.mglru.MgLruPolicy`.
    """

    name = "kernel-policy"

    def folio_inserted(self, folio: Folio, refault_activate: bool) -> None:
        raise NotImplementedError

    def folio_accessed(self, folio: Folio) -> None:
        raise NotImplementedError

    def folio_removed(self, folio: Folio) -> None:
        raise NotImplementedError

    def evict_candidates(self, nr: int) -> list[Folio]:
        """Propose up to ``nr`` eviction candidates, best-first."""
        raise NotImplementedError

    def nr_tracked(self) -> int:
        raise NotImplementedError

    def eviction_tier(self, folio: Folio) -> int:
        """Access tier recorded into shadow entries (MGLRU refinement)."""
        return 0


class DefaultLruPolicy(KernelPolicy):
    """The active/inactive two-list LRU approximation."""

    name = "default"

    #: Target share of the cgroup's folios kept on the active list; the
    #: kernel aims for roughly half of reclaimable memory active, and
    #: shrinks the active list when it exceeds the inactive list.
    ACTIVE_RATIO = 0.5

    def __init__(self, memcg: MemCgroup) -> None:
        self.memcg = memcg
        self.active = IntrusiveList("active")
        self.inactive = IntrusiveList("inactive")

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def folio_inserted(self, folio: Folio, refault_activate: bool) -> None:
        node = ListNode(folio)
        folio.lru_node = node
        if refault_activate:
            folio.active = True
            folio.workingset = True
            self.active.add_tail(node)
        else:
            folio.active = False
            self.inactive.add_tail(node)

    def folio_accessed(self, folio: Folio) -> None:
        node = folio.lru_node
        if node is None or node.owner is None:  # not node.linked
            return
        if folio.active:
            # Active folios just get their referenced bit set; position
            # is only adjusted during shrinking.
            folio.referenced = True
            return
        if folio.referenced:
            # Second access while inactive: promote (mark_accessed).
            folio.referenced = False
            folio.active = True
            self.active.move_to_tail(node)
        else:
            folio.referenced = True

    def folio_removed(self, folio: Folio) -> None:
        node = folio.lru_node
        if node is not None and node.linked:
            node.owner.remove(node)
        folio.lru_node = None

    # ------------------------------------------------------------------
    # reclaim
    # ------------------------------------------------------------------
    def _balance(self) -> None:
        """Demote from the active head until the ratio target holds.

        Mirrors ``shrink_active_list``: demoted folios go to the
        inactive tail, and — per the paper's observation — referenced
        active folios are demoted anyway rather than rotated.
        """
        total = len(self.active) + len(self.inactive)
        if total == 0:
            return
        target_active = int(total * self.ACTIVE_RATIO)
        while len(self.active) > target_active:
            node = self.active.pop_head()
            if node is None:
                break
            folio: Folio = node.item
            folio.active = False
            folio.referenced = False
            self.inactive.add_tail(node)

    def evict_candidates(self, nr: int) -> list[Folio]:
        """Take candidates from the inactive head, balancing first.

        A referenced inactive folio at the head gets one rotation to the
        inactive tail (the kernel's reclaim second chance for recently
        referenced pages) before becoming eligible.
        """
        self._balance()
        out: list[Folio] = []
        rotations = 0
        max_rotations = len(self.inactive)
        while len(out) < nr and not self.inactive.empty:
            node = self.inactive.head()
            folio: Folio = node.item
            if folio.referenced and rotations < max_rotations:
                folio.referenced = False
                self.inactive.move_to_tail(node)
                rotations += 1
                continue
            # Rotate the candidate to the tail so the scan moves on; if
            # the reclaim driver fails to evict it (pinned), it simply
            # stays there with another full trip ahead of it.
            self.inactive.move_to_tail(node)
            out.append(folio)
        return out

    def nr_tracked(self) -> int:
        return len(self.active) + len(self.inactive)
