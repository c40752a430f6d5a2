"""Native-kernel Multi-Generational LRU (MGLRU).

Reimplements, at decision level, the MGLRU policy merged into Linux and
described in §5.3 of the paper:

* folios are grouped into up to ``MAX_NR_GENS`` (4) *generations*, each
  an ordered list capturing similar access recency;
* within a generation, folios belong to one of ``MAX_NR_TIERS`` (4)
  *tiers* — logarithmic buckets of access frequency
  (``tier = min(ilog2(freq + 1), 3)``);
* eviction scans the oldest generation; folios whose tier is at or
  above a *tier threshold* are promoted to the youngest generation,
  the rest are evicted;
* the tier threshold comes from a PID-style controller fed by refault
  and eviction statistics per tier: tiers that refault heavily relative
  to how much they are evicted get protected;
* *aging* creates a new generation when the young generations run low.

The cache_ext port of this policy lives in
:mod:`repro.policies.mglru`; Table 5 of the paper (and
:mod:`repro.experiments.table5` here) compares the two.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from dataclasses import dataclass, field

from repro.kernel.cgroup import MemCgroup
from repro.kernel.default_policy import KernelPolicy
from repro.kernel.folio import Folio
from repro.kernel.list import IntrusiveList, ListNode

MAX_NR_GENS = 4
MAX_NR_TIERS = 4


def tier_of(freq: int) -> int:
    """Logarithmic frequency bucket: 0, 1-2, 3-6, 7+ accesses."""
    tier = 0
    threshold = 1
    while freq >= threshold and tier < MAX_NR_TIERS - 1:
        tier += 1
        threshold = (threshold << 1) + 1
    return tier


@dataclass
class TierStats(SnapshotFriendly):
    """Per-tier eviction/refault counters feeding the PID controller."""

    evicted: int = 0
    refaulted: int = 0
    #: Carried-over (exponentially decayed) history, as in the kernel's
    #: ``lru_gen_struct`` avg_refaulted/avg_total.
    avg_evicted: float = 0.0
    avg_refaulted: float = 0.0

    def decay(self) -> None:
        """Fold the live window into the averages (half-life of one
        aging period), then reset the window."""
        self.avg_evicted = (self.avg_evicted + self.evicted) / 2.0
        self.avg_refaulted = (self.avg_refaulted + self.refaulted) / 2.0
        self.evicted = 0
        self.refaulted = 0


@dataclass
class PidController(SnapshotFriendly):
    """Positive/negative feedback on per-tier refault ratios.

    The kernel's controller compares each upper tier's refault ratio
    against tier 0's; a tier whose pages come back noticeably more often
    than tier 0's earns protection (is promoted instead of evicted).
    ``gain`` damps oscillation, mirroring the kernel's fixed-point gain.
    """

    gain: float = 2.0

    def tier_threshold(self, tiers: list[TierStats]) -> int:
        base = tiers[0]
        base_ratio = self._ratio(base)
        threshold = 1
        for tier_idx in range(1, MAX_NR_TIERS):
            ratio = self._ratio(tiers[tier_idx])
            if ratio > base_ratio * self.gain or base_ratio == 0.0 and ratio > 0.0:
                threshold = tier_idx + 1
            else:
                break
        return min(threshold, MAX_NR_TIERS)

    @staticmethod
    def _ratio(stats: TierStats) -> float:
        evicted = stats.avg_evicted + stats.evicted
        refaulted = stats.avg_refaulted + stats.refaulted
        if evicted + refaulted == 0:
            return 0.0
        return refaulted / (evicted + refaulted)


@dataclass
class _FolioGenInfo:
    gen_seq: int
    freq: int = 0


class MgLruPolicy(KernelPolicy):
    """MGLRU as a kernel-resident policy."""

    name = "mglru"

    #: Aging triggers when the oldest generation holds more than this
    #: share of tracked folios, keeping generations balanced.
    AGING_SHARE = 0.55

    def __init__(self, memcg: MemCgroup) -> None:
        self.memcg = memcg
        self.min_seq = 0
        self.max_seq = MAX_NR_GENS - 1
        self._gens: dict[int, IntrusiveList] = {
            seq: IntrusiveList(f"gen{seq}")
            for seq in range(self.min_seq, self.max_seq + 1)
        }
        self._info: dict[int, _FolioGenInfo] = {}
        self.tiers = [TierStats() for _ in range(MAX_NR_TIERS)]
        self.pid = PidController()
        self.aging_events = 0

    # ------------------------------------------------------------------
    # generation management
    # ------------------------------------------------------------------
    def _gen_list(self, seq: int) -> IntrusiveList:
        return self._gens[seq]

    def _maybe_age(self) -> None:
        """Create a new generation when the old ones dominate."""
        total = self.nr_tracked()
        if total == 0:
            return
        oldest = len(self._gen_list(self.min_seq))
        if oldest <= total * self.AGING_SHARE:
            return
        if self.max_seq - self.min_seq + 1 >= MAX_NR_GENS:
            # Cannot create another generation until the oldest retires.
            return
        self.max_seq += 1
        self._gens[self.max_seq] = IntrusiveList(f"gen{self.max_seq}")
        self.aging_events += 1
        for stats in self.tiers:
            stats.decay()

    def _retire_empty_min(self) -> None:
        while (self.min_seq < self.max_seq
               and self._gen_list(self.min_seq).empty):
            del self._gens[self.min_seq]
            self.min_seq += 1

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def folio_inserted(self, folio: Folio, refault_activate: bool) -> None:
        node = ListNode(folio)
        folio.lru_node = node
        # The kernel adds file pages without access history to the
        # *oldest* generation — they must earn promotion through the
        # tier mechanism.  Refaulting workingset folios join the
        # youngest generation (they proved themselves recently).
        if refault_activate:
            seq = self.max_seq
            freq = 1
        else:
            seq = self.min_seq
            freq = 0
        self._info[folio.id] = _FolioGenInfo(gen_seq=seq, freq=freq)
        self._gen_list(seq).add_tail(node)

    #: The kernel stores access counts in two folio flag bits, so the
    #: frequency signal saturates quickly — a large part of why MGLRU
    #: underperforms true LFU on stable zipfian workloads (§6.1.1).
    FREQ_CAP = 3

    def folio_accessed(self, folio: Folio) -> None:
        info = self._info.get(folio.id)
        if info is None:
            return
        if info.freq < self.FREQ_CAP:
            info.freq += 1
        # Accessed folios in old generations are lazily promoted when
        # scanned (tier mechanism); folios in the youngest generation
        # just accumulate frequency.  This matches MGLRU's deferred
        # promotion design.

    def folio_removed(self, folio: Folio) -> None:
        node = folio.lru_node
        if node is not None and node.linked:
            node.owner.remove(node)
        folio.lru_node = None
        self._info.pop(folio.id, None)
        self._retire_empty_min()

    def record_refault(self, tier: int) -> None:
        """Called by the reclaim driver when a shadow entry refaults."""
        self.tiers[min(tier, MAX_NR_TIERS - 1)].refaulted += 1

    def eviction_tier(self, folio: Folio) -> int:
        info = self._info.get(folio.id)
        if info is None:
            return 0
        return tier_of(info.freq)

    # ------------------------------------------------------------------
    # reclaim
    # ------------------------------------------------------------------
    def evict_candidates(self, nr: int) -> list[Folio]:
        """Scan the oldest generation, promote protected tiers, evict
        the rest."""
        self._maybe_age()
        self._retire_empty_min()
        threshold = self.pid.tier_threshold(self.tiers)
        out: list[Folio] = []
        scanned = 0
        max_scan = max(16 * nr, 512)
        while len(out) < nr and scanned < max_scan:
            oldest = self._gen_list(self.min_seq)
            if oldest.empty:
                if self.min_seq == self.max_seq:
                    break
                self._retire_empty_min()
                continue
            node = oldest.pop_head()
            folio: Folio = node.item
            info = self._info[folio.id]
            scanned += 1
            if folio.pinned:
                # In use by the kernel (elevated refcount): skip, as
                # folio isolation does.
                oldest.add_tail(node)
                continue
            tier = tier_of(info.freq)
            if tier >= threshold:
                # Protected: promote to the youngest generation and
                # reset the tier walk (the kernel halves frequency on
                # promotion so protection must be re-earned).
                info.gen_seq = self.max_seq
                info.freq //= 2
                self._gen_list(self.max_seq).add_tail(node)
                continue
            # Eviction candidate; rotate to the oldest generation's tail
            # so a failed eviction does not stall the scan.
            oldest.add_tail(node)
            self.tiers[tier].evicted += 1
            out.append(folio)
        if not out:
            # Pressure valve: every scanned folio was tier-protected or
            # unevictable (typical when the whole cgroup is hot and
            # generations have collapsed, possibly with the in-flight
            # read's folio pinned).  The kernel reduces tier protection
            # under pressure rather than declaring OOM: walk the
            # generations oldest-first and take evictable folios
            # regardless of tier.
            for seq in range(self.min_seq, self.max_seq + 1):
                gen = self._gens.get(seq)
                if gen is None:
                    continue
                for node in list(gen.iter_from_head()):
                    folio = node.item
                    if folio.pinned:
                        continue
                    gen.move_to_tail(node)
                    self.tiers[self.eviction_tier(folio)].evicted += 1
                    out.append(folio)
                    if len(out) >= nr:
                        return out
        return out

    def nr_tracked(self) -> int:
        return sum(len(lst) for lst in self._gens.values())
