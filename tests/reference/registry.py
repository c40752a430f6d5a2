"""The valid-folio registry as the kernel lays it out.

A hash table of ``folio.id % nbuckets`` buckets, each a dict, with a
per-bucket lock-acquisition counter standing in for the spinlocks.
:class:`repro.cache_ext.registry.FolioRegistry` keeps membership on the
folio (plus a side table for a folio a second registry holds) and must
give the same answers for every call sequence over any number of
registries sharing folios.
"""

from typing import Optional

from repro.cache_ext.registry import BUCKET_BYTES, ENTRY_BYTES
from repro.kernel.folio import PAGE_SIZE, Folio
from repro.kernel.list import ListNode


class ReferenceRegistry:
    """Bucketed folio -> list-node hash table with per-bucket locks."""

    def __init__(self, nbuckets: int) -> None:
        if nbuckets <= 0:
            raise ValueError(f"nbuckets must be positive: {nbuckets}")
        self.nbuckets = nbuckets
        self._buckets: list[dict[int, tuple]] = [
            {} for _ in range(nbuckets)]
        #: Lock-acquisition counter per bucket; a stand-in for the real
        #: per-bucket spinlocks, letting tests assert lock distribution.
        self.lock_acquisitions = [0] * nbuckets
        self._size = 0

    # Every operation hashes ``folio.id % nbuckets`` and bumps that
    # bucket's lock counter inline rather than through a shared helper:
    # the registry is consulted on each insert, access and eviction,
    # and the helper's frame showed up in profiles.
    def insert(self, folio: Folio) -> None:
        """Register a folio at page-cache insertion time."""
        index = folio.id % self.nbuckets
        self.lock_acquisitions[index] += 1
        bucket = self._buckets[index]
        if folio.id in bucket:
            raise RuntimeError(f"registry: duplicate insert of {folio!r}")
        bucket[folio.id] = (folio, None)
        self._size += 1

    def remove(self, folio: Folio) -> Optional[ListNode]:
        """De-register a folio; returns its list node for cleanup."""
        index = folio.id % self.nbuckets
        self.lock_acquisitions[index] += 1
        entry = self._buckets[index].pop(folio.id, None)
        if entry is None:
            return None
        self._size -= 1
        return entry[1]

    def contains(self, folio: Folio) -> bool:
        if not isinstance(folio, Folio):
            return False
        index = folio.id % self.nbuckets
        self.lock_acquisitions[index] += 1
        entry = self._buckets[index].get(folio.id)
        return entry is not None and entry[0] is folio

    def get_node(self, folio: Folio) -> Optional[ListNode]:
        index = folio.id % self.nbuckets
        self.lock_acquisitions[index] += 1
        entry = self._buckets[index].get(folio.id)
        return None if entry is None else entry[1]

    def set_node(self, folio: Folio, node: Optional[ListNode]) -> bool:
        """Bind a folio to its (single) eviction-list node."""
        index = folio.id % self.nbuckets
        self.lock_acquisitions[index] += 1
        bucket = self._buckets[index]
        entry = bucket.get(folio.id)
        if entry is None:
            return False
        bucket[folio.id] = (entry[0], node)
        return True

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def memory_overhead_bytes(self) -> int:
        """Registry memory: buckets + filled entries (§6.3.1)."""
        return self.nbuckets * BUCKET_BYTES + self._size * ENTRY_BYTES

    def memory_overhead_fraction(self) -> float:
        """Overhead relative to the memory the buckets were sized for.

        With one bucket per cgroup page this is 16/4096 ≈ 0.4% empty
        and (16+32)/4096 ≈ 1.2% full — the paper's bounds.
        """
        return self.memory_overhead_bytes() / (self.nbuckets * PAGE_SIZE)
