"""The valid-folio registry (§4.4 "Memory Safety").

Custom policies hand folio references back to the kernel as eviction
candidates.  A buggy or malicious policy could return stale or invented
references; in the real kernel that would mean memory corruption.
cache_ext therefore keeps a registry of valid folios per policy:

* a folio is registered when inserted into the page cache and
  de-registered when removed;
* eviction candidates are only accepted if the registry still holds
  them;
* the registry doubles as the folio -> eviction-list-node index needed
  for O(1) ``list_del``/``list_move`` (§4.2.2).

It is implemented as a hash table with per-bucket locks.  The paper's
memory-overhead analysis (§6.3.1) prices it at 16 bytes per bucket plus
32 bytes per filled entry — between 0.4% and 1.2% of the cgroup's
memory when sized with one bucket per 4 KiB page — and
:meth:`FolioRegistry.memory_overhead_bytes` reproduces exactly that
arithmetic for Table 4's companion analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.kernel.folio import PAGE_SIZE, Folio

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.list import ListNode

#: Hash-bucket bookkeeping bytes (two list pointers), per the paper.
BUCKET_BYTES = 16
#: Additional bytes per filled entry (the cache_ext list node).
ENTRY_BYTES = 32


class FolioRegistry:
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

    def remove(self, folio: Folio) -> Optional["ListNode"]:
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

    def get_node(self, folio: Folio) -> Optional["ListNode"]:
        index = folio.id % self.nbuckets
        self.lock_acquisitions[index] += 1
        entry = self._buckets[index].get(folio.id)
        return None if entry is None else entry[1]

    def set_node(self, folio: Folio, node: Optional["ListNode"]) -> bool:
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


class ReplayFolioRegistry(FolioRegistry):
    """Replay-mode registry: membership lives on the folio itself.

    Semantically identical to :class:`FolioRegistry` — same insert /
    remove / contains / node-binding answers for every call sequence
    the framework issues — but each operation is a slot load or store
    on the folio (``ext_reg`` marks the owning registry, ``ext_node``
    *is* the node binding) instead of a hash + dict operation, and the
    per-bucket lock counters are not maintained (nothing in replay
    mode reads them).

    Validity rests on two invariants of the full-mode code:

    * ``folio.ext_node`` is set/cleared in lockstep with the registry
      node binding at every site (kfunc list_add, the framework's
      folio_removed registry step, loader detach), so it can *be* the
      binding;
    * only the watchdog-detach path breaks that lockstep, and replay
      mode refuses to coexist with fault plans / hook budgets
      (:func:`repro.replay.enable_replay`), so it never runs.

    ``_size`` is still maintained, so Table 4's §6.3.1 memory-overhead
    arithmetic (:meth:`memory_overhead_bytes`) is unchanged.
    """

    def insert(self, folio: Folio) -> None:
        if folio.ext_reg is self:
            raise RuntimeError(f"registry: duplicate insert of {folio!r}")
        folio.ext_reg = self
        folio.ext_node = None
        self._size += 1

    def remove(self, folio: Folio) -> Optional["ListNode"]:
        if folio.ext_reg is not self:
            return None
        folio.ext_reg = None
        self._size -= 1
        return folio.ext_node

    def contains(self, folio: Folio) -> bool:
        return isinstance(folio, Folio) and folio.ext_reg is self

    def get_node(self, folio: Folio) -> Optional["ListNode"]:
        return folio.ext_node if folio.ext_reg is self else None

    def set_node(self, folio: Folio, node: Optional["ListNode"]) -> bool:
        if folio.ext_reg is not self:
            return False
        folio.ext_node = node
        return True
