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

In the kernel it is a hash table with per-bucket locks.  The paper's
memory-overhead analysis (§6.3.1) prices it at 16 bytes per bucket plus
32 bytes per filled entry — between 0.4% and 1.2% of the cgroup's
memory when sized with one bucket per 4 KiB page — and
:meth:`FolioRegistry.memory_overhead_bytes` reproduces exactly that
arithmetic for Table 4's companion analysis; the page cache charges
each lookup as ``registry_check_us``.  The simulator's own layout
models neither, so it is the cheapest one with the same answers:
membership lives on the folio (see :class:`FolioRegistry`).
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

_ABSENT = object()


class FolioRegistry:
    """Folio -> list-node registry with membership carried on the folio.

    The first registry to hold a folio owns its slots: ``folio.ext_reg``
    names that registry and ``folio.ext_node`` *is* its node binding, so
    the common case is a slot load or store.  A folio another registry
    already owns (a quarantine re-attach registers folios whose slots
    still name the detached policy's registry; a microbench registers a
    live policy's folios twice) goes into this registry's identity-keyed
    side table ``_held`` (folio -> node) instead.  Every operation tests
    the slot first, then ``_held``.  Nothing outside this class reads or
    writes the two slots.

    ``nbuckets`` and the entry count are kept for the §6.3.1 memory
    arithmetic; the answers equal the kernel's bucketed table's
    (``tests/reference/registry.py`` holds one as the oracle).
    """

    def __init__(self, nbuckets: int) -> None:
        if nbuckets <= 0:
            raise ValueError(f"nbuckets must be positive: {nbuckets}")
        self.nbuckets = nbuckets
        self._held: dict[Folio, Optional["ListNode"]] = {}
        self._size = 0

    def insert(self, folio: Folio) -> None:
        """Register a folio at page-cache insertion time."""
        owner = folio.ext_reg
        if owner is None and folio not in self._held:
            folio.ext_reg = self
            folio.ext_node = None
        elif owner is self or folio in self._held:
            raise RuntimeError(f"registry: duplicate insert of {folio!r}")
        else:
            self._held[folio] = None
        self._size += 1

    def remove(self, folio: Folio) -> Optional["ListNode"]:
        """De-register a folio; returns its list node for cleanup."""
        if folio.ext_reg is self:
            node = folio.ext_node
            folio.ext_reg = folio.ext_node = None
        else:
            node = self._held.pop(folio, _ABSENT)
            if node is _ABSENT:
                return None
        self._size -= 1
        return node

    def contains(self, folio: Folio) -> bool:
        if not isinstance(folio, Folio):
            return False
        return folio.ext_reg is self or folio in self._held

    def get_node(self, folio: Folio) -> Optional["ListNode"]:
        if folio.ext_reg is self:
            return folio.ext_node
        return self._held.get(folio)

    def set_node(self, folio: Folio, node: Optional["ListNode"]) -> bool:
        """Bind a folio to its (single) eviction-list node."""
        if folio.ext_reg is self:
            folio.ext_node = node
            return True
        held = self._held
        if folio not in held:
            return False
        held[folio] = node
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
