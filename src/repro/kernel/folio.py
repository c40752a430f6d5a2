"""Folios: the unit of page-cache residency.

Linux is migrating from ``struct page`` to folios; as in the paper, every
folio here represents a single 4 KiB page ("we use the terms 'folio' and
'page' interchangeably, as in our workloads all folios represent a single
page").

A folio's identity is its Python object identity; cache_ext policies
receive folio references and hand them back as eviction candidates, and
the valid-folio registry (:mod:`repro.cache_ext.registry`) validates
those references exactly as the kernel implementation does, because a
policy may retain a stale reference past eviction.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.address_space import AddressSpace
    from repro.kernel.cgroup import MemCgroup

_folio_ids = itertools.count(1)

PAGE_SIZE = 4096


class Folio:
    """A single resident page of a file.

    Flags follow the kernel's naming: ``referenced`` is the second-access
    bit consulted by the default policy, ``active`` records which LRU
    list the folio conceptually belongs to, ``dirty`` forces writeback
    before eviction, and ``workingset`` marks refault-activated folios.

    ``pin_count`` models ``folio_get``-style elevated reference counts:
    a pinned folio is "in use by the kernel" and must not be evicted —
    this is one of the validation steps of the eviction-candidate
    interface (§4.2.3 of the paper).
    """

    __slots__ = ("id", "mapping", "mapping_id", "index", "memcg",
                 "referenced", "active", "dirty", "uptodate", "workingset",
                 "pin_count", "inserted_at", "lru_node", "ext_node",
                 "ext_reg")

    def __init__(self, mapping: "AddressSpace", index: int,
                 memcg: "MemCgroup") -> None:
        self.id = next(_folio_ids)
        self.mapping: Optional["AddressSpace"] = mapping
        #: Stable file identity; survives eviction (ghost entries key on
        #: it because folio pointers do not persist, §5.1).
        self.mapping_id = mapping.file_id
        self.index = index
        self.memcg = memcg
        self.referenced = False
        self.active = False
        self.dirty = False
        self.uptodate = False
        self.workingset = False
        self.pin_count = 0
        #: Virtual time at insertion; used for age-based policy metadata.
        self.inserted_at: float = 0.0
        #: Node on the kernel's default LRU lists (always maintained,
        #: even when a cache_ext policy is attached — the paper keeps the
        #: kernel structures authoritative and uses them for fallback).
        self.lru_node = None
        #: The valid-folio registry that owns this folio's membership,
        #: or None, and that registry's eviction-list node binding.
        #: Only :class:`repro.cache_ext.registry.FolioRegistry` reads or
        #: writes the pair.
        self.ext_reg = None
        self.ext_node = None

    # ------------------------------------------------------------------
    def pin(self) -> None:
        """Take an extra kernel reference (folio becomes uneviction-able)."""
        self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise RuntimeError("unpin of unpinned folio")
        self.pin_count -= 1

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    @property
    def in_cache(self) -> bool:
        """Whether the folio is still present in its file's mapping."""
        return self.mapping is not None

    def key(self) -> tuple[int, int]:
        """Stable (file, offset) identity surviving the folio itself.

        Ghost entries (S3-FIFO, MGLRU refault tracking) key on this
        because folio pointers are not persistent across evictions
        (§5.1: "we cannot use folio pointers as the key").  Valid even
        after eviction, so removal hooks can record ghost entries.
        """
        return (self.mapping_id, self.index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = "evicted" if self.mapping is None else (
            f"{self.mapping.file_id}:{self.index}")
        return f"Folio(id={self.id}, {where}, act={int(self.active)})"
