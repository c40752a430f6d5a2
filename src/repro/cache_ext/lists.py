"""Eviction lists: the kernel-managed data structure behind the kfuncs.

§4.2.4 of the paper explains why eviction lists could not be built from
stock BPF maps (queues lack random access, hashes lack ordering) and
had to be a custom kernel-managed structure exposed through kfuncs.
:class:`EvictionList` is that structure: a doubly-linked list of nodes
pointing at folios, *indexed* through the valid-folio registry so that
any folio's node is found in O(1).

Invariants enforced here (and property-tested in
``tests/test_cache_ext_lists.py``):

* a folio has at most one eviction-list node at a time (the registry
  stores exactly one node per folio, §4.4);
* a node is on at most one list;
* lists are owned by one policy; cross-policy operations fail with an
  error code rather than corrupting a neighbour's structures.
"""

from __future__ import annotations

import itertools
import weakref
from typing import TYPE_CHECKING, Optional

from repro.kernel.folio import Folio
from repro.kernel.list import IntrusiveList

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache_ext.framework import CacheExtPolicy

_list_ids = itertools.count(1)

#: Global id -> list index so kfuncs can resolve integer list handles.
#: Weak values: lists die with their policy.
_all_lists: "weakref.WeakValueDictionary[int, EvictionList]" = \
    weakref.WeakValueDictionary()


class EvictionList(IntrusiveList):
    """One policy-owned, variable-sized list of folio pointers."""

    def __init__(self, policy: "CacheExtPolicy", name: str = "") -> None:
        super().__init__(name)
        self.id = next(_list_ids)
        self.policy = policy
        _all_lists[self.id] = self

    def folios(self) -> list[Folio]:
        return self.items()


def resolve_list(list_id: int) -> Optional[EvictionList]:
    """Look up a list handle; None for stale/invalid ids."""
    if not isinstance(list_id, int):
        return None
    return _all_lists.get(list_id)

