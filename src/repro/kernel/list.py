"""Intrusive doubly-linked lists (``struct list_head`` analogue).

Both the kernel's LRU lists and cache_ext's eviction lists need O(1)
removal given a node reference, plus head/tail insertion and rotation.
Python's ``collections.deque`` cannot delete from the middle in O(1), so
we implement the kernel idiom directly: a circular doubly-linked list
with a sentinel head.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from typing import Any, Iterator, Optional


class ListNode:
    """One membership of an item (usually a folio) on one list."""

    __slots__ = ("item", "prev", "next", "owner")

    def __init__(self, item: Any = None) -> None:
        self.item = item
        self.prev: Optional["ListNode"] = None
        self.next: Optional["ListNode"] = None
        #: The IntrusiveList currently containing this node (None when
        #: detached).  Used for sanity checks and "which list is this
        #: folio on" queries.
        self.owner: Optional["IntrusiveList"] = None

    @property
    def linked(self) -> bool:
        return self.owner is not None


class IntrusiveList(SnapshotFriendly):
    """Circular doubly-linked list with a sentinel, tracking its length."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._head = ListNode()          # sentinel
        self._head.prev = self._head
        self._head.next = self._head
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def empty(self) -> bool:
        return self._size == 0

    def add_head(self, node: ListNode) -> None:
        """Insert at the head (the next element returned by pop_head).

        The link surgery is written out here and in :meth:`add_tail`:
        these two run once per insertion/rotation on every LRU list,
        where a shared helper's call frame is measurable.
        """
        if node.owner is not None:
            raise RuntimeError("node is already on a list")
        head = self._head
        first = head.next
        node.prev = head
        node.next = first
        head.next = node
        first.prev = node
        node.owner = self
        self._size += 1

    def add_tail(self, node: ListNode) -> None:
        if node.owner is not None:
            raise RuntimeError("node is already on a list")
        head = self._head
        last = head.prev
        node.prev = last
        node.next = head
        last.next = node
        head.prev = node
        node.owner = self
        self._size += 1

    def remove(self, node: ListNode) -> None:
        """Unlink ``node``; O(1)."""
        if node.owner is not self:
            raise RuntimeError("node is not on this list")
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = None
        node.next = None
        node.owner = None
        self._size -= 1

    def head(self) -> Optional[ListNode]:
        """The oldest element for FIFO semantics (None when empty)."""
        return None if self.empty else self._head.next

    def tail(self) -> Optional[ListNode]:
        return None if self.empty else self._head.prev

    def pop_head(self) -> Optional[ListNode]:
        node = self.head()
        if node is not None:
            self.remove(node)
        return node

    def pop_tail(self) -> Optional[ListNode]:
        node = self.tail()
        if node is not None:
            self.remove(node)
        return node

    def move_to_tail(self, node: ListNode) -> None:
        """Rotate ``node`` to this list's tail (it may come from another
        list)."""
        owner = node.owner
        if owner is self:
            head = self._head
            if node.next is head:      # already at the tail
                return
            # Same-list rotation: relink in place, size unchanged.
            node.prev.next = node.next
            node.next.prev = node.prev
            last = head.prev
            node.prev = last
            node.next = head
            last.next = node
            head.prev = node
            return
        if owner is not None:
            owner.remove(node)
        self.add_tail(node)

    def move_to_head(self, node: ListNode) -> None:
        owner = node.owner
        if owner is self:
            head = self._head
            if node.prev is head:      # already at the head
                return
            node.prev.next = node.next
            node.next.prev = node.prev
            first = head.next
            node.next = first
            node.prev = head
            first.prev = node
            head.next = node
            return
        if owner is not None:
            owner.remove(node)
        self.add_head(node)

    def rotate_head_run(self, last: ListNode) -> None:
        """Move the run of nodes from the head through ``last`` to the
        tail in one splice, keeping the run's order; O(1) however long
        the run is."""
        if last.owner is not self:
            raise RuntimeError("node is not on this list")
        head = self._head
        rest = last.next
        if rest is head:               # the run is the whole list
            return
        first = head.next
        tail = head.prev
        head.next = rest
        rest.prev = head
        tail.next = first
        first.prev = tail
        last.next = head
        head.prev = last

    def iter_from_head(self) -> Iterator[ListNode]:
        """Iterate head -> tail.

        Snapshot-free: tolerates removal of the *current* node but not
        of the next one; callers that mutate aggressively should collect
        nodes first (as cache_ext's list_iterate kfunc does).
        """
        node = self._head.next
        while node is not self._head:
            nxt = node.next
            yield node
            node = nxt

    def items(self) -> list:
        return [node.item for node in self.iter_from_head()]

    def check_consistency(self) -> None:
        """Walk the list verifying link structure; test helper."""
        count = 0
        node = self._head.next
        while node is not self._head:
            assert node.owner is self, "node owner mismatch"
            assert node.next.prev is node, "broken forward link"
            assert node.prev.next is node, "broken backward link"
            count += 1
            if count > self._size:
                raise AssertionError("list longer than recorded size")
            node = node.next
        assert count == self._size, f"size mismatch: {count} != {self._size}"
