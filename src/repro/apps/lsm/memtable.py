"""Memtable and write-ahead log."""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator, Optional

from repro.apps.lsm.format import RecordFormat

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.vfs import Filesystem, SimFile


class MemTable(SnapshotFriendly):
    """In-memory write buffer.

    A plain dict (point lookups dominate); sorted views are
    materialized only at flush/scan time.  Tombstones are stored as
    ``None`` values and must survive until compaction discards them at
    the bottom level.
    """

    def __init__(self, fmt: RecordFormat) -> None:
        self.fmt = fmt
        self._data: dict[str, object] = {}
        # Cached sorted view; scan-heavy workloads call sorted_items()
        # once per scan but mutate only once per put, so re-sorting on
        # every call dominated the scan CPU profile.
        self._sorted: Optional[list] = None

    def put(self, key: str, value) -> None:
        self._data[key] = value
        self._sorted = None

    def get(self, key: str) -> tuple[bool, Optional[object]]:
        if key in self._data:
            return (True, self._data[key])
        return (False, None)

    def __len__(self) -> int:
        return len(self._data)

    def sorted_items(self) -> list[tuple]:
        items = self._sorted
        if items is None:
            items = self._sorted = sorted(self._data.items())
        return items

    def iter_from(self, start_key: str) -> Iterator[tuple]:
        items = self.sorted_items()
        start = bisect_left(items, (start_key,))
        for pos in range(start, len(items)):
            yield items[pos]

    def clear(self) -> None:
        self._data.clear()
        self._sorted = None


class WriteAheadLog(SnapshotFriendly):
    """Append-only log making memtable contents durable.

    Each record lands in the current log page; a full page is written
    through the page cache (dirty folio -> eventual writeback), which
    is how LevelDB's default non-synced WAL behaves.  ``rotate()``
    deletes the log after a successful flush — exercising the
    truncation/removal path of the page cache.
    """

    def __init__(self, fs: "Filesystem", name: str,
                 fmt: RecordFormat) -> None:
        self.fs = fs
        self.name = name
        self.file: "SimFile" = fs.create(name)
        #: Records per log page, bound once: ``append`` runs per put.
        self.entries_per_page = fmt.entries_per_page
        self._page: list = []
        self._generation = 0
        self.records = 0

    def append(self, key: str, value) -> None:
        self._page.append((key, value))
        self.records += 1
        if len(self._page) >= self.entries_per_page:
            self.fs.append_page(self.file, self._page)
            self._page = []

    def rotate(self) -> None:
        """Discard the current log and start a fresh one."""
        self.fs.delete(self.file.name)
        self._generation += 1
        self._page = []
        self.file = self.fs.create(f"{self.name}.{self._generation}")
