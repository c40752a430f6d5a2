"""Leveled compaction.

A :class:`CompactionJob` merges a set of input SSTables into a run of
non-overlapping output tables.  It is deliberately *incremental*: each
``step()`` processes a bounded number of records, reading input data
pages through the page cache as the merge consumes them and emitting
output pages through the cache.  The background compaction thread
interleaves these steps with foreground traffic, which is exactly what
creates the cache pollution the admission-filter experiment (§6.1.5)
measures and fixes.

Duplicate keys are resolved by table sequence number (newest wins);
tombstones are dropped only when compacting into the bottom level.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.apps.lsm.format import RecordFormat
from repro.apps.lsm.sstable import SSTable, SSTableWriter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.vfs import Filesystem


class _Stream:
    """Lazy ``(key, value)`` stream over one input table: its data
    pages are read in order, each as the merge reaches it."""

    def __init__(self, table: SSTable) -> None:
        self.table = table
        self._iter = table.iter_from(table.min_key)

    def next_entry(self) -> Optional[tuple]:
        return next(self._iter, None)


class CompactionJob:
    """One in-flight merge of ``inputs`` into new tables."""

    #: Records merged per step() call; bounds per-step clock jumps so
    #: compaction interleaves finely with foreground requests.
    RECORDS_PER_STEP = 64

    def __init__(self, fs: "Filesystem", inputs: list[SSTable],
                 fmt: RecordFormat, max_table_pages: int,
                 name_fn: Callable[[], str],
                 drop_tombstones: bool = False) -> None:
        if not inputs:
            raise ValueError("compaction needs at least one input")
        self.fs = fs
        self.inputs = list(inputs)
        self.fmt = fmt
        self.max_table_pages = max_table_pages
        self.name_fn = name_fn
        self.drop_tombstones = drop_tombstones
        self.outputs: list[SSTable] = []
        self.done = False
        self.records_in = 0
        self.records_out = 0

        self._tiebreak = itertools.count()
        self._heap: list[tuple] = []
        self._streams = [_Stream(t) for t in self.inputs]
        self._writer: Optional[SSTableWriter] = None
        self._expected = sum(t.n_entries for t in self.inputs)
        self._last_key: Optional[str] = None
        for idx, stream in enumerate(self._streams):
            self._push_head(idx, stream)

    # ------------------------------------------------------------------
    def _push_head(self, idx: int, stream: _Stream) -> None:
        entry = stream.next_entry()
        if entry is not None:
            key, value = entry
            # Higher table seq shadows lower; negate for min-heap order.
            heapq.heappush(self._heap,
                           (key, -stream.table.seq, next(self._tiebreak),
                            value, idx))

    def _emit(self, key: str, value) -> None:
        if value is None and self.drop_tombstones:
            return
        if self._writer is None:
            self._writer = SSTableWriter(
                self.fs, self.name_fn(), self.fmt,
                expected_entries=self._expected, through_cache=True)
        self._writer.add(key, value)
        self.records_out += 1
        if self._writer._n_data_pages >= self.max_table_pages:
            self.outputs.append(self._writer.finish())
            self._writer = None

    # ------------------------------------------------------------------
    def step(self, max_records: Optional[int] = None) -> bool:
        """Merge up to ``max_records``; returns True when finished."""
        if self.done:
            return True
        budget = max_records or self.RECORDS_PER_STEP
        while budget > 0 and self._heap:
            key, _negseq, _tie, value, idx = heapq.heappop(self._heap)
            self._push_head(idx, self._streams[idx])
            self.records_in += 1
            budget -= 1
            if key == self._last_key:
                continue  # shadowed by a newer version already emitted
            self._last_key = key
            self._emit(key, value)
        if not self._heap:
            if self._writer is not None:
                self.outputs.append(self._writer.finish())
                self._writer = None
            self.done = True
        return self.done

    def run_to_completion(self) -> list[SSTable]:
        while not self.step(max_records=1 << 16):
            pass
        return self.outputs
