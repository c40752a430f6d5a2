"""The LSM database facade.

Put/get/scan/delete over a memtable + leveled SSTables, with leveled
compaction on a background daemon thread.  All data-page I/O goes
through the simulated page cache, charged to the cgroup of the calling
thread, so eviction policy quality translates directly into operation
latency — the causal chain behind every DB experiment in the paper.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.apps.lsm.compaction import CompactionJob
from repro.apps.lsm.format import RecordFormat
from repro.apps.lsm.memtable import MemTable, WriteAheadLog
from repro.apps.lsm.sstable import (SSTable, SSTableWriter,
                                    strictly_increasing)
from repro.kernel.errors import EIO, ETIMEDOUT
from repro.sim.engine import current_thread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.cgroup import MemCgroup
    from repro.kernel.machine import Machine

_db_ids = itertools.count(1)

#: Background thread idle sleep when there is no compaction work.
COMPACTION_IDLE_US = 500.0

#: Read plans are ~250 bytes each and cleared on every structure bump;
#: clearing them when this many are held bounds them (at ~64 MiB) on a
#: read-only trace over a huge keyspace too.
_PLAN_CACHE_MAX = 1 << 18


@dataclass
class DbOptions(SnapshotFriendly):
    """Tuning knobs, scaled down ~64x from LevelDB defaults.

    ``memtable_entries`` controls table size (one flush = one L0
    table); level targets grow by ``level_multiplier``.
    """

    fmt: RecordFormat = field(default_factory=RecordFormat)
    memtable_entries: int = 2048
    l0_compaction_trigger: int = 4
    level_multiplier: int = 10
    max_levels: int = 4
    #: L1 size target, expressed in tables (of memtable size each).
    level1_tables: int = 5

    @property
    def table_pages(self) -> int:
        """Data pages per table at the configured record size."""
        return max(1, self.memtable_entries // self.fmt.entries_per_page)

    def level_target_pages(self, level: int) -> int:
        """Size target for level >= 1, in data pages."""
        base = self.level1_tables * self.table_pages
        return base * (self.level_multiplier ** (level - 1))


class LsmDb(SnapshotFriendly):
    """An LSM-tree key-value store on one machine/cgroup."""

    def __init__(self, machine: "Machine", cgroup: "MemCgroup",
                 name: Optional[str] = None,
                 options: Optional[DbOptions] = None) -> None:
        self.machine = machine
        self.cgroup = cgroup
        self.name = name or f"db{next(_db_ids)}"
        self.opts = options or DbOptions()
        self.mem = MemTable(self.opts.fmt)
        self.wal = WriteAheadLog(machine.fs, f"{self.name}/wal",
                                 self.opts.fmt)
        #: ``levels[0]`` holds overlapping tables, newest first;
        #: deeper levels are sorted and non-overlapping.
        self.levels: list[list[SSTable]] = [
            [] for _ in range(self.opts.max_levels + 1)]
        self._sst_counter = itertools.count(1)
        # Latency attribution (repro.obs.spans): every DB operation is
        # a span root, so per-op latency decomposes into components.
        self._tp_span = machine.trace.tracepoint("span:close")
        self._spans = machine.spans
        self._job: Optional[CompactionJob] = None
        self._job_target_level = 0
        self.compaction_threads: list = []
        self.closed = False
        # Counters.
        self.n_puts = 0
        self.n_gets = 0
        self.n_scans = 0
        self.n_flushes = 0
        self.n_compactions = 0
        #: Operations degraded by an exhausted-retry I/O error (the DB
        #: absorbs :class:`EIO`/:class:`ETIMEDOUT` instead of crashing:
        #: a get reports a miss, a put drops the write).
        self.n_io_errors = 0
        #: Bumped whenever the set of live SSTables changes (flush,
        #: compaction install, bulk load).  Guards every structure-
        #: derived cache below.
        self._struct_version = 0
        #: Per-level ``[t.min_key for t in level]``, rebuilt lazily
        #: after each version bump; point reads and scans binary-search
        #: these instead of re-materializing the list per call.
        self._minkeys: dict[int, list] = {}
        #: Point-read plans under the current table set: key ->
        #: (((file, page), ...), value); see :meth:`get`.
        self._plans: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _next_sst_name(self) -> str:
        return f"{self.name}/sst-{next(self._sst_counter):06d}"

    def _bump_version(self) -> None:
        """Record a change to the live table set; invalidates every
        structure-derived cache (min-key lists, read plans)."""
        self._struct_version += 1
        self._minkeys.clear()
        self._plans.clear()

    def _level_minkeys(self, idx: int) -> list:
        mk = self._minkeys.get(idx)
        if mk is None:
            mk = self._minkeys[idx] = [t.min_key
                                       for t in self.levels[idx]]
        return mk

    def _level_table(self, idx: int, key: str) -> Optional[SSTable]:
        """The table of sorted, non-overlapping level ``idx`` whose key
        range holds ``key`` (binary search over the cached min keys)."""
        pos = bisect.bisect_right(self._level_minkeys(idx), key) - 1
        if pos < 0:
            return None
        table = self.levels[idx][pos]
        return table if key <= table.max_key else None

    def _get_tables(self, key: str, reads: Optional[list] = None):
        """The table-probing tail of :meth:`get` (memtable already
        missed); returns the value and optionally records page reads.

        This is the reference walk: :meth:`get` runs it once per key
        per table set to record the key's read plan, and on every
        lookup while faults are armed."""
        found = False
        value = None
        levels = self.levels
        for table in levels[0]:  # newest first
            found, value = table.get(key, reads)
            if found:
                break
        if not found:
            for idx in range(1, len(levels)):
                if not levels[idx]:
                    continue
                table = self._level_table(idx, key)
                if table is None:
                    continue
                found, value = table.get(key, reads)
                if found:
                    break
        if not found:
            value = None
        return value

    def _all_tables(self) -> Iterable[SSTable]:
        for level in self.levels:
            yield from level

    @property
    def total_data_pages(self) -> int:
        return sum(t.n_data_pages for t in self._all_tables())

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: str, value) -> None:
        if self.closed:
            raise RuntimeError("db is closed")
        span = None
        tp = self._tp_span
        if tp.enabled:
            _thread = current_thread()
            if _thread is not None and _thread.span is None:
                span = self._spans.open(_thread, "lsm.put")
        try:
            try:
                self.wal.append(key, value)
                self.mem.put(key, value)
                self.n_puts += 1
                if len(self.mem) >= self.opts.memtable_entries:
                    self.flush_memtable()
            except (EIO, ETIMEDOUT):
                # Retries are exhausted below us; degrade by dropping
                # the write (the memtable keeps whatever landed, so a
                # failed flush retries on the next threshold crossing).
                self.n_io_errors += 1
        finally:
            if span is not None:
                self._spans.close(_thread, span)

    def delete(self, key: str) -> None:
        """Tombstone write; compaction erases it at the bottom level."""
        self.put(key, None)

    def flush_memtable(self) -> Optional[SSTable]:
        """Write the memtable as a new L0 table (write-stall style:
        synchronous in the calling thread, as LevelDB stalls do)."""
        if len(self.mem) == 0:
            return None
        writer = SSTableWriter(self.machine.fs, self._next_sst_name(),
                               self.opts.fmt,
                               expected_entries=len(self.mem),
                               through_cache=True)
        writer.extend(*zip(*self.mem.sorted_items()))
        table = writer.finish()
        self.levels[0].insert(0, table)  # newest first
        self._bump_version()
        self.mem.clear()
        self.wal.rotate()
        self.n_flushes += 1
        return table

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[object]:
        """Point lookup; None for missing or tombstoned keys.

        A lookup's *virtual-time footprint* is exactly its sequence of
        ``fs.read_page`` calls: bloom probes, index binary searches and
        min-key scans are pure CPU that charges nothing.  Which pages a
        key's lookup touches depends only on the live table set and the
        key — never on cache state — so the first lookup of a key
        records its reads (:meth:`_get_tables`) and later ones re-issue
        the same ``read_page`` calls and return the same value, skipping
        the search work.  :meth:`_bump_version` drops every plan when
        the table set changes.  Armed faults change nothing here: a
        failed read raises out of either walk at the same call.

        On that first walk the table holding the key answers from its
        slot map, skipping searches that could only have found that
        record (:meth:`SSTable.get`); tables walked before it still pay
        the bloom test: a false positive is a real, simulated read.
        """
        self.n_gets += 1
        # Span opens at entry and closes at return, so ``dur_us``
        # equals the read latency the workload driver records around
        # this call (the acceptance anchor for attribution).
        span = None
        tp = self._tp_span
        if tp.enabled:
            _thread = current_thread()
            if _thread is not None and _thread.span is None:
                span = self._spans.open(_thread, "lsm.get")
        try:
            try:
                found, value = self.mem.get(key)
                if found:
                    return value
                plans = self._plans
                plan = plans.get(key)
                if plan is not None:
                    # Replay the recorded page faults — identical
                    # virtual-time charges, cache transitions and trace
                    # events — and skip the search CPU around them.
                    read_page = self.machine.fs.read_page
                    for file, page in plan[0]:
                        read_page(file, page)
                    return plan[1]
                reads: list = []
                value = self._get_tables(key, reads)
                if len(plans) >= _PLAN_CACHE_MAX:
                    plans.clear()
                plans[key] = (tuple(reads), value)
                return value
            except (EIO, ETIMEDOUT):
                # Exhausted-retry read failure: degrade to a miss
                # rather than tearing down the workload.
                self.n_io_errors += 1
                return None
        finally:
            if span is not None:
                self._spans.close(_thread, span)

    def scan_iter(self, start_key: str,
                  advice: Optional[str] = None):
        """Lazy range scan from ``start_key``.

        Yields live ``(key, value)`` records in order: the memtable and
        every overlapping table are merged, the newest version wins,
        tombstones are skipped.  Data pages are read *as the iterator
        is consumed*, so long scans interleave with foreground traffic
        the way a real iterator-based scan does — drivers (e.g. the
        GET-SCAN workload) consume a bounded chunk per scheduling step.

        ``advice`` applies one of the fadvise strategies of §6.1.4 to
        the scan's reads: ``"noreuse"`` reads without recency updates,
        ``"dontneed"`` drops the touched pages when the iterator is
        exhausted or closed, ``"sequential"`` widens readahead on the
        scanned files.
        """
        self.n_scans += 1
        noreuse = advice == "noreuse"
        touched: Optional[list] = [] if advice == "dontneed" else None
        sources = [self.mem.iter_from(start_key)]
        sources += [t.iter_from(start_key, noreuse, touched)
                    for t in self.levels[0]]
        for idx in range(1, len(self.levels)):
            level = self.levels[idx]
            start = bisect.bisect_right(
                self._level_minkeys(idx), start_key) - 1
            for table in level[max(start, 0):]:
                if table.max_key >= start_key:
                    sources.append(
                        table.iter_from(start_key, noreuse, touched))
        # Priority: memtable (0) newest, then L0 newest-first, then
        # deeper levels; lower priority index wins on key ties.  The
        # merge is hand-rolled instead of layering heapq.merge over
        # per-source tagging generators: that stack cost three Python
        # frame resumptions per merged entry, and long scans merge
        # millions.  The source-advancing schedule is identical to
        # heapq.merge's — one prefetch per source in priority order,
        # then advance exactly the source whose entry was consumed —
        # so the simulated page reads happen in the same order at the
        # same virtual times.  (key, prio) is unique across sources,
        # so heap comparisons never reach a source's iterator.
        heap = []
        for prio, src in enumerate(sources):
            nxt = src.__next__
            try:
                key, value = nxt()
            except StopIteration:
                continue
            heap.append([(key, prio, value), prio, nxt])
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        last_key = None
        try:
            while len(heap) > 1:
                try:
                    while True:
                        s = heap[0]
                        key, _prio, value = s[0]
                        if key != last_key:
                            last_key = key
                            if value is not None:  # tombstones skipped
                                yield (key, value)
                        k2, v2 = s[2]()
                        s[0] = (k2, s[1], v2)
                        heapreplace(heap, s)
                except StopIteration:
                    heappop(heap)
            if heap:  # single live source: drain without the heap
                s = heap[0]
                key, _prio, value = s[0]
                if key != last_key:
                    last_key = key
                    if value is not None:
                        yield (key, value)
                nxt = s[2]
                while True:
                    try:
                        key, value = nxt()
                    except StopIteration:
                        break
                    if key == last_key:
                        continue
                    last_key = key
                    if value is None:
                        continue  # tombstone
                    yield (key, value)
        finally:
            if touched:
                self._drop_scanned(touched)

    def scan(self, start_key: str, count: int,
             advice: Optional[str] = None) -> list[tuple]:
        """Eager range scan: ``count`` records via :meth:`scan_iter`."""
        # The span lives here, not in the generator: a generator's
        # frames interleave with the consumer, so only the eager
        # wrapper has well-defined open/close times on one thread.
        span = None
        tp = self._tp_span
        if tp.enabled:
            _thread = current_thread()
            if _thread is not None and _thread.span is None:
                span = self._spans.open(_thread, "lsm.scan")
        try:
            it = self.scan_iter(start_key, advice=advice)
            out = []
            try:
                try:
                    for entry in it:
                        out.append(entry)
                        if len(out) >= count:
                            break
                except (EIO, ETIMEDOUT):
                    # Degrade to a truncated result set.
                    self.n_io_errors += 1
            finally:
                it.close()
            return out
        finally:
            if span is not None:
                self._spans.close(_thread, span)

    def _drop_scanned(self, touched: list) -> None:
        """FADV_DONTNEED the pages a scan read (grouped per file)."""
        from repro.kernel.vfs import FAdvice
        by_file: dict = {}
        for file, idx in touched:
            by_file.setdefault(file, []).append(idx)
        for file, indices in by_file.items():
            lo, hi = min(indices), max(indices)
            self.machine.fs.fadvise(file, FAdvice.DONTNEED, lo, hi - lo + 1)

    # ------------------------------------------------------------------
    # bulk load
    # ------------------------------------------------------------------
    def bulk_load(self, keys: Sequence[str], values: Sequence) -> None:
        """Pre-create the database without simulated I/O.

        Writes the records ``(keys[i], values[i])``, sorted by key,
        directly into bottom-level tables, bypassing the page cache —
        the equivalent of loading the database before the experiment
        and dropping caches, which is the paper's methodology.

        The bottom level stays sorted and non-overlapping: the new
        tables go in ``min_key`` order.  Columns of unequal length, a
        repeated key, or a key range that overlaps a bottom-level table
        are refused with ``ValueError`` before anything is written.
        """
        n = len(keys)
        if len(values) != n:
            raise ValueError(f"bulk load of {n} keys but {len(values)} values")
        if not strictly_increasing(keys):
            order = sorted(range(n), key=keys.__getitem__)
            keys, values = [keys[i] for i in order], [values[i] for i in order]
            if not strictly_increasing(keys):
                raise ValueError("bulk load repeats a key")
        bottom = self.levels[self.opts.max_levels]
        if n:
            lo, hi = keys[0], keys[-1]
            clash = next((t for t in bottom if t.overlaps(lo, hi)), None)
            if clash is not None:
                raise ValueError(
                    f"bulk load [{lo!r}..{hi!r}] overlaps bottom-level "
                    f"table [{clash.min_key!r}..{clash.max_key!r}]")
        per_table = self.opts.table_pages * self.opts.fmt.entries_per_page
        tables = []
        for start in range(0, n, per_table):
            chunk = keys[start:start + per_table]
            writer = SSTableWriter(self.machine.fs, self._next_sst_name(),
                                   self.opts.fmt,
                                   expected_entries=len(chunk),
                                   through_cache=False)
            writer.extend(chunk, values[start:start + per_table])
            tables.append(writer.finish())
        if tables:
            at = bisect.bisect_left([t.min_key for t in bottom], lo)
            bottom[at:at] = tables
        self._bump_version()

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _pick_compaction(self) -> Optional[tuple]:
        """Choose (inputs, target_level, drop_tombstones) or None."""
        if len(self.levels[0]) > self.opts.l0_compaction_trigger:
            inputs = list(self.levels[0])
            min_key = min(t.min_key for t in inputs)
            max_key = max(t.max_key for t in inputs)
            overlaps = [t for t in self.levels[1]
                        if t.overlaps(min_key, max_key)]
            return (inputs + overlaps, 1, self.opts.max_levels == 1)
        for level in range(1, self.opts.max_levels):
            pages = sum(t.n_data_pages for t in self.levels[level])
            if pages > self.opts.level_target_pages(level):
                victim = self.levels[level][0]
                overlaps = [t for t in self.levels[level + 1]
                            if t.overlaps(victim.min_key, victim.max_key)]
                drop = (level + 1) == self.opts.max_levels
                return ([victim] + overlaps, level + 1, drop)
        return None

    def compaction_step(self) -> bool:
        """One increment of background compaction; True if work ran."""
        span = None
        tp = self._tp_span
        if tp.enabled:
            _thread = current_thread()
            if _thread is not None and _thread.span is None:
                span = self._spans.open(_thread, "lsm.compaction")
        try:
            if self._job is None:
                picked = self._pick_compaction()
                if picked is None:
                    return False
                inputs, target, drop = picked
                # Reads each input's first page: inside the guard.
                self._job = CompactionJob(
                    self.machine.fs, inputs, self.opts.fmt,
                    max_table_pages=self.opts.table_pages,
                    name_fn=self._next_sst_name,
                    drop_tombstones=drop)
                self._job_target_level = target
            if self._job.step():
                self._install_compaction(self._job,
                                         self._job_target_level)
                self._job = None
        except (EIO, ETIMEDOUT):
            # Abandon the job; inputs stay installed and a later step
            # re-picks the compaction from scratch.  An unhandled error
            # here would tear down the background daemon — and with it
            # the whole engine run.
            self.n_io_errors += 1
            self._job = None
        finally:
            if span is not None:
                self._spans.close(_thread, span)
        return True

    def _install_compaction(self, job: CompactionJob, target: int) -> None:
        input_set = {t.file.file_id for t in job.inputs}
        for level in self.levels:
            level[:] = [t for t in level
                        if t.file.file_id not in input_set]
        merged = sorted(self.levels[target] + job.outputs,
                        key=lambda t: t.min_key)
        self.levels[target] = merged
        self._bump_version()
        for table in job.inputs:
            self.machine.fs.delete(table.file.name)
        self.n_compactions += 1

    def spawn_compaction_thread(self, name: Optional[str] = None):
        """Start a background compaction daemon; returns the thread.

        The thread's TID is what the admission filter (§5.6) registers
        in its ``compaction_tids`` map.
        """
        def step(thread) -> bool:
            if self.closed:
                return False
            if not self.compaction_step():
                thread.advance(COMPACTION_IDLE_US)
            return True

        thread = self.machine.spawn(
            name or f"{self.name}-compaction", step,
            cgroup=self.cgroup, daemon=True)
        self.compaction_threads.append(thread)
        return thread

    def drain_compaction(self, max_rounds: int = 10000) -> None:
        """Synchronously run compaction until no work remains (setup)."""
        for _round in range(max_rounds):
            if not self.compaction_step():
                return
        raise RuntimeError("compaction did not converge")

    def close(self) -> None:
        self.closed = True


