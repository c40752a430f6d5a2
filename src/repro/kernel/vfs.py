"""Files and file I/O through the page cache.

Applications in this reproduction (the LSM store, the file-search tool,
fio) never touch the block device directly; every read and write goes
through :class:`Filesystem`, which implements ``pread``/``pwrite``-style
page I/O on top of the page cache, plus ``fsync``, ``fadvise`` (§2.1
"Userspace interfaces") and readahead.

Data model: each :class:`SimFile` owns a backing ``store`` mapping page
index -> Python object (the "on-disk" bytes).  A resident folio grants
access to the store without device I/O; a miss costs a device read.
Writes update the store immediately and mark the folio dirty, so
dirtiness only governs *writeback* I/O accounting — this keeps the
simulator crash-consistency-free while preserving every I/O count the
paper's evaluation relies on.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
import enum
import itertools
from typing import TYPE_CHECKING, Any, Optional

from repro.kernel.address_space import AddressSpace
from repro.kernel.errors import EBADF, EINVAL, EIO, ETIMEDOUT
from repro.sim.engine import current_thread, trace_stamp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.machine import Machine

#: Fallback id source for files created outside a Filesystem; the
#: Filesystem assigns per-machine ids so that identical runs produce
#: identical trace payloads within one process.
_file_ids = itertools.count(1)

#: Default readahead window in pages (Linux default is 128 KiB = 32
#: pages; we scale down with everything else).
DEFAULT_RA_PAGES = 8
#: Bounded-retry policy for transiently failing block requests (only
#: an armed FaultPlan makes one fail): up to IO_MAX_RETRIES re-issues,
#: exponential backoff starting at IO_BACKOFF_BASE_US.
IO_MAX_RETRIES = 3
IO_BACKOFF_BASE_US = 50.0
#: Hard cap on any readahead window, including custom policy hints
#: (kernel-side bounds checking, as for every cache_ext input).
MAX_RA_PAGES = 64


class FAdvice(enum.Enum):
    """POSIX_FADV_* advice values supported by the simulator."""

    NORMAL = "normal"
    RANDOM = "random"
    SEQUENTIAL = "sequential"
    WILLNEED = "willneed"
    DONTNEED = "dontneed"
    NOREUSE = "noreuse"


class SimFile(SnapshotFriendly):
    """A simulated file: backing store + page-cache mapping + RA state."""

    def __init__(self, name: str, file_id: Optional[int] = None) -> None:
        self.file_id = next(_file_ids) if file_id is None else file_id
        self.name = name
        self.store: dict[int, Any] = {}
        self.npages = 0
        self.mapping = AddressSpace(self.file_id)
        # Readahead / advice state (kept per file; real kernels keep it
        # per struct file, but our workloads use one descriptor each).
        self.ra_window = DEFAULT_RA_PAGES
        self.ra_enabled = True
        self.last_read_index = -2
        self.seq_streak = 0
        self.noreuse = False
        self.deleted = False
        # Direct-I/O stream detection (admission-rejected access).
        self._last_direct_read = -2
        self._last_direct_write = -2

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimFile(id={self.file_id}, name={self.name!r}, npages={self.npages})"


class Filesystem(SnapshotFriendly):
    """Machine-wide VFS: file namespace + page-cache-mediated I/O."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._files: dict[str, SimFile] = {}
        self._file_ids = itertools.count(1)
        # Cached tracepoints for the miss sites (hits are traced by
        # PageCache.mark_accessed; misses are only visible here).
        trace = machine.trace
        self._tp_lookup = trace.tracepoint("cache:lookup")
        self._tp_writeback = trace.tracepoint("cache:writeback")
        # Latency-attribution gate: spans open only while a consumer
        # is subscribed to span:close (repro.obs.spans).
        self._tp_span = trace.tracepoint("span:close")
        self._spans = machine.spans

    def _account_misses(self, memcg, f: SimFile, index: int) -> None:
        """Miss accounting — the single source of truth shared by
        :meth:`read_page` and :meth:`write_page`: bump the accessing
        cgroup's lookup/miss counters and trace the miss."""
        mstats = memcg.stats
        mstats.misses += 1
        mstats.lookups += 1
        tp = self._tp_lookup
        if tp.enabled:
            ts, tid = trace_stamp(self.machine.engine)
            tp.emit(ts, memcg.name, tid, hit=0, file=f.file_id, index=index)

    def _retry(self, error: Exception, op: str, thread, npages: int,
               contiguous: bool = False):
        """Re-issue a block request whose first attempt raised ``error``.

        Every site issues its first attempt directly and calls this
        from its ``except`` clause, so fault-free I/O never enters it.
        Transient :class:`EIO`/:class:`ETIMEDOUT` completions are
        retried up to :data:`IO_MAX_RETRIES` times with exponential
        backoff (the backoff is virtual-time waiting, attributed as
        ``device_wait`` unless an enclosing span section absorbs it);
        every error and retry is counted against the accessing cgroup.
        On exhaustion the last error propagates, typed, to the caller.
        """
        disk = self.machine.disk
        disk_fn = disk.read if op == "read" else disk.write
        memcg = thread.cgroup if thread.cgroup is not None \
            else self.machine.root_cgroup
        mstats = memcg.stats
        delay = IO_BACKOFF_BASE_US
        for attempt in range(IO_MAX_RETRIES + 1):
            if attempt:
                mstats.io_retries += 1
                span = thread.span
                if span is not None and span.section is None:
                    span.add("device_wait", delay)
                thread.wait_until(thread.clock_us + delay)
                delay *= 2.0
                try:
                    return disk_fn(thread, npages, contiguous=contiguous)
                except (EIO, ETIMEDOUT) as retry_error:
                    error = retry_error
            if isinstance(error, EIO):
                mstats.io_errors += 1
            else:
                mstats.io_timeouts += 1
        raise error

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def create(self, name: str) -> SimFile:
        if name in self._files:
            raise EINVAL(f"file exists: {name}")
        f = SimFile(name, file_id=next(self._file_ids))
        self._files[name] = f
        return f

    def open(self, name: str) -> SimFile:
        f = self._files.get(name)
        if f is None:
            raise EBADF(f"no such file: {name}")
        return f

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        """Unlink: every cached folio is removed *without* the eviction
        path — the paper's folio-removal-bypasses-eviction case."""
        f = self._files.pop(name, None)
        if f is None:
            raise EBADF(f"no such file: {name}")
        cache = self.machine.page_cache
        cache.remove_folios_no_shadow(f.mapping.folios())
        # A new, empty store: whoever holds the old one keeps its pages,
        # as an open descriptor keeps an unlinked inode's (an SSTable
        # derives its slot map and filter from the pages it was built
        # with).  Reads still fail: the file is deleted.
        f.store = {}
        f.deleted = True

    def files(self) -> list[SimFile]:
        return list(self._files.values())

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def read_page(self, f: SimFile, index: int, *,
                  noreuse: bool = False) -> Any:
        """``pread`` of one page; returns the stored object.

        ``noreuse=True`` models a read through a file description with
        POSIX_FADV_NOREUSE applied (v6.3+ semantics): the access does
        not update the folio's recency, so scans can avoid promoting
        their pages — but the pages still enter and occupy the cache.
        """
        if f.deleted:
            raise EBADF(f"read of deleted file: {f.name}")
        if not 0 <= index < f.npages:
            raise EINVAL(f"{f.name}: read past EOF (page {index} of {f.npages})")
        span = None
        tp = self._tp_span
        if tp.enabled:
            _thread = current_thread()
            if _thread is not None and _thread.span is None:
                span = self._spans.open(_thread, "vfs.read")
        try:
            cache = self.machine.page_cache
            # Sequential-detection state (feeds the readahead
            # heuristic), updated in line: read_page runs once per
            # access and a helper frame is measurable on miss-heavy
            # workloads.
            if index == f.last_read_index + 1:
                f.seq_streak += 1
            else:
                f.seq_streak = 0
            f.last_read_index = index

            # Inlined f.mapping.lookup(index).
            folio = f.mapping._folios.get(index)
            if folio is not None:
                cache.mark_accessed(folio, not (f.noreuse or noreuse))
                return f.store.get(index)

            # Miss: bring the page (plus any readahead) in from the
            # device.
            memcg = cache._current_cgroup()
            self._account_misses(memcg, f, index)

            # Readahead probe: with no ext policy attached the
            # heuristic's cheap rejection (random access, readahead
            # disabled) is decided here without the helper-call frame.
            if memcg.ext_policy is None and (not f.ra_enabled
                                             or f.seq_streak < 2):
                ra_indices = ()
            else:
                ra_indices = self._readahead_indices(f, index, memcg)
            folio = cache.add_folio(f.mapping, index, memcg)
            if folio is None:
                # Admission filter rejected the page: serve it
                # direct-I/O style — one device read, no readahead
                # (nothing would be allowed to stay resident anyway).
                # Back-to-back rejected reads at consecutive offsets
                # stream at sequential rates, as a real device would
                # service them.
                contiguous = index == f._last_direct_read + 1
                thread = current_thread()
                try:
                    self.machine.disk.read(thread, 1, contiguous=contiguous)
                except (EIO, ETIMEDOUT) as error:
                    self._retry(error, "read", thread, 1, contiguous)
                f._last_direct_read = index
                return f.store.get(index)

            folio.pin_count += 1  # inlined folio.pin()
            # Track inserted readahead folios: a read that fails after
            # retries must not leave folios whose data never arrived in
            # the cache.
            ra_folios = []
            try:
                try:
                    for ra_index in ra_indices:
                        raf = cache.add_folio(f.mapping, ra_index, memcg)
                        if raf is not None:
                            ra_folios.append(raf)
                    thread = current_thread()
                    inserted = len(ra_folios) + 1
                    try:
                        self.machine.disk.read(thread, inserted)
                    except (EIO, ETIMEDOUT) as error:
                        self._retry(error, "read", thread, inserted)
                finally:
                    # Inlined folio.unpin(), incl. its underflow guard.
                    if folio.pin_count <= 0:
                        raise RuntimeError("unpin of unpinned folio")
                    folio.pin_count -= 1
            except (EIO, ETIMEDOUT):
                # Retries exhausted: the pages never arrived.  Drop the
                # optimistically inserted folios (no shadow entry — the
                # data was never resident) and surface the typed error.
                cache.remove_folios_no_shadow([folio, *ra_folios])
                raise
            return f.store.get(index)
        finally:
            if span is not None:
                self._spans.close(_thread, span)

    def read_range(self, f: SimFile, start: int, npages: int) -> list:
        """Sequential multi-page read; returns stored objects in order.

        :meth:`read_page` for each index in order, as ``filemap_read``
        looks up each folio of the range and fills the misses through
        readahead: every page is classified, counted, traced and
        dispatched to the hooks exactly as a single-page read would be.
        """
        if npages < 0:
            raise EINVAL(f"{f.name}: negative page count: {npages}")
        if npages == 0:
            return []
        if f.deleted:
            raise EBADF(f"read of deleted file: {f.name}")
        if start < 0 or start + npages > f.npages:
            raise EINVAL(f"{f.name}: range [{start}, {start + npages}) "
                         f"past EOF ({f.npages} pages)")
        # One span covers the whole range: the read_page spans inside
        # it are absorbed (spans are non-reentrant).
        span = None
        tp = self._tp_span
        if tp.enabled:
            _thread = current_thread()
            if _thread is not None and _thread.span is None:
                span = self._spans.open(_thread, "vfs.read_range")
        try:
            return [self.read_page(f, index)
                    for index in range(start, start + npages)]
        finally:
            if span is not None:
                self._spans.close(_thread, span)

    def _readahead_indices(self, f: SimFile, index: int,
                           memcg) -> list[int]:
        """Pages to prefetch alongside a missed read by ``memcg``.

        A cache_ext policy with the ``readahead`` extension hook (§7's
        FetchBPF integration) decides the window directly; otherwise
        the kernel heuristic applies: readahead arms after a short
        sequential streak and reads up to the file's window, with
        FADV_SEQUENTIAL doubling the window and FADV_RANDOM disabling
        it, as in Linux.
        """
        window = None
        if memcg.ext_policy is not None:
            hint = memcg.ext_policy.readahead_hint(
                f.mapping, index, f.seq_streak)
            if hint is not None:
                window = min(hint, MAX_RA_PAGES)
        if window is None:
            if not f.ra_enabled or f.seq_streak < 2:
                return []
            window = f.ra_window - 1
        out = []
        for idx in range(index + 1, min(index + 1 + window, f.npages)):
            if f.mapping.lookup(idx) is None:
                out.append(idx)
            else:
                break
        return out

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write_page(self, f: SimFile, index: int, obj: Any) -> None:
        """Full-page buffered write (no read-modify-write needed)."""
        if f.deleted:
            raise EBADF(f"write to deleted file: {f.name}")
        if index < 0:
            raise EINVAL(f"negative page index: {index}")
        cache = self.machine.page_cache
        span = None
        tp = self._tp_span
        if tp.enabled:
            _thread = current_thread()
            if _thread is not None and _thread.span is None:
                span = self._spans.open(_thread, "vfs.write")
        try:
            f.store[index] = obj
            f.npages = max(f.npages, index + 1)

            folio = f.mapping.lookup(index)
            if folio is not None:
                folio.dirty = True
                cache.mark_accessed(folio, update_recency=not f.noreuse)
                return

            memcg = cache._current_cgroup()
            self._account_misses(memcg, f, index)
            folio = cache.add_folio(f.mapping, index, memcg)
            if folio is None:
                # Admission filter rejected the write: go straight to
                # disk, direct-I/O style (sequential continuation
                # priced as such).
                contiguous = index == f._last_direct_write + 1
                thread = current_thread()
                try:
                    self.machine.disk.write(thread, 1,
                                            contiguous=contiguous)
                except (EIO, ETIMEDOUT) as error:
                    self._retry(error, "write", thread, 1, contiguous)
                f._last_direct_write = index
                return
            folio.dirty = True
        finally:
            if span is not None:
                self._spans.close(_thread, span)

    def append_page(self, f: SimFile, obj: Any) -> int:
        """Write the next page of the file; returns its index."""
        index = f.npages
        self.write_page(f, index, obj)
        return index

    def fsync(self, f: SimFile) -> int:
        """Write back every dirty folio of ``f``; returns pages written.

        The device write was already one batched request; the flag
        clears and counter bumps are batched too (per-cgroup counts
        are accumulated in one pass, stats objects touched once per
        cgroup instead of once per folio).  Pure integer accounting —
        no CPU charge or device request moves, so virtual time is
        identical to the per-folio loop.
        """
        cache = self.machine.page_cache
        dirty = [folio for folio in f.mapping.folios() if folio.dirty]
        if not dirty:
            return 0
        thread = current_thread()
        # Attribution: a standalone fsync gets its own span; an fsync
        # inside another request (LSM flush during a put) brackets a
        # "fsync" section on the outer span, so the batched writeback's
        # device time lands in the fsync component either way.
        span = None
        tp = self._tp_span
        if tp.enabled and thread is not None and thread.span is None:
            span = self._spans.open(thread, "vfs.fsync")
        aspan = thread.span if thread is not None else None
        if aspan is not None:
            sect = aspan.begin_section("fsync", thread.clock_us)
        try:
            n = len(dirty)
            try:
                try:
                    self.machine.disk.write(thread, n)
                except (EIO, ETIMEDOUT) as error:
                    self._retry(error, "write", thread, n)
            except (EIO, ETIMEDOUT):
                # Writeback failed for good: folios stay dirty and
                # resident (nothing was lost, nothing was cleaned), the
                # caller gets the typed error.
                accessor = thread.cgroup if thread.cgroup is not None \
                    else self.machine.root_cgroup
                accessor.stats.writeback_errors += n
                raise
            by_memcg: dict = {}
            for folio in dirty:
                folio.dirty = False
                by_memcg[folio.memcg] = by_memcg.get(folio.memcg, 0) + 1
            for memcg, count in by_memcg.items():
                memcg.stats.writebacks += count
            tp = self._tp_writeback
            if tp.enabled:
                ts, tid = trace_stamp(self.machine.engine)
                fid = f.file_id
                for folio in dirty:
                    tp.emit(ts, folio.memcg.name, tid, file=fid,
                            index=folio.index)
            return n
        finally:
            if aspan is not None:
                aspan.end_section(thread.clock_us, sect)
            if span is not None:
                self._spans.close(thread, span)

    # ------------------------------------------------------------------
    # fadvise
    # ------------------------------------------------------------------
    def fadvise(self, f: SimFile, advice: FAdvice,
                start: int = 0, npages: Optional[int] = None) -> None:
        """Apply POSIX_FADV_* semantics.

        These are *hints* with implementation-defined behaviour (§2.1);
        the semantics below match Linux v6.6 closely enough to reproduce
        the paper's Figure 10 finding that none of them rescues the
        GET-SCAN workload.
        """
        if npages is None:
            npages = max(f.npages - start, 0)
        end = start + npages

        if advice is FAdvice.NORMAL:
            f.ra_enabled = True
            f.ra_window = DEFAULT_RA_PAGES
            f.noreuse = False
        elif advice is FAdvice.RANDOM:
            f.ra_enabled = False
        elif advice is FAdvice.SEQUENTIAL:
            f.ra_enabled = True
            f.ra_window = DEFAULT_RA_PAGES * 2
        elif advice is FAdvice.NOREUSE:
            # v6.3+ semantics: accesses do not update recency, so the
            # folios never get activated — but they still occupy the
            # inactive list and still displace other folios.
            f.noreuse = True
        elif advice is FAdvice.WILLNEED:
            for idx in range(start, min(end, f.npages)):
                if f.mapping.lookup(idx) is None:
                    self.read_page(f, idx)
        elif advice is FAdvice.DONTNEED:
            # Drop clean folios in the range immediately.  Dirty folios
            # are skipped (the kernel only starts async writeback).
            cache = self.machine.page_cache
            for folio in f.mapping.folios():
                if start <= folio.index < end and not folio.dirty \
                        and not folio.pinned:
                    cache.evict_folio(folio, folio.memcg)
        else:  # pragma: no cover - enum is exhaustive
            raise EINVAL(f"unknown advice: {advice}")
