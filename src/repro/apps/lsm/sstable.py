"""SSTables: immutable sorted tables backed by simulated files.

File layout (page-granular)::

    [ data pages | bloom pages | index pages | footer page ]

Data pages hold sorted runs as flat tuples ``(k0, v0, k1, v1, ...)``
and are always read through the page cache — they are the folios the
eviction policies fight over.  This module is the only one that knows
the layout: readers get values from :meth:`SSTable.get` and
``(key, value)`` pairs from :meth:`SSTable.iter_from`.  A page holds
only strings, ints, ``None`` and (for updated values) tuples of them,
so the cyclic collector untracks it and a snapshot shares it whole.

Index and footer pages are read through the cache once at ``open()``
and then held parsed in the table object, matching LevelDB's table
cache (index/filter blocks pinned per open table).  The filter pages
are read there too, but hold a stand-in: the bits are derived state,
set from the table's own keys on its first probe
(:meth:`SSTable.may_contain`), like the slot map on its first lookup.

Tombstones are records whose value is ``None``; they survive until
compaction merges them away at the bottom level.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
import bisect
import itertools
import operator
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.apps.lsm.format import (BLOOM_PAGE_BITS, INDEX_ENTRIES_PER_PAGE,
                                   BloomFilter, RecordFormat, filter_bits)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.vfs import Filesystem, SimFile

_table_seq = itertools.count(1)

#: The keys of a flat data page: ``page[_KEYS] == (k0, k1, ...)``.
_KEYS = slice(None, None, 2)


def strictly_increasing(keys: Sequence[str]) -> bool:
    """Whether ``keys`` is strictly increasing, in one C-level pass."""
    return all(map(operator.lt, keys, itertools.islice(keys, 1, None)))


class SSTable(SnapshotFriendly):
    """One immutable sorted table."""

    def __init__(self, fs: "Filesystem", file: "SimFile", seq: int,
                 n_data_pages: int, index: list, bloom_nbits: int,
                 min_key: str, max_key: str, n_entries: int) -> None:
        self.fs = fs
        self.file = file
        #: Creation sequence; higher seq shadows lower on key collisions.
        self.seq = seq
        self.n_data_pages = n_data_pages
        #: ``index[i]`` = first key of data page ``i``.
        self.index = index
        self.bloom_nbits = bloom_nbits
        self.min_key = min_key
        self.max_key = max_key
        self.n_entries = n_entries
        #: The pages the table was built with: its file's store.  An
        #: unlink gives the file a new, empty store and leaves this one.
        self._pages = file.store
        #: Slot map ``key -> record position`` and records per full data
        #: page, derived from the data pages on the first :meth:`get`.
        self._slots: Optional[dict] = None
        self._epp = 1
        #: Bloom filter chunks, derived from the data pages on the first
        #: :meth:`may_contain`.
        self._bloom: Optional[list] = None

    # Derived state never enters a machine image: a restored table
    # starts as __init__ leaves one and rebuilds it on demand.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_slots"], state["_epp"], state["_bloom"]
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._slots, self._epp, self._bloom = None, 1, None

    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return self.file.npages

    def overlaps(self, min_key: str, max_key: str) -> bool:
        return not (self.max_key < min_key or max_key < self.min_key)

    def may_contain(self, key: str) -> bool:
        """Bloom + key-range check, no data I/O."""
        if key < self.min_key or key > self.max_key:
            return False
        bloom = self._bloom
        if bloom is None:
            bloom = self._build_bloom()
        return BloomFilter.test_chunks(bloom, self.bloom_nbits, key)

    def _page_for_key(self, key: str) -> int:
        """Index binary search: the data page whose run may hold key."""
        pos = bisect.bisect_right(self.index, key) - 1
        return max(pos, 0)

    def _keys(self) -> Iterator[str]:
        """The table's keys in order, off its own data pages: host-side
        reads like ``index``, no ``fs`` call, no virtual time."""
        return itertools.chain.from_iterable(map(
            operator.itemgetter(_KEYS),
            map(self._pages.__getitem__, range(self.n_data_pages))))

    def _build_slots(self) -> dict:
        """Derive the slot map in one pass over the table's keys."""
        # Every page but the last is full.
        self._epp = len(self._pages[0]) // 2
        slots = self._slots = dict(zip(self._keys(), itertools.count()))
        return slots

    def _build_bloom(self) -> list:
        """Derive the filter in one ``add_all`` pass over the table's
        keys: the bits a writer building it would have stored."""
        bloom = BloomFilter(self.bloom_nbits)
        bloom.add_all(self._keys())
        self._bloom = bloom.chunks
        return bloom.chunks

    def get(self, key: str,
            reads: Optional[list] = None) -> tuple[bool, Optional[object]]:
        """Point lookup; returns (found, value).

        Touches at most one data page through the page cache.  A key
        the table *holds* costs one probe of the slot map: the bloom
        test (no false negatives), index bisect (``index ==
        keys[::epp]``) and in-page search could only arrive at record
        ``pos`` of page ``pos // epp``, so they are skipped.  A key it
        does not hold still pays :meth:`may_contain`: a false positive
        is a real ``read_page`` — simulated I/O, not search work.
        ``reads``, if given, collects the ``(file, page)`` pairs this
        lookup faults through the cache — the raw material of the
        point-read plans (:meth:`repro.apps.lsm.db.LsmDb.get`).
        """
        slots = self._slots
        if slots is None:
            slots = self._build_slots()
        pos = slots.get(key)
        if pos is not None:
            page = pos // self._epp
        elif self.may_contain(key):
            page = self._page_for_key(key)  # bloom false positive
        else:
            return (False, None)
        file = self.file
        if reads is not None:
            reads.append((file, page))
        entries = self.fs.read_page(file, page)
        if pos is None:
            return (False, None)
        return (True, entries[2 * (pos % self._epp) + 1])

    def iter_from(self, start_key: str, noreuse: bool = False,
                  touched: Optional[list] = None) -> Iterator[tuple]:
        """Yield (key, value) >= start_key in order, reading data pages
        sequentially through the page cache (the scan path).

        ``noreuse`` propagates FADV_NOREUSE semantics to each read;
        ``touched`` (if given) collects (file, page) pairs so the
        caller can FADV_DONTNEED them afterwards.
        """
        page = self._page_for_key(start_key)
        read_page = self.fs.read_page
        file = self.file
        for idx in range(page, self.n_data_pages):
            entries = read_page(file, idx, noreuse=noreuse)
            if touched is not None:
                touched.append((file, idx))
            if idx == page:
                # Only the first page can straddle start_key; later
                # pages hold strictly greater keys (sorted runs).
                entries = entries[2 * bisect.bisect_left(entries[_KEYS],
                                                         start_key):]
            it = iter(entries)
            yield from zip(it, it)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SSTable({self.file.name!r}, seq={self.seq}, "
                f"[{self.min_key}..{self.max_key}], "
                f"{self.n_entries} entries)")


class SSTableWriter:
    """Builds one SSTable.

    Two modes:

    * ``through_cache=True`` — pages are written through the page cache
      (dirty folios, writeback on fsync/eviction): the flush and
      compaction write path;
    * ``through_cache=False`` — pages go straight to the backing store
      with no simulated I/O: the *bulk-load* path used to pre-create
      databases before an experiment, mirroring the paper's
      "drop the page cache before each test" methodology.

    Records only fill data pages; the index and key range are derived
    from the key list in :meth:`finish`.  Deferring them is
    unobservable: their pages follow the last data page either way, and
    building them is pure CPU that charges no virtual time.  The filter
    is not built at all: :meth:`finish` emits its pages, sized from
    ``expected_entries``, holding a stand-in, and the table derives its
    bits from its own keys on its first probe.
    """

    def __init__(self, fs: "Filesystem", name: str, fmt: RecordFormat,
                 expected_entries: int,
                 through_cache: bool = True) -> None:
        self.fs = fs
        self.file = fs.create(name)
        self.through_cache = through_cache
        self._expected_entries = max(expected_entries, 1)
        self._entries_per_page = fmt.entries_per_page
        #: Every key added so far, in (strictly increasing) order.
        self._keys: list = []
        #: The open data page, flat: ``[k0, v0, k1, v1, ...]``.
        self._page: list = []

    # ------------------------------------------------------------------
    def _emit(self, pages: list) -> None:
        """Append ``pages`` to the file, in order."""
        file = self.file
        if self.through_cache:
            append_page = self.fs.append_page
            for page in pages:
                append_page(file, page)
        else:
            start = file.npages
            file.store.update(zip(itertools.count(start), pages))
            file.npages = start + len(pages)

    @property
    def _n_data_pages(self) -> int:
        """Pages emitted so far; all are data pages until finish()."""
        return self.file.npages

    def add(self, key: str, value) -> None:
        """Append one record; keys must arrive in strictly sorted order."""
        keys = self._keys
        if keys and key <= keys[-1]:
            raise ValueError(
                f"keys out of order: {key!r} after {keys[-1]!r}")
        keys.append(key)
        page = self._page
        page += (key, value)
        if len(page) >= 2 * self._entries_per_page:
            self._emit([tuple(page)])
            self._page = []

    def extend(self, keys: Sequence[str], values: Sequence) -> None:
        """Append a run given as two columns: ``keys`` strictly
        increasing and after every key already added, ``values[i]`` the
        value of ``keys[i]``.  The open page and the run fill one flat
        list by two extended-slice assignments, which one ``zip`` cuts
        into pages; a run that is out of order is refused whole."""
        n = len(keys)
        if len(values) != n:
            raise ValueError(f"{n} keys but {len(values)} values")
        # One C-level order check, over the seam with earlier calls too.
        chain = self._keys[-1:] + list(keys)
        if not strictly_increasing(chain):
            bad = next(i for i in range(1, len(chain))
                       if chain[i] <= chain[i - 1])
            raise ValueError(f"keys out of order: {chain[bad]!r} "
                             f"after {chain[bad - 1]!r}")
        self._keys += keys
        flat = self._page
        start = len(flat)
        flat += itertools.repeat(None, 2 * n)
        flat[start::2] = keys
        flat[start + 1::2] = values
        step = 2 * self._entries_per_page
        pages = list(zip(*[iter(flat)] * step))
        self._page = flat[len(pages) * step:]
        self._emit(pages)

    def finish(self) -> SSTable:
        """Flush metadata pages and return the readable table."""
        keys = self._keys
        if not keys:
            raise ValueError("cannot finish an empty SSTable")
        pages = [tuple(self._page)] if self._page else []
        n_data_pages = self._n_data_pages + len(pages)
        bloom_nbits = filter_bits(self._expected_entries)
        n_bloom_pages = bloom_nbits // BLOOM_PAGE_BITS
        # Nothing reads a filter page's content: it is a stand-in.
        pages += [None] * n_bloom_pages
        index = keys[::self._entries_per_page]
        pages += [tuple(index[start:start + INDEX_ENTRIES_PER_PAGE])
                  for start in range(0, len(index), INDEX_ENTRIES_PER_PAGE)]
        pages.append({
            "n_data_pages": n_data_pages,
            "n_bloom_pages": n_bloom_pages,
            "bloom_nbits": bloom_nbits,
            "n_entries": len(keys),
            "min_key": keys[0],
            "max_key": keys[-1],
        })
        self._emit(pages)
        if self.through_cache:
            self.fs.fsync(self.file)
        return SSTable(
            self.fs, self.file, next(_table_seq),
            n_data_pages=n_data_pages,
            index=index,
            bloom_nbits=bloom_nbits,
            min_key=keys[0], max_key=keys[-1],
            n_entries=len(keys))


def open_sstable(fs: "Filesystem", name: str) -> SSTable:
    """Open a table by reading its metadata pages through the cache.

    Data pages are *not* touched; they fault in on demand.  The filter
    pages are read as a table cache reads them, and their stand-ins
    dropped: the table derives its bits on its first probe.
    """
    file = fs.open(name)
    footer = fs.read_page(file, file.npages - 1)
    n_data = footer["n_data_pages"]
    n_bloom = footer["n_bloom_pages"]
    for i in range(n_bloom):
        fs.read_page(file, n_data + i)
    index: list = []
    for idx in range(n_data + n_bloom, file.npages - 1):
        index.extend(fs.read_page(file, idx))
    return SSTable(fs, file, next(_table_seq),
                   n_data_pages=n_data, index=index,
                   bloom_nbits=footer["bloom_nbits"],
                   min_key=footer["min_key"], max_key=footer["max_key"],
                   n_entries=footer["n_entries"])
