"""Sweep-level machine snapshots: checkpoint one image, fork it per cell.

Every policy cell of a sweep rebuilds the identical post-load machine —
same folios, same cgroup charges, same LSM on-disk image — before the
measured phase diverges, so a fig6 workload pays the load phase once
per policy.  This module captures that state **once** and restores it
per cell:

* :func:`capture` pickles the full simulation graph — page cache
  folios and policy-agnostic LRU lists, cgroup charges, shadow
  entries, the LSM store's sstables/memtable/manifest, block-device
  state, the engine (clock, heap, per-engine tid/seq counters) and
  every seeded RNG hanging off those objects — into one compact byte
  string (:class:`MachineImage`).
* :func:`restore` unpickles it, yielding a **fresh, fully independent**
  object graph: two cells restored from one image share no mutable
  state (mutation isolation comes from the serialization boundary, not
  from copy discipline).

Why bytes and not ``copy.deepcopy``: the image is immutable, so the
parallel runner can materialize it in the parent (via the plan's
``prepare`` hook, like PR 3's pre-generated streams) and forked
workers inherit the one buffer copy-on-write — restore cost is paid
per cell, capture cost once per sweep.

Determinism: every id/name source that matters is *instance* state
travelling inside the image (per-engine ``_next_tid``/``_seq``, the
per-filesystem file-id counter, the per-db sstable counter), so a
restored machine assigns the same tids and file ids as the cold build
it was captured from, and payloads come out byte-identical
(``tests/test_snapshot.py`` enforces this per policy × stream family).
Module-global counters (folio ids, cgroup ids) never leak into
payloads — the serial-vs-parallel byte-identity of the harness already
proves that.

Refusals — an image must be a quiescent machine, nothing in flight:

* an armed fault plan (the injector's RNG cursors are mid-stream);
* live (unfinished) simulated threads;
* an open latency-attribution span (a request is mid-flight).

The capture point the harness uses (:func:`repro.experiments.harness.
make_db_env`) is post-``bulk_load``/pre-``attach_policy``: the only
moment the image is policy-agnostic, and — because the bulk load runs
outside the engine with no simulated I/O — also workload-agnostic, so
one image per kernel flavor serves an entire sweep.
"""

from __future__ import annotations

import io
import pickle
from typing import Optional


class SnapshotError(RuntimeError):
    """A machine cannot be captured (or an image cannot be restored)."""


class SnapshotFriendly:
    """Mixin: restore pickled attribute state with ``setattr``.

    The stock unpickler applies instance state with
    ``obj.__dict__.update(state)``, which materializes an ordinary
    dict and forfeits CPython's inline-values (key-sharing) object
    layout.  Restored instances then take the slow attribute-lookup
    path *and* de-specialize every call site that also sees cold-built
    instances — measured as a uniform ~10% drag on the whole run phase
    of a restored machine.  Applying the state attribute-by-attribute
    instead rebuilds the exact layout ``__init__`` would have
    produced, so restored and cold-built objects are indistinguishable
    to the interpreter.

    Every class that appears in a machine image with ``__dict__``
    state mixes this in; ``__slots__``-only classes don't need it (the
    unpickler already restores slots via ``setattr``).
    """

    __slots__ = ()

    def __setstate__(self, state):
        if type(state) is tuple and len(state) == 2:
            d, slots = state
        else:
            d, slots = state, None
        if d:
            for k, v in d.items():
                object.__setattr__(self, k, v)
        if slots:
            for k, v in slots.items():
                object.__setattr__(self, k, v)


#: Strings/bytes shorter than this are serialized inline; the shared-
#: leaf indirection only pays for itself on real payload data.
_SHARE_MIN_LEN = 8

_SHARE_PRIMITIVES = (str, bytes, int, float, bool, type(None))


def _shareable(obj, memo: dict) -> bool:
    """True if ``obj`` is transitively immutable (safe to alias across
    restores): a primitive, or a tuple of shareable values."""
    if isinstance(obj, _SHARE_PRIMITIVES):
        return True
    if type(obj) is not tuple:
        return False
    oid = id(obj)
    cached = memo.get(oid)
    if cached is None:
        cached = all(_shareable(item, memo) for item in obj)
        memo[oid] = cached
    return cached


class _SharingPickler(pickle.Pickler):
    """Pickler that keeps big immutable leaves *by reference*.

    The LSM store's data pages are flat tuples ``(k0, v0, k1, v1,
    ...)`` of strings and ints (``SSTableWriter``), and their key
    strings are (by construction, via the stream caches) the **same
    objects** the workload streams carry.  A plain pickle round-trip
    would copy them, and every key comparison on a restored machine
    would lose CPython's pointer-equality fast path — measured as a
    uniform ~4-15% drag on the whole run phase, wiping out the build
    savings.  Capturing immutable leaves (str/bytes/large int, and
    tuples thereof — each data page is one such leaf, shared whole
    with one ``persistent_id`` hit) in a side table and
    restoring them by identity keeps restored machines bit-for-bit
    *and* pointer-compatible with cold builds, preserves the cold
    build's allocation locality for the bulk of the image, shrinks
    the payload, and makes the shared table one COW region for
    forked workers.  Safe by construction: only transitively
    immutable values are shared, so restored cells still cannot
    observe each other's writes.
    """

    def __init__(self, buffer, shared: list) -> None:
        super().__init__(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared = shared
        self._seen: dict[int, int] = {}
        self._memo: dict[int, bool] = {}

    def _share(self, obj) -> int:
        # The shared list keeps every captured leaf alive, so id()s
        # stay unambiguous for the pickler's lifetime.
        idx = self._seen.get(id(obj))
        if idx is None:
            idx = len(self._shared)
            self._shared.append(obj)
            self._seen[id(obj)] = idx
        return idx

    def persistent_id(self, obj):
        cls = obj.__class__
        if cls is str or cls is bytes:
            if len(obj) >= _SHARE_MIN_LEN:
                return self._share(obj)
        elif cls is int:
            # Big ints; small ints are interned by the runtime anyway.
            if obj.bit_length() > 64:
                return self._share(obj)
        elif cls is tuple:
            if len(obj) >= 2 and _shareable(obj, self._memo):
                return self._share(obj)
        return None


class _SharingUnpickler(pickle.Unpickler):
    def __init__(self, buffer, shared: list) -> None:
        super().__init__(buffer)
        self._shared = shared

    def persistent_load(self, pid):
        return self._shared[pid]


class MachineImage:
    """One captured simulation image: immutable bytes + shared leaves."""

    __slots__ = ("payload", "shared", "nbytes", "meta")

    def __init__(self, payload: bytes, shared: tuple,
                 meta: Optional[dict] = None) -> None:
        self.payload = payload
        #: Immutable leaves restored by reference (see
        #: :class:`_SharingPickler`); one buffer shared by every
        #: restore and, across forks, copy-on-write.
        self.shared = shared
        self.nbytes = len(payload)
        self.meta = dict(meta or {})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MachineImage({self.nbytes} bytes, "
                f"{len(self.shared)} shared leaves, meta={self.meta})")


def _refuse(machine) -> None:
    """Raise :class:`SnapshotError` unless ``machine`` is quiescent."""
    if machine.faults is not None:
        raise SnapshotError(
            "cannot snapshot a machine with an armed fault plan: the "
            "injector's RNG streams are mid-sequence; arm faults on "
            "the restored machine instead (or run cold)")
    for thread in machine.engine._threads:
        if not thread.done:
            raise SnapshotError(
                f"cannot snapshot with live thread "
                f"{thread.name!r} (tid {thread.tid}): the image must "
                f"be quiescent — finish or avoid spawning before "
                f"capture")
        if thread.span is not None:
            raise SnapshotError(
                f"cannot snapshot mid-request: thread {thread.name!r} "
                f"(tid {thread.tid}) has an open span")


def capture(machine, extras: tuple = (), meta: Optional[dict] = None
            ) -> MachineImage:
    """Capture ``machine`` (plus companion objects that reference it,
    e.g. a cgroup and an :class:`~repro.apps.lsm.db.LsmDb`) into one
    image.  Shared references are preserved inside the blob, so
    ``restore`` yields a consistent graph.
    """
    _refuse(machine)
    buffer = io.BytesIO()
    shared: list = []
    try:
        _SharingPickler(buffer, shared).dump((machine,) + tuple(extras))
    except Exception as exc:
        raise SnapshotError(
            f"machine graph is not picklable: {exc}") from exc
    return MachineImage(buffer.getvalue(), tuple(shared), meta)


def restore(image: MachineImage) -> tuple:
    """Materialize a fresh, independent graph from ``image``.

    Returns the ``(machine, *extras)`` tuple :func:`capture` was given.
    Every call builds new objects — restored cells cannot observe each
    other's writes.
    """
    _stats["restores"] += 1
    return _SharingUnpickler(io.BytesIO(image.payload),
                             image.shared).load()


# ----------------------------------------------------------------------
# process-wide image cache
# ----------------------------------------------------------------------
#: key -> MachineImage.  Lives in the parent across a sweep; forked
#: workers inherit the populated dict (and the byte payloads) COW.
_images: dict = {}
_stats = {"captures": 0, "cache_hits": 0, "restores": 0}


def get_or_capture(key, builder) -> MachineImage:
    """The sweep entry point: one capture per key, then cache hits.

    ``builder()`` must return an ``(machine, extras)`` pair; it runs
    only on a cache miss.
    """
    image = _images.get(key)
    if image is not None:
        _stats["cache_hits"] += 1
        return image
    machine, extras = builder()
    image = capture(machine, extras, meta={"key": key})
    _stats["captures"] += 1
    _images[key] = image
    return image


def cached(key) -> Optional[MachineImage]:
    return _images.get(key)


def clear_cache() -> None:
    """Drop all cached images (tests; long-lived sessions)."""
    _images.clear()


def cache_info() -> dict:
    """Counters + resident bytes, for bench reports and tests."""
    return {"entries": len(_images),
            "bytes": sum(img.nbytes for img in _images.values()),
            **_stats}
