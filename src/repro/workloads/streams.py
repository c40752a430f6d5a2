"""Pre-generated workload streams (performance layer).

Sampling a key per operation at run time — a zipfian draw, an FNV
scramble, a ``random.Random`` call or three — is pure Python work that
sits on the hot path of every simulated operation.  Worse, the harness
runs the same (workload, size, seed) cell once *per policy*, so the
identical op sequence was being regenerated eight times per figure
row.

This module materializes each stream once per parameter tuple into
compact ``array`` buffers and memoizes them process-wide:

* serial runs reuse one buffer across every policy cell;
* the parallel runner's :attr:`ExperimentSpec.prepare` hook fills the
  cache in the parent before forking, so worker processes inherit the
  buffers copy-on-write and ship only the stream *spec* (the cell's
  kwargs), never the data.

Every runner replays its stream: streams reproduce the exact draw
order of the on-line samplers ``tests/reference/`` keeps (same
``random.Random`` seeds, same call sequence), and
``tests/test_workloads.py`` asserts replay == on-line for each runner.
The bulk builds are chains of C-level iterators (``map``, ``islice``,
``repeat``) over the same RNG calls.  A YCSB stream is built a
:data:`STREAM_CHUNK` at a time as it is read (fig11's runner asks for
10M ops and an engine deadline stops it after about 10k per thread).
"""

from __future__ import annotations

import random
from array import array
from itertools import repeat
from typing import Iterable, Optional

from repro.workloads.distributions import (LatestGenerator,
                                           ScrambledZipfianGenerator,
                                           UniformGenerator)

#: Operation codes used in pre-generated streams (array-friendly).
OP_READ, OP_UPDATE, OP_INSERT, OP_SCAN, OP_RMW = range(5)
OP_NAMES = ("read", "update", "insert", "scan", "rmw")

#: Ops a YCSB stream builds at a time.  Above every plan's per-worker
#: total but fig11's (the largest, 8,750, is full-scale fig6 and
#: chaos), so only fig11's streams are ever partly built.
STREAM_CHUNK = 1 << 14

#: Total bytes of materialized stream data kept resident.  The cache
#: is FIFO-bounded by *bytes* (not entry count — one fig11-scale
#: stream outweighs a thousand quick-scale ones): inserting past the
#: cap evicts the oldest entries first.  A full-scale fig6 sweep's
#: streams total a few MiB, so evictions only matter for long-lived
#: processes sweeping many scales.
STREAM_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Always False: every stream is built with the standard library.
#: Kept only because ``benchmarks/layered/run.py`` prints it in its
#: header line; nothing in ``repro`` reads it.
VECTORIZE = False

#: Process-global stream cache: parameter tuple -> materialized data.
#: Filled either lazily (first cell to need a stream builds it) or
#: eagerly by an experiment's ``prepare`` hook (pre-fork, for COW
#: sharing).  Entries are pure functions of their key, so eviction
#: is always safe — at worst the stream is rebuilt.
_CACHE: dict = {}
_cache_bytes = 0
_cache_evictions = 0


def _value_bytes(value) -> int:
    if isinstance(value, OpStream):
        return value.nbytes
    if isinstance(value, array):
        return value.buffer_info()[1] * value.itemsize
    if isinstance(value, list):
        return sum(map(len, value))
    return 0


def _cache_put(key, value):
    """Insert under the byte cap, evicting oldest-first.

    A value larger than the whole cap is returned uncached (the caller
    still gets its stream; it just isn't retained).
    """
    global _cache_bytes, _cache_evictions
    nbytes = _value_bytes(value)
    if nbytes > STREAM_CACHE_MAX_BYTES:
        return value
    while _CACHE and _cache_bytes + nbytes > STREAM_CACHE_MAX_BYTES:
        oldest = next(iter(_CACHE))
        _cache_bytes -= _value_bytes(_CACHE.pop(oldest))
        _cache_evictions += 1
    _CACHE[key] = value
    _cache_bytes += nbytes
    return value


def _cache_regrow(key, value, before: int) -> None:
    """Account a resident ``value`` that grew in place from ``before``
    bytes: re-inserted as the newest entry, so the cap still holds."""
    global _cache_bytes
    if _CACHE.get(key) is value:
        del _CACHE[key]
        _cache_bytes -= before
        _cache_put(key, value)


def clear_cache() -> None:
    """Drop every memoized stream (test isolation hook)."""
    global _cache_bytes
    _CACHE.clear()
    _cache_bytes = 0


def cache_info() -> dict:
    """Cache occupancy: entries, resident bytes, byte cap, and how
    many entries the cap has evicted so far (debug/test aid)."""
    return {"entries": len(_CACHE), "bytes": _cache_bytes,
            "max_bytes": STREAM_CACHE_MAX_BYTES,
            "evictions": _cache_evictions}


class OpStream:
    """One operation stream of ``total`` ops, built up to ``len(self)``.

    ``kinds[i]`` is an ``OP_*`` code; ``indices[i]`` the pre-drawn key
    index (``-1`` for inserts, whose index is runtime state — the
    shared insert counter); ``lengths`` carries scan lengths and is
    ``None`` for streams that cannot contain scans.  :meth:`grow`
    extends the arrays in place from ``chunks``, which appends a chunk
    per step and yields the built length.
    """

    __slots__ = ("kinds", "indices", "lengths", "total", "_chunks", "_key")

    def __init__(self, kinds: array, indices: array,
                 lengths: Optional[array] = None, total: Optional[int] = None,
                 chunks: Iterable[int] = (), key=None) -> None:
        self.kinds = kinds
        self.indices = indices
        self.lengths = lengths
        self.total = len(kinds) if total is None else total
        self._chunks = iter(chunks)
        self._key = key

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def nbytes(self) -> int:
        return sum(len(a) * a.itemsize
                   for a in (self.kinds, self.indices, self.lengths)
                   if a is not None)

    def grow(self, needed: int) -> int:
        """Build chunks until ``needed`` ops exist (or all ``total``);
        returns the built length.  The cache's byte count follows."""
        built = len(self.kinds)
        if built < needed:
            before = self.nbytes
            for built in self._chunks:
                if built >= needed:
                    break
            _cache_regrow(self._key, self, before)
        return built


def check_sizes(**sizes: int) -> None:
    """Refuse a runner's ``*threads`` count below 1 or other count
    below 0 (a division by zero, or a run of nothing)."""
    for name, value in sizes.items():
        least = 1 if name.endswith("threads") else 0
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


# ----------------------------------------------------------------------
# Draw helpers (shared with the on-line samplers in tests/reference)
# ----------------------------------------------------------------------
def draw_op_kind(rng: random.Random, spec) -> int:
    """One YCSB op-kind draw; *the* float walk the streams and the
    on-line references share.

    ``spec.kind_shares`` leaves out zero shares only: ``r < 0.0`` never
    holds and ``r - 0.0`` is exact, so the chain's floats are unchanged."""
    r = rng.random()
    for kind, share in spec.kind_shares:
        if r < share:
            return kind
        r -= share
    return OP_RMW


def make_ycsb_chooser(spec, nkeys: int, seed: int,
                      zipf_theta: float, latest_theta: float):
    """The request-distribution generator for one YCSB worker."""
    if spec.distribution == "zipfian":
        return ScrambledZipfianGenerator(nkeys, theta=zipf_theta,
                                         seed=seed)
    if spec.distribution == "uniform":
        return UniformGenerator(nkeys, seed=seed)
    if spec.distribution == "latest":
        return LatestGenerator(nkeys, theta=latest_theta, seed=seed)
    raise ValueError(f"unknown distribution {spec.distribution}")


# ----------------------------------------------------------------------
# Stream builders
# ----------------------------------------------------------------------
def ycsb_stream(spec, nkeys: int, total: int, seed: int, worker: int,
                zipf_theta: float, latest_theta: float) -> OpStream:
    """The op stream one YCSB worker thread replays (warmup included),
    built to its first chunk (see :meth:`OpStream.grow`).

    Reproduces the on-line draw order exactly: one ``rng.random()``
    per op (kind), a chooser draw for non-inserts, a
    ``LatestGenerator.advance()`` per insert, and a scan-length
    ``rng.randrange`` after the chooser draw.  Insert indices are
    stored as ``-1``: they come from the runner's *shared* insert
    counter, which is runtime state.  Each chunk resumes the same
    ``rng`` and chooser, so where chunks end cannot change a draw.
    """
    key = ("ycsb", spec, nkeys, total, seed, worker,
           zipf_theta, latest_theta)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    rng = random.Random(seed * 1000 + worker)
    chooser = make_ycsb_chooser(spec, nkeys, seed * 77 + worker,
                                zipf_theta, latest_theta)
    kinds, indices = array("b"), array("q")
    lengths = array("l") if spec.scan > 0 else None
    stream = OpStream(kinds, indices, lengths, total,
                      _ycsb_chunks(spec, total, rng, chooser,
                                   kinds, indices, lengths), key)
    stream.grow(1)
    return _cache_put(key, stream)


def _ycsb_chunks(spec, total: int, rng: random.Random, chooser,
                 kinds: array, indices: array, lengths: Optional[array]):
    """Append ``total`` ops to the arrays a chunk at a time; yields
    the built length after each chunk.

    Without inserts and scans (A, B, C, F, uniform, uniform-rw) a
    chunk is *separable*: ``rng`` draws only kinds and the chooser only
    keys, so the chunk's kinds are drawn first and its keys in one
    :meth:`take`.  A one-kind mix draws no kinds at all — ``random() <
    1.0 <= share`` picks that kind every time, and nothing else reads
    ``rng``.
    """
    shares = spec.kind_shares
    separable = spec.insert == 0 and spec.scan == 0
    one_kind = len(shares) == 1 and shares[0][1] >= 1.0
    is_latest = spec.distribution == "latest"
    max_scan_len = spec.max_scan_len
    built = 0
    while built < total:
        count = min(STREAM_CHUNK, total - built)
        if separable:
            kinds.extend(array("b", [shares[0][0]]) * count if one_kind
                         else map(draw_op_kind, repeat(rng, count),
                                  repeat(spec, count)))
            indices.extend(chooser.take(count))
        else:
            for _ in range(count):
                kind = draw_op_kind(rng, spec)
                kinds.append(kind)
                if kind == OP_INSERT:
                    indices.append(-1)
                    if is_latest:
                        chooser.advance()
                    if lengths is not None:
                        lengths.append(0)
                    continue
                indices.append(chooser.next())
                if lengths is not None:
                    lengths.append(1 + rng.randrange(max_scan_len)
                                   if kind == OP_SCAN else 0)
        built += count
        yield built


def twitter_stream(profile, nkeys: int, total: int, seed: int) -> OpStream:
    """The shared op stream one Twitter cluster run consumes.

    The runner's threads interleave on one stateful
    :class:`~repro.workloads.twitter.ClusterKeyStream`, drawing exactly
    ``warmup + nops`` ops in engine order — which makes the *sequence*
    interleaving-independent and therefore pre-generatable.
    """
    key = ("twitter", profile, nkeys, total, seed)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    from repro.workloads.twitter import ClusterKeyStream
    source = ClusterKeyStream(profile, nkeys, seed=seed)
    kinds = array("b")
    indices = array("q")
    for _ in range(total):
        kind, index = source.next_op()
        kinds.append(OP_UPDATE if kind == "update" else OP_READ)
        indices.append(index)
    return _cache_put(key, OpStream(kinds, indices))


def zipfian_indices(nkeys: int, theta: float, seed: int,
                    count: int) -> array:
    """``count`` scrambled-zipfian key indices (GET-SCAN's GET side)."""
    key = ("zipf", nkeys, theta, seed, count)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    return _cache_put(key, ScrambledZipfianGenerator(
        nkeys, theta=theta, seed=seed).take(count))


def uniform_indices(nkeys: int, seed: int, count: int) -> array:
    """``count`` uniform key indices (GET-SCAN's scan starts)."""
    key = ("uniform", nkeys, seed, count)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    return _cache_put(key, UniformGenerator(nkeys, seed=seed).take(count))


def key_strings(nkeys: int) -> list:
    """``key_of(i)`` for the loaded keyspace, formatted once.

    ``key_of(i)`` is ``key_of(i - i % 1000)[:-3]`` joined to ``i %
    1000`` in three digits: one head per thousand keys, 1,000 shared
    tails.  Shared by the bulk-load phase and every runner's hot path;
    insert indices past ``nkeys`` still format on demand.
    """
    key = ("keys", nkeys)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    from repro.workloads.ycsb import key_of
    tails = [str(tail).zfill(3) for tail in range(1000)]
    keys: list = []
    for block in range(0, nkeys, 1000):
        head = key_of(block)[:-3]
        keys += [head + tail for tail in tails[:nkeys - block]]
    return _cache_put(key, keys)
