"""On-disk format shared by the SSTable writer and reader.

Pages hold Python objects standing in for serialized bytes; the
*accounted* sizes (entries per 4 KiB page, bloom bits, index fan-out)
follow the configured key/value sizes so I/O volumes match what a real
LevelDB with the same record sizes would issue.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from dataclasses import dataclass, field

from repro.kernel.folio import PAGE_SIZE

#: Bits of bloom filter per key (LevelDB's default is 10).
BLOOM_BITS_PER_KEY = 10
#: Bloom hash probes.
BLOOM_HASHES = 4
#: Bits per bloom page.
BLOOM_PAGE_BITS = PAGE_SIZE * 8
#: BLOOM_PAGE_BITS is a power of two, so chunk/bit splitting is a
#: shift and a mask on the probe hot path.
_BLOOM_PAGE_SHIFT = BLOOM_PAGE_BITS.bit_length() - 1
_BLOOM_PAGE_MASK = BLOOM_PAGE_BITS - 1
assert BLOOM_PAGE_BITS == 1 << _BLOOM_PAGE_SHIFT
#: Index entries per index page (first_key + page number comfortably
#: fit 16 bytes each at our key sizes).
INDEX_ENTRIES_PER_PAGE = 256

import zlib


def fnv1a(key: str, salt: int = 0) -> int:
    """Deterministic 64-bit string hash.

    Builtin ``hash`` is process-randomized for strings, which would
    break run-to-run reproducibility, so we derive a 64-bit value from
    two salted CRC32 passes (C-speed, unlike a per-character pure-Python
    FNV loop — bloom probes and key scrambling sit on hot paths).
    """
    data = key.encode()
    lo = zlib.crc32(data, salt & 0xFFFFFFFF)
    hi = zlib.crc32(data, (salt ^ 0x9E3779B9) & 0xFFFFFFFF)
    return (hi << 32) | lo


#: Memoized bloom probe hashes: key -> (h_0 .. h_{BLOOM_HASHES-1}).
#: The four 64-bit values are independent of any particular filter's
#: ``nbits`` (the modulo happens at probe time), so one entry serves
#: every bloom filter the key ever touches — the same hot key is
#: probed against each table of every level on each point read.
_HASH_CACHE: dict[str, tuple] = {}
#: Entries are ~100 bytes each; clear-on-full bounds the memo at a few
#: tens of MiB in the worst case while keeping the common case (one
#: experiment's keyspace) fully resident.
_HASH_CACHE_MAX = 1 << 18


def bloom_hashes(key: str) -> tuple:
    """The :data:`BLOOM_HASHES` salted 64-bit hashes of ``key``.

    Bit positions derive as ``h % nbits`` per filter; values are
    identical to ``fnv1a(key, probe)`` for probe in 0..BLOOM_HASHES-1.
    """
    cached = _HASH_CACHE.get(key)
    if cached is not None:
        return cached
    data = key.encode()
    crc32 = zlib.crc32
    hashes = tuple(
        (crc32(data, (probe ^ 0x9E3779B9) & 0xFFFFFFFF) << 32)
        | crc32(data, probe)
        for probe in range(BLOOM_HASHES))
    if len(_HASH_CACHE) >= _HASH_CACHE_MAX:
        _HASH_CACHE.clear()
    _HASH_CACHE[key] = hashes
    return hashes


@dataclass(frozen=True)
class RecordFormat(SnapshotFriendly):
    """Sizing of one key-value record.

    ``entries_per_page`` is how many records fit one 4 KiB data page;
    the paper's YCSB setup uses ~1 KiB values, i.e. 4 records per page.
    """

    key_size: int = 24
    value_size: int = 1000
    # Derived once per format, and kept out of repr/==/hash: snapshot
    # image keys are built from those.
    record_bytes: int = field(init=False, repr=False, compare=False)
    entries_per_page: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        record_bytes = self.key_size + self.value_size + 8  # + seq/len
        object.__setattr__(self, "record_bytes", record_bytes)
        object.__setattr__(self, "entries_per_page",
                           max(1, PAGE_SIZE // record_bytes))


class BloomFilter:
    """Paged bloom filter.

    Bits are split into page-sized chunks; the reader learns which
    pages a probe touches without materializing the whole filter.
    Built in memory by the writer, stored one chunk per bloom page.
    """

    def __init__(self, nkeys: int) -> None:
        nbits = max(BLOOM_PAGE_BITS, nkeys * BLOOM_BITS_PER_KEY)
        self.npages = (nbits + BLOOM_PAGE_BITS - 1) // BLOOM_PAGE_BITS
        self.nbits = self.npages * BLOOM_PAGE_BITS
        self.chunks = [bytearray(PAGE_SIZE) for _ in range(self.npages)]

    def _positions(self, key: str):
        for probe in range(BLOOM_HASHES):
            yield fnv1a(key, probe) % self.nbits

    # add_all/test_chunks draw their probe hashes from the process-wide
    # :func:`bloom_hashes` memo so the key is CRC'd once per process
    # instead of once per probe per filter (both sit on the SSTable
    # write and point-read hot paths).  The memoized values equal
    # ``fnv1a(key, probe)``, so bit positions are identical to
    # :meth:`_positions`, which is kept as the readable reference.

    def add_all(self, keys) -> None:
        """Set every key's bits in one pass: a table's filter is built
        whole, from its key list, when the writer finishes."""
        nbits = self.nbits
        chunks = self.chunks
        cached = _HASH_CACHE.get
        for key in keys:
            for h in cached(key) or bloom_hashes(key):
                pos = h % nbits
                # divmod by the power-of-two page size, as shift/mask.
                bit = pos & _BLOOM_PAGE_MASK
                chunks[pos >> _BLOOM_PAGE_SHIFT][bit >> 3] |= 1 << (bit & 7)

    def add(self, key: str) -> None:
        self.add_all((key,))

    @staticmethod
    def test_chunks(chunks: list, nbits: int, key: str) -> bool:
        """Membership probe against already-loaded chunks."""
        for h in bloom_hashes(key):
            pos = h % nbits
            bit = pos & _BLOOM_PAGE_MASK
            if not chunks[pos >> _BLOOM_PAGE_SHIFT][bit >> 3] \
                    & (1 << (bit & 7)):
                return False
        return True
