"""On-disk format shared by the SSTable writer and reader.

Pages hold Python objects standing in for serialized bytes; the
*accounted* sizes (entries per 4 KiB page, bloom bits, index fan-out)
follow the configured key/value sizes so I/O volumes match what a real
LevelDB with the same record sizes would issue.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from dataclasses import dataclass, field
from itertools import groupby
from zlib import crc32

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
assert BLOOM_HASHES == 4  # add_all unpacks its probes
#: Index entries per index page (first_key + page number comfortably
#: fit 16 bytes each at our key sizes).
INDEX_ENTRIES_PER_PAGE = 256


def fnv1a(key: str, salt: int = 0) -> int:
    """Deterministic 64-bit string hash (FNV in name only).

    Builtin ``hash`` is process-randomized for strings, which would
    break run-to-run reproducibility, so the value is two salted CRC-32
    passes: ``crc32(key, salt)`` in the low word and ``crc32(key, salt
    ^ 0x9E3779B9)`` in the high one.  CRC-32 is affine in its start
    value, so a caller hashing one key under many salts needs one pass
    (:class:`_ProbeSalts`).
    """
    data = key.encode()
    lo = crc32(data, salt & 0xFFFFFFFF)
    hi = crc32(data, (salt ^ 0x9E3779B9) & 0xFFFFFFFF)
    return (hi << 32) | lo


class _ProbeSalts(dict):
    """Encoded key length -> ``(los, salts)``, the constants that turn
    ``crc = crc32(data)`` into every probe hash: ``crc32(d, s) ==
    crc32(d) ^ crc32(z, s) ^ crc32(z)`` with ``z = bytes(len(d))``, so
    ``fnv1a(key, probe) == crc * 0x100000001 ^ salts[probe]`` (the CRC
    in both words), and its low word is ``crc ^ los[probe]``.  One
    entry per distinct key length."""

    def __missing__(self, length: int) -> tuple:
        zeros = "\0" * length
        base = crc32(zeros.encode()) * 0x100000001
        salts = tuple(fnv1a(zeros, probe) ^ base
                      for probe in range(BLOOM_HASHES))
        self[length] = pair = tuple(s & 0xFFFFFFFF for s in salts), salts
        return pair


_PROBE_SALTS = _ProbeSalts()


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


def filter_bits(nkeys: int) -> int:
    """Size of the filter for ``nkeys`` keys: ``BLOOM_BITS_PER_KEY``
    bits each, rounded up to whole pages, one page at least."""
    return max(1, -(-nkeys * BLOOM_BITS_PER_KEY // BLOOM_PAGE_BITS)) \
        * BLOOM_PAGE_BITS


class BloomFilter:
    """Paged bloom filter of ``nbits`` bits (see :func:`filter_bits`).

    Bits are split into page-sized chunks; the reader learns which
    pages a probe touches without materializing the whole filter.  A
    table derives its filter from its own keys on its first probe
    (:meth:`repro.apps.lsm.sstable.SSTable.may_contain`).
    """

    def __init__(self, nbits: int) -> None:
        self.npages = nbits // BLOOM_PAGE_BITS
        self.nbits = nbits
        self.chunks = [bytearray(PAGE_SIZE) for _ in range(self.npages)]

    # add_all/test_chunks CRC the key once and XOR the probe salts in
    # (:class:`_ProbeSalts`); bit positions equal ``fnv1a(key, probe) %
    # nbits`` for each probe (``tests/reference/bloom.py`` sets them one
    # at a time).  Where ``h % nbits`` is a mask of the low word (to
    # build: a power-of-two filter, true up to 2**32 bits, 400 M keys;
    # to probe: one page) the 64-bit hash is never formed.

    def add_all(self, keys) -> None:
        """Set every key's bits in one pass: a table's filter is derived
        whole, from its keys, on its first probe."""
        nbits = self.nbits
        # One ASCII digit per bit, highest position first: int(flags, 2)
        # packs the filter in one call.
        flags = bytearray(b"0") * nbits
        top = nbits - 1
        for length, run in groupby(map(str.encode, keys), len):
            los, salts = _PROBE_SALTS[length]
            if not nbits & top:
                # Unpacked: looping the probes costs 13 % of the pass.
                l0, l1, l2, l3 = (~lo & top for lo in los)
                for crc in map(crc32, run):
                    crc &= top
                    flags[crc ^ l0] = flags[crc ^ l1] = \
                        flags[crc ^ l2] = flags[crc ^ l3] = 49
            else:
                for crc in map(crc32, run):
                    crc *= 0x100000001
                    for salt in salts:
                        flags[~((crc ^ salt) % nbits)] = 49
        chunks = self.chunks
        bits = (int(flags, 2) | int.from_bytes(b"".join(chunks), "little")
                ).to_bytes(nbits >> 3, "little")
        # In place: whoever holds a chunk keeps seeing it.
        for page, chunk in enumerate(chunks):
            chunk[:] = bits[page * PAGE_SIZE:(page + 1) * PAGE_SIZE]

    @staticmethod
    def test_chunks(chunks: list, nbits: int, key: str) -> bool:
        """Membership probe against already-loaded chunks."""
        data = key.encode()
        crc = crc32(data)
        los, salts = _PROBE_SALTS[len(data)]
        if len(chunks) == 1:
            chunk = chunks[0]
            for lo in los:
                bit = (crc ^ lo) & _BLOOM_PAGE_MASK
                if not chunk[bit >> 3] & (1 << (bit & 7)):
                    return False
            return True
        crc *= 0x100000001
        for salt in salts:
            pos = (crc ^ salt) % nbits
            bit = pos & _BLOOM_PAGE_MASK
            if not chunks[pos >> _BLOOM_PAGE_SHIFT][bit >> 3] \
                    & (1 << (bit & 7)):
                return False
        return True
