"""A bloom filter one bit at a time: every position from
``BloomFilter._positions`` (eight plain salted CRC-32 passes per key),
set and tested with a divmod per position.  ``BloomFilter.add_all`` and
``test_chunks`` derive the same positions from one CRC of the key; this
is what their chunks and verdicts must stay equal to.
"""

from repro.apps.lsm.format import BLOOM_PAGE_BITS


def reference_add(bloom, key) -> None:
    for pos in bloom._positions(key):
        chunk, bit = divmod(pos, BLOOM_PAGE_BITS)
        bloom.chunks[chunk][bit >> 3] |= 1 << (bit & 7)


def reference_test(bloom, key) -> bool:
    return all(bloom.chunks[pos // BLOOM_PAGE_BITS][
                   pos % BLOOM_PAGE_BITS >> 3] & (1 << (pos & 7))
               for pos in bloom._positions(key))
