"""A bloom filter one bit at a time: every position from
:func:`positions` (eight plain salted CRC-32 passes per key), set and
tested with a divmod per position.  ``BloomFilter.add_all`` and
``test_chunks`` derive the same positions from one CRC of the key; this
is what their chunks and verdicts must stay equal to.
"""

from repro.apps.lsm.format import BLOOM_HASHES, BLOOM_PAGE_BITS, fnv1a


def positions(bloom, key):
    """The filter's bit for each probe: ``fnv1a(key, probe) % nbits``."""
    for probe in range(BLOOM_HASHES):
        yield fnv1a(key, probe) % bloom.nbits


def reference_add(bloom, key) -> None:
    for pos in positions(bloom, key):
        chunk, bit = divmod(pos, BLOOM_PAGE_BITS)
        bloom.chunks[chunk][bit >> 3] |= 1 << (bit & 7)


def reference_test(bloom, key) -> bool:
    return all(bloom.chunks[pos // BLOOM_PAGE_BITS][
                   pos % BLOOM_PAGE_BITS >> 3] & (1 << (pos & 7))
               for pos in positions(bloom, key))
