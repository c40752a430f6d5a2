"""The scramble table as a list of boxed ints, one comprehension item
per rank.

``repro.workloads.distributions.scramble_table`` stores the same ranks
in an ``array('q')``; this body is what it must stay equal to, element
for element.
"""

from repro.apps.lsm.format import fnv1a


def scramble_table(n: int) -> list:
    return [fnv1a(str(rank)) % n for rank in range(n)]
