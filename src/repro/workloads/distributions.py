"""Key-choice distributions from the YCSB specification.

The zipfian generator follows Gray et al. ("Quickly generating
billion-record synthetic databases"), the same algorithm the YCSB core
uses, so popularity skew matches the paper's workloads.  The scrambled
variant hashes the zipfian rank so hot keys scatter across the
keyspace (important for LSM locality: without scrambling, hot keys
cluster in a few SSTable pages and every policy looks great).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from itertools import islice, repeat

from repro.apps.lsm.format import fnv1a
from repro.kernel.stats import left_sum


class _KeyGenerator:
    """What every key generator shares: :meth:`take`."""

    def take(self, count: int) -> array:
        """``count`` draws as one ``array('q')`` — exactly the values,
        and the RNG state, that ``count`` calls of ``next()`` leave.

        Subclasses override :meth:`_draws` with a chain of C-level
        iterators over the same RNG calls; the default calls ``next``.
        """
        return array("q", self._draws(count))

    def _draws(self, count: int):
        return islice(iter(self.next, None), count)


class UniformGenerator(_KeyGenerator):
    """Uniform over [0, n)."""

    def __init__(self, n: int, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.n)

    def _draws(self, count: int):
        return map(self._rng.randrange, repeat(self.n, count))


class ZipfianGenerator(_KeyGenerator):
    """Zipfian over [0, n) with YCSB's default theta = 0.99.

    Rank 0 is the most popular item.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        # At n == 2, zeta2 == zetan and YCSB's eta divides by zero.
        # There only the last ulps of u fall past rank 1, where an eta
        # of 1.0 still draws rank 1; at n == 1, u * zetan < 1 always.
        self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                     / (1.0 - self._zeta2 / self._zetan)
                     if n > 2 else 1.0)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return left_sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        # YCSB's ZipfianGenerator.nextLong does the same arithmetic.
        # With a small eta, the top ulps of u round the base to exactly
        # 1.0 and the rank to n, one past the keyspace: clamp it.
        rank = int(self.n * (self._eta * u - self._eta + 1.0)
                   ** self._alpha)
        return rank if rank < self.n else self.n - 1


#: Process-wide zipfian CDF memo keyed by (n, theta).  The CDF is a
#: pure function of its key and costs O(n) float work to build; every
#: worker of every cell at the same scale shares one copy.
_CDF_CACHE: dict[tuple, list] = {}

#: Process-wide FNV scramble tables keyed by n: table[rank] =
#: fnv1a(str(rank)) % n.  Ranks drawn by either zipfian sampler lie in
#: [0, n), so one table answers every scramble for that keyspace —
#: replacing a str + encode + two CRC32 passes per draw with an array
#: index.
_SCRAMBLE_CACHE: dict[int, array] = {}


def scramble_table(n: int) -> array:
    """The scramble table for keyspace ``n`` (memoized), as an
    ``array('q')``: eight bytes a rank.  It is filled from a generator,
    with no list in between, then copied once, which drops the 1/16
    spare room an array keeps while it grows."""
    table = _SCRAMBLE_CACHE.get(n)
    if table is None:
        table = _SCRAMBLE_CACHE[n] = array("q", array(
            "q", (fnv1a(str(rank)) % n for rank in range(n))))
    return table


def zipf_cdf(n: int, theta: float) -> list:
    """The normalized zipfian CDF over ranks 1..n (memoized), shared
    by every :class:`CdfZipfianGenerator` of that ``(n, theta)``.

    The last entry is ``acc / acc``, which is exactly ``1.0``; since
    ``random()`` is below 1.0, ``bisect_right`` over this list always
    lands in ``[0, n)``.  It stays a list of floats: over an
    ``array('d')``, ``bisect_right`` boxes a float per probe, which
    made a cold YCSB stream build about 20 % slower.
    """
    cached = _CDF_CACHE.get((n, theta))
    if cached is None:
        cdf = []
        acc = 0.0
        for i in range(1, n + 1):
            acc += i ** (-theta)
            cdf.append(acc)
        cached = _CDF_CACHE[(n, theta)] = [c / acc for c in cdf]
    return cached


class CdfZipfianGenerator(_KeyGenerator):
    """Inverse-CDF zipfian sampler valid for any theta > 0.

    The YCSB rejection-free algorithm in :class:`ZipfianGenerator`
    assumes theta < 1; experiments that need *scaled-equivalent skew*
    (matching the paper-scale mass concentration at the cache boundary
    on a 1000x smaller keyspace — see EXPERIMENTS.md) use theta >= 1,
    which this sampler handles by binary search over a precomputed CDF.
    """

    def __init__(self, n: int, theta: float, seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._cdf = zipf_cdf(n, theta)

    def next(self) -> int:
        return bisect_right(self._cdf, self._rng.random())

    def _draws(self, count: int):
        return map(bisect_right, repeat(self._cdf, count),
                   islice(iter(self._rng.random, None), count))


class ScrambledZipfianGenerator(_KeyGenerator):
    """Zipfian ranks scattered across the keyspace by FNV hashing."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        self.n = n
        if theta < 1.0:
            self._zipf = ZipfianGenerator(n, theta, seed)
        else:
            self._zipf = CdfZipfianGenerator(n, theta, seed)
        self._scramble = scramble_table(n)

    def next(self) -> int:
        return self._scramble[self._zipf.next()]

    def _draws(self, count: int):
        return map(self._scramble.__getitem__, self._zipf._draws(count))


class LatestGenerator(_KeyGenerator):
    """YCSB's "latest" distribution: recency-skewed towards the newest
    insert (workload D).  ``max_index`` moves as inserts happen.

    The offset skew takes the same scaled-equivalent calibration as
    the zipfian request distributions: at paper scale the popular
    offsets are a vanishing fraction of the keyspace (workload D runs
    effectively in-memory, per §6.1.1), which a theta >= 1 offset
    distribution reproduces on a small keyspace.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        self.max_index = n - 1
        if theta < 1.0:
            self._zipf = ZipfianGenerator(n, theta, seed)
        else:
            self._zipf = CdfZipfianGenerator(n, theta, seed)

    def advance(self) -> None:
        """Record one insert (the window slides forward)."""
        self.max_index += 1

    def next(self) -> int:
        offset = self._zipf.next()
        return max(0, self.max_index - offset)
