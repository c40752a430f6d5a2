"""Inputs for ``list_iterate``: a list of folios with a score
(``MODE_SCORING``) or a verdict (``MODE_SIMPLE``) each, a scan bound
and an eviction context that may be part full."""

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.cache_ext.kfuncs import (ITER_EVICT, ITER_MOVE, ITER_ROTATE,
                                    ITER_SKIP, ITER_STOP)


@dataclass(frozen=True)
class ScoringCase:
    #: One score per folio on the list, head first.
    scores: tuple
    #: ``nr_scan`` as passed to list_iterate (0 = the kfunc's default).
    nr_scan: int
    #: ``EvictionCtx(requested)`` with ``prefilled`` candidates already
    #: proposed, so ``want = requested - prefilled``.
    requested: int
    prefilled: int


@st.composite
def scoring_cases(draw, max_len: int = 40) -> ScoringCase:
    n = draw(st.integers(1, max_len))
    # Heavy ties (an LFU list is mostly frequency 1) or a wide spread.
    score = draw(st.sampled_from((st.integers(0, 2), st.integers(1, 1),
                                  st.integers(-5, 1000))))
    scores = tuple(draw(st.lists(score, min_size=n, max_size=n)))
    # nr_scan below, at and above len(list); 0 selects the default.
    nr_scan = draw(st.one_of(st.just(0), st.just(n),
                             st.integers(1, n + 8)))
    requested = draw(st.integers(1, 32))
    prefilled = draw(st.integers(0, requested - 1))
    return ScoringCase(scores, nr_scan, requested, prefilled)


@dataclass(frozen=True)
class SimpleCase:
    #: The callback's verdict at each scan position; the list is as
    #: long.
    verdicts: tuple
    nr_scan: int
    requested: int
    prefilled: int
    #: Whether list_iterate is handed a ``dst_list`` (without one,
    #: ``ITER_MOVE`` is the EINVAL exit).
    with_dst: bool


#: Not an ``ITER_*`` value: treated as ``ITER_SKIP``.
UNKNOWN_VERDICT = 17


@st.composite
def simple_cases(draw, max_len: int = 40) -> SimpleCase:
    n = draw(st.integers(1, max_len))
    # Every verdict alike, or mixes in which the two early exits
    # (ITER_STOP, ITER_MOVE without a dst_list) are rare enough for
    # long scans to be drawn too.
    verdict = draw(st.sampled_from((
        st.sampled_from((ITER_SKIP, ITER_EVICT, ITER_MOVE, ITER_ROTATE,
                         ITER_STOP, UNKNOWN_VERDICT)),
        st.sampled_from((ITER_SKIP, ITER_EVICT, ITER_ROTATE,
                         UNKNOWN_VERDICT)),
        st.sampled_from((ITER_EVICT, ITER_EVICT, ITER_ROTATE, ITER_MOVE)),
    )))
    verdicts = tuple(draw(st.lists(verdict, min_size=n, max_size=n)))
    nr_scan = draw(st.one_of(st.just(0), st.just(n),
                             st.integers(1, n + 8)))
    requested = draw(st.integers(1, 32))
    prefilled = draw(st.integers(0, requested - 1))
    return SimpleCase(verdicts, nr_scan, requested, prefilled,
                      draw(st.booleans()))
