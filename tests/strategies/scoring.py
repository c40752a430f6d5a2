"""Inputs for ``list_iterate(..., MODE_SCORING)``: a list of scored
folios, a scan bound and an eviction context that may be part full."""

from dataclasses import dataclass

from hypothesis import strategies as st


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
