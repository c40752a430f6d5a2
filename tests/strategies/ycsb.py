"""Small YCSB runs: every core workload mix, one to four client
threads, with and without a warm-up window, at YCSB's default skew or
the experiments' theta >= 1 (inverse-CDF sampler), with streams built
in chunks of 1, 7 or 64 ops or the default chunk (``None``)."""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from hypothesis import strategies as st

from repro.workloads import streams
from repro.workloads.ycsb import YCSB_WORKLOADS

NKEYS = 600


@dataclass(frozen=True)
class YcsbCase:
    workload: str
    nthreads: int
    nops: int
    warmup_ops: int
    seed: int
    zipf_theta: float
    chunk: Optional[int]

    def runner(self, cls, db):
        return cls(db, YCSB_WORKLOADS[self.workload], nkeys=NKEYS,
                   nops=self.nops, nthreads=self.nthreads,
                   warmup_ops=self.warmup_ops, seed=self.seed,
                   zipf_theta=self.zipf_theta)

    @contextmanager
    def chunking(self):
        """Build streams from an empty cache in this case's chunks."""
        default = streams.STREAM_CHUNK
        streams.STREAM_CHUNK = self.chunk or default
        streams.clear_cache()
        try:
            yield
        finally:
            streams.STREAM_CHUNK = default
            streams.clear_cache()


def ycsb_cases() -> st.SearchStrategy:
    return st.builds(
        YcsbCase,
        workload=st.sampled_from(sorted(YCSB_WORKLOADS)),
        nthreads=st.integers(1, 4),
        # Not always a multiple of nthreads: the remainder is dropped.
        nops=st.integers(0, 240),
        warmup_ops=st.sampled_from((0, 0, 7, 60)),
        seed=st.integers(0, 50),
        zipf_theta=st.sampled_from((0.99, 1.1, 1.4)),
        chunk=st.sampled_from((1, 7, 64, None)))
