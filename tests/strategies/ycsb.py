"""Small YCSB runs: every core workload mix, one to four client
threads, with and without a warm-up window, at YCSB's default skew or
the experiments' theta >= 1 (inverse-CDF sampler), replayed from a
pre-generated stream or sampled on line."""

from dataclasses import dataclass

from hypothesis import strategies as st

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
    pregen: bool

    def runner(self, cls, db):
        return cls(db, YCSB_WORKLOADS[self.workload], nkeys=NKEYS,
                   nops=self.nops, nthreads=self.nthreads,
                   warmup_ops=self.warmup_ops, seed=self.seed,
                   zipf_theta=self.zipf_theta, pregen=self.pregen)


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
        pregen=st.booleans())
