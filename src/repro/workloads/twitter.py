"""Synthetic Twitter-cache cluster traces (§6.1.2 / Figure 8).

The paper replays production traces from Yang et al.'s large-scale
Twitter cache study [74].  Those traces are not redistributable, so we
synthesize per-cluster key streams whose *structural* features are the
ones that decide which eviction policy wins — the point of Figure 8 is
precisely that different clusters favour different policies:

* **cluster 17 / 18** — a *drifting* working set: popularity is
  zipfian over a window that slides through the keyspace, so access
  frequency goes stale.  Recency-graded policies (MGLRU's generations)
  track the drift; frequency policies (LFU) cling to dead keys.
* **cluster 24** — short-term temporal locality with mild skew: a
  recently-seen key is very likely to be re-referenced within a short
  horizon, after which it goes cold.  Plain LRU (the kernel default)
  is near-optimal; everything cleverer just adds noise.
* **cluster 34** — bimodal object lifetimes: a stable zipfian core
  plus periodic *burst* keys that are hammered briefly and then die.
  Burst keys acquire high frequency (fooling LFU) and high recency
  (fooling LRU); LHD's age-conditioned hit densities learn that
  class's pages stop hitting after a short age and reclaims them.
* **cluster 52** — a stable, strongly-skewed zipfian: textbook LFU
  territory.

Like the paper, each cluster runs against LevelDB (our LSM store) with
the cgroup sized to 10% of the cluster's data size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.lsm.db import LsmDb
from repro.apps.lsm.format import fnv1a
from repro.kernel.stats import LatencyRecorder
from repro.workloads import streams
from repro.workloads.distributions import CdfZipfianGenerator, \
    ZipfianGenerator
from repro.workloads.streams import OpStream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimThread


@dataclass(frozen=True)
class ClusterProfile:
    """Knobs describing one cluster's access structure."""

    name: str
    #: Zipfian skew of the stable popularity core.
    zipf_theta: float = 0.9
    #: Fraction of the keyspace the sliding window covers (1.0 = all).
    window_frac: float = 1.0
    #: Keys the window advances per 1000 operations (0 = no drift).
    drift_per_kop: int = 0
    #: Probability an op re-references one of the last ``recent_depth``
    #: distinct keys (temporal locality, cluster 24's signature).
    reuse_prob: float = 0.0
    recent_depth: int = 64
    #: Probability an op starts a burst on a fresh key; burst keys are
    #: re-accessed ``burst_len`` times and then never again.
    burst_prob: float = 0.0
    burst_len: int = 24
    #: Probability an op touches a fresh key exactly once (one-hit
    #: wonders — heavy in several Twitter clusters).
    onehit_prob: float = 0.0
    #: Update fraction (Twitter clusters are read-heavy; a small write
    #: share keeps the LSM write path exercised).
    update_frac: float = 0.05


CLUSTERS: dict[int, ClusterProfile] = {
    # 17/18: drifting working sets laced with one-hit wonders.
    # Frequency goes stale (LFU collapses); one-hit noise wastes the
    # default policy's inactive list, while MGLRU discards history-free
    # pages from the oldest generation almost immediately.
    17: ClusterProfile("cluster17", zipf_theta=0.95, window_frac=0.25,
                       drift_per_kop=400, onehit_prob=0.3,
                       update_frac=0.02),
    18: ClusterProfile("cluster18", zipf_theta=1.0, window_frac=0.3,
                       drift_per_kop=250, onehit_prob=0.2,
                       update_frac=0.02),
    # 24: medium-distance temporal reuse — re-references arrive after
    # S3-FIFO's small FIFO would have filtered the key out but well
    # within plain LRU's window: the kernel default's home turf.
    24: ClusterProfile("cluster24", zipf_theta=0.6, reuse_prob=0.55,
                       recent_depth=800),
    # 34: bimodal lifetimes — short intense bursts that then die.
    # Bursts acquire frequency (fooling LFU) and earn S3-FIFO main-list
    # promotion; LHD's age-conditioned densities learn the class dies.
    34: ClusterProfile("cluster34", zipf_theta=0.9, burst_prob=0.03,
                       burst_len=8),
    # 52: stable, strongly-skewed popularity (scaled-equivalent skew,
    # see EXPERIMENTS.md): frequency-policy territory.
    52: ClusterProfile("cluster52", zipf_theta=1.15, update_frac=0.01),
}


class ClusterKeyStream:
    """Stateful key generator for one cluster profile."""

    def __init__(self, profile: ClusterProfile, nkeys: int,
                 seed: int = 7) -> None:
        self.profile = profile
        self.nkeys = nkeys
        self.rng = random.Random(seed)
        window = max(2, int(nkeys * profile.window_frac))
        self.window = window
        if profile.zipf_theta < 1.0:
            self.zipf = ZipfianGenerator(window,
                                         theta=profile.zipf_theta,
                                         seed=seed + 1)
        else:
            self.zipf = CdfZipfianGenerator(window,
                                            theta=profile.zipf_theta,
                                            seed=seed + 1)
        self.drift_base = 0
        self.ops = 0
        self.recent: list[int] = []
        self.burst_key: int = -1
        self.burst_remaining = 0
        self._burst_counter = 0
        self._onehit_counter = 0

    def next_index(self) -> int:
        p = self.profile
        self.ops += 1
        if p.drift_per_kop and self.ops % 1000 == 0:
            self.drift_base = (self.drift_base + p.drift_per_kop) \
                % self.nkeys
        # Burst keys: brief, intense, then dead.
        if self.burst_remaining > 0:
            self.burst_remaining -= 1
            return self.burst_key
        if p.burst_prob and self.rng.random() < p.burst_prob:
            self._burst_counter += 1
            # Walk bursts through the keyspace so each is fresh.
            self.burst_key = (self._burst_counter * 7919) % self.nkeys
            self.burst_remaining = p.burst_len
            return self.burst_key
        # One-hit wonders: fresh key, touched once, never again.
        if p.onehit_prob and self.rng.random() < p.onehit_prob:
            self._onehit_counter += 1
            return (self._onehit_counter * 6101 + 13) % self.nkeys
        # Temporal re-reference.
        if p.reuse_prob and self.recent and \
                self.rng.random() < p.reuse_prob:
            return self.recent[self.rng.randrange(len(self.recent))]
        rank = (self.drift_base + self.zipf.next()) % self.nkeys
        # Scatter popularity across the keyspace (and therefore across
        # SSTable pages), as YCSB's scrambled zipfian does; without
        # this, hot keys pack into a few contiguous pages and every
        # policy trivially caches them.
        index = fnv1a(str(rank)) % self.nkeys
        self.recent.append(index)
        if len(self.recent) > p.recent_depth:
            self.recent.pop(0)
        return index

    def next_op(self) -> tuple[str, int]:
        kind = ("update" if self.rng.random() < self.profile.update_frac
                else "read")
        return (kind, self.next_index())


@dataclass
class TwitterResult:
    cluster: str
    ops: int = 0
    elapsed_us: float = 0.0
    read_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    missing_keys: int = 0

    @property
    def throughput(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops / (self.elapsed_us / 1e6)


class TwitterRunner:
    """Replays one synthetic cluster trace against an LSM store."""

    def __init__(self, db: LsmDb, profile: ClusterProfile, nkeys: int,
                 nops: int, seed: int = 11, warmup_ops: int = 0,
                 nthreads: int = 4) -> None:
        """``warmup_ops`` run before the measured window (steady-state
        surrogate, as in the YCSB runner); threads share one stream.

        The stream's op sequence does not depend on how the engine
        interleaves the client threads (each step consumes exactly one
        op from shared state), so it is built once per (profile,
        nkeys, total, seed) by :meth:`prepare_streams` and shared
        across cells.
        """
        streams.check_sizes(nthreads=nthreads, nops=nops,
                            warmup_ops=warmup_ops)
        self.db = db
        self.profile = profile
        self.nkeys = nkeys
        self.seed = seed
        self.nops = nops
        self.warmup_ops = warmup_ops
        self.nthreads = nthreads
        self.result = TwitterResult(profile.name)

    @staticmethod
    def prepare_streams(profile: ClusterProfile, nkeys: int, nops: int,
                        warmup_ops: int = 0, seed: int = 11) -> OpStream:
        """The op stream every thread of one runner configuration
        shares, warm-up included (see
        :meth:`YcsbRunner.prepare_streams`)."""
        streams.check_sizes(nops=nops, warmup_ops=warmup_ops)
        streams.key_strings(nkeys)
        return streams.twitter_stream(profile, nkeys, warmup_ops + nops,
                                      seed)

    def run(self) -> TwitterResult:
        ops_stream = self.prepare_streams(self.profile, self.nkeys,
                                          self.nops, self.warmup_ops,
                                          self.seed)
        op_kinds, op_indices = ops_stream.kinds, ops_stream.indices
        total = ops_stream.total
        warmup = self.warmup_ops
        keys = streams.key_strings(self.nkeys)
        state = {"pos": 0}
        result = self.result
        window_start = {"t": 0.0}

        def step(thread: "SimThread") -> bool:
            i = state["pos"]
            if i >= total:
                return False
            state["pos"] = i + 1
            warm = i < warmup
            update = op_kinds[i]  # OP_UPDATE == 1, OP_READ == 0
            index = op_indices[i]
            thread.advance(self.db.machine.costs.app_op_us)
            key = keys[index]
            if not update:
                start = thread.clock_us
                missing = self.db.get(key) is None
                if not warm:
                    if missing:
                        result.missing_keys += 1
                    result.read_latency.record(thread.clock_us - start)
            else:
                self.db.put(key, ("u", result.ops))
            if warm:
                window_start["t"] = max(window_start["t"],
                                        thread.clock_us)
            else:
                result.ops += 1
                result.elapsed_us = max(
                    result.elapsed_us,
                    thread.clock_us - window_start["t"])
            return True

        for worker in range(self.nthreads):
            self.db.machine.spawn(
                f"twitter-{self.profile.name}-{worker}", step,
                cgroup=self.db.cgroup)
        self.db.machine.run()
        return result
