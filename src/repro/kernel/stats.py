"""Page-cache and cgroup statistics.

Disk access is the paper's proxy for hit rate ("Since the page cache
doesn't expose system-wide hit-rate metrics ... we use disk access as a
proxy to analyze policy behavior", §6.1.1); we additionally expose exact
hit/miss counters because the simulator can.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import add

from repro.snapshot import SnapshotFriendly


def left_sum(values):
    """``sum(values)`` as one left-to-right add per item, on every Python.

    CPython 3.12 made ``sum()`` over floats compensated, which rounds
    differently from 3.11's plain adds; every float sum that feeds a
    simulated number goes through here so the numbers do not depend on
    the interpreter.  Integers still sum exactly, to an ``int``.
    """
    return reduce(add, values, 0)


@dataclass
class CacheStats(SnapshotFriendly):
    """Counters kept per cgroup; machine-wide totals are the cgroups'
    counters summed on read (:meth:`add`, ``Machine.cache_stats``)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    refaults: int = 0
    activations: int = 0
    writebacks: int = 0
    #: Admission-filter rejections (folio served direct-I/O style).
    admission_rejects: int = 0
    #: Eviction candidates proposed by a cache_ext policy.
    ext_candidates: int = 0
    #: Candidates rejected by registry/pin validation.
    ext_invalid_candidates: int = 0
    #: Folios evicted through the kernel fallback path.
    fallback_evictions: int = 0
    #: Policy programs that crashed; the watchdog detaches the policy.
    ext_policy_faults: int = 0
    #: kfunc calls that returned an error to a policy program — the
    #: "buggy policy" indicator that used to live only on the framework
    #: object and failed silent unless you went looking.
    kfunc_errors: int = 0
    #: Policies forcibly detached by the watchdog (each detach also
    #: emits a ``cache_ext:watchdog_detach`` trace event).
    watchdog_detaches: int = 0
    #: Block requests that completed with EIO (before VFS retries).
    io_errors: int = 0
    #: Block requests the VFS re-issued after a transient failure.
    io_retries: int = 0
    #: Block requests that exceeded the per-request deadline.
    io_timeouts: int = 0
    #: Dirty pages whose writeback failed (folio stays dirty+resident).
    writeback_errors: int = 0
    #: Hook dispatches that blew the per-hook runtime budget (each one
    #: watchdog-detaches the policy, reason="budget").
    budget_overruns: int = 0
    #: Detached policies taken into quarantine (backoff re-attach).
    quarantines: int = 0
    #: Quarantined policies successfully re-attached after backoff.
    reattaches: int = 0
    #: Direct-reclaim passes that gave up (ENOMEM absorbed by a
    #: fault-plane memory shrink rather than raised to an app).
    reclaim_failures: int = 0
    #: CPU microseconds spent inside cache_ext hooks and kfuncs.
    hook_cpu_us: float = 0.0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from memory (0.0 when idle)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def add(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into this counter set."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> dict:
        """Plain-dict copy, convenient for experiment reporting."""
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}


@dataclass
class LatencyRecorder:
    """Collects per-operation latencies for percentile reporting.

    The paper reports P99 read latency for the YCSB and GET-SCAN
    experiments; this recorder keeps raw samples (the experiments are
    small enough that reservoirs are unnecessary), as machine doubles
    in an ``array('d')``: eight bytes a sample, not a boxed float.
    """

    samples_us: array = field(default_factory=partial(array, "d"))

    def record(self, us: float) -> None:
        self.samples_us.append(us)

    def __len__(self) -> int:
        return len(self.samples_us)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; returns 0.0 with no samples."""
        if not self.samples_us:
            return 0.0
        if not 0.0 < pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        ordered = sorted(self.samples_us)
        rank = max(0, int(round(pct / 100.0 * len(ordered))) - 1)
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        if not self.samples_us:
            return 0.0
        return left_sum(self.samples_us) / len(self.samples_us)
