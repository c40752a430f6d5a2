"""YCSB core workloads against the LSM store (§6.1.1 / Figures 6-7).

Workload mix definitions follow the YCSB core properties:

========  =====================================  =================
Workload  Operation mix                          Request dist.
========  =====================================  =================
A         50% read / 50% update                  zipfian
B         95% read / 5% update                   zipfian
C         100% read                              zipfian
D         95% read / 5% insert                   latest
E         95% scan / 5% insert                   zipfian
F         50% read / 50% read-modify-write       zipfian
uniform   100% read                              uniform
uniform-rw  50% read / 50% update                uniform
========  =====================================  =================

Scan lengths for E are uniform over [1, max_scan_len] (the YCSB
default is 100; we scale alongside everything else).

The runner records per-READ latency for the paper's P99 plots, and
reports throughput in operations per simulated second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.lsm.db import LsmDb
from repro.kernel.stats import LatencyRecorder
from repro.workloads import streams
from repro.workloads.streams import (OP_INSERT, OP_NAMES, OP_READ,
                                     OP_SCAN, OP_UPDATE, OpStream)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimThread


@dataclass(frozen=True)
class YcsbSpec:
    """One workload's operation mix (proportions must sum to 1)."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    scan: float = 0.0
    rmw: float = 0.0
    distribution: str = "zipfian"  # zipfian | latest | uniform
    max_scan_len: int = 25
    #: The non-zero ``(kind, share)`` pairs in draw order, built once:
    #: :func:`streams.draw_op_kind` walks them per generated op.
    kind_shares: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.scan + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: proportions sum to {total}")
        object.__setattr__(self, "kind_shares", tuple(
            pair for pair in ((OP_READ, self.read), (OP_UPDATE, self.update),
                              (OP_INSERT, self.insert), (OP_SCAN, self.scan))
            if pair[1]))


YCSB_WORKLOADS: dict[str, YcsbSpec] = {
    "A": YcsbSpec("A", read=0.5, update=0.5),
    "B": YcsbSpec("B", read=0.95, update=0.05),
    "C": YcsbSpec("C", read=1.0),
    "D": YcsbSpec("D", read=0.95, insert=0.05, distribution="latest"),
    "E": YcsbSpec("E", scan=0.95, insert=0.05),
    "F": YcsbSpec("F", read=0.5, rmw=0.5),
    "uniform": YcsbSpec("uniform", read=1.0, distribution="uniform"),
    "uniform-rw": YcsbSpec("uniform-rw", read=0.5, update=0.5,
                           distribution="uniform"),
}


def key_of(index: int) -> str:
    """``f"user{index:012d}"`` for every int, sign included, in about
    two thirds of the f-string's time."""
    return "user" + str(index).zfill(12)


def load_items(nkeys: int) -> list[tuple]:
    """The YCSB load phase's records, for :meth:`LsmDb.bulk_load`:
    ``(key_of(i), i)``.  A loaded value is its key index; nothing reads
    value content (readers test ``value is None``) and value sizes come
    from :class:`~repro.apps.lsm.format.RecordFormat`."""
    return list(zip(streams.key_strings(nkeys), range(nkeys)))


@dataclass
class YcsbResult:
    workload: str
    ops: int = 0
    elapsed_us: float = 0.0
    read_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    op_counts: dict = field(default_factory=dict)
    missing_keys: int = 0

    @property
    def throughput(self) -> float:
        """Operations per simulated second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops / (self.elapsed_us / 1e6)

    @property
    def p99_read_us(self) -> float:
        return self.read_latency.p99


class YcsbRunner:
    """Drives one YCSB workload against an open :class:`LsmDb`."""

    def __init__(self, db: LsmDb, spec: YcsbSpec, nkeys: int,
                 nops: int, nthreads: int = 1, seed: int = 42,
                 warmup_ops: int = 0,
                 zipf_theta: float = 0.99,
                 latest_theta: float = 1.4) -> None:
        """``warmup_ops`` are executed and *discarded* before the
        measured window opens — the steady-state equivalent of the
        paper's long runs, letting frequency-learning policies (LFU,
        LHD) accumulate history before measurement.

        ``zipf_theta`` overrides the request skew; experiments use a
        scaled-equivalent value (see EXPERIMENTS.md) so that the mass
        above the cache boundary matches the paper's 1000x larger
        keyspace at YCSB's default 0.99.  ``latest_theta`` plays the
        same role for workload D's recency window: at paper scale D
        runs effectively in-memory ("cached entirely in-memory",
        §6.1.1), which requires a tight offset distribution here.

        Each worker replays its stream from :meth:`prepare_streams`,
        built only as far as the run reads it.
        """
        streams.check_sizes(nthreads=nthreads, nops=nops,
                            warmup_ops=warmup_ops)
        self.db = db
        self.spec = spec
        self.nkeys = nkeys
        self.nops = nops
        self.nthreads = nthreads
        self.seed = seed
        self.warmup_ops = warmup_ops
        self.zipf_theta = zipf_theta
        self.latest_theta = latest_theta
        self.result = YcsbResult(spec.name)
        self._insert_counter = [nkeys]
        self._keys = streams.key_strings(nkeys)

    def _step(self, stream: OpStream, warmup: int):
        """Step function for one worker: replays ``stream``, the first
        ``warmup`` ops discarded, growing it as it reads past what is
        built."""
        spec = self.spec
        kinds, indices, lengths = stream.kinds, stream.indices, stream.lengths
        total = stream.total
        built = len(kinds)
        db = self.db
        app_op_us = db.machine.costs.app_op_us
        keys = self._keys
        nkeys = self.nkeys
        insert_counter = self._insert_counter
        #: Warmup ops count into this one reused sink; their read
        #: latencies are not kept at all.
        discard = YcsbResult(spec.name)
        pos = [0]
        window_start = [0.0]

        def step(thread: "SimThread") -> bool:
            nonlocal built
            i = pos[0]
            if i >= built:
                if i >= total:
                    return False
                built = stream.grow(i + 1)
            pos[0] = i + 1
            # Lazy decode: an index only for non-inserts (an insert's
            # comes from the shared counter), a length only for scans.
            kind = kinds[i]
            if kind != OP_INSERT:
                index = indices[i]
                if kind == OP_SCAN:
                    scan_len = lengths[i]
            measured = i >= warmup
            result = self.result if measured else discard
            counts = result.op_counts
            name = OP_NAMES[kind]
            counts[name] = counts.get(name, 0) + 1
            # Inlined thread.advance: app_op_us is configured, >= 0.
            thread.clock_us += app_op_us
            thread.cpu_us += app_op_us
            counter = result.ops if measured else 0
            if kind == OP_INSERT:
                index = insert_counter[0]
                insert_counter[0] = index + 1
                db.put(key_of(index), ("new", counter))
            else:
                # "latest" can point at inserts not yet performed in
                # other threads' views; clamp to the loaded keyspace +
                # done inserts.
                limit = insert_counter[0] - 1
                if index > limit:
                    index = limit
                # Keys in the loaded keyspace come from the shared
                # formatted list; inserted keys past it format on
                # demand.
                key = keys[index] if index < nkeys else key_of(index)
                if kind == OP_READ:
                    start = thread.clock_us
                    value = db.get(key)
                    if measured:
                        result.read_latency.samples_us.append(
                            thread.clock_us - start)
                    if value is None:
                        result.missing_keys += 1
                elif kind == OP_UPDATE:
                    db.put(key, ("u", counter))
                elif kind == OP_SCAN:
                    db.scan(key, scan_len)
                else:  # rmw
                    start = thread.clock_us
                    value = db.get(key)
                    if measured:
                        result.read_latency.samples_us.append(
                            thread.clock_us - start)
                    if value is None:
                        result.missing_keys += 1
                    db.put(key, ("rmw", counter))
            if measured:
                result.ops += 1
                elapsed = thread.clock_us - window_start[0]
                if elapsed > result.elapsed_us:
                    result.elapsed_us = elapsed
            else:
                window_start[0] = thread.clock_us
            return True

        return step

    @staticmethod
    def prepare_streams(spec: YcsbSpec, nkeys: int, nops: int,
                        nthreads: int = 1, seed: int = 42,
                        warmup_ops: int = 0, zipf_theta: float = 0.99,
                        latest_theta: float = 1.4) -> tuple:
        """``(warmup, streams)``: each worker's warm-up op count and op
        stream, taken from the shared cache or built into it.

        :meth:`spawn` derives its workers' streams here, and experiment
        ``prepare`` hooks call it with the cells' parameters before the
        cells run (and before the parallel runner forks).
        """
        streams.check_sizes(nthreads=nthreads, nops=nops,
                            warmup_ops=warmup_ops)
        warmup = warmup_ops // nthreads
        total = warmup + nops // nthreads
        streams.key_strings(nkeys)
        return warmup, [streams.ycsb_stream(spec, nkeys, total, seed,
                                            worker, zipf_theta,
                                            latest_theta)
                        for worker in range(nthreads)]

    def spawn(self) -> list:
        """Start client threads; returns them (engine must be run)."""
        warmup, worker_streams = self.prepare_streams(
            self.spec, self.nkeys, self.nops, self.nthreads, self.seed,
            self.warmup_ops, self.zipf_theta, self.latest_theta)
        return [
            self.db.machine.spawn(f"ycsb-{self.spec.name}-{worker}",
                                  self._step(stream, warmup),
                                  cgroup=self.db.cgroup)
            for worker, stream in enumerate(worker_streams)]

    def run(self) -> YcsbResult:
        self.spawn()
        self.db.machine.run()
        return self.result
