"""Mixed GET-SCAN workload (§6.1.4 / Figure 10).

99.95% zipfian GETs from a pool of GET threads, 0.05% long range SCANs
from a *separate* scan thread pool (the paper isolates scan threads to
avoid head-of-line blocking at the scheduler, citing Shinjuku/Syrup).
GETs have good cache locality; SCANs touch long page runs with high
reuse distance and pollute the cache under the default policy.

Scan pacing: scan *k* is released once the GET side has completed
``k / scan_fraction`` operations, which reproduces the request-mix
ratio deterministically without wall-clock rate control.

``fadvise_mode`` selects the §6.1.4 comparison variants applied to the
scan path: ``None`` (plain), ``"dontneed"``, ``"noreuse"``,
``"sequential"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.apps.lsm.db import LsmDb
from repro.kernel.stats import LatencyRecorder
from repro.kernel.vfs import FAdvice
from repro.workloads import streams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimThread


@dataclass
class GetScanResult:
    gets: int = 0
    scans: int = 0
    get_elapsed_us: float = 0.0
    scan_elapsed_us: float = 0.0
    get_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    scan_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    missing_keys: int = 0

    @property
    def get_throughput(self) -> float:
        if self.get_elapsed_us <= 0:
            return 0.0
        return self.gets / (self.get_elapsed_us / 1e6)

    @property
    def scan_throughput(self) -> float:
        if self.scan_elapsed_us <= 0:
            return 0.0
        return self.scans / (self.scan_elapsed_us / 1e6)

    @property
    def get_p99_us(self) -> float:
        return self.get_latency.p99


def _scan_count(n_gets: int, scan_fraction: float) -> int:
    """Scans in one run: ``scan_fraction`` of the GETs, at least one."""
    return max(1, round(n_gets * scan_fraction))


class GetScanWorkload:
    """Drives the mixed workload against an open LSM store."""

    def __init__(self, db: LsmDb, nkeys: int, n_gets: int,
                 get_threads: int = 4, scan_threads: int = 2,
                 scan_fraction: float = 0.0005,
                 scan_len: int = 1500,
                 fadvise_mode: Optional[str] = None,
                 zipf_theta: float = 1.2,
                 seed: int = 5) -> None:
        """``zipf_theta`` defaults higher than the YCSB runs: the
        paper's workload "exhibits good cache locality for GETs", i.e.
        the GET working set fits the cgroup when scans don't pollute
        it — which is exactly what the policy protects.  Each thread
        replays its key stream from :meth:`prepare_streams`."""
        if fadvise_mode not in (None, "dontneed", "noreuse", "sequential"):
            raise ValueError(f"bad fadvise_mode: {fadvise_mode}")
        streams.check_sizes(get_threads=get_threads,
                            scan_threads=scan_threads, n_gets=n_gets)
        self.zipf_theta = zipf_theta
        self.db = db
        self.nkeys = nkeys
        self.n_gets = n_gets
        self.get_threads = get_threads
        self.scan_threads = scan_threads
        self.scan_fraction = scan_fraction
        self.n_scans = _scan_count(n_gets, scan_fraction)
        self.scan_len = scan_len
        self.fadvise_mode = fadvise_mode
        self.seed = seed
        self.result = GetScanResult()
        self.scan_tids: list[int] = []

    @staticmethod
    def prepare_streams(nkeys: int, n_gets: int, get_threads: int = 4,
                        scan_threads: int = 2,
                        scan_fraction: float = 0.0005,
                        zipf_theta: float = 1.2, seed: int = 5) -> tuple:
        """``(get_keys, scan_starts)``: each GET thread's key indices
        and each scan thread's start indices, taken from the shared
        cache or built into it (see :meth:`YcsbRunner.prepare_streams`).
        """
        streams.check_sizes(get_threads=get_threads,
                            scan_threads=scan_threads, n_gets=n_gets)
        per_get_thread = n_gets // get_threads
        per_scan_thread = max(1, _scan_count(n_gets, scan_fraction)
                              // scan_threads)
        streams.key_strings(nkeys)
        return ([streams.zipfian_indices(nkeys, zipf_theta,
                                         seed * 31 + worker,
                                         per_get_thread)
                 for worker in range(get_threads)],
                [streams.uniform_indices(nkeys, seed * 97 + worker,
                                         per_scan_thread)
                 for worker in range(scan_threads)])

    # ------------------------------------------------------------------
    def _apply_sequential_advice(self) -> None:
        """FADV_SEQUENTIAL on every table file (widened readahead)."""
        fs = self.db.machine.fs
        for level in self.db.levels:
            for table in level:
                fs.fadvise(table.file, FAdvice.SEQUENTIAL)

    def spawn(self) -> None:
        if self.fadvise_mode == "sequential":
            self._apply_sequential_advice()
        result = self.result
        machine = self.db.machine
        scan_advice = self.fadvise_mode if self.fadvise_mode in (
            "dontneed", "noreuse") else None
        keys = streams.key_strings(self.nkeys)
        get_keys, scan_starts = self.prepare_streams(
            self.nkeys, self.n_gets, self.get_threads, self.scan_threads,
            self.scan_fraction, self.zipf_theta, self.seed)

        for worker, get_indices in enumerate(get_keys):
            pos = [0]

            def get_step(thread: "SimThread", get_indices=get_indices,
                         count=len(get_indices), pos=pos) -> bool:
                i = pos[0]
                if i >= count:
                    return False
                thread.advance(machine.costs.app_op_us)
                key = keys[get_indices[i]]
                start = thread.clock_us
                if self.db.get(key) is None:
                    result.missing_keys += 1
                result.get_latency.record(thread.clock_us - start)
                pos[0] = i + 1
                result.gets += 1
                result.get_elapsed_us = max(result.get_elapsed_us,
                                            thread.clock_us)
                return True

            machine.spawn(f"get-{worker}", get_step,
                          cgroup=self.db.cgroup)

        gets_per_scan = max(1, int(self.n_gets
                                   / max(self.n_scans, 1)))

        #: Scan entries consumed per scheduling step: scans interleave
        #: with GETs at this granularity, like a real cursor would.
        chunk = 64

        for worker, starts in enumerate(scan_starts):
            state = {"done": 0, "cursor": None, "left": 0,
                     "started_at": 0.0}

            def scan_step(thread: "SimThread", state=state,
                          starts=starts, worker=worker) -> bool:
                cursor = state["cursor"]
                if cursor is not None:
                    # Continue the in-flight scan, one chunk at a time.
                    consumed = 0
                    for _entry in cursor:
                        consumed += 1
                        state["left"] -= 1
                        if state["left"] <= 0 or consumed >= chunk:
                            break
                    if state["left"] <= 0 or consumed == 0:
                        cursor.close()
                        state["cursor"] = None
                        state["done"] += 1
                        result.scans += 1
                        result.scan_latency.record(
                            thread.clock_us - state["started_at"])
                        result.scan_elapsed_us = max(
                            result.scan_elapsed_us, thread.clock_us)
                    return True
                if state["done"] >= len(starts):
                    return False
                # Release scan k once the GET side has earned it (or
                # has finished entirely — never deadlock on pacing).
                issued_total = state["done"] * self.scan_threads + worker
                release_at = issued_total * gets_per_scan
                if result.gets < release_at and result.gets < self.n_gets:
                    # GETs are behind; idle briefly without busy-wait.
                    thread.wait_until(thread.clock_us + 200.0)
                    return True
                start_key = keys[starts[state["done"]]]
                state["cursor"] = self.db.scan_iter(start_key,
                                                    advice=scan_advice)
                state["left"] = self.scan_len
                state["started_at"] = thread.clock_us
                return True

            thread = machine.spawn(f"scan-{worker}", scan_step,
                                   cgroup=self.db.cgroup)
            self.scan_tids.append(thread.tid)

    def run(self) -> GetScanResult:
        self.spawn()
        self.db.machine.run()
        return self.result
