"""fio-style microbenchmark (§6.3.2 / Table 4).

A multi-threaded random-read job over one large file, used to measure
cache_ext's per-I/O CPU overhead: the same I/O stream is replayed
against the default kernel policy and against a no-op cache_ext
policy, and the difference in CPU microseconds per operation is the
framework's baseline cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.kernel.stats import left_sum
from repro.sim.engine import SimThread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.cgroup import MemCgroup
    from repro.kernel.machine import Machine
    from repro.kernel.vfs import SimFile


@dataclass
class FioResult:
    ops: int = 0
    elapsed_us: float = 0.0
    cpu_us: float = 0.0

    @property
    def iops(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops / (self.elapsed_us / 1e6)

    @property
    def cpu_us_per_op(self) -> float:
        """CPU microseconds per I/O — the Table 4 metric (µCPU/IO)."""
        if self.ops == 0:
            return 0.0
        return self.cpu_us / self.ops


class FioJob:
    """``fio --rw=randread --numjobs=nthreads`` over one file."""

    def __init__(self, machine: "Machine", cgroup: "MemCgroup",
                 file_pages: int, nthreads: int = 8,
                 ops_per_thread: int = 2000, seed: int = 99,
                 name: str = "fio") -> None:
        # An empty file has no offset to draw (run()'s rejection loop
        # would never accept one), and a job needs a thread to run on.
        if file_pages < 1:
            raise ValueError(f"file_pages must be >= 1, got {file_pages}")
        if nthreads < 1:
            raise ValueError(f"nthreads must be >= 1, got {nthreads}")
        if ops_per_thread < 0:
            raise ValueError(
                f"ops_per_thread must be >= 0, got {ops_per_thread}")
        self.machine = machine
        self.cgroup = cgroup
        self.nthreads = nthreads
        self.ops_per_thread = ops_per_thread
        self.seed = seed
        self.file: "SimFile" = machine.fs.create(f"{name}/data")
        for idx in range(file_pages):
            self.file.store[idx] = idx
        self.file.npages = file_pages
        self.file.ra_enabled = False  # random I/O: no readahead
        self.result = FioResult()

    def run(self) -> FioResult:
        machine = self.machine
        file = self.file
        result = self.result
        # One step runs per I/O, so everything that cannot change
        # during the job is bound here, once.
        read_page = machine.fs.read_page
        syscall_us = machine.costs.syscall_us
        if syscall_us < 0:
            raise ValueError(f"negative time advance: {syscall_us}")
        npages = file.npages
        nbits = npages.bit_length()

        def make_step(thread_seed: int):
            getrandbits = random.Random(thread_seed).getrandbits
            remaining = self.ops_per_thread

            def step(thread: SimThread) -> bool:
                nonlocal remaining
                if remaining <= 0:
                    return False
                # Inlined thread.advance; syscall_us was checked above.
                thread.clock_us += syscall_us
                thread.cpu_us += syscall_us
                # rng.randrange(npages), spelled out: the same
                # getrandbits rejection sampling (so the same Mersenne
                # stream and the same offsets) without randrange's
                # argument-checking frames.  tests/reference/fio.py
                # holds the two equal.
                index = getrandbits(nbits)
                while index >= npages:
                    index = getrandbits(nbits)
                read_page(file, index)
                remaining -= 1
                result.ops += 1
                return True
            return step

        threads = [
            machine.spawn(f"fio-{i}", make_step(self.seed + i),
                          cgroup=self.cgroup)
            for i in range(self.nthreads)]
        machine.run()
        result.elapsed_us = max(t.finish_us for t in threads)
        result.cpu_us = left_sum(t.cpu_us for t in threads)
        return result
