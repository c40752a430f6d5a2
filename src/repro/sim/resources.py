"""Shared hardware resources: the block device and CPU cost constants.

The paper's testbed is a CloudLab c6525-25g node with a 480 GB SATA/SAS
SSD.  We model the device as ``channels`` independent service channels
(an SSD's internal parallelism) with fixed per-page service times.
Requests issued by simulated threads are assigned to the
earliest-available channel; a thread's virtual clock is advanced past
both the queueing delay and the service time, so concurrent workloads
contend exactly as they would on real hardware.

Default service times are loosely calibrated to an enterprise SATA SSD
(~100 us 4 KiB random read, ~30 us write into the device write cache)
but absolute values only scale the results; orderings are driven by hit
ratios.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from dataclasses import dataclass, field

from repro.sim.engine import SimThread


@dataclass
class CpuCosts(SnapshotFriendly):
    """CPU cost model, in microseconds, charged to the running thread.

    These mirror the cost structure that produces the paper's overhead
    tables: page-cache bookkeeping is cheap, BPF hook dispatch adds a
    small constant, and ring-buffer notification to userspace (the
    userspace-dispatch strawman of Table 1) is comparatively expensive.
    """

    #: Page-cache hit: mapping lookup plus flag updates.
    cache_hit_us: float = 0.8
    #: Extra kernel work on a miss (allocation, insertion, readahead
    #: bookkeeping), excluding device time.
    cache_miss_us: float = 2.0
    #: One eviction (list surgery, shadow entry, unmapping).
    evict_us: float = 1.0
    #: Dispatching one cache_ext eBPF hook (~30ns: a retpoline-safe
    #: indirect call plus program prologue; Table 4's no-op overhead).
    bpf_hook_us: float = 0.03
    #: One eviction-list kfunc operation (hash lookup + list surgery).
    kfunc_op_us: float = 0.02
    #: Syscall entry/exit + VFS dispatch per read/write call.
    syscall_us: float = 1.2
    #: Reserving + committing one ring-buffer event (Table 1 strawman).
    ringbuf_event_us: float = 1.6
    #: Userspace work per key-value operation, outside the kernel.
    app_op_us: float = 6.0
    #: Searching one 4 KiB page of text (ripgrep-style SIMD scan).
    search_page_us: float = 0.7


@dataclass
class DiskStats(SnapshotFriendly):
    """Cumulative I/O accounting, used for Figure 7's total-disk-I/O axis."""

    reads: int = 0
    writes: int = 0
    read_pages: int = 0
    write_pages: int = 0
    busy_us: float = 0.0
    #: Requests that completed with an injected error (EIO/timeout);
    #: not counted in reads/writes — the transfer never succeeded.
    errors: int = 0

    @property
    def total_pages(self) -> int:
        return self.read_pages + self.write_pages

    @property
    def total_bytes(self) -> int:
        return self.total_pages * 4096


@dataclass(frozen=True)
class IoCompletion:
    """Timing of one completed block request (block tracepoint payload).

    ``latency_us`` is what the issuing thread experienced: queueing
    delay behind busy channels plus device service time.
    """

    issue_us: float
    wait_us: float
    service_us: float
    done_us: float
    queue_depth: int

    @property
    def latency_us(self) -> float:
        return self.wait_us + self.service_us


@dataclass
class Disk:
    """A multi-channel block device with per-page service times.

    Parameters
    ----------
    read_us / write_us:
        Service time for one 4 KiB page.
    channels:
        Internal parallelism; requests pick the earliest-free channel.
    seq_factor:
        Discount applied to pages after the first in a multi-page
        request, modelling sequential-access efficiency.  Sequential
        scans therefore cost less per page than random reads, as on a
        real SSD.
    """

    read_us: float = 100.0
    write_us: float = 30.0
    channels: int = 8
    seq_factor: float = 0.25
    stats: DiskStats = field(default_factory=DiskStats)

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("disk needs at least one channel")
        self._free_at = [0.0] * self.channels

    def _service_us(self, base_us: float, npages: int,
                    contiguous: bool = False) -> float:
        if npages <= 0:
            raise ValueError(f"invalid page count: {npages}")
        if contiguous:
            # Continuation of an in-flight sequential stream (e.g.
            # direct-I/O page reads at consecutive offsets): every page
            # is priced at the sequential rate.
            return base_us * self.seq_factor * npages
        return base_us + base_us * self.seq_factor * (npages - 1)

    def _submit(self, thread: SimThread, service_us: float) -> "IoCompletion":
        """Queue one request from ``thread`` and block it to completion.

        Returns an :class:`IoCompletion` describing the request's
        timing, which the block layer's tracepoints consume.
        """
        issue_us = thread.clock_us
        # Channel scan at C speed: min() finds the earliest-available
        # time, .index() the first channel holding it (same tie-break
        # as a first-min loop), and the generator counts channels still
        # busy at issue for the observed queue depth.
        free_at = self._free_at
        best = min(free_at)
        idx = free_at.index(best)
        depth = sum(1 for t in free_at if t > issue_us)
        start = issue_us if best <= issue_us else best
        done = start + service_us
        free_at[idx] = done
        self.stats.busy_us += service_us
        # Inlined thread.wait_until(done).
        if done > thread.clock_us:
            thread.clock_us = done
        # Latency attribution: charge queueing and service explicitly
        # — unless a section (reclaim/fsync) is open, in which case the
        # I/O folds into that section's stall (repro.obs.spans).
        span = thread.span
        if span is not None and span.section is None:
            wait = start - issue_us
            if wait > 0.0:
                span.add("device_wait", wait)
            span.add("device_service", service_us)
        return IoCompletion(issue_us=issue_us, wait_us=start - issue_us,
                            service_us=service_us, done_us=done,
                            queue_depth=depth)

    def read(self, thread: SimThread, npages: int = 1,
             contiguous: bool = False) -> "IoCompletion":
        """Synchronously read ``npages`` pages; ``contiguous`` marks a
        continuation of a sequential stream (cheaper per page)."""
        # Single-random-page reads dominate cache-miss traffic; they
        # need no per-page discount arithmetic, so skip the helper.
        if npages == 1 and not contiguous:
            service_us = self.read_us
        else:
            service_us = self._service_us(self.read_us, npages, contiguous)
        completion = self._submit(thread, service_us)
        self.stats.reads += 1
        self.stats.read_pages += npages
        return completion

    def write(self, thread: SimThread, npages: int = 1,
              contiguous: bool = False) -> "IoCompletion":
        """Synchronously write ``npages`` pages (see :meth:`read`)."""
        if npages == 1 and not contiguous:
            service_us = self.write_us
        else:
            service_us = self._service_us(self.write_us, npages, contiguous)
        completion = self._submit(thread, service_us)
        self.stats.writes += 1
        self.stats.write_pages += npages
        return completion

    def busy_channels(self, now_us: float) -> int:
        """Channels still servicing a request at ``now_us`` — the
        instantaneous queue-depth gauge the telemetry sampler records
        (same definition as ``IoCompletion.queue_depth`` at issue)."""
        return sum(1 for t in self._free_at if t > now_us)
