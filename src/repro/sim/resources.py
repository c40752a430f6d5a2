"""Shared hardware constants and records: CPU costs and block I/O.

:class:`CpuCosts` prices the kernel work charged to a running thread;
:class:`DiskStats` and :class:`IoCompletion` are the accounting and
per-request timing records of the block device
(:class:`repro.kernel.block.BlockDevice`, which models the device).
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from dataclasses import dataclass


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
