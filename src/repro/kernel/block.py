"""Block device with per-cgroup I/O accounting.

Wraps the :class:`repro.sim.resources.Disk` contention model and
attributes every request to the cgroup of the issuing thread, so
experiments that share one device between cgroups (Figure 11) can still
report per-workload disk traffic (Figure 7's x-axis).
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.obs.trace import NULL_TRACEPOINT
from repro.sim.engine import SimThread, current_thread
from repro.sim.resources import Disk, IoCompletion


@dataclass
class CgroupIoStats:
    read_pages: int = 0
    write_pages: int = 0


class BlockDevice(Disk, SnapshotFriendly):
    """A :class:`Disk` that also keeps per-cgroup page counters and
    emits ``block:io_issue`` / ``block:io_complete`` tracepoints (the
    ``block_rq_issue`` / ``block_rq_complete`` analogues, with queue
    depth and experienced latency in the payload)."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.per_cgroup: dict[int, CgroupIoStats] = defaultdict(CgroupIoStats)
        self._tp_issue = NULL_TRACEPOINT
        self._tp_complete = NULL_TRACEPOINT
        #: Armed :class:`repro.faults.injector.FaultInjector`, or None.
        #: One load + is-None branch per request when faults are off.
        self._faults = None

    def attach_trace(self, registry) -> None:
        """Cache block tracepoints from a machine's registry."""
        self._tp_issue = registry.tracepoint("block:io_issue")
        self._tp_complete = registry.tracepoint("block:io_complete")

    def _trace_io(self, thread: SimThread, op: str, npages: int,
                  completion: IoCompletion) -> None:
        tp = self._tp_issue
        if tp.enabled:
            tp.emit(completion.issue_us, thread.cgroup_name, thread.tid,
                    op=op, pages=npages, queue_depth=completion.queue_depth)
        tp = self._tp_complete
        if tp.enabled:
            tp.emit(completion.done_us, thread.cgroup_name, thread.tid,
                    op=op, pages=npages, latency_us=completion.latency_us,
                    wait_us=completion.wait_us,
                    service_us=completion.service_us,
                    queue_depth=completion.queue_depth)

    def _request(self, thread: SimThread, op: str, base_us: float,
                 npages: int, contiguous: bool) -> Optional[IoCompletion]:
        """Service one fault-free request from an engine thread: what
        :meth:`read` and :meth:`write` share."""
        # Single-random-page requests dominate cache-miss traffic and
        # need no per-page discount arithmetic.
        if npages == 1 and not contiguous:
            service_us = base_us
        else:
            service_us = self._service_us(base_us, npages, contiguous)
        tracing = self._tp_issue.enabled or self._tp_complete.enabled
        if tracing or thread.span is not None:
            completion = self._submit(thread, service_us)
            if tracing:
                self._trace_io(thread, op, npages, completion)
            return completion
        # No consumer for the completion record: run _submit's
        # channel/clock arithmetic without building one (the
        # IoCompletion dataclass plus the queue-depth scan cost real
        # time on every cache miss).
        free_at = self._free_at
        best = min(free_at)
        idx = free_at.index(best)
        issue_us = thread.clock_us
        start = issue_us if best <= issue_us else best
        done = start + service_us
        free_at[idx] = done
        self.stats.busy_us += service_us
        if done > issue_us:
            thread.clock_us = done
        return None

    def read(self, thread: SimThread, npages: int = 1,
             contiguous: bool = False) -> Optional[IoCompletion]:
        if thread is None:
            thread = current_thread()
        # Outside the engine (unit tests): account, no timing.
        completion = None
        if thread is not None:
            faults = self._faults
            if faults is not None:
                return faults.device_io(self, thread, "read", npages,
                                        contiguous)
            completion = self._request(thread, "read", self.read_us,
                                       npages, contiguous)
            cgroup = thread.cgroup
            self.per_cgroup[cgroup.id if cgroup is not None else 0] \
                .read_pages += npages
        stats = self.stats
        stats.reads += 1
        stats.read_pages += npages
        return completion

    def write(self, thread: SimThread, npages: int = 1,
              contiguous: bool = False) -> Optional[IoCompletion]:
        if thread is None:
            thread = current_thread()
        completion = None
        if thread is not None:
            faults = self._faults
            if faults is not None:
                return faults.device_io(self, thread, "write", npages,
                                        contiguous)
            completion = self._request(thread, "write", self.write_us,
                                       npages, contiguous)
            cgroup = thread.cgroup
            self.per_cgroup[cgroup.id if cgroup is not None else 0] \
                .write_pages += npages
        stats = self.stats
        stats.writes += 1
        stats.write_pages += npages
        return completion

    def cgroup_io(self, cgroup_id: int) -> CgroupIoStats:
        return self.per_cgroup[cgroup_id]
