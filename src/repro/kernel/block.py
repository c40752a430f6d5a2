"""The block device: channel contention and per-cgroup I/O accounting.

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

Every request is attributed to the cgroup of the issuing thread, so
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
from repro.sim.resources import DiskStats, IoCompletion


@dataclass
class CgroupIoStats:
    read_pages: int = 0
    write_pages: int = 0


class BlockDevice(SnapshotFriendly):
    """A multi-channel block device with per-page service times that
    keeps per-cgroup page counters and emits ``block:io_issue`` /
    ``block:io_complete`` tracepoints (the ``block_rq_issue`` /
    ``block_rq_complete`` analogues, with queue depth and experienced
    latency in the payload).

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

    def __init__(self, read_us: float = 100.0, write_us: float = 30.0,
                 channels: int = 8, seq_factor: float = 0.25) -> None:
        if channels < 1:
            raise ValueError("disk needs at least one channel")
        self.read_us = read_us
        self.write_us = write_us
        self.channels = channels
        self.seq_factor = seq_factor
        self.stats = DiskStats()
        self._free_at = [0.0] * channels
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

    def _submit(self, thread: SimThread, service_us: float,
                channels: int = 0,
                deadline_us: Optional[float] = None) -> tuple:
        """Queue one request from ``thread`` and block it to completion.

        ``channels`` > 0 limits the request to the first ``channels``
        channels (a degraded device); ``deadline_us`` bounds how long
        the thread waits.  Returns ``(completion, timed_out)``: an
        :class:`IoCompletion` describing the request's timing, which
        the block layer's tracepoints consume, and whether the thread
        gave up at the deadline.
        """
        issue_us = thread.clock_us
        # Channel scan at C speed: min() finds the earliest-available
        # time, .index() the first channel holding it (same tie-break
        # as a first-min loop), and the generator counts channels still
        # busy at issue for the observed queue depth.
        free_at = self._free_at
        pool = free_at[:channels] if channels else free_at
        best = min(pool)
        idx = pool.index(best)
        depth = sum(1 for t in free_at if t > issue_us)
        start = issue_us if best <= issue_us else best
        done = start + service_us
        free_at[idx] = done
        self.stats.busy_us += service_us
        # Past the deadline the thread stops waiting; the channel stays
        # busy to the true completion (a stuck request is not
        # cancelled).  Inlined thread.wait_until(end).
        timed_out = deadline_us is not None and done - issue_us > deadline_us
        end = issue_us + deadline_us if timed_out else done
        if end > thread.clock_us:
            thread.clock_us = end
        # Latency attribution: charge queueing and service explicitly
        # — unless a section (reclaim/fsync) is open, in which case the
        # I/O folds into that section's stall (repro.obs.spans).
        span = thread.span
        if span is not None and span.section is None:
            if timed_out:
                # Split the waited time at the deadline.
                wait = min(start, end) - issue_us
                if wait > 0.0:
                    span.add("device_wait", wait)
                served = (end - issue_us) - wait
                if served > 0.0:
                    span.add("device_service", served)
            else:
                wait = start - issue_us
                if wait > 0.0:
                    span.add("device_wait", wait)
                span.add("device_service", service_us)
        return IoCompletion(issue_us=issue_us, wait_us=start - issue_us,
                            service_us=service_us, done_us=done,
                            queue_depth=depth), timed_out

    def _request(self, thread: SimThread, op: str, base_us: float,
                 npages: int, contiguous: bool) -> Optional[IoCompletion]:
        """Service and count one request from an engine thread: what
        :meth:`read` and :meth:`write` share."""
        # Single-random-page requests dominate cache-miss traffic and
        # need no per-page discount arithmetic.
        if npages == 1 and not contiguous:
            service_us = base_us
        else:
            service_us = self._service_us(base_us, npages, contiguous)
        tracing = self._tp_issue.enabled or self._tp_complete.enabled
        faults = self._faults
        if faults is not None:
            # The armed fault plane perturbs this request's inputs;
            # a failed request is reported, not counted.
            service_us, channels, fail = faults.perturb(
                self, thread, op, service_us)
            completion, timed_out = self._submit(
                thread, service_us, channels, faults.deadline_us)
            if fail or timed_out:
                raise faults.failed(self, thread, op, npages, completion,
                                    timed_out)
        elif tracing or thread.span is not None:
            completion = self._submit(thread, service_us)[0]
        else:
            # No consumer for the completion record: run _submit's
            # channel/clock arithmetic without building one (the
            # IoCompletion dataclass plus the queue-depth scan cost
            # real time on every cache miss).
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
            completion = None
        cgroup = thread.cgroup
        io = self.per_cgroup[cgroup.id if cgroup is not None else 0]
        stats = self.stats
        if op == "read":
            stats.reads += 1
            stats.read_pages += npages
            io.read_pages += npages
        else:
            stats.writes += 1
            stats.write_pages += npages
            io.write_pages += npages
        if tracing:
            self._trace_io(thread, op, npages, completion)
        return completion

    def read(self, thread: SimThread, npages: int = 1,
             contiguous: bool = False) -> Optional[IoCompletion]:
        """Synchronously read ``npages`` pages; ``contiguous`` marks a
        continuation of a sequential stream (cheaper per page)."""
        if thread is None:
            thread = current_thread()
        if thread is not None:
            return self._request(thread, "read", self.read_us, npages,
                                 contiguous)
        # Outside the engine (unit tests): account, no timing.
        stats = self.stats
        stats.reads += 1
        stats.read_pages += npages
        return None

    def write(self, thread: SimThread, npages: int = 1,
              contiguous: bool = False) -> Optional[IoCompletion]:
        """Synchronously write ``npages`` pages (see :meth:`read`)."""
        if thread is None:
            thread = current_thread()
        if thread is not None:
            return self._request(thread, "write", self.write_us, npages,
                                 contiguous)
        stats = self.stats
        stats.writes += 1
        stats.write_pages += npages
        return None

    def busy_channels(self, now_us: float) -> int:
        """Channels still servicing a request at ``now_us`` — the
        instantaneous queue-depth gauge the telemetry sampler records
        (same definition as ``IoCompletion.queue_depth`` at issue)."""
        return sum(1 for t in self._free_at if t > now_us)

    def cgroup_io(self, cgroup_id: int) -> CgroupIoStats:
        return self.per_cgroup[cgroup_id]
