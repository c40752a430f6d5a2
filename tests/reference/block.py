"""The block request as it was written twice: a bare ``Disk`` (its
``read``/``write``/``_submit``), the block device's fault-free
``read``/``write`` over it, and ``FaultInjector.device_io`` — the armed
path that restated the whole request with faults layered on top.

``repro.kernel.block.BlockDevice`` serves every request through one
``_request`` and lets the armed injector perturb that request's inputs
(``FaultInjector.perturb``/``failed``).  These are what it must stay
equal to: per-request clocks and errors, channel state, stats, span
components and trace payloads.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from repro.faults.injector import FaultInjector, _hit
from repro.kernel.block import CgroupIoStats
from repro.kernel.errors import EIO, ETIMEDOUT
from repro.obs.trace import NULL_TRACEPOINT
from repro.sim.engine import SimThread, current_thread
from repro.sim.resources import DiskStats, IoCompletion


@dataclass
class ReferenceDisk:
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


class ReferenceBlockDevice(ReferenceDisk):
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


class ReferenceInjector(FaultInjector):
    """The injector with the device path it used to own."""

    @property
    def _deadline(self) -> Optional[float]:
        return self.deadline_us

    def device_io(self, disk, thread: SimThread, op: str, npages: int,
                  contiguous: bool) -> Optional[IoCompletion]:
        """Service one block request under the armed device faults.

        Mirrors the fault-free path of
        :class:`~repro.kernel.block.BlockDevice` exactly — service-time
        formula, channel selection, stat bumps, span attribution and
        tracepoints — then layers the plan's faults on top:

        * latency windows multiply the service time;
        * degraded-channel windows shrink the channel pool;
        * stuck requests gain extra service time;
        * EIO requests occupy their channel for the full service (the
          device did the work, the transfer failed), the thread pays
          wait + service, then :class:`EIO` is raised;
        * with a per-request deadline armed, any request whose
          completion would land past ``issue + deadline`` raises
          :class:`ETIMEDOUT` *at* the deadline while the channel stays
          busy until the true completion — a stuck request is not
          cancelled, the submitter just stops waiting for it.
        """
        now = thread.clock_us
        fail = False
        latency_mult = 1.0
        channels_down = 0
        stuck_extra = 0.0
        rng = self._rng_device
        for f in self._device:
            if not (f.start_us <= now < f.end_us and op in f.ops):
                continue
            kind = f.kind
            if kind == "latency":
                latency_mult *= f.latency_mult
            elif kind == "degrade":
                channels_down = max(channels_down, f.channels_down)
            elif kind == "eio":
                if not fail and _hit(rng, f.prob):
                    fail = True
            elif kind == "stuck":
                if _hit(rng, f.prob):
                    stuck_extra += f.stuck_extra_us

        base = disk.read_us if op == "read" else disk.write_us
        if npages == 1 and not contiguous:
            service = base
        else:
            service = disk._service_us(base, npages, contiguous)
        if latency_mult != 1.0:
            service *= latency_mult
            self.fired["device_latency"] += 1
        if stuck_extra > 0.0:
            service += stuck_extra
            self.fired["device_stuck"] += 1
            self._emit_fault("device", "stuck", self._cgroup_name(thread),
                             op=op, extra_us=stuck_extra)

        # Channel selection over the (possibly degraded) pool; same
        # min()/index() tie-break as Disk._submit.
        free_at = disk._free_at
        if channels_down > 0:
            self.fired["device_degrade"] += 1
            pool = free_at[:max(1, disk.channels - channels_down)]
            best = min(pool)
            idx = pool.index(best)
        else:
            best = min(free_at)
            idx = free_at.index(best)
        issue_us = now
        depth = sum(1 for t in free_at if t > issue_us)
        start = issue_us if best <= issue_us else best
        done = start + service
        free_at[idx] = done
        disk.stats.busy_us += service

        deadline = self._deadline
        if deadline is not None and done - issue_us > deadline:
            # Timed out: the submitter unblocks at the deadline; the
            # channel stays busy to the true completion.
            t_end = issue_us + deadline
            if t_end > thread.clock_us:
                thread.clock_us = t_end
            span = thread.span
            if span is not None and span.section is None:
                wait = min(start, t_end) - issue_us
                if wait > 0.0:
                    span.add("device_wait", wait)
                svc = (t_end - issue_us) - wait
                if svc > 0.0:
                    span.add("device_service", svc)
            disk.stats.errors += 1
            self.fired["device_timeout"] += 1
            cgname = self._cgroup_name(thread)
            tp = self._tp_io_error
            if tp.enabled:
                tp.emit(t_end, cgname, thread.tid, op=op, pages=npages,
                        error="ETIMEDOUT", deadline_us=deadline)
            self._emit_fault("device", "timeout", cgname, op=op,
                             pages=npages)
            raise ETIMEDOUT(
                f"{op} of {npages} page(s) exceeded {deadline:.0f}us "
                f"deadline")

        # The thread blocks to completion (inlined wait_until), as on
        # the fault-free path — also for EIO: the error is reported at
        # completion time.
        if done > thread.clock_us:
            thread.clock_us = done
        span = thread.span
        if span is not None and span.section is None:
            wait = start - issue_us
            if wait > 0.0:
                span.add("device_wait", wait)
            span.add("device_service", service)

        if fail:
            disk.stats.errors += 1
            self.fired["device_eio"] += 1
            cgname = self._cgroup_name(thread)
            tp = self._tp_io_error
            if tp.enabled:
                tp.emit(done, cgname, thread.tid, op=op, pages=npages,
                        error="EIO")
            self._emit_fault("device", "eio", cgname, op=op, pages=npages)
            raise EIO(f"{op} of {npages} page(s) failed")

        completion = IoCompletion(issue_us=issue_us, wait_us=start - issue_us,
                                  service_us=service, done_us=done,
                                  queue_depth=depth)
        stats = disk.stats
        cgroup = thread.cgroup
        cgid = cgroup.id if cgroup is not None else 0
        if op == "read":
            stats.reads += 1
            stats.read_pages += npages
            disk.per_cgroup[cgid].read_pages += npages
        else:
            stats.writes += 1
            stats.write_pages += npages
            disk.per_cgroup[cgid].write_pages += npages
        if disk._tp_issue.enabled or disk._tp_complete.enabled:
            disk._trace_io(thread, op, npages, completion)
        return completion
