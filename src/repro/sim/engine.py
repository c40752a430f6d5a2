"""Cooperative virtual-time thread engine.

The engine models concurrency with per-thread virtual clocks instead of a
full discrete-event simulation.  Each :class:`SimThread` wraps a *step
function*: a callable that performs one indivisible unit of application
work (one key-value operation, one file searched, one compaction check)
and advances the thread's clock through the costs it incurs (CPU cycles,
block-device service time, queueing delay).

Scheduling rule: the runnable thread with the *smallest* local clock is
always stepped next.  This keeps all thread clocks closely aligned, so
shared-resource contention (e.g., two cgroups hammering one SSD) is
resolved in causal order, which is what makes the isolation experiment
(Figure 11 in the paper) meaningful.

The currently running thread is exposed through :func:`current_thread` so
that kernel code can implement ``current``-style accessors (the cgroup to
charge a folio to, the TID consulted by application-informed policies).
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
import gc
import heapq
import itertools
from contextlib import contextmanager
from typing import Callable, Optional

from repro.obs.trace import NULL_TRACEPOINT

#: The thread currently being stepped by an Engine, if any.  Kernel code
#: reads this the way Linux reads ``current``.
_current: Optional["SimThread"] = None


@contextmanager
def collector_paused():
    """Run the block with the cyclic collector off, after one full
    collection that frees the previous (cyclic) machine before the next
    allocates; a no-op for a caller that already disabled it."""
    if not gc.isenabled():
        yield
        return
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def current_thread() -> Optional["SimThread"]:
    """Return the simulated thread currently executing, or ``None``.

    ``None`` means code is running outside the engine (e.g., in a unit
    test that exercises the page cache directly); callers must tolerate
    this and fall back to a default cgroup / synthetic TID.
    """
    return _current


class SimThread:
    """A simulated kernel task.

    Parameters
    ----------
    tid:
        Unique thread identifier.  Application-informed policies key
        their eBPF maps on this, exactly as the paper keys the GET-SCAN
        and admission-filter policies on PIDs/TIDs.
    name:
        Human-readable label used in stats and error messages.
    step_fn:
        Callable invoked once per scheduling quantum.  It must perform
        one unit of work and return ``True`` if the thread has more work
        to do, ``False`` when it has finished.
    cgroup:
        The memory cgroup this thread's page-cache charges accrue to.
    """

    __slots__ = ("tid", "name", "step_fn", "cgroup", "cgroup_name",
                 "clock_us", "done", "steps", "cpu_us", "start_us",
                 "finish_us", "daemon", "span")

    def __init__(self, tid: int, name: str,
                 step_fn: Callable[["SimThread"], bool],
                 cgroup=None, daemon: bool = False) -> None:
        self.tid = tid
        self.name = name
        self.step_fn = step_fn
        self.cgroup = cgroup
        #: Cached ``cgroup.name`` ("root" when unassigned), so tracing
        #: never recomputes it per context switch / thread exit.  Keep
        #: in sync via :meth:`set_cgroup` when reassigning.
        self.cgroup_name = cgroup.name if cgroup is not None else "root"
        self.clock_us: float = 0.0
        self.done = False
        self.steps = 0
        self.cpu_us: float = 0.0
        self.start_us: float = 0.0
        self.finish_us: float = 0.0
        #: Daemon threads (background compaction, userspace pollers) do
        #: not keep the engine alive: run() stops once every non-daemon
        #: thread has finished, like Python's threading daemons.
        self.daemon = daemon
        #: The open latency-attribution span, or None (the common
        #: case; see :mod:`repro.obs.spans`).  Kernel charge sites
        #: test this with one attribute load plus a branch.
        self.span = None

    def set_cgroup(self, cgroup) -> None:
        """Reassign the thread's cgroup, keeping ``cgroup_name`` fresh."""
        self.cgroup = cgroup
        self.cgroup_name = cgroup.name if cgroup is not None else "root"

    def advance(self, us: float) -> None:
        """Consume ``us`` microseconds of CPU time on this thread."""
        if us < 0:
            raise ValueError(f"negative time advance: {us}")
        self.clock_us += us
        self.cpu_us += us

    def wait_until(self, t_us: float) -> None:
        """Block (without consuming CPU) until virtual time ``t_us``."""
        if t_us > self.clock_us:
            self.clock_us = t_us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimThread(tid={self.tid}, name={self.name!r}, clock={self.clock_us:.1f}us)"


class Engine(SnapshotFriendly):
    """Smallest-clock-first scheduler over a set of :class:`SimThread`.

    Threads may be added while the engine is running (e.g., an LSM store
    spawning a compaction thread); they enter the run queue with their
    clock aligned to the spawner's, so causality is preserved.
    """

    #: Compaction trigger: when done threads outnumber live ones by
    #: this factor (and there are enough of them to matter), the engine
    #: drops finished entries from ``_threads`` and stale tuples from
    #: ``_heap`` so long multi-phase runs don't grow unboundedly.
    COMPACT_FACTOR = 4
    COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self._threads: list[SimThread] = []
        self._heap: list[tuple[float, int, SimThread]] = []
        self._seq = itertools.count()
        self._next_tid = itertools.count(1000)
        self._live_nondaemon = 0
        self._nr_done = 0
        self.now_us: float = 0.0
        # Scheduler tracepoints (sched:switch / sched:exit); wired by
        # Machine via attach_trace, permanently disabled on a bare
        # engine so the hot loop needs no None checks.
        self._tp_switch = NULL_TRACEPOINT
        self._tp_exit = NULL_TRACEPOINT

    def attach_trace(self, registry) -> None:
        """Cache scheduler tracepoints from a machine's registry."""
        self._tp_switch = registry.tracepoint("sched:switch")
        self._tp_exit = registry.tracepoint("sched:exit")

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def spawn(self, name: str, step_fn: Callable[[SimThread], bool],
              cgroup=None, tid: Optional[int] = None,
              start_us: Optional[float] = None,
              daemon: bool = False) -> SimThread:
        """Create a thread and enqueue it.

        ``start_us`` defaults to the engine's current time so that
        threads spawned mid-run do not start "in the past".
        """
        if tid is None:
            tid = next(self._next_tid)
        thread = SimThread(tid, name, step_fn, cgroup=cgroup, daemon=daemon)
        if start_us is None:
            # Align to the spawner's (possibly mid-step) clock so a
            # child never starts in its parent's past.
            spawner = current_thread()
            start_us = spawner.clock_us if spawner is not None \
                else self.now_us
        thread.clock_us = start_us
        thread.start_us = thread.clock_us
        if not daemon:
            self._live_nondaemon += 1
        self._threads.append(thread)
        heapq.heappush(self._heap, (thread.clock_us, next(self._seq), thread))
        return thread

    @property
    def threads(self) -> list[SimThread]:
        """Snapshot of threads the engine still remembers.

        Finished threads remain visible until a compaction pass drops
        them (see :meth:`_maybe_compact`); callers that need a thread's
        final counters should keep their own reference, as the apps do.
        """
        return list(self._threads)

    def _maybe_compact(self) -> None:
        """Drop finished threads once they dominate the live set.

        Lazy, amortised O(live): runs only when done entries exceed
        live ones by :attr:`COMPACT_FACTOR`, rebuilding ``_threads``
        and filtering stale ``_heap`` tuples (a done thread's tuple is
        dead weight — the run loop would skip it anyway).
        """
        dead = self._nr_done
        live = len(self._threads) - dead
        if dead < self.COMPACT_MIN_DEAD or dead <= self.COMPACT_FACTOR * live:
            return
        self._threads = [t for t in self._threads if not t.done]
        self._nr_done = 0
        stale = len(self._heap) - sum(
            1 for _, _, t in self._heap if not t.done)
        if stale > self.COMPACT_FACTOR * max(1, len(self._heap) - stale):
            self._heap = [entry for entry in self._heap
                          if not entry[2].done]
            heapq.heapify(self._heap)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until_us: Optional[float] = None,
            max_steps: Optional[int] = None) -> None:
        """Step threads until none remain runnable.

        Parameters
        ----------
        until_us:
            Stop once the next runnable thread's clock exceeds this time.
            Threads past the deadline are left unfinished, which is how
            fixed-duration experiments (e.g., the 7-minute file-search
            window of Figure 11) are expressed.
        max_steps:
            Safety valve for tests; raises ``RuntimeError`` as soon as
            running one more step would exceed the budget (i.e. at most
            ``max_steps`` steps ever execute).

        With neither bound, and neither ``sched:switch`` nor
        ``sched:exit`` subscribed, the run takes
        :meth:`_run_unbounded`: the same dispatch order without the
        bound and tracepoint tests.  The subscriber check happens once
        per call, so a subscriber must attach before ``run()``; every
        in-repo consumer does (trace sessions, samplers and collectors
        attach first, and windowed tools pass ``until_us``).
        """
        if (until_us is None and max_steps is None
                and not self._tp_switch.enabled
                and not self._tp_exit.enabled):
            return self._run_unbounded()
        global _current
        steps = 0
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        heappushpop = heapq.heappushpop
        next_seq = self._seq.__next__
        tp_switch = self._tp_switch
        while heap:
            if self._live_nondaemon == 0:
                # Only daemons remain; they must not keep us spinning.
                return
            clock, _seq, thread = heappop(heap)
            # One iteration per dispatch.  This is the plain
            # pop-step-push loop (tests/reference/engine.py) minus two
            # heap round-trips: a thread *strictly* ahead of every
            # other runnable one is stepped again without touching the
            # heap (burst), and one that is not re-queues and takes
            # the next entry in a single sift.  See EXPERIMENTS.md,
            # "burst-scheduling invariant".  A stale entry (finished,
            # not yet compacted) ends the loop and is dropped.
            while not thread.done:
                if until_us is not None and clock >= until_us:
                    # Not runnable within the window; push back and
                    # stop.  Clamp: a thread finishing past the
                    # deadline may have already advanced now_us beyond
                    # until_us.
                    heappush(heap, (clock, next_seq(), thread))
                    if until_us > self.now_us:
                        self.now_us = until_us
                    return
                if max_steps is not None and steps >= max_steps:
                    heappush(heap, (clock, next_seq(), thread))
                    raise RuntimeError(
                        f"engine exceeded max_steps={max_steps}")
                self.now_us = clock
                if tp_switch.enabled:
                    tp_switch.emit(clock, thread.cgroup_name, thread.tid,
                                   thread=thread.name, step=thread.steps)
                _current = thread
                try:
                    more = thread.step_fn(thread)
                finally:
                    _current = None
                thread.steps += 1
                steps += 1
                if not more:
                    thread.done = True
                    thread.finish_us = thread.clock_us
                    self._nr_done += 1
                    if not thread.daemon:
                        self._live_nondaemon -= 1
                    self.now_us = max(self.now_us, thread.clock_us)
                    tp = self._tp_exit
                    if tp.enabled:
                        tp.emit(thread.clock_us, thread.cgroup_name,
                                thread.tid, thread=thread.name,
                                steps=thread.steps, cpu_us=thread.cpu_us)
                    self._maybe_compact()
                    heap = self._heap
                    # Only a finishing thread can leave daemons alone
                    # on the heap: back to the outer loop's exit test.
                    break
                clock = thread.clock_us
                # Re-read heap[0] every iteration: a spawn inside the
                # step pushes into this same heap and must be able to
                # preempt.  Ties go to the heap entry (smaller seq),
                # so only a strictly smaller clock keeps the burst.
                if heap and clock >= heap[0][0]:
                    # heappush + heappop, fused: the same (clock, seq)
                    # order from one sift instead of two.
                    clock, _seq, thread = heappushpop(
                        heap, (clock, next_seq(), thread))

    def _run_unbounded(self) -> None:
        """:meth:`run` with no deadline, no step budget and no
        scheduler tracepoint: byte-for-byte its heap / seq / burst
        arithmetic, minus the branches that cannot fire."""
        global _current
        heap = self._heap
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        next_seq = self._seq.__next__
        while heap:
            if self._live_nondaemon == 0:
                return
            clock, _seq, thread = heappop(heap)
            while not thread.done:
                self.now_us = clock
                _current = thread
                try:
                    more = thread.step_fn(thread)
                finally:
                    _current = None
                thread.steps += 1
                if not more:
                    thread.done = True
                    thread.finish_us = thread.clock_us
                    self._nr_done += 1
                    if not thread.daemon:
                        self._live_nondaemon -= 1
                    self.now_us = max(self.now_us, thread.clock_us)
                    self._maybe_compact()
                    heap = self._heap
                    break
                clock = thread.clock_us
                # Same burst test and fused re-queue as run(): ties go
                # to the heap entry, only a strictly smaller clock
                # keeps the burst.
                if heap and clock >= heap[0][0]:
                    clock, _seq, thread = heappushpop(
                        heap, (clock, next_seq(), thread))
