"""Trace-replay fast path for policy sweeps.

Most cells of the big sweeps (Figure 6's hit-ratio grid, the Table 4/5
companions) only need *counters* — hits, misses, evictions, refaults,
disk pages — not tracepoints, spans, or fault injection.  Replay mode
re-runs exactly the same simulation through a stripped execution
stack, producing **bit-identical** results to the full engine
(``tests/test_replay.py`` enforces equality for every policy x stream
family):

* :class:`ReplayEngine` — the same smallest-clock-first scheduler with
  the same burst invariant and the same heap arithmetic, minus the
  per-step tracepoint checks and deadline/step-budget branches, with
  the garbage collector suspended for the run;
* :class:`~repro.cache_ext.registry.ReplayFolioRegistry` — the
  valid-folio registry with membership carried on the folio itself
  (same answers, no hash buckets on the eviction hot loop).

What replay mode is **not**: it does not skip the device model or the
scheduler.  Which thread steps next feeds back through disk queueing
into cache state, so eliding either would change the counters.  Replay
strips *instrumentation and bookkeeping*, never physics.

Replay is incompatible with fault injection and hook budgets: the
watchdog-detach path mutates registry state in a way the folio-carried
layout cannot represent, and fault plans perturb the I/O stream.
:func:`enable_replay` refuses both up front, and
:meth:`~repro.kernel.machine.Machine.arm_faults` on a replay machine
is likewise refused.

Usage — normally via the mode plumbing (``repro.api.run(spec,
mode="replay")``, ``make_db_env(..., mode="replay")``, or the parallel
runner's ``--mode replay``), but directly::

    machine = Machine()
    enable_replay(machine)          # before any spawn
    ... build cgroups / db / policy as usual ...
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.kernel.machine import Machine
from repro.sim import engine as _engine_mod
from repro.sim.engine import Engine, collector_paused


class ReplayEngine(Engine):
    """The virtual-time engine minus per-step instrumentation.

    :meth:`run` with no deadline and no step budget (the experiment
    steady state) executes a trimmed loop: byte-for-byte the heap /
    seq / burst arithmetic of :meth:`Engine.run`, without the
    ``sched:switch`` / ``sched:exit`` tracepoint checks and the
    ``until_us`` / ``max_steps`` branches.  A bounded call, or one
    with a scheduler tracepoint subscribed, delegates to the full
    loop, so windowed experiments and ``sched:*`` consumers still work
    on a replay machine.

    Equivalence argument (same as the burst-scheduling invariant, see
    EXPERIMENTS.md): scheduling order depends only on the heap
    contents, the seq counter and the strict-less-than burst test, all
    of which this loop reproduces exactly; tracepoint emission is
    side-effect-free when disabled, and the trimmed loop only runs
    when neither scheduler tracepoint has a subscriber (checked once
    per run).
    """

    def run(self, until_us: Optional[float] = None,
            max_steps: Optional[int] = None) -> None:
        if (until_us is not None or max_steps is not None
                or self._tp_switch.enabled or self._tp_exit.enabled):
            return super().run(until_us=until_us, max_steps=max_steps)
        # Folio <-> ListNode cycles: miss-heavy cells allocate cyclic
        # garbage by the hundred thousand, so the loop runs GC-paused.
        with collector_paused():
            self._run_trimmed()

    def _run_trimmed(self) -> None:
        heap = self._heap
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        next_seq = self._seq.__next__
        while heap:
            if self._live_nondaemon == 0:
                return
            clock, _seq, thread = heappop(heap)
            while not thread.done:
                self.now_us = clock
                _engine_mod._current = thread
                try:
                    more = thread.step_fn(thread)
                finally:
                    _engine_mod._current = None
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
                # Same burst test and fused re-queue as Engine.run:
                # ties go to the heap entry, only a strictly smaller
                # clock keeps the burst.
                if heap and clock >= heap[0][0]:
                    clock, _seq, thread = heappushpop(
                        heap, (clock, next_seq(), thread))


def enable_replay(machine: Machine) -> Machine:
    """Switch ``machine`` onto the replay fast path.

    Must run before any thread is spawned (the engine is swapped) and
    before any policy attaches (policies pick their registry layout at
    construction).  Returns the machine for chaining.
    """
    if machine.replay_mode:
        return machine
    if machine.engine._threads:
        raise ValueError(
            "enable_replay must run before any thread is spawned")
    if machine.faults is not None or machine.hook_budget_us is not None:
        raise ValueError(
            "replay mode is incompatible with fault plans and hook "
            "budgets (watchdog detach mutates registry state the "
            "replay layout does not represent); use mode='full'")
    engine = ReplayEngine()
    engine.attach_trace(machine.trace)
    machine.engine = engine
    machine.replay_mode = True
    _wrap_arm_faults(machine)
    return machine


def _arm_faults_refused(plan):
    """Replacement ``arm_faults`` installed on replay machines.

    Module-level (not a closure) so a replay machine stays picklable —
    the snapshot subsystem (:mod:`repro.snapshot`) pickles whole
    machines, and a bound local function would break that.
    """
    raise ValueError(
        "cannot arm a fault plan on a replay-mode machine; "
        "build the machine with mode='full'")


def _wrap_arm_faults(machine: Machine) -> None:
    machine.arm_faults = _arm_faults_refused


def replay_counters(machine: Machine, cgroup: str = "app") -> dict:
    """The counter payload replay mode promises to match bit-for-bit.

    One dict of ints/floats per (machine, cgroup): hits, misses,
    evictions, refaults, plus the machine-wide disk totals — the
    cross-check surface of ``tests/test_replay.py``.
    """
    metrics = machine.metrics()
    cg = metrics.cgroup(cgroup)
    stats = cg.stats
    return {
        "lookups": stats["lookups"],
        "hits": stats["hits"],
        "misses": stats["misses"],
        "insertions": stats["insertions"],
        "evictions": stats["evictions"],
        "refaults": stats["refaults"],
        "admission_rejects": stats["admission_rejects"],
        "hit_ratio": cg.hit_ratio,
        "disk_pages": metrics.disk["total_pages"],
        "now_us": metrics.now_us,
    }
