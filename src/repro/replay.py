"""Trace-replay fast path for policy sweeps.

Most cells of the big sweeps (Figure 6's hit-ratio grid, the Table 4/5
companions) only need *counters* — hits, misses, evictions, refaults,
disk pages.  Replay mode re-runs exactly the same simulation with one
difference, producing **bit-identical** results to the full engine
(``tests/test_replay.py`` enforces equality for every policy x stream
family, and for the chaos grid's fault plans):

* :class:`ReplayEngine` runs :meth:`Engine._run_unbounded
  <repro.sim.engine.Engine._run_unbounded>` — the loop an unbounded,
  untraced :meth:`Engine.run <repro.sim.engine.Engine.run>` takes too —
  with the garbage collector suspended for the run.

Everything else (the registry, the hooks, the device model, the
scheduler's order) is the full engine's.  Which thread steps next feeds
back through disk queueing into cache state, so replay never elides
physics.

Usage — normally via the mode plumbing (``repro.api.run(spec,
mode="replay")``, ``make_db_env(..., mode="replay")``, or the parallel
runner's ``--mode replay``), but directly::

    machine = Machine()
    enable_replay(machine)          # before any spawn
    ... build cgroups / db / policy as usual ...
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.machine import Machine
from repro.sim.engine import Engine, collector_paused


class ReplayEngine(Engine):
    """The virtual-time engine with its unbounded run GC-paused.

    :meth:`run` with no deadline, no step budget and no scheduler
    tracepoint subscribed (the experiment steady state) executes
    :meth:`Engine._run_unbounded` under
    :func:`~repro.sim.engine.collector_paused`.  A bounded call, or one
    with a ``sched:*`` subscriber, delegates to :meth:`Engine.run`, so
    windowed experiments and scheduler consumers still work on a replay
    machine.
    """

    def run(self, until_us: Optional[float] = None,
            max_steps: Optional[int] = None) -> None:
        if (until_us is not None or max_steps is not None
                or self._tp_switch.enabled or self._tp_exit.enabled):
            return super().run(until_us=until_us, max_steps=max_steps)
        # Folio <-> ListNode cycles: miss-heavy cells allocate cyclic
        # garbage by the hundred thousand, so the loop runs GC-paused.
        # Called directly, not through Engine.run: the layered
        # benchmark's tracer times the two run methods as two layers.
        with collector_paused():
            self._run_unbounded()


def enable_replay(machine: Machine) -> Machine:
    """Switch ``machine`` onto the replay fast path.

    Must run before any thread is spawned (the engine is swapped).
    Returns the machine for chaining.
    """
    if machine.replay_mode:
        return machine
    if machine.engine._threads:
        raise ValueError(
            "enable_replay must run before any thread is spawned")
    engine = ReplayEngine()
    engine.attach_trace(machine.trace)
    machine.engine = engine
    machine.replay_mode = True
    return machine


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
