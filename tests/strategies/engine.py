"""Scheduling scenarios for the engine loops: small thread sets whose
clocks tie often, with daemons, a mid-step spawn, a bounded run window
and a step budget — every feature the burst test and the fused
re-queue interact with."""

from dataclasses import dataclass
from typing import Optional

from hypothesis import strategies as st

#: Per-step advances.  Few distinct values, ``0.0`` among them and
#: ``1.0`` listed twice (drawn twice as often), so that clocks tie (and
#: the seq tie-break decides) in most scenarios.
ADVANCES = (0.0, 0.5, 1.0, 1.0, 2.5, 7.0)


@dataclass(frozen=True)
class ThreadPlan:
    #: One advance per step; the thread finishes on its last step.
    advances: tuple
    daemon: bool = False
    start_us: Optional[float] = None
    #: Spawn ``child`` during step ``spawn_at`` (after advancing), at
    #: ``clock + child_offset``, or aligned to the spawner by the
    #: engine when ``child_offset`` is None.
    spawn_at: Optional[int] = None
    child: Optional["ThreadPlan"] = None
    child_offset: Optional[float] = None


@dataclass(frozen=True)
class EngineScenario:
    threads: tuple
    #: ``run(until_us=...)`` first, when set.
    until_us: Optional[float]
    #: then ``run(max_steps=...)``, which may raise, when set;
    #: a draining ``run()`` always comes last.
    max_steps: Optional[int]


def _advances(max_steps: int) -> st.SearchStrategy:
    return st.lists(st.sampled_from(ADVANCES), min_size=1,
                    max_size=max_steps).map(tuple)


def _leaf_plans() -> st.SearchStrategy:
    return st.builds(ThreadPlan, _advances(8), daemon=st.booleans())


@st.composite
def thread_plans(draw) -> ThreadPlan:
    daemon = draw(st.booleans())
    # Daemons tend to outlive the workers, as pollers do.
    advances = draw(_advances(30 if daemon else 12))
    start_us = draw(st.one_of(st.none(), st.sampled_from(ADVANCES)))
    if not draw(st.booleans()):
        return ThreadPlan(advances, daemon, start_us)
    return ThreadPlan(
        advances, daemon, start_us,
        spawn_at=draw(st.integers(0, len(advances) - 1)),
        child=draw(_leaf_plans()),
        child_offset=draw(st.one_of(st.none(), st.sampled_from(ADVANCES))))


def engine_scenarios() -> st.SearchStrategy:
    return st.builds(
        EngineScenario,
        threads=st.lists(thread_plans(), min_size=1, max_size=8).map(tuple),
        until_us=st.one_of(st.none(), st.sampled_from((0.0, 1.0, 4.5, 20.0))),
        max_steps=st.one_of(st.none(), st.integers(0, 40)))


def play(engine, scenario: EngineScenario, **drain) -> tuple:
    """Run ``scenario`` on ``engine``; returns everything a scheduler
    can be told apart by: the dispatch log ``(tid, step index, clock at
    dispatch)`` written by the step functions themselves (so it exists
    on loops that emit no ``sched:switch``), ``now_us`` after each run
    call, whether the budgeted call raised, and every thread's final
    counters.  ``drain`` is passed to the last ``run()``."""
    log, threads = [], []

    def spawn(plan: ThreadPlan, name: str, start_us):
        def step(thread) -> bool:
            index = thread.steps
            log.append((thread.tid, index, thread.clock_us))
            thread.advance(plan.advances[index])
            if index == plan.spawn_at:
                offset = plan.child_offset
                spawn(plan.child, f"{name}.child",
                      None if offset is None else thread.clock_us + offset)
            return index + 1 < len(plan.advances)

        threads.append(engine.spawn(name, step, start_us=start_us,
                                    daemon=plan.daemon))

    for i, plan in enumerate(scenario.threads):
        spawn(plan, f"t{i}", plan.start_us)
    checkpoints = []
    if scenario.until_us is not None:
        engine.run(until_us=scenario.until_us)
        checkpoints.append(engine.now_us)
    if scenario.max_steps is not None:
        try:
            engine.run(max_steps=scenario.max_steps)
            checkpoints.append("completed")
        except RuntimeError:
            checkpoints.append("raised")
        checkpoints.append(engine.now_us)
    engine.run(**drain)
    checkpoints.append(engine.now_us)
    return log, checkpoints, [
        (t.tid, t.name, t.steps, t.clock_us, t.cpu_us, t.finish_us, t.done)
        for t in threads]
