"""Block request schedules: a few threads with their own start clocks
and think times, issuing reads and writes of 1-64 pages, random or
contiguous, to one device with few enough channels that they queue —
and device fault plans to arm on that device."""

from dataclasses import dataclass

from hypothesis import strategies as st

from repro.faults.plan import FOREVER, DeviceFault, FaultPlan
from repro.kernel.errors import EIO, ETIMEDOUT
from repro.obs.spans import Span
from repro.sim.engine import Engine

#: Think times and start offsets.  Few distinct values, so requests
#: often arrive together and the channel tie-break decides.
GAPS = (0.0, 0.0, 10.0, 37.5, 250.0)


@dataclass(frozen=True)
class Request:
    op: str
    npages: int
    contiguous: bool
    think_us: float


@dataclass(frozen=True)
class BlockSchedule:
    channels: int
    #: One ``(start_us, requests)`` pair per thread.
    threads: tuple


def block_schedules() -> st.SearchStrategy:
    requests = st.lists(
        st.builds(Request,
                  op=st.sampled_from(("read", "read", "write")),
                  # Half single pages (the shortcut), half up to 64.
                  npages=st.one_of(st.just(1), st.integers(1, 64)),
                  contiguous=st.booleans(),
                  think_us=st.sampled_from(GAPS)),
        max_size=12).map(tuple)
    return st.builds(
        BlockSchedule,
        channels=st.integers(1, 3),
        threads=st.lists(st.tuples(st.sampled_from(GAPS), requests),
                         min_size=1, max_size=4).map(tuple))


#: Fault window edges: windows open and close while requests run.
EDGES = (0.0, 40.0, 300.0, FOREVER)


@dataclass(frozen=True)
class FaultedSchedule:
    schedule: BlockSchedule
    plan: FaultPlan
    #: Fire the block tracepoints and open a span per request.
    observed: bool


def device_faults(channels: int) -> st.SearchStrategy:
    """One :class:`DeviceFault` of any kind for a ``channels``-channel
    device: a window over :data:`EDGES`, one or both ops, probability
    0, 0.3 or 1, and up to every channel down."""
    window = st.tuples(st.sampled_from(EDGES), st.sampled_from(EDGES)) \
        .map(sorted)
    return st.builds(
        lambda kind, window, **kw: DeviceFault(
            kind=kind, start_us=window[0], end_us=window[1], **kw),
        kind=st.sampled_from(("eio", "latency", "degrade", "stuck")),
        window=window,
        ops=st.sampled_from((("read",), ("write",), ("read", "write"))),
        prob=st.sampled_from((0.0, 0.3, 1.0)),
        latency_mult=st.sampled_from((0.5, 1.0, 4.0)),
        channels_down=st.integers(0, channels),
        stuck_extra_us=st.sampled_from((0.0, 60.0, 900.0)))


def faulted_schedules() -> st.SearchStrategy:
    """A block schedule crossed with a device fault plan for its
    device: up to four faults, and no deadline or a finite one short
    enough that queued and stuck requests time out."""
    def plan_for(schedule: BlockSchedule) -> st.SearchStrategy:
        return st.builds(
            FaultPlan,
            seed=st.integers(1, 4),
            device=st.lists(device_faults(schedule.channels),
                            max_size=4).map(tuple),
            request_deadline_us=st.sampled_from((None, 50.0, 150.0,
                                                 400.0)))

    return block_schedules().flatmap(
        lambda schedule: st.builds(FaultedSchedule, st.just(schedule),
                                   plan_for(schedule), st.booleans()))


def play(device, schedule: BlockSchedule, cgroups=(),
         spans: bool = False) -> tuple:
    """Issue ``schedule`` to ``device`` from engine threads (thread
    ``i`` in ``cgroups[i]`` when given); returns each request's
    ``(thread, completion clock, error)`` in dispatch order — the error
    is the name of the raised :class:`EIO`/:class:`ETIMEDOUT` or None —
    the threads' final clocks, the channels' ``_free_at`` and the
    device's stats.  With ``spans``, each request runs in a fresh span
    (every third one inside an open section) whose components join its
    log entry."""
    engine = Engine()
    log = []

    def spawn(i: int, start_us: float, requests: tuple):
        def step(thread, it=iter(requests)) -> bool:
            request = next(it, None)
            if request is None:
                return False
            thread.advance(request.think_us)
            if spans:
                span = thread.span = Span("io", thread.clock_us)
                if len(log) % 3 == 2:
                    span.begin_section("fsync", thread.clock_us)
            issue = device.read if request.op == "read" else device.write
            try:
                issue(thread, request.npages, contiguous=request.contiguous)
                error = None
            except (EIO, ETIMEDOUT) as exc:
                error = type(exc).__name__
            entry = (i, thread.clock_us, error)
            if spans:
                entry += (thread.span.comps,)
                thread.span = None
            log.append(entry)
            return True

        return engine.spawn(f"t{i}", step, start_us=start_us,
                            cgroup=cgroups[i] if cgroups else None)

    threads = [spawn(i, start_us, requests)
               for i, (start_us, requests) in enumerate(schedule.threads)]
    engine.run()
    return (log, [(t.clock_us, t.cpu_us) for t in threads],
            device._free_at, device.stats)
