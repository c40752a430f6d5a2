"""Block request schedules: a few threads with their own start clocks
and think times, issuing reads and writes of 1-64 pages, random or
contiguous, to one device with few enough channels that they queue."""

from dataclasses import dataclass

from hypothesis import strategies as st

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


def play(device, schedule: BlockSchedule, cgroups=()) -> tuple:
    """Issue ``schedule`` to ``device`` from engine threads (thread
    ``i`` in ``cgroups[i]`` when given); returns each request's
    completion clock in dispatch order, the threads' final clocks, the
    channels' ``_free_at`` and the device's stats."""
    engine = Engine()
    log = []

    def spawn(i: int, start_us: float, requests: tuple):
        def step(thread, it=iter(requests)) -> bool:
            request = next(it, None)
            if request is None:
                return False
            thread.advance(request.think_us)
            issue = device.read if request.op == "read" else device.write
            issue(thread, request.npages, contiguous=request.contiguous)
            log.append((i, thread.clock_us))
            return True

        return engine.spawn(f"t{i}", step, start_us=start_us,
                            cgroup=cgroups[i] if cgroups else None)

    threads = [spawn(i, start_us, requests)
               for i, (start_us, requests) in enumerate(schedule.threads)]
    engine.run()
    return (log, [(t.clock_us, t.cpu_us) for t in threads],
            device._free_at, device.stats)
