"""The block device's request path: ``BlockDevice.read``/``write``
share one ``_request``, which either builds a completion record
(``Disk._submit``) or runs the same channel arithmetic without one.
Both must time and count every schedule exactly as a bare ``Disk``."""

from hypothesis import given

from repro.kernel.block import BlockDevice
from repro.kernel.cgroup import MemCgroup
from repro.obs.trace import TraceRegistry
from repro.sim.resources import Disk
from tests.strategies import STANDARD_SETTINGS, block_schedules
from tests.strategies.block import play


@STANDARD_SETTINGS
@given(block_schedules())
def test_block_device_times_and_counts_like_a_bare_disk(schedule):
    reference = play(Disk(channels=schedule.channels), schedule)

    # No consumer: the completion-free arithmetic.
    quiet = BlockDevice(channels=schedule.channels)
    cgroups = [MemCgroup(f"cg{i % 2}") if i % 3 else None
               for i in range(len(schedule.threads))]
    assert play(quiet, schedule, cgroups) == reference

    # block:io_complete subscribed: Disk._submit plus the tracepoint.
    traced = BlockDevice(channels=schedule.channels)
    registry = TraceRegistry()
    traced.attach_trace(registry)
    events = []
    registry.tracepoint("block:io_complete").subscribe(events.append)
    log, *rest = play(traced, schedule, cgroups)
    assert (log, *rest) == reference
    assert [event.ts_us for event in events] == [done for _, done in log]

    for device in (quiet, traced):
        per_cgroup = device.per_cgroup.values()
        assert sum(io.read_pages for io in per_cgroup) \
            == device.stats.read_pages
        assert sum(io.write_pages for io in per_cgroup) \
            == device.stats.write_pages
