"""The block device's request path: ``BlockDevice.read``/``write``
share one ``_request``, which either builds a completion record
(``_submit``) or runs the same channel arithmetic without one, and
which an armed fault plan perturbs instead of replacing.  Fault-free,
it must time and count every schedule exactly as the bare
``ReferenceDisk``; armed, exactly as the block device with the
injector's own copy of the request (``ReferenceInjector.device_io``)."""

from types import SimpleNamespace

from hypothesis import given

from repro.faults.injector import FaultInjector
from repro.kernel.block import BlockDevice
from repro.kernel.cgroup import MemCgroup
from repro.obs.trace import TraceRegistry
from tests.reference.block import (ReferenceBlockDevice, ReferenceDisk,
                                   ReferenceInjector)
from tests.strategies import (STANDARD_SETTINGS, block_schedules,
                              faulted_schedules)
from tests.strategies.block import play

#: Everything the block layer and the device fault plane emit.
BLOCK_EVENTS = ("block:io_issue", "block:io_complete", "block:io_error",
                "fault:inject")


def _cgroups(schedule) -> list:
    return [MemCgroup(f"cg{i % 2}") if i % 3 else None
            for i in range(len(schedule.threads))]


@STANDARD_SETTINGS
@given(block_schedules())
def test_block_device_times_and_counts_like_a_bare_disk(schedule):
    reference = play(ReferenceDisk(channels=schedule.channels), schedule)

    # No consumer: the completion-free arithmetic.
    quiet = BlockDevice(channels=schedule.channels)
    cgroups = _cgroups(schedule)
    assert play(quiet, schedule, cgroups) == reference

    # block:io_complete subscribed: _submit plus the tracepoint.
    traced = BlockDevice(channels=schedule.channels)
    registry = TraceRegistry()
    traced.attach_trace(registry)
    events = []
    registry.tracepoint("block:io_complete").subscribe(events.append)
    log, *rest = play(traced, schedule, cgroups)
    assert (log, *rest) == reference
    assert [event.ts_us for event in events] == [done for _, done, _ in log]

    for device in (quiet, traced):
        per_cgroup = device.per_cgroup.values()
        assert sum(io.read_pages for io in per_cgroup) \
            == device.stats.read_pages
        assert sum(io.write_pages for io in per_cgroup) \
            == device.stats.write_pages


def _play_armed(device, injector_cls, case, cgroups) -> tuple:
    registry = TraceRegistry()
    injector = injector_cls(SimpleNamespace(trace=registry, engine=None),
                            case.plan)
    device._faults = injector
    events = []
    if case.observed:
        device.attach_trace(registry)
        for name in BLOCK_EVENTS:
            registry.tracepoint(name).subscribe(events.append)
    log, clocks, free_at, stats = play(device, case.schedule, cgroups,
                                       spans=case.observed)
    per_cgroup = {cgroup_id: (io.read_pages, io.write_pages)
                  for cgroup_id, io in device.per_cgroup.items()}
    return (log, clocks, free_at, stats, per_cgroup, dict(injector.fired),
            [(e.name, e.ts_us, e.cgroup, e.tid, e.data) for e in events])


@STANDARD_SETTINGS
@given(faulted_schedules())
def test_armed_device_perturbs_the_one_request_like_the_reference(case):
    channels = case.schedule.channels
    cgroups = _cgroups(case.schedule)
    reference = _play_armed(ReferenceBlockDevice(channels=channels),
                            ReferenceInjector, case, cgroups)
    assert _play_armed(BlockDevice(channels=channels), FaultInjector,
                       case, cgroups) == reference
