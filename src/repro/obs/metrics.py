"""Typed metrics snapshots: one call instead of field-poking.

Before this module, every experiment dug into ``cgroup.stats.<field>``,
``machine.disk.stats`` and the framework object separately — exactly
the ad-hoc workflow the paper was forced into when it used disk access
as a hit-rate proxy (§6.1.1).  :func:`snapshot_machine` /
:func:`snapshot_cgroup` (surfaced as ``Machine.metrics()`` and
``MemCgroup.metrics()``) collect the whole stack into one immutable
snapshot: cache counters, per-cgroup block I/O, and the attached
policy's health (kfunc errors, watchdog detaches) that previously
failed silent.

Cache counters live on the cgroups only.  The machine snapshot's
``stats`` and ``hit_ratio`` are their sum, taken when the snapshot is
(:meth:`~repro.kernel.machine.Machine.cache_stats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.cgroup import MemCgroup
    from repro.kernel.machine import Machine


@dataclass(frozen=True)
class PolicyMetrics:
    """Health of one attached cache_ext policy."""

    name: str
    attached: bool
    kfunc_errors: int
    registry_folios: int
    listed_folios: int
    nr_lists: int
    #: Composite health in [0, 1] (kfunc error rate, eviction
    #: under-delivery, budget overruns); see
    #: :meth:`~repro.cache_ext.framework.CacheExtPolicy.health_score`.
    health: float = 1.0
    hook_dispatches: int = 0
    candidate_requests: int = 0
    candidates_delivered: int = 0
    budget_overruns: int = 0


@dataclass(frozen=True)
class CgroupMetrics:
    """Everything one cgroup's workload wants to know, in one object."""

    name: str
    id: int
    charged_pages: int
    limit_pages: Optional[int]
    hit_ratio: float
    #: Full :meth:`~repro.kernel.stats.CacheStats.snapshot` dict.
    stats: dict = field(repr=False)
    #: Block I/O issued by this cgroup's threads.
    io_read_pages: int = 0
    io_write_pages: int = 0
    policy: Optional[PolicyMetrics] = None

    @property
    def hits(self) -> int:
        return self.stats["hits"]

    @property
    def lookups(self) -> int:
        return self.stats["lookups"]


@dataclass(frozen=True)
class MachineMetrics:
    """Machine-wide snapshot plus one :class:`CgroupMetrics` each;
    ``stats`` is the sum of the cgroups' ``stats``."""

    now_us: float
    hit_ratio: float
    stats: dict = field(repr=False)
    disk: dict = field(repr=False)
    cgroups: dict = field(repr=False)

    def cgroup(self, name: str) -> CgroupMetrics:
        return self.cgroups[name]


def _policy_metrics(memcg: "MemCgroup") -> Optional[PolicyMetrics]:
    policy = memcg.ext_policy
    if policy is None:
        return None
    health = policy.health_score() if hasattr(policy, "health_score") \
        else 1.0
    dispatches = policy.hook_dispatches() \
        if hasattr(policy, "hook_dispatches") else 0
    return PolicyMetrics(
        name=policy.name,
        attached=bool(getattr(policy, "attached", True)),
        kfunc_errors=getattr(policy, "kfunc_errors", 0),
        registry_folios=len(getattr(policy, "registry", ())),
        listed_folios=(policy.nr_listed()
                       if hasattr(policy, "nr_listed") else 0),
        nr_lists=len(getattr(policy, "lists", ())),
        health=health,
        hook_dispatches=dispatches,
        candidate_requests=getattr(policy, "candidate_requests", 0),
        candidates_delivered=getattr(policy, "candidates_delivered", 0),
        budget_overruns=getattr(policy, "budget_overruns", 0))


def snapshot_cgroup(machine: "Machine",
                    memcg: "MemCgroup") -> CgroupMetrics:
    """Build one cgroup's snapshot (``MemCgroup.metrics()``)."""
    io = machine.disk.cgroup_io(memcg.id)
    return CgroupMetrics(
        name=memcg.name,
        id=memcg.id,
        charged_pages=memcg.charged_pages,
        limit_pages=memcg.limit_pages,
        hit_ratio=memcg.stats.hit_ratio,
        stats=memcg.stats.snapshot(),
        io_read_pages=io.read_pages,
        io_write_pages=io.write_pages,
        policy=_policy_metrics(memcg))


def snapshot_machine(machine: "Machine") -> MachineMetrics:
    """Build the machine-wide snapshot (``Machine.metrics()``)."""
    disk = machine.disk.stats
    stats = machine.cache_stats()
    return MachineMetrics(
        now_us=machine.engine.now_us,
        hit_ratio=stats.hit_ratio,
        stats=stats.snapshot(),
        disk={"reads": disk.reads, "writes": disk.writes,
              "read_pages": disk.read_pages,
              "write_pages": disk.write_pages,
              "total_pages": disk.total_pages,
              "busy_us": disk.busy_us,
              "errors": disk.errors},
        cgroups={memcg.name: snapshot_cgroup(machine, memcg)
                 for memcg in machine.cgroups()})
