"""The Machine: one simulated host wiring all kernel components.

A :class:`Machine` is the top-level object experiments build: it owns
the virtual-time engine, the block device, the filesystem, the page
cache and the cgroup hierarchy.  Think of it as one CloudLab node from
the paper's testbed.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from typing import Callable, Optional

from repro.ebpf.struct_ops import StructOpsRegistry
from repro.kernel.block import BlockDevice
from repro.kernel.cgroup import MemCgroup
from repro.kernel.errors import InvariantViolation
from repro.kernel.page_cache import PageCache
from repro.kernel.vfs import Filesystem
from repro.obs.metrics import CgroupMetrics, MachineMetrics, \
    snapshot_cgroup, snapshot_machine
from repro.obs.spans import SpanRecorder
from repro.obs.trace import TraceRegistry
from repro.sim.engine import Engine, SimThread
from repro.sim.resources import CpuCosts

#: Every tracepoint the kernel layers emit, declared up front so a
#: :class:`~repro.obs.trace.TraceSession` can pattern-match the full
#: event surface before anything fires (tracefs ``available_events``).
#: DESIGN.md maps each name to its real-kernel analogue.
KERNEL_TRACEPOINTS = (
    # page cache (mm_filemap_* / writeback / workingset tracepoints)
    "cache:lookup", "cache:insert", "cache:evict", "cache:refault",
    "cache:activation", "cache:admission_reject", "cache:writeback",
    # block layer (block_rq_issue / block_rq_complete)
    "block:io_issue", "block:io_complete",
    # cache_ext framework (the BPF-runtime observability hooks)
    "cache_ext:hook_entry", "cache_ext:hook_exit",
    "cache_ext:kfunc_error", "cache_ext:watchdog_detach",
    "cache_ext:fallback_eviction",
    # policy quarantine lifecycle (repro.faults)
    "cache_ext:quarantine", "cache_ext:reattach",
    # fault-injection plane (repro.faults): one event per injected
    # fault, plus the block layer's error completions
    "fault:inject", "block:io_error",
    # virtual-time scheduler (sched:sched_switch / sched_process_exit)
    "sched:switch", "sched:exit",
    # latency attribution (repro.obs.spans): one event per request,
    # components summing exactly to the request's virtual duration
    "span:close",
)


class Machine(SnapshotFriendly):
    """One simulated host.

    Parameters
    ----------
    kernel_policy:
        Which kernel-resident eviction policy newly created cgroups get
        by default: ``"default"`` (two-list LRU) or ``"mglru"``.  This
        mirrors booting the paper's testbed with or without
        ``lru_gen`` enabled.
    disk / costs:
        Hardware model overrides; defaults approximate the paper's
        enterprise SSD.
    """

    def __init__(self, kernel_policy: str = "default",
                 disk: Optional[BlockDevice] = None,
                 costs: Optional[CpuCosts] = None) -> None:
        self.engine = Engine()
        self.costs = costs if costs is not None else CpuCosts()
        self.disk = disk if disk is not None else BlockDevice()
        #: The machine's tracepoint namespace (disabled by default;
        #: attach a :class:`~repro.obs.trace.TraceSession` to consume).
        self.trace = TraceRegistry()
        for name in KERNEL_TRACEPOINTS:
            self.trace.tracepoint(name)
        self.engine.attach_trace(self.trace)
        self.disk.attach_trace(self.trace)
        #: Latency-attribution recorder (repro.obs.spans).  Built
        #: before the VFS/LSM layers so they can cache it; gated by
        #: the ``span:close`` tracepoint, so it costs nothing until a
        #: consumer subscribes.
        self.spans = SpanRecorder(self.trace)
        self.page_cache = PageCache(self)
        self.fs = Filesystem(self)
        self.struct_ops = StructOpsRegistry()
        #: Armed fault injector (:meth:`arm_faults`), or None — the
        #: default, costing each gated site one load and a branch.
        self.faults = None
        #: True once :func:`repro.replay.enable_replay` has swapped in
        #: the :class:`~repro.replay.ReplayEngine`.
        self.replay_mode = False
        #: Per-hook runtime budget for cache_ext policies, in CPU
        #: microseconds charged per dispatch (None = no budget).
        self.hook_budget_us: Optional[float] = None
        #: Quarantine manager for watchdog-detached policies, or None
        #: (detaches stay permanent, the historical behaviour).
        self.quarantine = None
        self.default_kernel_policy = kernel_policy
        self.root_cgroup = MemCgroup("root", limit_pages=None)
        self.root_cgroup.kernel_policy = PageCache.make_kernel_policy(
            kernel_policy, self.root_cgroup)
        self.root_cgroup._machine = self
        self._cgroups: dict[str, MemCgroup] = {"root": self.root_cgroup}

    # ------------------------------------------------------------------
    # cgroups
    # ------------------------------------------------------------------
    def new_cgroup(self, name: str, limit_pages: Optional[int],
                   kernel_policy: Optional[str] = None) -> MemCgroup:
        """Create a memory cgroup below root with its own LRU state."""
        if name in self._cgroups:
            raise ValueError(f"cgroup exists: {name}")
        memcg = MemCgroup(name, limit_pages=limit_pages,
                          parent=self.root_cgroup)
        kind = kernel_policy or self.default_kernel_policy
        memcg.kernel_policy = PageCache.make_kernel_policy(kind, memcg)
        memcg._machine = self
        self._cgroups[name] = memcg
        return memcg

    def cgroup(self, name: str) -> MemCgroup:
        return self._cgroups[name]

    def cgroups(self) -> list[MemCgroup]:
        return list(self._cgroups.values())

    # ------------------------------------------------------------------
    # policies
    # ------------------------------------------------------------------
    def attach(self, cgroup, ops) -> "object":
        """Attach an eviction policy to a cgroup (the one-call API).

        ``cgroup`` may be a :class:`MemCgroup` or a cgroup name;
        ``ops`` may be a ready :class:`~repro.cache_ext.ops.CacheExtOps`
        or a :class:`~repro.cache_ext.ops.PolicyBuilder` instance::

            machine.attach("analytics", MruPolicy(skip=4))

        Returns the live :class:`~repro.cache_ext.framework.CacheExtPolicy`.
        """
        from repro.cache_ext.loader import load_policy
        from repro.cache_ext.ops import PolicyBuilder
        if isinstance(cgroup, str):
            cgroup = self.cgroup(cgroup)
        if isinstance(ops, PolicyBuilder):
            ops = ops.build()
        return load_policy(self, cgroup, ops)

    def detach(self, cgroup) -> None:
        """Detach ``cgroup``'s policy; kernel lists take over eviction."""
        from repro.cache_ext.loader import unload_policy
        if isinstance(cgroup, str):
            cgroup = self.cgroup(cgroup)
        if cgroup.ext_policy is None:
            raise ValueError(f"cgroup {cgroup.name!r} has no policy")
        unload_policy(cgroup.ext_policy)

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------
    def arm_faults(self, plan):
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this machine.

        Builds the injector, gates the block device and VFS onto their
        fault paths, applies the plan's hook budget and quarantine
        config, retrofits guards onto already-attached policies, and
        spawns one daemon thread per memory fault.  Returns the
        :class:`~repro.faults.injector.FaultInjector` (its ``fired``
        counter is the per-seed deterministic fault record).
        """
        from repro.faults.injector import FaultInjector, QuarantineManager
        if self.faults is not None:
            raise ValueError("a fault plan is already armed")
        injector = FaultInjector(self, plan)
        self.faults = injector
        self.disk._faults = injector
        self.fs._fault_mode = True
        if plan.hook_budget_us is not None:
            self.hook_budget_us = plan.hook_budget_us
        if plan.quarantine is not None:
            self.quarantine = QuarantineManager(self, plan.quarantine)
        self._refresh_policy_guards()
        for fault in plan.memory:
            self._spawn_memory_fault(injector, fault)
        return injector

    def set_hook_budget(self, budget_us: Optional[float]) -> None:
        """Enable (or clear) budget-based watchdog detach standalone:
        a hook dispatch charging more than ``budget_us`` of CPU gets
        its policy detached, no full fault plan required."""
        self.hook_budget_us = budget_us
        self._refresh_policy_guards()

    def enable_quarantine(self, config=None):
        """Quarantine watchdog-detached policies for backoff re-attach
        (off by default: a detach is permanent unless enabled here or
        via an armed plan).  Returns the manager."""
        from repro.faults.injector import QuarantineManager
        self.quarantine = QuarantineManager(self, config)
        return self.quarantine

    def _policy_guard(self, memcg):
        """The hook guard a policy attaching to ``memcg`` should carry
        (None when neither faults nor a budget are armed — the hook
        fast paths stay guard-free)."""
        if self.faults is None and self.hook_budget_us is None:
            return None
        from repro.faults.injector import PolicyGuard
        return PolicyGuard(self.faults, self.hook_budget_us, memcg.name)

    def _refresh_policy_guards(self) -> None:
        for memcg in self._cgroups.values():
            policy = memcg.ext_policy
            if policy is not None:
                policy._guard = self._policy_guard(memcg)

    def _spawn_memory_fault(self, injector, fault) -> None:
        def step(thread: SimThread) -> bool:
            if thread.clock_us < fault.at_us:
                thread.wait_until(fault.at_us)
                return True
            injector.fire_memory_fault(fault)
            return False
        # Daemon: the fault does not keep the machine alive — a window
        # past the end of the workload simply never fires.
        self.engine.spawn(f"fault:mem:{fault.cgroup}", step,
                          cgroup=self.root_cgroup, daemon=True)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def attach_timeseries(self, interval_us: Optional[float] = None):
        """Attach a continuous telemetry sampler to this machine.

        Returns the armed :class:`repro.obs.timeseries.TimeseriesSampler`
        (call ``finalize()`` after the run, then export).  Convenience
        for the direct-Machine API; experiment sweeps should use
        ``--timeseries`` / ``api.run(timeseries=...)`` instead.
        """
        from repro.obs.timeseries import (DEFAULT_SAMPLE_INTERVAL_US,
                                          TimeseriesSampler)
        if interval_us is None:
            interval_us = DEFAULT_SAMPLE_INTERVAL_US
        return TimeseriesSampler(interval_us).attach(self)

    def metrics(self) -> MachineMetrics:
        """One typed snapshot of the whole machine (stats + I/O +
        per-cgroup policy health); see :mod:`repro.obs.metrics`."""
        return snapshot_machine(self)

    def cgroup_metrics(self, cgroup) -> CgroupMetrics:
        if isinstance(cgroup, str):
            cgroup = self.cgroup(cgroup)
        return snapshot_cgroup(self, cgroup)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Check the page cache's conservation laws, at rest (between
        engine steps), over every live file and every cgroup:

        * a cgroup's charge equals its resident folio count and does
          not exceed its limit;
        * ``lookups == hits + misses``, per cgroup and machine-wide;
        * an attached cache_ext policy's registry holds exactly the
          cgroup's resident folios, and no folio sits on two of its
          eviction lists.

        Raises :class:`InvariantViolation` listing each broken law.
        """
        resident: dict = {}
        for f in self.fs.files():
            for folio in f.mapping.folios():
                resident.setdefault(folio.memcg, []).append(folio)
        broken = []

        def law(holds: bool, message: str) -> None:
            if not holds:
                broken.append(message)

        def lookups_add_up(who: str, stats) -> None:
            law(stats.lookups == stats.hits + stats.misses,
                f"{who}: lookups {stats.lookups} != hits {stats.hits} "
                f"+ misses {stats.misses}")

        lookups_add_up("machine", self.page_cache.stats)
        for cg in self._cgroups.values():
            who = f"cgroup {cg.name}"
            folios = resident.get(cg, ())
            n = len(folios)
            lookups_add_up(who, cg.stats)
            law(cg.charged_pages == n,
                f"{who}: charge {cg.charged_pages} != resident {n}")
            law(not cg.over_limit,
                f"{who}: charge {cg.charged_pages} > limit {cg.limit_pages}")
            policy = cg.ext_policy
            if policy is None:
                continue
            law(len(policy.registry) == n,
                f"{who}: registry size {len(policy.registry)} != resident {n}")
            law(all(map(policy.holds_reference, folios)),
                f"{who}: a resident folio is not in the registry")
            listed = [folio.id for lst in policy.lists
                      for folio in lst.folios()]
            law(len(listed) == len(set(listed)),
                f"{who}: a folio is on two eviction lists")
        if broken:
            raise InvariantViolation(
                "page-cache invariants violated:\n  " + "\n  ".join(broken))

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------
    def spawn(self, name: str, step_fn: Callable[[SimThread], bool],
              cgroup: Optional[MemCgroup] = None,
              tid: Optional[int] = None,
              daemon: bool = False) -> SimThread:
        """Start a simulated thread charged to ``cgroup`` (root if None)."""
        return self.engine.spawn(
            name, step_fn,
            cgroup=cgroup if cgroup is not None else self.root_cgroup,
            tid=tid, daemon=daemon)

    def run(self, until_us: Optional[float] = None,
            max_steps: Optional[int] = None) -> None:
        self.engine.run(until_us=until_us, max_steps=max_steps)

    @property
    def now_us(self) -> float:
        return self.engine.now_us
