"""Fault execution: the injector, the policy guard, the quarantine.

Three cooperating pieces, all armed from
:meth:`repro.kernel.machine.Machine.arm_faults`:

* :class:`FaultInjector` — owns the plan, the per-category seeded RNGs
  and the fired-fault counters, and perturbs the *device*: the block
  device's one request path asks :meth:`FaultInjector.perturb` for a
  request's service time, channel pool and EIO verdict, submits it as
  any other request, and hands a failure to
  :meth:`FaultInjector.failed` for accounting and its typed error;
* :class:`PolicyGuard` — the per-policy hook guard: injects policy
  faults (stalls, kfunc misuse, candidate corruption) and enforces the
  per-hook runtime budget that extends the watchdog from
  exception-only to budget-based detach;
* :class:`QuarantineManager` — holds detached policies and re-attaches
  them with exponential backoff, lazily, on the cgroup's next reclaim
  pass.

Every injection emits a ``fault:inject`` tracepoint (plus
``block:io_error`` for failed device requests and
``cache_ext:quarantine`` / ``cache_ext:reattach`` for policy
lifecycle), so the existing :mod:`repro.obs` collectors see the whole
fault story without new plumbing.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import TYPE_CHECKING, Optional

from repro.kernel.errors import EIO, ETIMEDOUT
from repro.sim.engine import SimThread, current_thread, trace_stamp
from repro.sim.resources import IoCompletion

from repro.faults.plan import FaultPlan, QuarantineConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.machine import Machine


def _hit(rng: Random, prob: float) -> bool:
    """Seeded coin flip.  The RNG is only consulted for probabilities
    strictly inside (0, 1): always/never faults draw nothing, so the
    deterministic stream does not shift when a plan pins a fault on."""
    if prob <= 0.0:
        return False
    if prob >= 1.0:
        return True
    return rng.random() < prob


class _StaleCandidate:
    """A corrupted eviction-candidate entry: *not* a Folio, standing in
    for a dangling/forged pointer a buggy program put in the candidate
    list.  Kernel-side validation must reject it on type alone."""

    __slots__ = ("token",)

    def __init__(self, token: int) -> None:
        self.token = token

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_StaleCandidate({self.token})"


class FaultInjector:
    """Executes a :class:`~repro.faults.plan.FaultPlan` on one machine."""

    def __init__(self, machine: "Machine", plan: FaultPlan) -> None:
        self.machine = machine
        self.plan = plan
        self._device = plan.device
        self._policy_faults = plan.policy
        #: Per-request completion deadline (None = wait forever).
        self.deadline_us = plan.request_deadline_us
        seed = plan.seed
        # Independent streams per fault category: adding policy faults
        # to a plan does not perturb which device requests fail.
        self._rng_device = Random(f"{seed}:device")
        self._rng_policy = Random(f"{seed}:policy")
        #: Injected-fault counters by kind (deterministic per seed).
        self.fired: Counter = Counter()
        trace = machine.trace
        self._tp_fault = trace.tracepoint("fault:inject")
        self._tp_io_error = trace.tracepoint("block:io_error")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _emit_fault(self, domain: str, kind: str, cgroup: str,
                    **fields) -> None:
        tp = self._tp_fault
        if tp.enabled:
            ts, tid = trace_stamp(self.machine.engine)
            tp.emit(ts, cgroup, tid, domain=domain, kind=kind, **fields)

    # ------------------------------------------------------------------
    # device faults
    # ------------------------------------------------------------------
    def perturb(self, disk, thread: SimThread, op: str,
                service_us: float) -> tuple:
        """Apply the armed device faults to one request's inputs.

        Returns ``(service_us, channels, fail)`` for
        :meth:`~repro.kernel.block.BlockDevice._submit`: latency
        windows multiply the service time and stuck requests add to
        it, degraded-channel windows shrink the pool (``channels`` > 0;
        0 is the whole device), and an EIO hit sets ``fail`` — the
        request still occupies its channel and the thread pays wait +
        service (the device did the work, the transfer failed).
        """
        now = thread.clock_us
        fail = False
        latency_mult = 1.0
        channels_down = 0
        stuck_extra = 0.0
        rng = self._rng_device
        for f in self._device:
            if not (f.start_us <= now < f.end_us and op in f.ops):
                continue
            kind = f.kind
            if kind == "latency":
                latency_mult *= f.latency_mult
            elif kind == "degrade":
                channels_down = max(channels_down, f.channels_down)
            elif kind == "eio":
                if not fail and _hit(rng, f.prob):
                    fail = True
            elif kind == "stuck":
                if _hit(rng, f.prob):
                    stuck_extra += f.stuck_extra_us

        if latency_mult != 1.0:
            service_us *= latency_mult
            self.fired["device_latency"] += 1
        if stuck_extra > 0.0:
            service_us += stuck_extra
            self.fired["device_stuck"] += 1
            self._emit_fault("device", "stuck", self._cgroup_name(thread),
                             op=op, extra_us=stuck_extra)
        channels = 0
        if channels_down > 0:
            self.fired["device_degrade"] += 1
            channels = max(1, disk.channels - channels_down)
        return service_us, channels, fail

    def failed(self, disk, thread: SimThread, op: str, npages: int,
               completion: IoCompletion, timed_out: bool) -> Exception:
        """Account one failed request and return its typed error.

        A request whose completion would land past the plan's
        per-request deadline fails with :class:`ETIMEDOUT`, reported
        at the deadline; otherwise the EIO hit is reported at
        completion.  Either way the transfer never succeeded: it counts
        in ``errors``, not in reads/writes.
        """
        disk.stats.errors += 1
        cgname = self._cgroup_name(thread)
        tp = self._tp_io_error
        if timed_out:
            deadline = self.deadline_us
            self.fired["device_timeout"] += 1
            if tp.enabled:
                tp.emit(completion.issue_us + deadline, cgname, thread.tid,
                        op=op, pages=npages, error="ETIMEDOUT",
                        deadline_us=deadline)
            self._emit_fault("device", "timeout", cgname, op=op,
                             pages=npages)
            return ETIMEDOUT(
                f"{op} of {npages} page(s) exceeded {deadline:.0f}us "
                f"deadline")
        self.fired["device_eio"] += 1
        if tp.enabled:
            tp.emit(completion.done_us, cgname, thread.tid, op=op,
                    pages=npages, error="EIO")
        self._emit_fault("device", "eio", cgname, op=op, pages=npages)
        return EIO(f"{op} of {npages} page(s) failed")

    @staticmethod
    def _cgroup_name(thread: SimThread) -> str:
        return thread.cgroup.name if thread.cgroup is not None else "root"

    # ------------------------------------------------------------------
    # policy faults (called by PolicyGuard)
    # ------------------------------------------------------------------
    def policy_hook_faults(self, policy, cgroup_name: str) -> None:
        """Inject hook-level faults for one dispatch: stalls are
        charged as hook CPU (so a runtime budget sees them), kfunc
        misuse records one error return."""
        faults = self._policy_faults
        if not faults:
            return
        thread = current_thread()
        now = thread.clock_us if thread is not None \
            else self.machine.engine.now_us
        rng = self._rng_policy
        for f in faults:
            if not f.matches(now, cgroup_name):
                continue
            kind = f.kind
            if kind == "hook_stall":
                if _hit(rng, f.prob):
                    policy._charge(f.stall_us)
                    self.fired["hook_stall"] += 1
                    self._emit_fault("policy", "hook_stall", cgroup_name,
                                     policy=policy.name,
                                     stall_us=f.stall_us)
            elif kind == "kfunc_misuse":
                if _hit(rng, f.prob):
                    policy.note_kfunc_error(-22, "fault:kfunc_misuse")
                    self.fired["kfunc_misuse"] += 1
                    self._emit_fault("policy", "kfunc_misuse", cgroup_name,
                                     policy=policy.name)

    def mangle_candidates(self, policy, cgroup_name: str,
                          candidates: list) -> list:
        """Append corrupted entries to an eviction-candidate batch
        (the kernel's validation must reject every one of them)."""
        faults = self._policy_faults
        if not faults:
            return candidates
        thread = current_thread()
        now = thread.clock_us if thread is not None \
            else self.machine.engine.now_us
        rng = self._rng_policy
        for f in faults:
            if f.kind != "corrupt_candidates" \
                    or not f.matches(now, cgroup_name):
                continue
            if _hit(rng, f.prob):
                n = self.fired["corrupt_candidates"]
                candidates = candidates + [
                    _StaleCandidate(n * 64 + i)
                    for i in range(f.corrupt_entries)]
                self.fired["corrupt_candidates"] += 1
                self._emit_fault("policy", "corrupt_candidates",
                                 cgroup_name, policy=policy.name,
                                 entries=f.corrupt_entries)
        return candidates

    # ------------------------------------------------------------------
    # memory faults (fired from Machine-spawned daemon threads)
    # ------------------------------------------------------------------
    def fire_memory_fault(self, fault) -> None:
        """Apply one :class:`~repro.faults.plan.MemoryFault` now."""
        from repro.kernel.errors import ENOMEM
        machine = self.machine
        try:
            memcg = machine.cgroup(fault.cgroup)
        except KeyError:
            self.fired["memory_shrink_skipped"] += 1
            return
        if fault.shrink_to_pages is not None:
            new_limit = max(1, fault.shrink_to_pages)
        elif memcg.limit_pages is not None:
            new_limit = max(1, int(memcg.limit_pages * fault.shrink_factor))
        else:
            # Unlimited cgroup + relative shrink: nothing to scale.
            self.fired["memory_shrink_skipped"] += 1
            return
        old_limit = memcg.limit_pages
        memcg.limit_pages = new_limit
        self.fired["memory_shrink"] += 1
        self._emit_fault("memory", "limit_shrink", memcg.name,
                         old_limit=old_limit, new_limit=new_limit,
                         charged=memcg.charged_pages)
        if fault.reclaim and memcg.over_limit:
            try:
                machine.page_cache.reclaim_cgroup(memcg)
            except ENOMEM:
                # The host absorbs the OOM: counted, not crashed.
                self.fired["memory_oom"] += 1
                memcg.stats.reclaim_failures += 1


class PolicyGuard:
    """Per-policy hook guard: fault injection + runtime budget.

    One instance per attached :class:`CacheExtPolicy`, created by the
    machine when faults or a hook budget are armed (``None``
    otherwise, keeping the unguarded fast path at one extra attribute
    load and an is-None branch).
    """

    __slots__ = ("injector", "budget_us", "cgroup_name")

    def __init__(self, injector: Optional[FaultInjector],
                 budget_us: Optional[float], cgroup_name: str) -> None:
        self.injector = injector
        self.budget_us = budget_us
        self.cgroup_name = cgroup_name

    def inject(self, policy) -> None:
        """Hook-entry injection (after the budget baseline is taken, so
        injected stall CPU counts against the budget)."""
        inj = self.injector
        if inj is not None:
            inj.policy_hook_faults(policy, self.cgroup_name)

    def mangle_candidates(self, policy, candidates: list) -> list:
        inj = self.injector
        if inj is None:
            return candidates
        return inj.mangle_candidates(policy, self.cgroup_name, candidates)


class QuarantineManager:
    """Holds watchdog-detached policies and re-attaches with backoff.

    State machine per cgroup::

        attached --(watchdog detach #n)--> quarantined
        quarantined --(reclaim pass at t >= next_eligible)--> attached
        quarantined --(detach count > max_reattaches)--> permanently off

    ``next_eligible = detach_time + base * multiplier**(n-1)`` (capped),
    with the detach count persistent across re-attach cycles so a
    policy that keeps misbehaving backs off further each time.
    Re-attachment is *lazy*: it happens on the cgroup's next reclaim
    pass, mirroring how the kernel would retry from a deferred-work
    context rather than from the fault site.
    """

    def __init__(self, machine: "Machine",
                 config: Optional[QuarantineConfig] = None) -> None:
        self.machine = machine
        self.config = config if config is not None else QuarantineConfig()
        #: cgroup name -> (ops, reason, next_eligible_us)
        self._held: dict = {}
        #: cgroup name -> lifetime watchdog-detach count.
        self.detach_counts: dict = {}
        trace = machine.trace
        self._tp_quarantine = trace.tracepoint("cache_ext:quarantine")
        self._tp_reattach = trace.tracepoint("cache_ext:reattach")

    def admit(self, policy, reason: str) -> None:
        """Take custody of a just-detached policy's ops."""
        memcg = policy.memcg
        name = memcg.name
        n = self.detach_counts.get(name, 0) + 1
        self.detach_counts[name] = n
        cfg = self.config
        now, tid = trace_stamp(self.machine.engine)
        if cfg.max_reattaches is not None \
                and n > cfg.max_reattaches:
            # Out of second chances: the detach is permanent.
            tp = self._tp_quarantine
            if tp.enabled:
                tp.emit(now, name, tid, policy=policy.name, reason=reason,
                        detaches=n, permanent=1)
            return
        backoff = min(cfg.base_backoff_us * cfg.multiplier ** (n - 1),
                      cfg.max_backoff_us)
        eligible = now + backoff
        self._held[name] = (policy.ops, reason, eligible)
        memcg.stats.quarantines += 1
        tp = self._tp_quarantine
        if tp.enabled:
            tp.emit(now, name, tid, policy=policy.name, reason=reason,
                    detaches=n, backoff_us=backoff, permanent=0)

    def quarantined(self, memcg) -> bool:
        return memcg.name in self._held

    def maybe_reattach(self, memcg):
        """Re-attach ``memcg``'s quarantined policy if its backoff has
        elapsed; returns the new policy or ``None``."""
        held = self._held.get(memcg.name)
        if held is None:
            return None
        ops, reason, eligible = held
        now, tid = trace_stamp(self.machine.engine)
        if now < eligible:
            return None
        del self._held[memcg.name]
        from repro.cache_ext.loader import load_policy
        try:
            policy = load_policy(self.machine, memcg, ops)
        except Exception:
            # The policy is too broken to even load: count one more
            # detach and back off again (or give up past the cap).
            class _Shell:
                pass
            shell = _Shell()
            shell.memcg = memcg
            shell.ops = ops
            shell.name = ops.name
            self.admit(shell, "reattach_failed")
            return None
        memcg.stats.reattaches += 1
        tp = self._tp_reattach
        if tp.enabled:
            now, tid = trace_stamp(self.machine.engine)
            tp.emit(now, memcg.name, tid, policy=ops.name,
                    after=reason, attempt=memcg.stats.reattaches)
        return policy
