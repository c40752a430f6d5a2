"""The cache_ext framework: hook dispatch and kernel-side safety.

:class:`CacheExtPolicy` is the object the reclaim driver talks to when
a cgroup has a custom policy attached.  It implements the kernel side
of the contract from §4 of the paper:

* registry bookkeeping on every insertion/removal (memory safety);
* dispatching the policy's BPF programs on the five events, charging
  the hook-dispatch CPU cost that Table 4 measures;
* the eviction-candidate request (``evict_folios``) with the 32-entry
  batch context;
* kernel-side cleanup on removal — *the kernel*, not the policy,
  removes evicted folios from eviction lists ("it is not necessary to
  remove the folio from the list upon eviction, as this is done by
  cache_ext", §4.2.5);
* the admission-filter extension (§5.6).

The eviction *fallback* (underdelivering policies) lives in the reclaim
driver (:meth:`repro.kernel.page_cache.PageCache._shrink_batch`), which
is where the kernel implements it too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache_ext.lists import EvictionList
from repro.cache_ext.ops import CacheExtOps, EvictionCtx
from repro.cache_ext.registry import FolioRegistry
from repro.kernel.address_space import AddressSpace
from repro.kernel.cgroup import MemCgroup
from repro.kernel.folio import Folio
from repro.kernel.page_cache import ExtPolicyBase
from repro.sim import engine as _engine
from repro.sim.engine import current_thread

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.machine import Machine

#: Registry sizing when the cgroup is unlimited (root attach in tests).
DEFAULT_REGISTRY_BUCKETS = 4096


def _resolve_slot(prog) -> tuple:
    """``(callable, program to count)`` for one ops slot.

    Dispatching through ``prog.fn`` with the invocation bump done by
    the caller is the same observable behaviour as calling the
    :class:`~repro.ebpf.runtime.BpfProgram`, one Python frame cheaper.
    Plain callables (tests) lack ``fn``: they are called directly and
    nothing is counted.  An empty slot resolves to ``(None, None)``.
    """
    fn = getattr(prog, "fn", None)
    if fn is None:
        return prog, None
    return fn, prog


def _per_folio_hook(slot: str, which: int):
    """Generate the ``slot`` hook of :class:`CacheExtPolicy`.

    The three per-folio hooks run on every cache insertion, access and
    removal and differ only in ``self._slots[which]``, so they are one
    body.  What fills the slot was settled at attach; the guard, the
    two hook tracepoint gates, the running thread and the *value* of
    ``costs.bpf_hook_us`` can change between two events and are read on
    each.  With a guard armed or a gate open the event goes through
    :meth:`CacheExtPolicy._traced_hook`; otherwise (the overwhelmingly
    common case) the identical charge and dispatch run inlined, saving
    the ``_hook_entry`` / ``charge`` / ``_run_prog`` / ``_hook_exit``
    frames.  The result is a plain function, set as a class attribute,
    so whatever wraps class attributes (a tracer, a profiler) sees it.
    """
    def hook(self, folio: Folio) -> None:
        step, fn, counted = self._slots[which]
        if step is not None:
            # The registry moves before the policy's program runs
            # (memory safety): a buggy program can neither see an
            # unregistered folio nor resurrect a stale reference.
            step(folio)
        if self._guard is None and not (self._tp_hook_entry.enabled
                                        or self._tp_hook_exit.enabled):
            us = self._costs.bpf_hook_us
            thread = _engine._current
            if thread is not None:
                # inlined thread.advance(us): us is a configured cost,
                # never negative
                thread.clock_us += us
                thread.cpu_us += us
                span = thread.span
                if span is not None:
                    span.add("kfunc", us)
            self._memcg_stats.hook_cpu_us += us
            self._cache_stats.hook_cpu_us += us
            if fn is not None:
                # Inlined _run_prog (same dispatch, invocation bump and
                # watchdog handling, one frame cheaper).
                if counted is not None:
                    counted.invocations += 1
                try:
                    fn(folio)
                except Exception as exc:
                    self._program_faulted(exc)
            return
        self._traced_hook(slot, fn, counted, folio)

    # Its own code object, named for the slot: cProfile keys and names
    # its rows by code object, not by __name__.
    hook.__code__ = hook.__code__.replace(co_name=slot)
    hook.__name__ = slot
    hook.__qualname__ = f"CacheExtPolicy.{slot}"
    return hook


class CacheExtPolicy(ExtPolicyBase):
    """One attached policy instance for one cgroup."""

    def __init__(self, machine: "Machine", memcg: MemCgroup,
                 ops: CacheExtOps) -> None:
        self.machine = machine
        self.memcg = memcg
        self.ops = ops
        self.name = ops.name
        self.registry = FolioRegistry(
            memcg.limit_pages or DEFAULT_REGISTRY_BUCKETS)
        # Hot-path bindings: these objects are stable for the life of
        # the attachment, and _charge runs on every hook and kfunc.
        self._memcg_stats = memcg.stats
        self._cache_stats = machine.page_cache.stats
        self._costs = machine.costs
        # The per-folio hooks' programs are fixed for the life of the
        # attachment (struct_ops registers them once), so each slot's
        # (registry step, callable, program to count) is decided here,
        # not per event; indexed by _per_folio_hook's ``which``.
        self._slots = (
            (self.registry.insert, *_resolve_slot(ops.folio_added)),
            (None, *_resolve_slot(ops.folio_accessed)),
            (self._forget, *_resolve_slot(ops.folio_removed)),
        )
        self.lists: list[EvictionList] = []
        #: kfunc calls that returned an error (policy bug indicator).
        self.kfunc_errors = 0
        #: Eviction-candidate accounting for the health score: how many
        #: candidates the kernel asked for vs how many the policy's
        #: ``evict_folios`` program actually delivered.
        self.candidate_requests = 0
        self.candidates_delivered = 0
        #: Hook dispatches that blew the per-hook runtime budget.
        self.budget_overruns = 0
        self.attached = False
        #: Hook guard (fault injection + runtime budget), or None —
        #: the default, keeping every hook fast path at one extra
        #: attribute load and an is-None branch.  Set by the machine
        #: when faults or a budget are armed (repro.faults).
        self._guard = machine._policy_guard(memcg)
        # Cached tracepoints (repro.obs): one attribute load + branch
        # per dispatch when tracing is off.
        trace = machine.trace
        self._tp_hook_entry = trace.tracepoint("cache_ext:hook_entry")
        self._tp_hook_exit = trace.tracepoint("cache_ext:hook_exit")
        self._tp_kfunc_error = trace.tracepoint("cache_ext:kfunc_error")
        self._tp_watchdog = trace.tracepoint("cache_ext:watchdog_detach")

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def _charge(self, us: float) -> None:
        """Hook CPU no request is billed for: the fault injector's
        stall primitive, and the base of :meth:`charge`."""
        thread = current_thread()
        if thread is not None:
            thread.advance(us)
        self._memcg_stats.hook_cpu_us += us
        self._cache_stats.hook_cpu_us += us

    def charge(self, us: float) -> None:
        """Charge ``us`` of hook or kfunc CPU (``costs.bpf_hook_us`` /
        ``costs.kfunc_op_us``), attributed to the running request's
        ``"kfunc"`` span component."""
        self._charge(us)
        thread = current_thread()
        if thread is not None and thread.span is not None:
            thread.span.add("kfunc", us)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def _trace_point(self) -> tuple:
        thread = current_thread()
        if thread is not None:
            return thread.clock_us, thread.tid
        return self.machine.engine.now_us, 0

    def _hook_entry(self, slot: str):
        """Emit ``cache_ext:hook_entry``; returns the hook-CPU baseline
        consumed by the matching :meth:`_hook_exit` (``None`` when both
        hook tracepoints are disabled and no guard is armed, so the
        common case costs a few attribute loads and branches).

        With a guard armed, fault injection (stalls, kfunc misuse)
        happens *after* the baseline is taken, so an injected stall
        counts against the per-hook runtime budget like real hook CPU.
        """
        guard = self._guard
        trace_on = (self._tp_hook_entry.enabled
                    or self._tp_hook_exit.enabled)
        if guard is None and not trace_on:
            return None
        if trace_on:
            ts, tid = self._trace_point()
            tp = self._tp_hook_entry
            if tp.enabled:
                tp.emit(ts, self.memcg.name, tid, slot=slot,
                        policy=self.name)
        cpu_base = self._memcg_stats.hook_cpu_us
        if guard is not None:
            guard.inject(self)
        return cpu_base

    def _hook_exit(self, slot: str, cpu_base) -> None:
        """Emit ``cache_ext:hook_exit`` with the CPU charged between
        entry and exit (hook dispatch plus every kfunc the program
        ran), and enforce the per-hook runtime budget: one dispatch
        charging more than the budget gets the policy watchdog-detached
        (reason="budget"), exactly like a faulting program."""
        if cpu_base is None:
            return
        used = self._memcg_stats.hook_cpu_us - cpu_base
        tp = self._tp_hook_exit
        if tp.enabled:
            ts, tid = self._trace_point()
            tp.emit(ts, self.memcg.name, tid, slot=slot, policy=self.name,
                    cpu_us=used)
        guard = self._guard
        if guard is not None and guard.budget_us is not None \
                and used > guard.budget_us and self.attached:
            self.budget_overruns += 1
            self.memcg.stats.budget_overruns += 1
            self.machine.page_cache.stats.budget_overruns += 1
            self._watchdog_detach(reason="budget")

    def note_kfunc_error(self, code: int, kfunc: str) -> None:
        """Record one kfunc error return: bumps the per-policy counter
        (kept for backwards compatibility), the cgroup and machine
        ``kfunc_errors`` stats, and emits ``cache_ext:kfunc_error``."""
        self.kfunc_errors += 1
        self.memcg.stats.kfunc_errors += 1
        self.machine.page_cache.stats.kfunc_errors += 1
        tp = self._tp_kfunc_error
        if tp.enabled:
            ts, tid = self._trace_point()
            tp.emit(ts, self.memcg.name, tid, kfunc=kfunc, code=code,
                    policy=self.name)

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _run_prog(self, prog, *args, default=None):
        """Invoke a policy program under the watchdog.

        A verified eBPF program cannot crash the kernel, but a policy
        can still misbehave at run time (bad map usage, helper misuse).
        Mirroring sched_ext's watchdog — which the paper points to as
        the model for handling misbehaving policies — a faulting
        program gets its whole policy forcibly detached and the cgroup
        falls back to the kernel's own eviction.
        """
        fn, counted = _resolve_slot(prog)
        if counted is not None:
            counted.invocations += 1
        try:
            return fn(*args)
        except Exception as exc:
            self._program_faulted(exc)
            return default

    def _program_faulted(self, exc: Exception) -> None:
        self.memcg.stats.ext_policy_faults += 1
        self.machine.page_cache.stats.ext_policy_faults += 1
        self._watchdog_detach(reason=type(exc).__name__)

    def _watchdog_detach(self, reason: str = "fault") -> None:
        """Forcibly remove this policy (kernel-side, no loader help)."""
        if self.memcg.ext_policy is self:
            self.memcg.ext_policy = None
        self.attached = False
        self.memcg.stats.watchdog_detaches += 1
        self.machine.page_cache.stats.watchdog_detaches += 1
        tp = self._tp_watchdog
        if tp.enabled:
            ts, tid = self._trace_point()
            tp.emit(ts, self.memcg.name, tid, policy=self.name,
                    reason=reason)
        handle = getattr(self, "_struct_ops_handle", None)
        if handle is not None:
            self.machine.struct_ops.unregister(handle)
        self._empty_lists()
        # Quarantine (opt-in): instead of staying detached forever, the
        # policy's ops go into backoff custody and re-attach on a later
        # reclaim pass (repro.faults.QuarantineManager).
        quarantine = self.machine.quarantine
        if quarantine is not None:
            quarantine.admit(self, reason)

    # ------------------------------------------------------------------
    # list ownership
    # ------------------------------------------------------------------
    def create_list(self, name: str = "") -> EvictionList:
        lst = EvictionList(self, name or f"{self.name}-list{len(self.lists)}")
        self.lists.append(lst)
        return lst

    def _empty_lists(self) -> None:
        """Detach teardown: no folio keeps a dangling ext reference."""
        unbind = self.registry.set_node
        for lst in self.lists:
            node = lst.pop_head()
            while node is not None:
                if node.item is not None:
                    unbind(node.item, None)
                node = lst.pop_head()

    # ------------------------------------------------------------------
    # hook dispatch (ExtPolicyBase interface)
    # ------------------------------------------------------------------
    def admit(self, mapping: AddressSpace, index: int) -> bool:
        if self.ops.admit is None:
            return True
        cpu = self._hook_entry("admit")
        self.charge(self._costs.bpf_hook_us)
        thread = current_thread()
        tid = thread.tid if thread is not None else 0
        verdict = bool(self._run_prog(self.ops.admit, mapping.file_id,
                                      index, tid, default=1))
        self._hook_exit("admit", cpu)
        return verdict

    def readahead_hint(self, mapping: AddressSpace, index: int,
                       seq_streak: int):
        if self.ops.readahead is None:
            return None
        cpu = self._hook_entry("readahead")
        self.charge(self._costs.bpf_hook_us)
        pages = self._run_prog(self.ops.readahead, mapping.file_id,
                               index, seq_streak)
        self._hook_exit("readahead", cpu)
        if not isinstance(pages, int) or pages < 0:
            return None  # malformed hint: keep the kernel heuristic
        return pages

    folio_added = _per_folio_hook("folio_added", 0)
    folio_accessed = _per_folio_hook("folio_accessed", 1)
    folio_removed = _per_folio_hook("folio_removed", 2)

    def _forget(self, folio: Folio) -> None:
        """``folio_removed``'s registry step — kernel-side cleanup:
        drop the registry entry and detach the folio's eviction-list
        node (§4.2.5: the kernel, not the policy, unlinks it)."""
        node = self.registry.remove(folio)
        if node is not None and node.owner is not None:
            node.owner.remove(node)

    def _traced_hook(self, slot: str, fn, counted, folio: Folio) -> None:
        """One per-folio dispatch with a guard armed or a hook
        tracepoint enabled: the generated hooks' charge and dispatch,
        bracketed by :meth:`_hook_entry` / :meth:`_hook_exit`."""
        cpu = self._hook_entry(slot)
        self.charge(self._costs.bpf_hook_us)
        if fn is not None:
            # _run_prog takes the program and resolves it itself.
            self._run_prog(fn if counted is None else counted, folio)
        self._hook_exit(slot, cpu)

    def folios_removed(self, folios: list[Folio]) -> None:
        """Batched removal dispatch (truncate/delete path)."""
        removed = self.folio_removed
        for folio in folios:
            removed(folio)
            if not self.attached:
                # The program faulted and the watchdog detached us; the
                # remaining folios are no longer this policy's concern
                # (watchdog cleanup already emptied the lists).
                break

    def propose_candidates(self, nr: int) -> list[Folio]:
        if self.ops.evict_folios is None:
            return []
        self.candidate_requests += nr
        ctx = EvictionCtx(nr)
        cpu = self._hook_entry("evict_folios")
        self.charge(self._costs.bpf_hook_us)
        self._run_prog(self.ops.evict_folios, ctx, self.memcg)
        self._hook_exit("evict_folios", cpu)
        out = list(ctx.candidates)
        # Delivery is measured on what the *policy* produced; corrupted
        # entries a guard appends below are the kernel's problem to
        # reject, not the policy's delivery credit.
        self.candidates_delivered += len(out)
        guard = self._guard
        if guard is not None:
            out = guard.mangle_candidates(self, out)
        return out

    def holds_reference(self, folio: Folio) -> bool:
        return self.registry.contains(folio)

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def hook_dispatches(self) -> int:
        """Total program invocations across every installed slot."""
        return sum(getattr(prog, "invocations", 0)
                   for prog in self.ops.programs().values()
                   if prog is not None)

    def health_score(self) -> float:
        """Composite policy health in [0, 1] (1.0 = no symptoms).

        Three penalty terms, mirroring the misbehaviour classes the
        watchdog acts on: kfunc error rate (helper misuse), eviction
        under-delivery (the kernel fallback is doing this policy's
        job), and runtime-budget overruns (hook CPU out of bounds —
        any overrun is an automatic detach, so it weighs heavily).
        """
        score = 1.0
        dispatches = self.hook_dispatches()
        if dispatches > 0 and self.kfunc_errors > 0:
            score -= 0.4 * min(1.0, self.kfunc_errors / dispatches)
        if self.candidate_requests > 0:
            delivery = self.candidates_delivered / self.candidate_requests
            score -= 0.3 * max(0.0, 1.0 - delivery)
        if self.budget_overruns > 0:
            score -= 0.3
        return max(0.0, score)

    def nr_listed(self) -> int:
        """Total folios across this policy's eviction lists."""
        return sum(len(lst) for lst in self.lists)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CacheExtPolicy({self.name!r}, cgroup={self.memcg.name!r}, "
                f"lists={len(self.lists)}, registry={len(self.registry)})")
