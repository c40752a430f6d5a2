"""The cache_ext kfunc API (Table 2 of the paper).

These are the "kernel functions exposed to eBPF" that policy programs
call to manipulate eviction lists.  Following §4.4, every kfunc
validates its inputs and returns an error code instead of raising (BPF
programs cannot throw): ``0``/positive on success, negative errno on
failure.  All iteration is bounded kernel-side.

The real functions carry a ``cache_ext_`` prefix to avoid symbol
collisions; as in the paper's listings, we omit it for brevity.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.cache_ext.lists import (EvictionList, attach_folio, detach_folio,
                                   resolve_list)
from repro.cache_ext.ops import EvictionCtx
from repro.ebpf.runtime import bpf_kfunc
from repro.kernel.folio import Folio
from repro.kernel.list import ListNode
from repro.sim import engine as _engine
from repro.sim.engine import current_thread

# Error codes (negative errno, as returned to BPF programs).
EINVAL = -22
ENOENT = -2
EPERM = -1

# Iteration modes (the iter_opts "mode" field).
MODE_SIMPLE = 0
MODE_SCORING = 1

# Callback verdicts in MODE_SIMPLE.  The paper expresses per-folio
# treatment through the iter_opts struct plus callback return values;
# we fold both into a single verdict enum, which covers every use the
# paper describes (leave in place, rotate, move to another list,
# propose for eviction).
ITER_SKIP = 0      # leave the folio where it is
ITER_EVICT = 1     # propose as candidate; rotate to tail of its list
ITER_MOVE = 2      # move to the tail of iter's dst_list
ITER_STOP = 3      # stop iterating early
ITER_ROTATE = 4    # move to the tail of its current list

#: Bound on nodes examined per list_iterate call when the caller does
#: not specify nr_scan ("enforce loop termination", §4.4).
DEFAULT_MAX_SCAN = 1024


def _policy_of_memcg(memcg):
    policy = getattr(memcg, "ext_policy", None)
    if policy is None:
        policy = getattr(memcg, "_cache_ext_loading", None)
    return policy


def _owned_list(policy, list_id: int) -> Optional[EvictionList]:
    lst = resolve_list(list_id)
    if lst is None or lst.policy is not policy:
        return None
    return lst


def _policy_of_folio(folio):
    if not isinstance(folio, Folio):
        return None
    return _policy_of_memcg(folio.memcg)


def _fail(policy, code: int, kfunc: str) -> int:
    """Return ``code`` after recording the error against ``policy``.

    Error returns are the policy-bug signal the paper's §4.4 hardening
    produces; when the faulting policy is identifiable we count the
    error on its cgroup stats and trace stream
    (:meth:`CacheExtPolicy.note_kfunc_error`).  Calls with no
    resolvable policy (bad memcg/folio argument) return silently — as
    in the kernel, there is nowhere to account them.
    """
    if policy is not None:
        note = getattr(policy, "note_kfunc_error", None)
        if note is not None:
            note(code, kfunc)
    return code


# ----------------------------------------------------------------------
# list management
# ----------------------------------------------------------------------
@bpf_kfunc
def list_create(memcg) -> int:
    """Create a new eviction list for this cgroup's policy.

    Returns the list id (> 0) or a negative errno.  Typically called
    from ``policy_init``.
    """
    policy = _policy_of_memcg(memcg)
    if policy is None:
        return EINVAL
    policy.charge_kfunc()
    lst = policy.create_list()
    return lst.id


#: Lazily-bound framework.CacheExtPolicy (import-cycle guard); used by
#: the inlined-charge fast paths below, mirroring _iter_hot_state.
_CacheExtPolicy = None


@bpf_kfunc
def list_add(list_id: int, folio, tail: bool = True) -> int:
    """Link ``folio`` onto a list (tail by default, like the paper's
    ``list_add(lfu_list, folio, true)``).

    A folio has exactly one list node; adding a folio that is already
    on some list moves it.

    Hot path: list_add runs once per insertion plus once per rotation
    under eviction churn, so the policy/charge resolution helpers are
    inlined here (same invariant as :func:`_iter_hot_state` — the call
    runs inside one engine step, and the inlined charge performs the
    identical float additions in the identical order).
    """
    if folio.__class__ is Folio or isinstance(folio, Folio):
        memcg = folio.memcg
        policy = getattr(memcg, "ext_policy", None)
        if policy is None:
            policy = getattr(memcg, "_cache_ext_loading", None)
    else:
        policy = None
    if policy is None:
        return EINVAL
    lst = resolve_list(list_id)
    if lst is None or lst.policy is not policy:
        return _fail(policy, EPERM, "list_add")
    global _CacheExtPolicy
    if _CacheExtPolicy is None:
        from repro.cache_ext.framework import CacheExtPolicy
        _CacheExtPolicy = CacheExtPolicy
    if type(policy) is _CacheExtPolicy:
        us = policy.machine.costs.kfunc_op_us
        thread = _engine._current
        if thread is not None:
            # Inlined Thread.advance; us is a configured cost, >= 0.
            thread.clock_us += us
            thread.cpu_us += us
            span = thread.span
            if span is not None:
                span.add("kfunc", us)
        policy._memcg_stats.hook_cpu_us += us
        policy._cache_stats.hook_cpu_us += us
        # Inlined attach_folio(lst, folio, tail): identical registry
        # call sequence (each call still bumps its bucket's lock
        # counter), one frame cheaper.
        registry = policy.registry
        node = registry.get_node(folio)
        if node is None:
            if not registry.contains(folio):
                return _fail(policy, ENOENT, "list_add")
            node = ListNode(folio)
            folio.ext_node = node
            registry.set_node(folio, node)
        owner = node.owner
        if owner is not None:
            owner.remove(node)
        if tail:
            lst.add_tail(node)
        else:
            lst.add_head(node)
        return 0
    policy.charge_kfunc()
    if not attach_folio(lst, folio, tail):
        return _fail(policy, ENOENT, "list_add")
    return 0


@bpf_kfunc
def list_del(folio) -> int:
    """Remove ``folio`` from whatever eviction list holds it.

    Hot path: inlined like :func:`list_add` (including
    :func:`~repro.cache_ext.lists.detach_folio`'s body).
    """
    if folio.__class__ is Folio or isinstance(folio, Folio):
        memcg = folio.memcg
        policy = getattr(memcg, "ext_policy", None)
        if policy is None:
            policy = getattr(memcg, "_cache_ext_loading", None)
    else:
        policy = None
    if policy is None:
        return EINVAL
    global _CacheExtPolicy
    if _CacheExtPolicy is None:
        from repro.cache_ext.framework import CacheExtPolicy
        _CacheExtPolicy = CacheExtPolicy
    if type(policy) is _CacheExtPolicy:
        us = policy.machine.costs.kfunc_op_us
        thread = _engine._current
        if thread is not None:
            # Inlined Thread.advance; us is a configured cost, >= 0.
            thread.clock_us += us
            thread.cpu_us += us
            span = thread.span
            if span is not None:
                span.add("kfunc", us)
        policy._memcg_stats.hook_cpu_us += us
        policy._cache_stats.hook_cpu_us += us
    else:
        policy.charge_kfunc()
    node = policy.registry.get_node(folio)
    if node is None or node.owner is None:
        return _fail(policy, ENOENT, "list_del")
    node.owner.remove(node)
    return 0


@bpf_kfunc
def list_move(list_id: int, folio, tail: bool = True) -> int:
    """Move ``folio``'s node to another list (or rotate within one)."""
    return list_add(list_id, folio, tail)


@bpf_kfunc
def list_size(list_id: int) -> int:
    """Number of folios on the list, or negative errno."""
    lst = resolve_list(list_id)
    if lst is None:
        return EINVAL
    lst.policy.charge_kfunc()
    return len(lst)


# ----------------------------------------------------------------------
# iteration (§4.2.3 "List iteration")
# ----------------------------------------------------------------------
@bpf_kfunc
def list_iterate(memcg, list_id: int, callback, ctx,
                 mode: int = MODE_SIMPLE, nr_scan: int = 0,
                 dst_list: int = 0) -> int:
    """Iterate an eviction list, proposing candidates into ``ctx``.

    ``callback`` is itself a BPF program invoked as ``callback(i,
    folio)``.  In :data:`MODE_SIMPLE` it returns an ``ITER_*`` verdict;
    in :data:`MODE_SCORING` it returns an integer *score* and, after
    ``nr_scan`` folios have been examined, the lowest-scored folios are
    selected as candidates (the paper's "batch scoring mode", used by
    LFU-style policies).  Non-selected scanned folios rotate to the
    list tail.

    Returns the number of candidates appended, or a negative errno.
    """
    policy = _policy_of_memcg(memcg)
    if policy is None:
        return EINVAL
    if not isinstance(ctx, EvictionCtx):
        return _fail(policy, EINVAL, "list_iterate")
    lst = _owned_list(policy, list_id)
    if lst is None:
        return _fail(policy, EPERM, "list_iterate")
    dst = None
    if dst_list:
        dst = _owned_list(policy, dst_list)
        if dst is None:
            return _fail(policy, EPERM, "list_iterate")
    want = ctx.nr_candidates_requested - ctx.nr_candidates_proposed
    if want <= 0:
        return 0
    limit = min(nr_scan if nr_scan > 0 else DEFAULT_MAX_SCAN, len(lst))
    if mode == MODE_SIMPLE:
        return _iterate_simple(policy, lst, callback, ctx, limit, dst)
    if mode == MODE_SCORING:
        return _iterate_scoring(policy, lst, callback, ctx, limit, want)
    return _fail(policy, EINVAL, "list_iterate")


def _iter_hot_state(policy, callback):
    """Hoist the per-folio charge-and-dispatch state for an iterate loop.

    Returns ``(thread, us, memcg_stats, cache_stats, cb_fn)`` when the
    charge can be inlined (a plain :class:`CacheExtPolicy`), else
    ``None``.  The whole iteration runs inside one engine step, so the
    current thread and the configured kfunc cost cannot change
    mid-loop; inlining ``charge_kfunc``'s body per folio performs the
    identical float additions in the identical order, minus two Python
    frames per scanned folio.  ``cb_fn`` unwraps a BpfProgram callback
    the same way :meth:`CacheExtPolicy._run_prog` does (the
    ``invocations`` bump stays with the caller).
    """
    from repro.cache_ext.framework import CacheExtPolicy
    if type(policy) is not CacheExtPolicy:
        return None
    return (current_thread(), policy.machine.costs.kfunc_op_us,
            policy._memcg_stats, policy._cache_stats,
            getattr(callback, "fn", None))


def _iter_charge(thread, span, memcg_stats, cache_stats, prog,
                 n: int, us: float) -> None:
    """Settle the batched per-candidate accounting after a list scan.

    ``n`` candidates were visited at ``us`` each; ``clock_us`` already
    advanced inside the loop (callbacks observe it through ktime_us),
    everything else is charged here in one pass.
    """
    if n == 0:
        return
    total = n * us
    if thread is not None:
        thread.cpu_us += total
        if span is not None:
            span.add("kfunc", total)
    memcg_stats.hook_cpu_us += total
    cache_stats.hook_cpu_us += total
    if prog is not None:
        prog.invocations += n


def _iterate_simple(policy, lst: EvictionList, callback, ctx: EvictionCtx,
                    limit: int, dst: Optional[EvictionList]) -> int:
    hot = _iter_hot_state(policy, callback)
    added = 0
    head = lst._head
    move_to_tail = lst.move_to_tail
    node = lst.head()
    if hot is not None:
        thread, us, memcg_stats, cache_stats, cb_fn = hot
        # Hoisted: the span (like the thread) cannot change inside one
        # engine step, so one load covers the whole scan.
        span = thread.span if thread is not None else None
        is_prog = cb_fn is not None
        call = cb_fn if is_prog else callback
        # Per-candidate accounting that nothing inside the loop reads
        # back (cpu_us, hook_cpu_us, invocations, span attribution) is
        # charged in one batch of n*us afterwards; only clock_us — the
        # value ktime_us() exposes to scoring callbacks — advances
        # inside the loop.
        n = 0
        for position in range(limit):
            if node is None or ctx.full:
                break
            nxt = node.next
            if nxt is head:
                nxt = None
            folio: Folio = node.item
            n += 1
            if thread is not None:
                thread.clock_us += us
            verdict = call(position, folio)
            if verdict == ITER_EVICT:
                ctx.add_candidate(folio)
                added += 1
                move_to_tail(node)
            elif verdict == ITER_MOVE:
                if dst is None:
                    _iter_charge(thread, span, memcg_stats, cache_stats,
                                 callback if is_prog else None, n, us)
                    return _fail(policy, EINVAL, "list_iterate")
                dst.move_to_tail(node)
            elif verdict == ITER_ROTATE:
                move_to_tail(node)
            elif verdict == ITER_STOP:
                break
            # ITER_SKIP (and unknown verdicts): leave in place.
            node = nxt
        _iter_charge(thread, span, memcg_stats, cache_stats,
                     callback if is_prog else None, n, us)
        return added
    for position in range(limit):
        if node is None or ctx.full:
            break
        nxt = node.next
        if nxt is head:
            nxt = None
        folio = node.item
        policy.charge_kfunc()
        verdict = callback(position, folio)
        if verdict == ITER_EVICT:
            ctx.add_candidate(folio)
            added += 1
            move_to_tail(node)
        elif verdict == ITER_MOVE:
            if dst is None:
                return _fail(policy, EINVAL, "list_iterate")
            dst.move_to_tail(node)
        elif verdict == ITER_ROTATE:
            move_to_tail(node)
        elif verdict == ITER_STOP:
            break
        # ITER_SKIP (and unknown verdicts, defensively): leave in place.
        node = nxt
    return added


def _iterate_scoring(policy, lst: EvictionList, callback, ctx: EvictionCtx,
                     limit: int, want: int) -> int:
    hot = _iter_hot_state(policy, callback)
    scores: list[int] = []  # by scan position, as nodes
    nodes: list = []
    scores_append = scores.append
    nodes_append = nodes.append
    head = lst._head
    node = lst.head()
    if hot is not None:
        thread, us, memcg_stats, cache_stats, cb_fn = hot
        # Hoisted: see _iterate_simple (including the batched
        # accounting — only clock_us advances per candidate, for the
        # benefit of ktime_us-based scores).
        span = thread.span if thread is not None else None
        is_prog = cb_fn is not None
        call = cb_fn if is_prog else callback
        n = 0
        for position in range(limit):
            if node is None:
                break
            nxt = node.next
            if nxt is head:
                nxt = None
            n += 1
            if thread is not None:
                thread.clock_us += us
            score = call(position, node.item)
            if type(score) is not int and not isinstance(score, int):
                _iter_charge(thread, span, memcg_stats, cache_stats,
                             callback if is_prog else None, n, us)
                return _fail(policy, EINVAL, "list_iterate")
            scores_append(score)
            nodes_append(node)
            node = nxt
        _iter_charge(thread, span, memcg_stats, cache_stats,
                     callback if is_prog else None, n, us)
    else:
        for position in range(limit):
            if node is None:
                break
            nxt = node.next
            if nxt is head:
                nxt = None
            policy.charge_kfunc()
            score = callback(position, node.item)
            if not isinstance(score, int):
                return _fail(policy, EINVAL, "list_iterate")
            scores_append(score)
            nodes_append(node)
            node = nxt
    if not nodes:
        return 0
    if want < len(nodes):
        # Lowest score wins eviction; ties broken towards the list head
        # (older entries first), matching the kernel implementation:
        # nsmallest is stable, and positions arrive in scan order.
        chosen = [nodes[position] for position in sorted(heapq.nsmallest(
            want, range(len(nodes)), key=scores.__getitem__))]
        # Non-selected scanned folios rotate to the tail in scan order.
        # The scanned nodes are the list's head run, so rather than
        # moving ~nr_scan nodes one by one: lift the selected nodes
        # out, splice what is left of the run to the tail in one step,
        # and put the selected back at the head.
        remove = lst.remove
        for scanned in chosen:
            remove(scanned)
        lst.rotate_head_run(next(scanned for scanned in reversed(nodes)
                                 if scanned.owner is lst))
        add_head = lst.add_head
        for scanned in reversed(chosen):
            add_head(scanned)
    else:
        chosen = nodes
    added = 0
    add_candidate = ctx.add_candidate
    for scanned in chosen:
        if add_candidate(scanned.item):
            added += 1
    return added


# ----------------------------------------------------------------------
# context helpers
# ----------------------------------------------------------------------
@bpf_kfunc
def ctx_add_candidate(ctx, folio) -> int:
    """Directly append an eviction candidate (outside list_iterate)."""
    if not isinstance(ctx, EvictionCtx) or not isinstance(folio, Folio):
        return EINVAL
    policy = _policy_of_folio(folio)
    if policy is None:
        return EINVAL
    policy.charge_kfunc()
    return 1 if ctx.add_candidate(folio) else 0


@bpf_kfunc
def folio_key(folio) -> tuple:
    """Stable (file, offset) key for ghost entries (§5.1)."""
    return folio.key()


@bpf_kfunc
def current_tid() -> int:
    """``bpf_get_current_pid_tgid`` analogue: the running task's TID.

    Reads the engine's ``_current`` global directly (what
    :func:`current_thread` returns) — policies call this and
    :func:`ktime_us` on every access, and the extra frame is measurable.
    """
    thread = _engine._current
    return thread.tid if thread is not None else 0


@bpf_kfunc
def ktime_us() -> int:
    """``bpf_ktime_get_ns`` analogue, in integer microseconds."""
    thread = _engine._current
    return int(thread.clock_us) if thread is not None else 0
