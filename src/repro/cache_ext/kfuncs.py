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

from repro.cache_ext.framework import _resolve_slot
from repro.cache_ext.lists import EvictionList, resolve_list
from repro.cache_ext.ops import EvictionCtx
from repro.ebpf.runtime import bpf_kfunc
from repro.kernel.folio import Folio
from repro.kernel.list import ListNode
from repro.sim import engine as _engine

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
        policy.note_kfunc_error(code, kfunc)
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
    policy.charge(policy.machine.costs.kfunc_op_us)
    lst = policy.create_list()
    return lst.id


@bpf_kfunc
def list_add(list_id: int, folio, tail: bool = True) -> int:
    """Link ``folio`` onto a list (tail by default, like the paper's
    ``list_add(lfu_list, folio, true)``).

    A folio has exactly one list node; adding a folio that is already
    on some list moves it.

    Hot path: list_add runs once per insertion plus once per rotation
    under eviction churn, so policy resolution and
    :meth:`CacheExtPolicy.charge` are inlined here (the identical
    float additions in the identical order, two frames cheaper).
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
    # Create (or reuse) the folio's single node; a folio unknown to
    # the policy's registry is the input-validation failure.
    registry = policy.registry
    node = registry.get_node(folio)
    if node is None:
        if not registry.contains(folio):
            return _fail(policy, ENOENT, "list_add")
        node = ListNode(folio)
        registry.set_node(folio, node)
    owner = node.owner
    if owner is not None:
        owner.remove(node)
    if tail:
        lst.add_tail(node)
    else:
        lst.add_head(node)
    return 0


@bpf_kfunc
def list_del(folio) -> int:
    """Remove ``folio`` from whatever eviction list holds it.

    Hot path: inlined like :func:`list_add`.
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
    lst.policy.charge(lst.policy.machine.costs.kfunc_op_us)
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


def _iter_charge(policy, thread, prog, n: int, us: float) -> None:
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
        span = thread.span
        if span is not None:
            span.add("kfunc", total)
    policy._memcg_stats.hook_cpu_us += total
    policy._cache_stats.hook_cpu_us += total
    if prog is not None:
        prog.invocations += n


# Both scan loops hoist the same state: the whole iteration runs inside
# one engine step, so the current thread and the configured kfunc cost
# cannot change mid-loop, and the callback is resolved by the one
# definition CacheExtPolicy._run_prog uses.  Per-candidate
# accounting that nothing inside the loop reads back (cpu_us,
# hook_cpu_us, invocations, span attribution) is charged in one batch of
# n*us by _iter_charge; only clock_us — the value ktime_us() exposes to
# callbacks — advances inside the loop.  tests/reference/kfuncs.py
# keeps the per-candidate form as the oracle.

def _iterate_simple(policy, lst: EvictionList, callback, ctx: EvictionCtx,
                    limit: int, dst: Optional[EvictionList]) -> int:
    thread = _engine._current
    us = policy.machine.costs.kfunc_op_us
    call, prog = _resolve_slot(callback)
    added = 0
    head = lst._head
    move_to_tail = lst.move_to_tail
    node = lst.head()
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
                _iter_charge(policy, thread, prog, n, us)
                return _fail(policy, EINVAL, "list_iterate")
            dst.move_to_tail(node)
        elif verdict == ITER_ROTATE:
            move_to_tail(node)
        elif verdict == ITER_STOP:
            break
        # ITER_SKIP (and unknown verdicts): leave in place.
        node = nxt
    _iter_charge(policy, thread, prog, n, us)
    return added


def _iterate_scoring(policy, lst: EvictionList, callback, ctx: EvictionCtx,
                     limit: int, want: int) -> int:
    thread = _engine._current
    us = policy.machine.costs.kfunc_op_us
    call, prog = _resolve_slot(callback)
    scores: list[int] = []  # by scan position, as nodes
    nodes: list = []
    scores_append = scores.append
    nodes_append = nodes.append
    head = lst._head
    node = lst.head()
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
            _iter_charge(policy, thread, prog, n, us)
            return _fail(policy, EINVAL, "list_iterate")
        scores_append(score)
        nodes_append(node)
        node = nxt
    _iter_charge(policy, thread, prog, n, us)
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
    policy = _policy_of_memcg(folio.memcg)
    if policy is None:
        return EINVAL
    policy.charge(policy.machine.costs.kfunc_op_us)
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
