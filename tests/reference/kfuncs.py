"""``list_iterate``'s two modes in their plain, per-candidate form.

``kfuncs._iterate_simple`` charges a scan as one batch of ``n * us``
and enters a program callback through ``.fn``;
:func:`reference_iterate_simple` is the loop it replaced — one
``policy.charge`` and one ``callback(...)`` per folio.
``kfuncs._iterate_scoring`` rotates the non-selected run with one
splice; :func:`reference_scoring` sorts the whole window and rotates a
node at a time.
"""

import itertools

from repro.cache_ext.kfuncs import (EINVAL, ITER_EVICT, ITER_MOVE,
                                    ITER_ROTATE, ITER_STOP, _fail)


def reference_iterate_simple(policy, lst, callback, ctx, limit, dst):
    added = 0
    head = lst._head
    move_to_tail = lst.move_to_tail
    node = lst.head()
    for position in range(limit):
        if node is None or ctx.full:
            break
        nxt = node.next
        if nxt is head:
            nxt = None
        folio = node.item
        policy.charge(policy.machine.costs.kfunc_op_us)
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


def reference_scoring(lst, callback, ctx, limit, want):
    """The pre-splice selection: sort the whole scanned window, then
    rotate every non-selected node to the tail one call at a time."""
    nodes = list(itertools.islice(lst.iter_from_head(), limit))
    scored = sorted((callback(position, node.item), position)
                    for position, node in enumerate(nodes))
    selected = {position for _score, position in scored[:want]}
    added = 0
    for position, node in enumerate(nodes):
        if position in selected:
            if ctx.add_candidate(node.item):
                added += 1
        else:
            lst.move_to_tail(node)
    return added
