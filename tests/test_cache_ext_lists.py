"""Eviction-list kfuncs: the Table 2 API and its safety properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache_ext import load_policy
from repro.cache_ext.kfuncs import (DEFAULT_MAX_SCAN, EINVAL, ENOENT, EPERM,
                                    ITER_EVICT, ITER_MOVE, ITER_ROTATE,
                                    ITER_SKIP, ITER_STOP, MODE_SCORING,
                                    MODE_SIMPLE,
                                    ctx_add_candidate, current_tid,
                                    folio_key, ktime_us, list_add,
                                    list_create, list_del, list_iterate,
                                    list_move, list_size)
from repro.cache_ext.ops import CacheExtOps, EvictionCtx
from repro.ebpf.runtime import bpf_program
from repro.kernel import Machine
from repro.obs.spans import Span
from tests.reference.kfuncs import (reference_iterate_simple,
                                    reference_scoring)
from tests.strategies import STANDARD_SETTINGS, scoring_cases, simple_cases


def attach_empty_policy(machine, cg, name="p"):
    """Attach a hook-less policy so kfuncs have a home."""
    ops = CacheExtOps(name=name)
    return load_policy(machine, cg, ops)


def setup(npages=64):
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=256)
    policy = attach_empty_policy(machine, cg)
    f = machine.fs.create("data")
    for i in range(npages):
        f.store[i] = i
    f.npages = npages
    f.ra_enabled = False
    return machine, cg, policy, f


def fault_in(machine, f, cg, n):
    def step(thread, state={"i": 0}):
        if state["i"] >= n:
            return False
        machine.fs.read_page(f, state["i"])
        state["i"] += 1
        return True
    machine.spawn("r", step, cgroup=cg)
    machine.run()
    return [f.mapping.lookup(i) for i in range(n)]


class TestListManagement:
    def test_create_returns_positive_id(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        assert list_id > 0
        assert list_size(list_id) == 0

    def test_create_without_policy_fails(self):
        machine = Machine()
        cg = machine.new_cgroup("bare", limit_pages=16)
        assert list_create(cg) == EINVAL

    def test_add_and_size(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 3)
        for folio in folios:
            assert list_add(list_id, folio, True) == 0
        assert list_size(list_id) == 3

    def test_add_head_vs_tail(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        a, b = fault_in(machine, f, cg, 2)
        list_add(list_id, a, True)
        list_add(list_id, b, False)  # head
        lst = policy.lists[-1]
        assert lst.folios() == [b, a]

    def test_folio_has_single_node(self):
        """§4.4: the registry stores one list node per folio, so a
        folio lives on at most one list — adding moves it."""
        machine, cg, policy, f = setup()
        l1, l2 = list_create(cg), list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        list_add(l1, folio, True)
        list_add(l2, folio, True)
        assert list_size(l1) == 0
        assert list_size(l2) == 1

    def test_del(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        list_add(list_id, folio, True)
        assert list_del(folio) == 0
        assert list_size(list_id) == 0
        assert list_del(folio) == ENOENT

    def test_del_charges_one_kfunc_op(self):
        """list_del bills exactly what list_add bills: kfunc_op_us on
        the thread's clock and CPU, the cgroup's hook CPU and the
        running span's ``kfunc`` component; a non-folio is EINVAL and
        charges nothing; an unlisted folio is ENOENT and counted."""
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folio, other = fault_in(machine, f, cg, 2)
        us = machine.costs.kfunc_op_us
        out = {}

        def step(thread):
            def charged(call):
                before = (thread.clock_us, thread.cpu_us,
                          cg.stats.hook_cpu_us, span.comps.get("kfunc", 0.0))
                rc = call()
                return rc, before, (thread.clock_us, thread.cpu_us,
                                    cg.stats.hook_cpu_us, span.comps["kfunc"])

            span = thread.span = Span("test", thread.clock_us)
            assert list_add(list_id, folio, True) == 0
            out["del"] = charged(lambda: list_del(folio))
            out["add"] = charged(lambda: list_add(list_id, folio, True))
            out["einval"] = charged(lambda: list_del("not a folio"))
            out["enoent"] = charged(lambda: list_del(other))
            thread.span = None
            return False

        machine.spawn("p", step, cgroup=cg)
        machine.run()
        for call in ("del", "add"):
            rc, before, after = out[call]
            assert rc == 0
            assert after == tuple(value + us for value in before), call
        rc, before, after = out["einval"]
        assert rc == EINVAL and after == before
        rc, before, after = out["enoent"]
        assert rc == ENOENT
        assert after == tuple(value + us for value in before)
        assert policy.kfunc_errors == cg.stats.kfunc_errors == 1
        assert list_size(list_id) == 1

    def test_move_rotates(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        a, b = fault_in(machine, f, cg, 2)
        list_add(list_id, a, True)
        list_add(list_id, b, True)
        list_move(list_id, a, True)
        assert policy.lists[-1].folios() == [b, a]

    def test_unregistered_folio_rejected(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        machine.page_cache.evict_folio(folio, cg)  # now stale
        assert list_add(list_id, folio, True) == ENOENT

    def test_bad_list_id(self):
        machine, cg, policy, f = setup()
        folio, = fault_in(machine, f, cg, 1)
        assert list_add(999999, folio, True) == EPERM
        assert list_size(999999) == EINVAL


class TestIsolation:
    def test_cross_policy_list_access_denied(self):
        """A policy cannot manipulate another cgroup's lists (§4.3)."""
        machine = Machine()
        cg_a = machine.new_cgroup("a", limit_pages=64)
        cg_b = machine.new_cgroup("b", limit_pages=64)
        attach_empty_policy(machine, cg_a, "pa")
        attach_empty_policy(machine, cg_b, "pb")
        list_b = list_create(cg_b)

        f = machine.fs.create("fa")
        f.store[0] = 0
        f.npages = 1

        def step(thread):
            machine.fs.read_page(f, 0)
            return False

        machine.spawn("r", step, cgroup=cg_a)
        machine.run()
        folio = f.mapping.lookup(0)  # charged to cgroup a
        assert list_add(list_b, folio, True) == EPERM


class TestIterateSimple:
    def _listed(self, machine, cg, policy, f, n):
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, n)
        for folio in folios:
            list_add(list_id, folio, True)
        return list_id, folios

    def test_evict_all(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 5)

        @bpf_program
        def take(i, folio):
            return ITER_EVICT

        ctx = EvictionCtx(3)
        added = list_iterate(cg, list_id, take, ctx, MODE_SIMPLE)
        assert added == 3
        assert ctx.candidates == folios[:3]
        # Proposed folios rotate to the tail.
        assert policy.lists[-1].folios()[-3:] == folios[:3]

    def test_skip_leaves_in_place(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 4)

        @bpf_program
        def skip_evens(i, folio):
            if i % 2 == 0:
                return ITER_SKIP
            return ITER_EVICT

        ctx = EvictionCtx(4)
        list_iterate(cg, list_id, skip_evens, ctx, MODE_SIMPLE)
        assert ctx.candidates == [folios[1], folios[3]]

    def test_stop_halts_iteration(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 5)
        calls = []

        @bpf_program
        def stop_at_two(i, folio):
            calls.append(i)
            if i >= 2:
                return ITER_STOP
            return ITER_EVICT

        ctx = EvictionCtx(5)
        list_iterate(cg, list_id, stop_at_two, ctx, MODE_SIMPLE)
        assert calls == [0, 1, 2]
        assert len(ctx.candidates) == 2

    def test_move_to_dst_list(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 3)
        dst = list_create(cg)

        @bpf_program
        def promote(i, folio):
            return ITER_MOVE

        ctx = EvictionCtx(3)
        list_iterate(cg, list_id, promote, ctx, MODE_SIMPLE, 0, dst)
        assert list_size(dst) == 3
        assert list_size(list_id) == 0
        assert ctx.nr_candidates_proposed == 0

    def test_move_without_dst_is_einval(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 1)

        @bpf_program
        def promote(i, folio):
            return ITER_MOVE

        ctx = EvictionCtx(1)
        assert list_iterate(cg, list_id, promote, ctx,
                            MODE_SIMPLE) == EINVAL

    def test_rotate_verdict(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 3)

        @bpf_program
        def rotate_first(i, folio):
            if i == 0:
                return ITER_ROTATE
            return ITER_STOP

        ctx = EvictionCtx(1)
        list_iterate(cg, list_id, rotate_first, ctx, MODE_SIMPLE)
        assert policy.lists[-1].folios() == [folios[1], folios[2],
                                             folios[0]]

    def test_nr_scan_bounds_iteration(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 10)
        calls = []

        @bpf_program
        def count(i, folio):
            calls.append(i)
            return ITER_SKIP

        ctx = EvictionCtx(32)
        list_iterate(cg, list_id, count, ctx, MODE_SIMPLE, 4)
        assert len(calls) == 4

    def test_full_ctx_stops_early(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 10)

        @bpf_program
        def take(i, folio):
            return ITER_EVICT

        ctx = EvictionCtx(2)
        assert list_iterate(cg, list_id, take, ctx, MODE_SIMPLE) == 2


class TestIterateScoring:
    def test_lowest_scores_selected(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 6)
        for folio in folios:
            list_add(list_id, folio, True)
        scores = {folios[i].id: s
                  for i, s in enumerate([5, 1, 4, 0, 3, 2])}

        @bpf_program
        def score(i, folio):
            return scores[folio.id]

        ctx = EvictionCtx(2)
        added = list_iterate(cg, list_id, score, ctx, MODE_SCORING, 6)
        assert added == 2
        assert set(ctx.candidates) == {folios[3], folios[1]}
        # Non-selected folios rotated to the tail.
        tail_items = policy.lists[-1].folios()
        assert folios[0] in tail_items

    def test_ties_break_towards_head(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 4)
        for folio in folios:
            list_add(list_id, folio, True)

        @bpf_program
        def flat(i, folio):
            return 7

        ctx = EvictionCtx(2)
        list_iterate(cg, list_id, flat, ctx, MODE_SCORING, 4)
        assert ctx.candidates == [folios[0], folios[1]]

    def test_non_integer_score_is_einval(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        list_add(list_id, folio, True)

        @bpf_program
        def bad_score(i, folio):
            return None

        ctx = EvictionCtx(1)
        assert list_iterate(cg, list_id, bad_score, ctx,
                            MODE_SCORING, 1) == EINVAL

    def test_empty_list_returns_zero(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)

        @bpf_program
        def score(i, folio):
            return 0

        ctx = EvictionCtx(1)
        assert list_iterate(cg, list_id, score, ctx, MODE_SCORING) == 0


class TestMiscKfuncs:
    def test_ctx_add_candidate(self):
        machine, cg, policy, f = setup()
        folio, = fault_in(machine, f, cg, 1)
        ctx = EvictionCtx(1)
        assert ctx_add_candidate(ctx, folio) == 1
        assert ctx_add_candidate(ctx, folio) == 0  # full
        assert ctx_add_candidate(ctx, "junk") == EINVAL

    def test_folio_key(self):
        machine, cg, policy, f = setup()
        folio, = fault_in(machine, f, cg, 1)
        assert folio_key(folio) == (f.file_id, 0)

    def test_current_tid_inside_engine(self):
        machine, cg, policy, f = setup()
        seen = []

        def step(thread):
            seen.append((current_tid(), thread.tid))
            return False

        machine.spawn("t", step, cgroup=cg)
        machine.run()
        assert seen[0][0] == seen[0][1]

    def test_current_tid_outside_engine(self):
        assert current_tid() == 0

    def test_ktime_monotone(self):
        machine, cg, policy, f = setup()
        times = []

        def step(thread, state={"i": 0}):
            if state["i"] >= 3:
                return False
            thread.advance(10.0)
            times.append(ktime_us())
            state["i"] += 1
            return True

        machine.spawn("t", step, cgroup=cg)
        machine.run()
        assert times == sorted(times)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("AMDR"),
                          st.integers(0, 9)), max_size=50))
def test_list_membership_invariant(ops):
    """Every folio is on at most one eviction list at all times, and
    list sizes always sum to the number of linked folios."""
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=256)
    policy = attach_empty_policy(machine, cg)
    l1, l2 = list_create(cg), list_create(cg)
    f = machine.fs.create("d")
    for i in range(10):
        f.store[i] = i
    f.npages = 10
    f.ra_enabled = False

    def step(thread):
        for i in range(10):
            machine.fs.read_page(f, i)
        return False

    machine.spawn("r", step, cgroup=cg)
    machine.run()
    folios = [f.mapping.lookup(i) for i in range(10)]

    for op, idx in ops:
        folio = folios[idx]
        if op == "A":
            list_add(l1, folio, True)
        elif op == "M":
            list_move(l2, folio, idx % 2 == 0)
        elif op == "D":
            list_del(folio)
        elif op == "R":
            list_move(l1, folio, True)
        # Invariant: a folio's node is linked to at most one list.
        linked = sum(1 for lst in policy.lists
                     for item in lst.folios() if item is folio)
        assert linked <= 1
    total_listed = sum(len(lst) for lst in policy.lists)
    nodes = sum(1 for fo in folios
                if policy.registry.get_node(fo) is not None
                and policy.registry.get_node(fo).owner is not None)
    assert total_listed == nodes


class TestSimpleBatchedCharge:
    """list_iterate(MODE_SIMPLE), which settles a scan's accounting in
    one batch, against the loop that charges candidate by candidate."""

    N_LISTED = 40
    N_PAGES = 72

    def _run(self, case, use_kfunc):
        machine, cg, policy, f = setup(self.N_PAGES)
        folios = fault_in(machine, f, cg, self.N_PAGES)
        list_id, dst_id = list_create(cg), list_create(cg)
        lst, dst = policy.lists[-2:]
        for folio in folios[:len(case.verdicts)]:
            list_add(list_id, folio, True)
        ctx = EvictionCtx(case.requested)
        for folio in folios[self.N_LISTED:self.N_LISTED + case.prefilled]:
            assert ctx.add_candidate(folio)
        visited = []

        @bpf_program
        def verdict(i, folio):
            visited.append(folio.index)
            return case.verdicts[i]

        out = {}

        def step(thread):
            base = (cg.stats.hook_cpu_us, thread.clock_us, thread.cpu_us)
            if use_kfunc:
                out["rc"] = list_iterate(
                    cg, list_id, verdict, ctx, MODE_SIMPLE, case.nr_scan,
                    dst_id if case.with_dst else 0)
            else:
                limit = min(case.nr_scan or DEFAULT_MAX_SCAN, len(lst))
                out["rc"] = reference_iterate_simple(
                    policy, lst, verdict, ctx, limit,
                    dst if case.with_dst else None)
            out["charged"] = tuple(
                now - then for now, then in zip(
                    (cg.stats.hook_cpu_us, thread.clock_us, thread.cpu_us),
                    base))
            return False

        machine.spawn("reclaimer", step, cgroup=cg)
        machine.run()
        lst.check_consistency()
        dst.check_consistency()
        return (out["rc"], [folio.index for folio in ctx.candidates],
                [folio.index for folio in lst.items()],
                [folio.index for folio in dst.items()], visited,
                verdict.invocations, policy.kfunc_errors,
                cg.stats.kfunc_errors), out["charged"], machine

    @given(case=simple_cases(N_LISTED))
    @STANDARD_SETTINGS
    def test_same_outcome_and_same_charge(self, case):
        fast, fast_charged, machine = self._run(case, use_kfunc=True)
        plain, plain_charged, _ = self._run(case, use_kfunc=False)
        assert fast == plain
        visited = len(fast[4])
        assert fast[5] == visited
        # One add of n * us against n adds of us: equal to rounding.
        want = pytest.approx(visited * machine.costs.kfunc_op_us)
        assert fast_charged == (want, want, want)
        assert plain_charged == (want, want, want)
        moved_without_dst = not case.with_dst and visited \
            and case.verdicts[visited - 1] == ITER_MOVE
        assert (fast[0] == EINVAL) == bool(moved_without_dst)
        assert fast[6] == fast[7] == int(bool(moved_without_dst))


class TestScoringSplice:
    """list_iterate's O(want) rotation against the per-node loop."""

    N_LISTED = 40       # longest list
    N_PAGES = 72        # + up to 31 pre-filled candidates off the list

    def _env(self, case):
        machine, cg, policy, f = setup(self.N_PAGES)
        folios = fault_in(machine, f, cg, self.N_PAGES)
        list_id = list_create(cg)
        for folio in folios[:len(case.scores)]:
            list_add(list_id, folio, True)
        ctx = EvictionCtx(case.requested)
        for folio in folios[self.N_LISTED:self.N_LISTED + case.prefilled]:
            assert ctx.add_candidate(folio)
        scores = {folio.id: score
                  for folio, score in zip(folios, case.scores)}
        return cg, policy.lists[-1], list_id, ctx, scores

    @given(case=scoring_cases(N_LISTED))
    @STANDARD_SETTINGS
    def test_same_candidates_and_list_order(self, case):
        outcomes = []
        for use_kfunc in (True, False):
            cg, lst, list_id, ctx, scores = self._env(case)

            def score(i, folio):
                return scores[folio.id]

            if use_kfunc:
                added = list_iterate(cg, list_id, bpf_program(score), ctx,
                                     MODE_SCORING, case.nr_scan)
            else:
                limit = min(case.nr_scan or DEFAULT_MAX_SCAN, len(lst))
                added = reference_scoring(
                    lst, score, ctx, limit,
                    case.requested - case.prefilled)
            lst.check_consistency()
            outcomes.append((added,
                             [folio.index for folio in ctx.candidates],
                             [folio.index for folio in lst.items()],
                             len(lst)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][3] == len(case.scores)

    @given(case=scoring_cases(N_LISTED),
           bad=st.sampled_from((None, 1.5, "7")), data=st.data())
    @STANDARD_SETTINGS
    def test_non_int_score_is_einval_and_leaves_list_alone(
            self, case, bad, data):
        cg, lst, list_id, ctx, scores = self._env(case)
        scanned = min(case.nr_scan or DEFAULT_MAX_SCAN, len(lst))
        bad_at = data.draw(st.integers(0, scanned - 1))
        before = lst.items()

        @bpf_program
        def score(i, folio):
            return bad if i == bad_at else scores[folio.id]

        assert list_iterate(cg, list_id, score, ctx, MODE_SCORING,
                            case.nr_scan) == EINVAL
        assert lst.items() == before
        assert ctx.nr_candidates_proposed == case.prefilled
        lst.check_consistency()
