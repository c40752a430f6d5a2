"""LSM point-read plans: recorded ``read_page`` sequences must be
indistinguishable from a fresh walk of the tables."""

from hypothesis import given
from hypothesis import strategies as st

from repro.apps.lsm import DbOptions, LsmDb
from repro.apps.lsm import db as lsm_db
from repro.apps.lsm.format import RecordFormat
from repro.faults import DeviceFault, FaultPlan
from repro.kernel import Machine
from tests.strategies import (DETERMINISM_SETTINGS, STANDARD_SETTINGS,
                              db_options, lsm_op_sequences)
from tests.strategies.lsm import KEYS, apply_op


def make_db(options=None, limit=64):
    machine = Machine()
    cg = machine.new_cgroup("db", limit_pages=limit)
    options = options or DbOptions(fmt=RecordFormat(value_size=1000),
                                   memtable_entries=8, max_levels=2)
    return machine, cg, LsmDb(machine, cg, options=options)


def in_thread(machine, cg, fn):
    """Run ``fn`` inside one simulated thread (I/O needs a cgroup)."""
    def step(thread):
        fn()
        return False
    machine.spawn("op", step, cgroup=cg)
    machine.run()


def record_reads(machine):
    """Log every ``fs.read_page(file, page)`` issued from now on."""
    log = []
    read_page = machine.fs.read_page

    def logged(file, index, *args, **kwargs):
        log.append((file, index))
        return read_page(file, index, *args, **kwargs)

    machine.fs.read_page = logged
    return log


def watch_bumps(db):
    """Assert on every structure bump that no plan survives it."""
    bump = db._bump_version
    versions = []

    def checked():
        bump()
        assert db._plans == {}
        versions.append(db._struct_version)

    db._bump_version = checked
    return versions


class TestPlanDifferential:
    @given(options=db_options(), ops=lsm_op_sequences())
    @STANDARD_SETTINGS
    def test_plan_served_get_equals_fresh_walk(self, options, ops):
        machine, cg, db = make_db(options)
        log = record_reads(machine)
        bumps = watch_bumps(db)

        def fresh_walk(key):
            reads = []
            return db._get_tables(key, reads), reads

        def body():
            for op in ops:
                if op.kind != "get":
                    apply_op(db, op)
                    continue
                del log[:]
                value = db.get(op.key)
                got_reads = list(log)
                in_mem, mem_value = db.mem.get(op.key)
                if in_mem:
                    assert (value, got_reads) == (mem_value, [])
                else:
                    assert (value, got_reads) == fresh_walk(op.key)
            # Every plan still held was recorded under this table set.
            for key, (reads, value) in db._plans.items():
                assert (value, list(reads)) == fresh_walk(key)

        in_thread(machine, cg, body)
        assert bumps == sorted(set(bumps))
        assert db.n_io_errors == 0

    def test_repeated_get_is_served_from_the_plan(self):
        machine, cg, db = make_db()
        log = record_reads(machine)

        def body():
            for i, key in enumerate(KEYS):
                db.put(key, i)
            db.flush_memtable()
            first = db.get(KEYS[3])
            recorded = list(log)
            # Make a fresh walk impossible: only the plan can answer.
            db._get_tables = None
            del log[:]
            assert db.get(KEYS[3]) == first == 3
            assert log == recorded and len(recorded) == 1

        in_thread(machine, cg, body)

    @given(options=db_options(), warm=lsm_op_sequences(60),
           ops=lsm_op_sequences(60),
           prob=st.sampled_from((0.3, 1.0)), seed=st.integers(1, 5))
    @DETERMINISM_SETTINGS
    def test_plans_recorded_before_arming_answer_like_fresh_walks(
            self, options, warm, ops, prob, seed):
        # Armed faults do not bypass the plans: a plan re-issues the
        # fresh walk's read_page calls, so a failing read raises out of
        # either at the same call and get() degrades it the same way.
        def run(keep_plans):
            machine, cg, db = make_db(options)
            results = []
            walks = []
            get_tables = db._get_tables

            def counted(*args):
                walks.append(args[0])
                return get_tables(*args)

            def body():
                for op in warm:
                    apply_op(db, op)
                for key in KEYS:        # record a plan per table key
                    db.get(key)
                machine.arm_faults(FaultPlan(seed=seed, device=(
                    DeviceFault(kind="eio", prob=prob, ops=("read",)),)))
                if not keep_plans:
                    db._plans.clear()
                db._get_tables = counted
                for op in ops:
                    results.append(apply_op(db, op))

            in_thread(machine, cg, body)
            return (results, db.n_io_errors, db.n_gets, cg.stats.io_errors,
                    cg.stats.io_retries, dict(machine.faults.fired)), walks

        kept, kept_walks = run(keep_plans=True)
        cleared, cleared_walks = run(keep_plans=False)
        assert kept == cleared
        assert len(kept_walks) <= len(cleared_walks)


class TestPlanMemo:
    def test_get_after_each_structure_change_is_fresh(self):
        machine, cg, db = make_db()
        bumps = watch_bumps(db)

        def body():
            for i, key in enumerate(KEYS):
                db.put(key, i)
            db.flush_memtable()
            key = KEYS[5]
            assert db.get(key) == 5 and key in db._plans
            db.put(key, 50)                 # re-put: memtable shadows
            assert db.get(key) == 50
            db.flush_memtable()             # plan dropped with the bump
            assert key not in db._plans and db.get(key) == 50
            db.delete(key)                  # tombstone in the memtable
            assert db.get(key) is None
            db.flush_memtable()             # tombstone now in L0
            assert db.get(key) is None and db._plans[key][1] is None
            db.put(key, 51)
            for i in range(3):              # push L0 over its trigger
                db.put(KEYS[i], 100 + i)
                db.flush_memtable()
            installs = db.n_compactions
            db.drain_compaction()
            assert db.n_compactions > installs
            assert db.get(key) == 51 and db.get(KEYS[0]) == 100
            assert db.get(KEYS[7]) == 7

        in_thread(machine, cg, body)
        assert len(bumps) >= 6 and bumps == sorted(set(bumps))

    def test_bulk_load_drops_plans(self):
        machine, cg, db = make_db()
        bumps = watch_bumps(db)
        db.bulk_load(KEYS[:6], [1] * 6)
        in_thread(machine, cg, lambda: db.get(KEYS[0]))
        assert KEYS[0] in db._plans
        db.bulk_load(KEYS[6:], [2] * len(KEYS[6:]))
        assert len(bumps) == 2

    def test_clear_on_full(self, monkeypatch):
        monkeypatch.setattr(lsm_db, "_PLAN_CACHE_MAX", 4)
        machine, cg, db = make_db()
        db.bulk_load(KEYS, range(len(KEYS)))
        sizes = []

        def body():
            for i, key in enumerate(KEYS):
                assert db.get(key) == i
                sizes.append(len(db._plans))

        in_thread(machine, cg, body)
        assert max(sizes) == 4
        assert sizes == [1, 2, 3, 4] * 3
        in_thread(machine, cg,
                  lambda: [db.get(key) for key in reversed(KEYS)])
        assert all(plan[1] == KEYS.index(key)
                   for key, plan in db._plans.items())
