"""LSM op sequences over a small keyspace and small ``DbOptions``.

Small on purpose: a dozen keys against 4-16 entry memtables makes every
few puts a flush and every few flushes a compaction, so one short
sequence crosses the structure changes a read plan must not survive.
"""

from dataclasses import dataclass
from typing import Optional

from hypothesis import strategies as st

from repro.apps.lsm import DbOptions
from repro.apps.lsm.format import RecordFormat

#: Zero-padded so string order is numeric order.
KEYS = [f"key{i:02d}" for i in range(12)]


@dataclass(frozen=True)
class LsmOp:
    """One database call; ``key``/``value`` are None where unused."""

    kind: str
    key: Optional[str] = None
    value: Optional[int] = None


def lsm_ops() -> st.SearchStrategy:
    keys = st.sampled_from(KEYS)
    # one_of draws its branches evenly: a kind listed n times is drawn
    # n times as often.
    return st.one_of(
        st.builds(LsmOp, st.just("put"), keys, st.integers(0, 999)),
        st.builds(LsmOp, st.just("put"), keys, st.integers(0, 999)),
        st.builds(LsmOp, st.just("get"), keys),
        st.builds(LsmOp, st.just("get"), keys),
        st.builds(LsmOp, st.just("get"), keys),
        st.builds(LsmOp, st.just("delete"), keys),
        st.builds(LsmOp, st.sampled_from(
            ("flush", "compaction_step", "drain_compaction"))),
    )


def lsm_op_sequences(max_size: int = 120) -> st.SearchStrategy:
    return st.lists(lsm_ops(), min_size=1, max_size=max_size)


def sorted_runs(epp: int, max_pages: int = 5) -> st.SearchStrategy:
    """Strictly increasing ``(key, value)`` runs for an SSTable whose
    data pages hold ``epp`` records; ``None`` values are tombstones.

    Half the lengths sit on a page boundary (empty, one record, a page
    less/exactly/plus one), the rest range over several pages.
    """
    lengths = st.one_of(
        st.sampled_from((0, 1, epp - 1, epp, epp + 1)),
        st.integers(0, max_pages * epp + 1))
    records = st.tuples(st.integers(0, 9999),
                        st.one_of(st.none(), st.integers(0, 999)))
    return lengths.flatmap(lambda n: st.lists(
        records, min_size=n, max_size=n, unique_by=lambda kv: kv[0])
    ).map(lambda kvs: [(f"key{k:04d}", v) for k, v in sorted(kvs)])


def table_probes(run: list, max_size: int = 40) -> st.SearchStrategy:
    """Point-lookup keys for a table built from a non-empty
    :func:`sorted_runs` run: held keys (tombstoned ones drawn in their
    own right), and absent keys below, between and above them."""
    held = [key for key, _ in run]
    kinds = [
        st.sampled_from(held),
        # Just past a held key: before the next one — the next page's
        # first, at a page seam — or above the last.
        st.sampled_from(held).map(lambda key: key + "0"),
        st.integers(0, 9999).map("key{:04d}".format).filter(
            lambda key: key not in held),
        st.sampled_from(("ke", "kez")),    # below / above every run
    ]
    dead = [key for key, value in run if value is None]
    if dead:
        kinds.append(st.sampled_from(dead))
    return st.lists(st.one_of(kinds), min_size=1, max_size=max_size)


def db_options() -> st.SearchStrategy:
    """Options under which a handful of ops reaches every level."""
    return st.builds(
        DbOptions,
        fmt=st.just(RecordFormat(value_size=1000)),   # 3 entries/page
        memtable_entries=st.sampled_from((4, 8, 16)),
        l0_compaction_trigger=st.integers(1, 3),
        level_multiplier=st.integers(2, 4),
        max_levels=st.integers(1, 3),
        level1_tables=st.integers(1, 2),
    )


def apply_op(db, op: LsmOp):
    """Run ``op`` against ``db``; returns the get's value, else None."""
    if op.kind == "put":
        db.put(op.key, op.value)
    elif op.kind == "delete":
        db.delete(op.key)
    elif op.kind == "get":
        return db.get(op.key)
    elif op.kind == "flush":
        db.flush_memtable()
    elif op.kind == "compaction_step":
        db.compaction_step()
    elif op.kind == "drain_compaction":
        db.drain_compaction()
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
    return None
