"""Shared experiment plumbing.

Builds machines/cgroups/databases for a named policy and formats
results.  Policy names:

* ``"default"`` — the kernel's two-list LRU (no cache_ext);
* ``"mglru"`` — the kernel's native MGLRU (no cache_ext);
* ``"fifo" | "mru" | "lfu" | "s3fifo" | "lhd" | "mglru-bpf"`` —
  cache_ext policies on top of the default kernel (fallback) lists;
* ``"sieve" | "arc" | "prefetch"`` — post-paper extension policies;
* ``"noop"`` — the no-op cache_ext policy (overhead baseline);
* ``"userspace"`` — the Table 1 dispatch strawman.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import snapshot as _snapshot
from repro.apps.lsm import DbOptions, LsmDb
from repro.cache_ext.ops import CacheExtOps
from repro.kernel import Machine
from repro.kernel.cgroup import MemCgroup
from repro.policies import (make_arc_policy, make_fifo_policy,
                            make_get_scan_policy, make_lfu_policy,
                            make_mglru_policy, make_mru_policy,
                            make_noop_policy, make_prefetch_policy,
                            make_s3fifo_policy, make_sieve_policy,
                            make_userspace_dispatch_policy)
from repro.policies.lhd import init_lhd, make_lhd_policy
from repro.policies.userspace import spawn_drainer
from repro.sim.engine import collector_paused
from repro.workloads.ycsb import load_items

#: Policies applicable to the generic (application-agnostic) sweeps.
GENERIC_POLICY_NAMES = ("default", "mglru", "fifo", "mru", "lfu",
                        "s3fifo", "lhd", "mglru-bpf")

KERNEL_POLICIES = ("default", "mglru")


#: Experiment disks model the paper's SATA-class 480 GB SSD: modest
#: internal parallelism, so concurrent misses queue and tail latency
#: becomes hit-ratio-sensitive (the effect behind the P99 plots).
EXPERIMENT_DISK = dict(read_us=95.0, write_us=30.0, channels=2)


#: Attach functions applied, in order, to every machine a cell builds
#: or restores while an :func:`observing` block is open.  Planes append
#: here instead of owning a slot, so any number of them — fault plan,
#: trace consumers, span aggregator, sampler — ride the same cell.
_observers: list = []


@contextmanager
def observing(*attach_fns: Callable[[Machine], None]):
    """Call each ``attach_fn(machine)``, after those of any enclosing
    block, on every machine :func:`build_machine` builds or
    :func:`make_db_env` restores inside the ``with`` block."""
    mark = len(_observers)
    _observers.extend(attach_fns)
    try:
        yield
    finally:
        del _observers[mark:]


def build_machine(policy: str, mode: str = "full") -> Machine:
    """A machine booted with the right kernel policy for ``policy``.

    ``mode="replay"`` switches the machine onto the trace-replay fast
    path (:mod:`repro.replay`) before anything else touches it; the
    resulting counters are bit-identical to ``mode="full"``.
    """
    from repro.kernel.block import BlockDevice
    kernel = "mglru" if policy == "mglru" else "default"
    machine = Machine(kernel_policy=kernel,
                      disk=BlockDevice(**EXPERIMENT_DISK))
    if mode == "replay":
        from repro.replay import enable_replay
        enable_replay(machine)
    elif mode != "full":
        raise ValueError(f"unknown execution mode {mode!r}")
    for attach in _observers:
        attach(machine)
    return machine


#: cache_ext policy name -> (factory, the cgroup-derived sizes it takes).
_FACTORIES = {
    "fifo": (make_fifo_policy, ()),
    "mru": (make_mru_policy, ()),
    "lfu": (make_lfu_policy, ("map_entries",)),
    "s3fifo": (make_s3fifo_policy, ("map_entries", "ghost_entries")),
    "lhd": (make_lhd_policy, ("map_entries",)),
    "mglru-bpf": (make_mglru_policy, ("map_entries", "ghost_entries")),
    "noop": (make_noop_policy, ()),
    "get-scan": (make_get_scan_policy, ("map_entries",)),
    "userspace": (make_userspace_dispatch_policy, ()),
    "sieve": (make_sieve_policy, ("map_entries",)),
    "arc": (make_arc_policy, ("map_entries", "cache_pages")),
    "prefetch": (make_prefetch_policy, ("map_entries",)),
}

#: Every name :func:`attach_policy` accepts.
POLICY_NAMES = KERNEL_POLICIES + tuple(_FACTORIES)


def attach_policy(machine: Machine, cgroup: MemCgroup, policy: str,
                  cgroup_pages: int) -> Optional[CacheExtOps]:
    """Attach the named cache_ext policy (None for kernel policies).

    Map capacities are sized from the cgroup so hash maps never
    overflow and ghost FIFOs approximate the cache size, the way the
    paper's loaders size maps from the cgroup configuration.
    """
    if policy in KERNEL_POLICIES:
        return None
    if policy not in _FACTORIES:
        raise ValueError(
            f"unknown policy {policy!r}; choose from: "
            + ", ".join(POLICY_NAMES))
    sizes = {"map_entries": max(4 * cgroup_pages, 1024),
             "ghost_entries": max(cgroup_pages, 256),
             "cache_pages": cgroup_pages}
    factory, wanted = _FACTORIES[policy]
    ops = factory(**{name: sizes[name] for name in wanted})
    machine.attach(cgroup, ops)
    # Post-attach initialization is uniform: every policy goes through
    # machine.attach above, LHD included.
    if policy == "lhd":
        init_lhd(machine, ops)
    elif policy == "userspace":
        spawn_drainer(machine, ops)
    return ops


@dataclass
class DbEnv:
    """One machine + cgroup + pre-loaded LSM store."""

    machine: Machine
    cgroup: MemCgroup
    db: LsmDb
    ops: Optional[CacheExtOps]


def _preattach_env(kernel: str, cgroup_pages: int, nkeys: int,
                   db_options: DbOptions, cgroup_name: str,
                   mode: str) -> tuple:
    """Cold build of the policy-agnostic pre-attach environment.

    Machine + cgroup + bulk-loaded LSM store, *before* any policy
    attaches and before the compaction thread spawns — the exact state
    :func:`make_db_env` snapshots.  ``kernel`` is a kernel flavor
    (``"default"`` | ``"mglru"``), not a policy name.
    """
    machine = build_machine(kernel, mode=mode)
    cgroup = machine.new_cgroup(cgroup_name, limit_pages=cgroup_pages)
    db = LsmDb(machine, cgroup, options=db_options)
    db.bulk_load(load_items(nkeys))
    return machine, cgroup, db


def _env_image(kernel: str, cgroup_pages: int, nkeys: int,
               db_options: DbOptions, cgroup_name: str,
               mode: str) -> "_snapshot.MachineImage":
    """The cached pre-attach image for one environment shape.

    Keyed on everything that shapes the image; the bulk load runs
    outside the engine with no simulated I/O, so the image is
    workload-independent — one capture per kernel flavor serves a whole
    sweep.  The builder runs with the observer chain emptied: the
    captured machine must stay pristine, and the chain is applied to
    every *restored* machine instead (no events fire during the build —
    the load phase never enters the engine, virtual time is 0 — so
    observers see identical streams and a fault plan arms on the same
    state either way).
    """
    key = ("db_env", kernel, mode, cgroup_name, int(cgroup_pages),
           int(nkeys), repr(db_options))

    def builder():
        held, _observers[:] = _observers[:], []
        try:
            machine, cgroup, db = _preattach_env(
                kernel, cgroup_pages, nkeys, db_options, cgroup_name,
                mode)
        finally:
            _observers[:] = held
        return machine, (cgroup, db)

    return _snapshot.get_or_capture(key, builder)


def warm_db_env_snapshot(policy: str, cgroup_pages: int, nkeys: int,
                         db_options: Optional[DbOptions] = None,
                         cgroup_name: str = "app",
                         mode: str = "full") -> None:
    """Materialize the snapshot image ``make_db_env(..., snapshot=True)``
    will restore, without building a cell.  The parallel runner calls
    this in the parent (via the plan's prepare hook) so forked workers
    inherit the image bytes copy-on-write."""
    if db_options is None:
        db_options = DbOptions(memtable_entries=512)
    kernel = "mglru" if policy == "mglru" else "default"
    _env_image(kernel, cgroup_pages, nkeys, db_options, cgroup_name,
               mode)


def prepare_db_env_snapshot(policy: str = "default", nkeys: int = 0,
                            cgroup_pages: int = 0, mode: str = "full",
                            **_ignored) -> None:
    """Generic ``snapshot_prepare`` companion for cells built on
    :func:`make_db_env` with default options: accepts a cell's full
    kwargs, uses only the fields that shape the image."""
    warm_db_env_snapshot(policy, cgroup_pages=cgroup_pages,
                         nkeys=nkeys, mode=mode)


def make_db_env(policy: str, cgroup_pages: int, nkeys: int,
                db_options: Optional[DbOptions] = None,
                compaction_thread: bool = False,
                cgroup_name: str = "app",
                mode: str = "full",
                snapshot: bool = False) -> DbEnv:
    """Build the standard DB experiment environment.

    The database is bulk-loaded (no simulated I/O, cold cache), then
    the policy attaches — equivalent to the paper's create-database /
    drop-caches / load-policy sequence.

    The default memtable is scaled down so one flush is a small
    fraction of the cgroup (as at paper scale, where a 4 MiB memtable
    meets a 10 GiB cgroup); otherwise write workloads are dominated by
    flush bursts no real deployment would see.

    ``mode="replay"`` builds the whole stack on the trace-replay fast
    path (the :mod:`repro.replay` machine).  Counters are bit-identical
    to the full mode.

    ``snapshot=True`` restores the post-load/pre-attach image from the
    process-wide snapshot cache (:mod:`repro.snapshot`) — capturing it
    first if this is the sweep's first cell — instead of re-running the
    bulk load.  The restored graph is fresh and independent per call;
    payloads are byte-identical to a cold build
    (``tests/test_snapshot.py``).  Either way the build runs under
    :func:`~repro.sim.engine.collector_paused`.
    """
    if db_options is None:
        db_options = DbOptions(memtable_entries=512)
    kernel = "mglru" if policy == "mglru" else "default"
    with collector_paused():
        if snapshot:
            image = _env_image(kernel, cgroup_pages, nkeys, db_options,
                               cgroup_name, mode)
            machine, cgroup, db = _snapshot.restore(image)
            for attach in _observers:
                attach(machine)
        else:
            machine, cgroup, db = _preattach_env(
                kernel, cgroup_pages, nkeys, db_options, cgroup_name,
                mode)
        ops = attach_policy(machine, cgroup, policy, cgroup_pages)
        if compaction_thread:
            db.spawn_compaction_thread()
    return DbEnv(machine, cgroup, db, ops)


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of an experiment sweep.

    A cell is the parallelism grain of the paper's evaluation: one
    fresh machine, one (policy, workload, size) combination, one
    picklable payload out.  ``fn`` must be a module-level function
    (so cells survive a trip through ``multiprocessing``) returning a
    plain dict of numbers/strings — never live simulator objects.
    """

    experiment: str
    cell_id: str
    fn: Callable[..., dict]
    kwargs: dict = field(default_factory=dict)
    #: Whether ``fn`` accepts ``mode="replay"`` and produces the same
    #: payload under it (hit-ratio-style cells; anything reporting
    #: wall-clock-independent counters).  The parallel runner's
    #: ``--mode replay|auto`` only rewrites cells that opt in.
    supports_replay: bool = False
    #: Module-level companion to ``fn`` that *warms* the snapshot image
    #: ``fn`` would restore, given the same kwargs, without running the
    #: cell.  Setting it is the snapshot opt-in: ``fn`` then accepts
    #: ``snapshot=True`` and produces the same payload when its
    #: environment is restored from a pre-load image
    #: (:mod:`repro.snapshot`) instead of rebuilt.  The runner's
    #: ``--snapshot on|auto`` only rewrites cells that opt in, and calls
    #: the companion in the parent before forking so workers inherit
    #: the image copy-on-write.
    snapshot_prepare: Optional[Callable[..., None]] = None

    def execute(self) -> dict:
        return self.fn(**self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CellSpec({self.experiment}:{self.cell_id})"


@dataclass
class ExperimentSpec:
    """A planned experiment: independent cells + a deterministic merge.

    ``merge(meta, payloads)`` receives ``{cell_id: payload}`` for every
    cell and must be a *pure* function of that mapping — all
    cross-cell arithmetic (baselines, ratios, rank correlations,
    winners) happens here, in the parent process, so serial and
    parallel executions produce byte-identical tables.
    """

    name: str
    cells: list
    merge: Callable[[dict, dict], "ExperimentResult"]
    meta: dict = field(default_factory=dict)
    #: Optional hook the runner invokes once, in the parent process,
    #: before any cell executes.  Used to warm shared caches (the
    #: pre-generated workload streams of :mod:`repro.workloads.streams`)
    #: so serial cells reuse one buffer and forked workers inherit it
    #: copy-on-write.  Must be a pure cache-warmer: cells produce
    #: identical payloads whether or not it ran.
    prepare: Optional[Callable[[], None]] = None

    def cell_ids(self) -> list[str]:
        return [cell.cell_id for cell in self.cells]


@dataclass
class ExperimentResult:
    """Tabular experiment output."""

    name: str
    headers: list
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"{self.name}: row width {len(values)} != "
                f"{len(self.headers)} headers")
        self.rows.append(list(values))

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def row_dict(self, index: int) -> dict:
        return dict(zip(self.headers, self.rows[index]))

    def find_rows(self, **match) -> list[dict]:
        out = []
        for i in range(len(self.rows)):
            d = self.row_dict(i)
            if all(d.get(k) == v for k, v in match.items()):
                out.append(d)
        return out

    def format_table(self) -> str:
        """Fixed-width text table (the experiment's printed artifact)."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:,.2f}"
            if isinstance(value, int):
                return f"{value:,}"
            return str(value)

        cells = [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(str(h)), *(len(r[i]) for r in cells))
                  if cells else len(str(h))
                  for i, h in enumerate(self.headers)]
        lines = [f"== {self.name} =="]
        lines.append("  ".join(str(h).ljust(w)
                               for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.rjust(w)
                                   for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
