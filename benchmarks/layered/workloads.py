"""The four benchmark workloads.

Each workload is a ``setup(seed, tracer)`` / ``run(state)`` pair.
``setup`` is everything before the first engine step (stream
pre-generation from a cold stream cache, machine build, bulk load or
file creation, snapshot capture, policy verify + attach, thread spawn)
and is reported as ``setup_s``; ``run`` is the measured phase behind
``host_kops_per_s``.  The seed reaches the simulator only as the
``seed=`` of the generated inputs (``YcsbRunner``, ``FioJob``,
``fig6.plan(scale={"seed": ...})``).

Sizes are fig6's ``FULL_SCALE`` (the two YCSB cells) and
``QUICK_SCALE`` (the sweep row) with shorter op counts, so that one
repetition lasts 0.3-1 s: the sandbox's speed swings are sub-second and
only repetitions of that length can be bracketed by the calibration
kernel (see README.md, "Timing method").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from statistics import fmean
from typing import Optional

from repro import api, snapshot
from repro.apps.fio import FioJob
from repro.experiments import fig6, harness
from repro.experiments.parallel import apply_mode, apply_snapshot
from repro.workloads import streams
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbRunner


@dataclass
class Outcome:
    """What one measured phase produced."""

    #: Application ops issued, warm-up included.
    attempted: int
    #: Reads of a loaded key that returned None + I/O errors the DB
    #: absorbed + every op of a sweep cell that landed in
    #: ``ExecutionReport.worker_errors``.
    failed: int
    #: The modelled design's results.  A deterministic simulator
    #: repeats every field exactly, so repetitions compare with ``==``.
    signature: dict
    #: Machines the phase ran on, for per-layer counts (the sweep
    #: builds its machines inside the cells; the tracer collects them).
    machines: list = field(default_factory=list)
    #: Harness cells executed and their summed wall seconds from
    #: ``ExecutionReport.timings`` (None: the phase is the one cell).
    cells: int = 1
    cell_wall_s: Optional[float] = None


def _cgroup_signature(machine, cgroup_name: str) -> dict:
    metrics = machine.metrics()
    cgroup = metrics.cgroup(cgroup_name)
    stats = cgroup.stats
    return {"hit_ratio": cgroup.hit_ratio,
            "lookups": stats["lookups"], "hits": stats["hits"],
            "misses": stats["misses"], "evictions": stats["evictions"],
            "disk_pages": metrics.disk["total_pages"]}


class YcsbCell:
    """One full-scale fig6 cell with shorter op counts: DB ~10x the
    cgroup, 8 client threads in a closed loop."""

    NKEYS, CGROUP_PAGES, NTHREADS = 40000, 1000, 8
    WARMUP_OPS, MEASURED_OPS, ZIPF_THETA = 8000, 16000, 1.1

    def __init__(self, name: str, workload: str, policy: str) -> None:
        self.name = name
        self.spec = YCSB_WORKLOADS[workload]
        self.policy = policy
        self.ops = self.WARMUP_OPS + self.MEASURED_OPS
        self.measured_ops = self.MEASURED_OPS

    def setup(self, seed: int, tracer):
        streams.clear_cache()
        env = harness.make_db_env(
            self.policy, cgroup_pages=self.CGROUP_PAGES,
            nkeys=self.NKEYS, compaction_thread=True)
        runner = YcsbRunner(
            env.db, self.spec, nkeys=self.NKEYS, nops=self.MEASURED_OPS,
            seed=seed, nthreads=self.NTHREADS,
            warmup_ops=self.WARMUP_OPS, zipf_theta=self.ZIPF_THETA)
        runner.spawn()  # builds each worker's op stream
        return env, runner

    def run(self, state) -> Outcome:
        env, runner = state
        env.machine.run()
        result = runner.result
        signature = _cgroup_signature(env.machine, env.cgroup.name)
        signature.update(sim_ops_per_s=result.throughput,
                         p99_read_us=result.p99_read_us,
                         measured_ops=result.ops,
                         op_counts=dict(result.op_counts))
        return Outcome(self.ops, result.missing_keys + env.db.n_io_errors,
                       signature, [env.machine])


class FioHit:
    """Table 4 in host terms: random reads over a file that fits."""

    FILE_PAGES, CGROUP_PAGES = 4096, 8192
    NTHREADS, OPS_PER_THREAD = 8, 12500
    name = "fio-hit-noop"
    ops = measured_ops = NTHREADS * OPS_PER_THREAD

    def setup(self, seed: int, tracer):
        machine = harness.build_machine("noop")
        cgroup = machine.new_cgroup("fio", limit_pages=self.CGROUP_PAGES)
        harness.attach_policy(machine, cgroup, "noop", self.CGROUP_PAGES)
        return machine, FioJob(
            machine, cgroup, file_pages=self.FILE_PAGES,
            nthreads=self.NTHREADS, ops_per_thread=self.OPS_PER_THREAD,
            seed=seed)

    def run(self, state) -> Outcome:
        machine, job = state
        result = job.run()
        signature = _cgroup_signature(machine, "fio")
        signature.update(sim_ops_per_s=result.iops,
                         cpu_us_per_op=result.cpu_us_per_op,
                         measured_ops=result.ops,
                         op_counts={"read": result.ops})
        return Outcome(self.ops, 0, signature, [machine])


class SweepRow:
    """One real fig6 row as users run it: ``api.run`` over the eight
    generic policies on workload C, replay engine + snapshot restore."""

    name = "sweep-row-c"
    POLICIES = harness.GENERIC_POLICY_NAMES
    OPS_PER_CELL = (fig6.QUICK_SCALE["nops"]
                    + fig6.QUICK_SCALE["warmup_ops"])
    ops = len(POLICIES) * OPS_PER_CELL
    measured_ops = len(POLICIES) * fig6.QUICK_SCALE["nops"]

    def setup(self, seed: int, tracer):
        streams.clear_cache()
        snapshot.clear_cache()
        spec = fig6.plan(quick=True, workloads=("C",),
                         policies=self.POLICIES, scale={"seed": seed})
        spec.merge = tracer.wrap(spec.merge, "experiments.harness.merge")
        # Warm exactly what the run will look up: the mode/snapshot
        # rewrites change the kwargs the image keys are derived from.
        warmed = apply_snapshot(apply_mode(spec, "auto"), "auto")
        tracer.wrap(warmed.prepare, "experiments.harness.prepare")()
        return spec

    def run(self, spec) -> Outcome:
        report = api.run(spec, mode="auto", snapshot="auto")
        table = report.result.format_table()
        rows = {f"{r['workload']}/{r['policy']}": r
                for r in map(report.result.row_dict,
                             range(len(report.result.rows)))}
        signature = {
            "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
            "rows": rows,
            "hit_ratio": fmean(r["hit_ratio"] for r in rows.values()),
            "sim_ops_per_s": fmean(r["ops_per_sec"]
                                   for r in rows.values()),
            "p99_read_us": fmean(r["p99_read_us"] for r in rows.values()),
        }
        return Outcome(
            self.ops, self.OPS_PER_CELL * len(report.worker_errors),
            signature, cells=len(report.timings),
            cell_wall_s=sum(t.wall_s for t in report.timings))


WORKLOADS = {w.name: w for w in (
    YcsbCell("ycsb-c-lfu", "C", "lfu"),
    YcsbCell("ycsb-a-default", "A", "default"),
    FioHit(),
    SweepRow(),
)}


def conservation_errors(signature: dict, measured_ops: int) -> list:
    """The sums every seed must satisfy (the fixed-seed comparison
    against ``expected/`` only covers the default seed)."""
    errors = []
    if "lookups" in signature and (signature["hits"] + signature["misses"]
                                   != signature["lookups"]):
        errors.append("hits + misses != lookups")
    if "op_counts" in signature:
        if sum(signature["op_counts"].values()) != signature["measured_ops"]:
            errors.append("per-kind op counts do not sum to ops")
        if signature["measured_ops"] != measured_ops:
            errors.append(f"measured ops {signature['measured_ops']} "
                          f"!= {measured_ops} issued")
    return errors
