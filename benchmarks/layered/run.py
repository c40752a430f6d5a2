#!/usr/bin/env python3
"""Layered benchmark: calibrated host throughput on four workloads,
with an outside-in layer trace.

    python3 benchmarks/layered/run.py [--workload NAME] [--seed 42]
        [--seconds 26] [--trace 0|1] [--write-expected]

``--trace 0`` (default) measures the end-to-end metrics with tracing
off: one discarded warm-up repetition, then kernel-bracketed
repetitions for ``--seconds`` seconds, each on a freshly built machine.
``--trace 1`` measures the per-layer metrics instead: a few untraced
repetitions, three traced ones, then the per-layer microbenches.
Without ``--workload`` every workload runs, each in its own child
process, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.  README.md beside this
file defines every metric and says which layer should move which.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import micro  # noqa: E402
from calib import REFERENCE_S, Clock, calibrated  # noqa: E402
from trace import NullTracer, Summary, Tracer, span_cost  # noqa: E402
from workloads import WORKLOADS, conservation_errors  # noqa: E402

from repro.workloads import streams  # noqa: E402

EXPECTED_DIR = HERE / "expected"
OUT_DIR = HERE / "out"
MIN_REPS = 3
#: Shares of ``--seconds`` a traced run gives its untraced repetitions
#: and its microbench rounds; the traced repetitions take what they take.
UNTRACED_SHARE, MICRO_SHARE = 0.20, 0.25
TRACED_REPS = 3
MIN_MICRO_ROUNDS = 3


@dataclass
class Rep:
    """One repetition: set-up, then the kernel-bracketed phase."""

    outcome: object
    setup_wall_s: float
    phase_wall_s: float
    #: Wall seconds -> calibrated seconds, per phase.
    setup_scale: float
    phase_scale: float
    #: Tracer marks: first span of the set-up, of the phase, and end.
    marks: tuple
    #: When the set-up started (the trace file's time origin).
    origin: float

    @property
    def setup_s(self) -> float:
        return self.setup_wall_s * self.setup_scale

    @property
    def phase_s(self) -> float:
        return self.phase_wall_s * self.phase_scale


def repetition(workload, seed: int, clock: Clock, tracer=NullTracer()):
    """Set-up (timed) -> gc.collect() -> kernel -> measured phase ->
    kernel.  The set-up is bracketed by the previous repetition's
    trailing kernel run and this one's leading run."""
    before_setup = clock.kernel_s[-1]
    marks = [tracer.mark()]
    origin = time.perf_counter()
    state = workload.setup(seed, tracer)
    setup_wall = time.perf_counter() - origin
    gc.collect()
    before = clock.tick()
    marks.append(tracer.mark())
    t0 = time.perf_counter()
    outcome = workload.run(state)
    phase_wall = time.perf_counter() - t0
    marks.append(tracer.mark())
    after = clock.tick()
    return Rep(outcome, setup_wall, phase_wall,
               calibrated(1.0, before_setup, before),
               calibrated(1.0, before, after), tuple(marks), origin)


def repeat(workload, seed: int, clock: Clock, seconds: float) -> list:
    """One warm-up repetition (imports, memoised zipf and scramble
    tables), then repetitions until ``seconds`` have passed.  The
    warm-up comes back first; it is checked but never timed."""
    clock.tick()
    reps = []
    deadline = None
    while len(reps) <= MIN_REPS or time.perf_counter() < deadline:
        reps.append(repetition(workload, seed, clock))
        # Only a traced repetition reads its machines' counters; holding
        # every repetition's machine would grow peak_rss_mb with --seconds.
        reps[-1].outcome.machines.clear()
        if deadline is None:
            deadline = time.perf_counter() + seconds
    return reps


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
def flatten(value, prefix: str = "") -> dict:
    if not isinstance(value, dict):
        return {prefix: value}
    flat: dict = {}
    for key, item in value.items():
        flat.update(flatten(item, f"{prefix}.{key}" if prefix else key))
    return flat


def differing_fields(a: dict, b: dict) -> set:
    a, b = flatten(a), flatten(b)
    return {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)}


def check(workload, seed: int, outcomes: list, write_expected: bool) -> list:
    """Every problem with the simulated outputs, as printable strings:
    fields that differ between repetitions, fields that differ from the
    committed signature of this seed, broken conservation sums."""
    reference = outcomes[0].signature
    problems = sorted({f"differs between repetitions: {field}"
                       for outcome in outcomes[1:]
                       for field in differing_fields(reference,
                                                     outcome.signature)})
    problems += conservation_errors(reference, workload.measured_ops)
    path = EXPECTED_DIR / f"{workload.name}.json"
    if write_expected:
        EXPECTED_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(
            {"seed": seed, "signature": reference}, indent=2,
            sort_keys=True) + "\n")
    expected = json.loads(path.read_text())
    if expected["seed"] == seed:
        problems += sorted(
            f"differs from expected/{path.name}: {field}"
            for field in differing_fields(expected["signature"],
                                          reference))
    return problems


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def percentiles(values: list) -> str:
    """p50, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"p50 {statistics.median(ordered):.4f}"
    if n >= 22:
        text += f"  p{100 * (n - 10) // n} {ordered[n - 11]:.4f}"
    return f"{text}  n={n}"


def end_to_end_run(workload, args, clock: Clock) -> tuple:
    reps = repeat(workload, args.seed, clock, args.seconds)
    timed = reps[1:]
    phase = [rep.phase_s for rep in timed]
    setup = [rep.setup_s for rep in timed]
    wall = [rep.phase_wall_s for rep in timed]
    print(f"# measured phase, calibrated s: {percentiles(phase)}  "
          f"(raw wall s: min {min(wall):.4f}  "
          f"median {statistics.median(wall):.4f})")
    print(f"# set-up, calibrated s: {percentiles(setup)}")
    signature = reps[0].outcome.signature
    values = {
        "host_kops_per_s":
            workload.ops / statistics.median(phase) / 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_hit_ratio": signature["hit_ratio"],
        "sim_ops_per_s": signature["sim_ops_per_s"],
    }
    return values, [rep.outcome for rep in reps]


def layer_values(tracer: Tracer, traced: Rep, untraced_s: float,
                 split: tuple) -> dict:
    """Per-layer metrics of one traced repetition."""
    first, middle, last = traced.marks
    # What tracing added per span, in situ: the traced phase against
    # the untraced p50.  A wrapped no-op (``split``, from span_cost)
    # only says how that divides between a span's own interval and its
    # parent's self time — in a tight loop a wrapper costs about half
    # of what it costs between the simulator's cache misses.
    added_s = max(0.0, traced.phase_s - untraced_s) / (last - middle)
    cost = [added_s * part / sum(split) / traced.phase_scale
            for part in split]
    values = layers.collect(
        traced.outcome, traced.outcome.machines or tracer.restored_machines,
        Summary(tracer, first, middle), Summary(tracer, middle, last, cost),
        tracer.tallies, traced.setup_scale, traced.phase_scale,
        traced.phase_wall_s)
    values["trace.overhead_ratio"] = traced.phase_s / untraced_s
    traced.outcome.machines.clear()
    return values


def traced_run(workload, args, clock: Clock) -> tuple:
    reps = repeat(workload, args.seed, clock,
                  args.seconds * UNTRACED_SHARE)
    outcomes = [rep.outcome for rep in reps]
    untraced_s = statistics.median(rep.phase_s for rep in reps[1:])
    split = span_cost()
    per_rep = []
    for _ in range(TRACED_REPS):
        # Installed after the warm-up, so every lazily imported repro
        # module already holds the references the tracer must swap, and
        # before set-up, so the machine is built from wrapped classes.
        tracer = Tracer()
        tracer.install()
        try:
            traced = repetition(workload, args.seed, clock, tracer)
        finally:
            tracer.uninstall()
        outcomes.append(traced.outcome)
        per_rep.append(layer_values(tracer, traced, untraced_s, split))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl_gz(OUT_DIR / f"trace-{workload.name}.jsonl.gz",
                          traced.origin)
    # Counts are the same in every repetition; times take the median.
    values = {name: statistics.median(rep[name] for rep in per_rep)
              for name in per_rep[0]}
    print(f"# phase, calibrated s: untraced p50 {untraced_s:.4f}  "
          f"n={len(reps) - 1};  traced x "
          f"{values['trace.overhead_ratio']:.2f}  (p50 of {TRACED_REPS}; "
          f"what tracing added per span is taken out of self times)")
    micro_values, rounds = micro.run(
        clock, args.seed, args.seconds * MICRO_SHARE, MIN_MICRO_ROUNDS)
    print(f"# microbenches: p50 of {rounds} kernel-bracketed rounds")
    values.update(micro_values)
    return values, outcomes


def run_workload(args, spec: dict) -> int:
    workload = WORKLOADS[args.workload]
    clock = Clock()
    print(f"# workload {workload.name}  seed {args.seed}  "
          f"numpy streams {'on' if streams.VECTORIZE else 'off'}")
    run = traced_run if args.trace else end_to_end_run
    values, outcomes = run(workload, args, clock)
    problems = check(workload, args.seed, outcomes, args.write_expected)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    values["failed_op_share"] = failed / attempted
    values["sim_mismatch"] = len(problems)
    for problem in problems:
        print(f"# MISMATCH {problem}")
    raw = clock.kernel_s
    print(f"# raw kernel s: p50 {statistics.median(raw):.4f}  "
          f"min {min(raw):.4f}  max {max(raw):.4f}  n={len(raw)}  "
          f"(defined as {REFERENCE_S} calibrated s)")
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric {metric['name']} {value:.6g} {metric['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(argv: list) -> int:
    """Each workload in its own child process, one after another."""
    worst = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, *argv])
        worst = max(worst, done.returncode)
    return worst


def main(argv: list) -> int:
    # The one list of what is measured: names, units, measuring time.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="re-baseline expected/<workload>.json "
                             "from this run's simulated signature")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(argv)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
