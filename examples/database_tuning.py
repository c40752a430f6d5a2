#!/usr/bin/env python
"""Tuning a key-value store's page-cache policy (the §6.1 scenario).

Runs a YCSB-C-style workload against the bundled LSM-tree store under
several eviction policies and prints a Figure-6-style comparison —
this is the "empirically choose the best policy for your workload"
workflow the paper advocates (§6.1.2).

The sweep goes through the one-call facade, :func:`repro.api.run`, on
the trace-replay engine (``mode="replay"``): a policy sweep only needs
the counters, and replay produces them bit-identically to the full
engine, which now runs the same loop at the same speed.

Run it::

    python examples/database_tuning.py
"""

from repro import api
from repro.experiments import fig6

POLICIES = ("default", "mglru", "fifo", "lfu", "s3fifo")

SCALE = {
    "nkeys": 12000,
    "cgroup_pages": 300,     # ~10% of the data, as in the paper
    "nops": 10000,
    "warmup_ops": 6000,
    "nthreads": 4,
    "zipf_theta": 1.1,
}


def main():
    spec = fig6.plan(policies=POLICIES, workloads=["C"], scale=SCALE)
    report = api.run(spec, mode="replay")
    result = report.result
    print(result.format_table())
    best = max(result.rows, key=lambda row: row[2])
    print(f"\nbest policy for this workload: {best[1]}")
    print("(as the paper found: frequency-aware policies win zipfian "
          "point reads;\n re-run with a scan-heavy workload and MRU "
          "would win instead)")


if __name__ == "__main__":
    main()
