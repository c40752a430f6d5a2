"""Virtual-time simulation engine.

All performance numbers in this reproduction are computed in *simulated*
microseconds rather than wall-clock time.  The engine runs a set of
:class:`~repro.sim.engine.SimThread` objects, each owning a local virtual
clock.  The scheduler always steps the runnable thread with the smallest
clock, so concurrently running workloads interleave causally and contend
for shared resources (most importantly the simulated block device).

This mirrors the role of the CloudLab testbed in the paper: it is the
substrate on which throughput and latency are measured, with the advantage
that every run is deterministic and seed-reproducible.
"""

from repro.sim.engine import Engine, SimThread, current_thread
from repro.sim.resources import CpuCosts

__all__ = ["Engine", "SimThread", "CpuCosts", "current_thread"]
