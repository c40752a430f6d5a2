"""Whole requests to the experiment runner: a subset of the
instrumentation planes, a fault scenario, a sample interval, either
engine, cold or restored builds, in-process or forked, over one or two
tiny fig6 or ablation cells whose payload also carries the machine's
end-of-run counters."""

import dataclasses
from dataclasses import dataclass
from typing import Optional

from hypothesis import strategies as st

from repro.experiments import ablations, chaos, fig6
from repro.experiments.harness import ExperimentSpec
from repro.experiments.parallel import PLANES, filter_cells

#: The scale ``tests/test_refusals.one_cell`` uses.
SCALE = dict(nkeys=1000, cgroup_pages=64, nops=300, warmup_ops=100,
             nthreads=2, zipf_theta=1.1)

#: ``Machine.metrics().stats`` counters a run's frames must sum to.
STAT_COUNTERS = ("lookups", "hits", "misses", "insertions", "evictions",
                 "refaults", "io_errors")

#: A fault-free cell at :data:`SCALE` runs 5-11 virtual ms.  Scenario
#: windows are fractions of the horizon, so these land inside the run;
#: the last sample interval is longer than any run, so the whole run
#: lands in the one tail frame ``finalize`` closes.
HORIZONS_US = (4_000.0, 10_000.0)
SAMPLE_INTERVALS_US = (500.0, 2_000.0, 10_000_000.0)


def counted_cell(run_one=fig6.run_one, **kwargs) -> dict:
    """``fig6.cell``'s run, reporting the virtual-time results plus the
    machine's end-of-run integer counters."""
    result, env = run_one(**kwargs)
    metrics = env.machine.metrics()
    return {"throughput": result.throughput,
            "p99_read_us": result.p99_read_us,
            "stats": {k: metrics.stats[k] for k in STAT_COUNTERS},
            "disk": {k: metrics.disk[k]
                     for k in ("total_pages", "reads", "writes")}}


def counted_ablation(**kwargs) -> dict:
    """The same report of ``ablations.cell``'s run."""
    return counted_cell(ablations.run_one, **kwargs)


@dataclass(frozen=True)
class PlaneCase:
    #: Requested planes, in attach order.
    planes: tuple
    #: ``chaos.scenario_plan`` arguments, used when ``"faults"`` is on.
    scenario: str
    seed: int
    horizon_us: float
    sample_interval_us: float
    #: ``"auto"`` is a spelling of ``"replay"``.
    mode: str
    snapshot: str
    #: ``None``: serial, in-process.
    jobs: Optional[int]
    policies: tuple
    workload: str
    #: Rows of the ablations plan to run instead of the fig6 cells
    #: (empty: fig6).
    variants: tuple

    def spec(self) -> ExperimentSpec:
        """A fresh plan; its merged table is every cell's whole payload
        (``filter_cells``' raw rendering), one JSON document per row."""
        if self.variants:
            spec = ablations.plan(quick=True, scale=SCALE)
            spec.cells = [dataclasses.replace(cell, fn=counted_ablation)
                          for cell in spec.cells
                          if cell.cell_id in self.variants]
        else:
            spec = fig6.plan(quick=True, policies=self.policies,
                             workloads=(self.workload,),
                             scale=dict(fig6.QUICK_SCALE, **SCALE))
            spec.cells = [dataclasses.replace(cell, fn=counted_cell)
                          for cell in spec.cells]
        return filter_cells(spec, "*")

    def plane_kwargs(self, planes=None) -> dict:
        """``execute`` keywords switching on ``planes`` (default: all
        this case requests)."""
        values = {
            "faults": chaos.scenario_plan(self.scenario, self.horizon_us,
                                          seed=self.seed),
            "trace": True, "breakdown": True,
            "timeseries": self.sample_interval_us}
        return {plane: values[plane]
                for plane in (self.planes if planes is None else planes)}

    def how_kwargs(self) -> dict:
        """``execute`` keywords for this case's engine, build and
        fan-out."""
        return dict(mode=self.mode, snapshot=self.snapshot,
                    serial=self.jobs is None, jobs=self.jobs)


def plane_cases() -> st.SearchStrategy:
    scenarios = [s for s in chaos.SCENARIOS if s != "baseline"]
    return st.builds(
        PlaneCase,
        planes=st.tuples(*[st.booleans()] * len(PLANES)).map(
            lambda on: tuple(p for p, flag in zip(PLANES, on) if flag)),
        scenario=st.sampled_from(scenarios),
        seed=st.integers(0, 2 ** 16),
        horizon_us=st.sampled_from(HORIZONS_US),
        sample_interval_us=st.sampled_from(SAMPLE_INTERVALS_US),
        mode=st.sampled_from(("full", "replay", "auto")),
        snapshot=st.sampled_from(("off", "on", "auto")),
        jobs=st.sampled_from((None, 2, 3)),
        policies=st.lists(st.sampled_from(("default", "mglru", "mru",
                                           "lfu", "s3fifo")),
                          min_size=1, max_size=2, unique=True).map(tuple),
        workload=st.sampled_from(("A", "C", "F")),
        variants=st.one_of(
            st.just(()),
            st.lists(st.sampled_from(sorted(ablations.VARIANTS)),
                     min_size=1, max_size=2, unique=True).map(tuple)))
