"""Experiment harness: one module per table/figure in the paper.

Every module exposes ``plan(quick=False, ...) -> ExperimentSpec``:
the plan decomposes the experiment into independent cells (one
simulated machine each) that :mod:`repro.experiments.parallel` fans
across worker processes, with a merge step that is a pure function of
the cell payloads — serial and parallel runs emit byte-identical
tables.  A plan is run one way, :func:`parallel.execute
<repro.experiments.parallel.execute>`: from code as
``repro.api.run(fig6.plan(quick=True)).result``, from the shell as
``python -m repro.experiments.parallel fig6 --quick``;
``python -m repro.experiments.run_all`` runs every plan in turn.
``quick=True`` shrinks sizes for CI smoke tests; the default sizes are
what ``EXPERIMENTS.md`` reports.  All runs are deterministic (seeded
RNGs + virtual time).

==============  =====================================================
Module          Reproduces
==============  =====================================================
``table1``      Table 1 — userspace-dispatch overhead
``fig6``        Figure 6 — YCSB throughput and P99 across policies
``fig7``        Figure 7 — YCSB throughput vs. total disk I/O
``fig8``        Figure 8 — Twitter cluster traces across policies
``fig9``        Figure 9 — file search (MRU vs default vs MGLRU)
``fig10``       Figure 10 — GET-SCAN mix incl. fadvise variants
``admission``   §6.1.5 — compaction admission filter
``table3``      Table 3 — policy implementation LoC
``fig11``       Figure 11 — per-cgroup policy isolation
``table4``      Table 4 — no-op policy CPU overhead (fio)
``table5``      Table 5 — cache_ext MGLRU vs native MGLRU fidelity
``ablations``   beyond the paper — design constants, SIEVE and ARC
``chaos``       beyond the paper — workloads under fault injection
==============  =====================================================
"""

from repro.experiments.harness import (ExperimentResult, attach_policy,
                                       build_machine, make_db_env)

__all__ = ["ExperimentResult", "build_machine", "attach_policy",
           "make_db_env"]
