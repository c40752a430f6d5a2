"""User-facing utilities built on the reproduction.

* :mod:`repro.tools.cachesim` — replay an access trace against any
  policy and report hit ratios / simulated performance, the "try your
  workload against every policy" workflow the paper's open-source
  release is meant to enable.  Also a CLI:
  ``python -m repro.tools.cachesim``.
* :mod:`repro.tools.cachetop` — per-cgroup page-cache summaries
  (cachetop style, with latency-breakdown columns when the trace has
  spans) from a :class:`~repro.obs.trace.TraceSession` JSONL export.
  Also a CLI: ``python -m repro.tools.cachetop``.
* :mod:`repro.tools.biolatency` — per-cgroup block I/O queue/service
  histograms.  Also a CLI: ``python -m repro.tools.biolatency``.
* :mod:`repro.tools.cachestat` — machine-wide hit/miss/churn rates per
  virtual-time window.  Also a CLI: ``python -m repro.tools.cachestat``.
* :mod:`repro.tools.faultstat` — injected faults, I/O errors and
  policy quarantines per virtual-time window.  Also a CLI:
  ``python -m repro.tools.faultstat``.
* :mod:`repro.tools.funclatency` — per-(policy, hook) latency
  histograms for the eBPF policy runtime.  Also a CLI:
  ``python -m repro.tools.funclatency``.

Every trace-consuming tool runs either offline (a JSONL trace file) or
live (``--live`` runs the quick fig6 plan's cell — ``faultstat``: the
quick chaos plan's cell — with the collector attached through
``harness.observing``).  ``cachetop``,
``biolatency``, ``cachestat`` and ``faultstat`` all read one fold,
:class:`repro.obs.collectors.CgroupViews`; only ``funclatency`` keys
by (policy, hook) instead of cgroup.
"""

_CACHESIM = ("replay_trace", "simulate_policies", "TraceReport")
_CACHETOP = ("summarize", "format_views", "CgroupView")
_FUNCLATENCY = ("FuncLatencyCollector", "format_funclatency")

__all__ = list(_CACHESIM + _CACHETOP + _FUNCLATENCY)


def __getattr__(name):
    # Lazy re-export: keeps `python -m repro.tools.<mod>` free of the
    # double-import RuntimeWarning.
    if name in _CACHESIM:
        from repro.tools import cachesim
        return getattr(cachesim, name)
    if name in _CACHETOP:
        from repro.tools import cachetop
        return getattr(cachetop, name)
    if name in _FUNCLATENCY:
        from repro.tools import funclatency
        return getattr(funclatency, name)
    raise AttributeError(name)
