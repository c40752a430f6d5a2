"""The paper's policy suite, implemented on cache_ext.

Each module exposes a ``make_*_policy`` factory returning a
:class:`~repro.cache_ext.ops.CacheExtOps`.  Factories create fresh BPF
maps per load (the userspace loader side); the returned programs are
the "eBPF side" and are written in verifier-restricted Python — no
floats, no unbounded loops, state only in maps, kernel interaction
only through kfuncs.

Policy globals (e.g. list ids assigned in ``policy_init``) follow the
BPF convention of living in a small ``ArrayMap`` — real eBPF global
variables are array-map-backed too.

=================  =============================================
Module             Paper section
=================  =============================================
``noop``           §6.3.2 (no-op overhead baseline)
``fifo``           §5.4
``mru``            §5.4
``lfu``            §4.2.5 / Figure 4
``s3fifo``         §5.1
``lhd``            §5.2
``mglru``          §5.3
``get_scan``       §5.5 / Figure 5
``admission``      §5.6
``userspace``      §4.1 / Table 1 (userspace-dispatch strawman)
=================  =============================================
"""

from repro.policies.admission import make_admission_filter_policy
from repro.policies.arc import make_arc_policy
from repro.policies.fifo import make_fifo_policy
from repro.policies.get_scan import make_get_scan_policy
from repro.policies.lfu import make_lfu_policy
from repro.policies.lhd import make_lhd_policy
from repro.policies.mglru import make_mglru_policy
from repro.policies.mru import make_mru_policy
from repro.policies.noop import make_noop_policy
from repro.policies.prefetch import make_prefetch_policy
from repro.policies.s3fifo import make_s3fifo_policy
from repro.policies.sieve import make_sieve_policy
from repro.policies.userspace import make_userspace_dispatch_policy

__all__ = [
    "make_noop_policy", "make_fifo_policy", "make_mru_policy",
    "make_lfu_policy", "make_s3fifo_policy", "make_lhd_policy",
    "make_mglru_policy", "make_get_scan_policy",
    "make_admission_filter_policy", "make_userspace_dispatch_policy",
    "make_sieve_policy", "make_prefetch_policy", "make_arc_policy",
]

#: Name -> factory for the generic (application-agnostic) policies the
#: YCSB/Twitter experiments sweep over.
GENERIC_POLICIES = {
    "fifo": make_fifo_policy,
    "mru": make_mru_policy,
    "lfu": make_lfu_policy,
    "s3fifo": make_s3fifo_policy,
    "lhd": make_lhd_policy,
    "mglru-bpf": make_mglru_policy,
}
