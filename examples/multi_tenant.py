#!/usr/bin/env python
"""Per-cgroup policies in a multi-tenant machine (the §6.2 scenario).

Two applications share one machine and one disk:

* a key-value store serving zipfian point lookups (wants LFU);
* a file-search service repeatedly scanning a corpus (wants MRU);

We run them concurrently in two cgroups for a fixed window under four
configurations and show that only the *tailored* per-cgroup setup —
cache_ext's whole reason for per-cgroup struct_ops — improves both.
The sweep goes through :func:`repro.api.run`.  Its cells run to an
engine deadline, a bounded run that either engine serves with the
same loop, so they do not opt into ``mode="replay"``.

Run it::

    python examples/multi_tenant.py
"""

from repro import api
from repro.experiments import fig11

SCALE = {
    "nkeys": 10000,
    "ycsb_cgroup_pages": 256,
    "search_files": 80,
    "search_cgroup_frac": 0.7,
    "window_s": 0.8,
    "nthreads": 2,
}


def main():
    spec = fig11.plan(scale=SCALE)
    report = api.run(spec)
    print(report.result.format_table())
    print(
        "\nGlobal policies sacrifice one tenant for the other; the\n"
        "tailored per-cgroup setup (LFU for the KV store, MRU for the\n"
        "search service) lifts both — Figure 11 of the paper.")


if __name__ == "__main__":
    main()
