#!/usr/bin/env python
"""Application-informed policies: telling the kernel what you know.

Two scenarios from §5.5 and §5.6 of the paper, both built on the idea
that the *application* knows which of its threads do disposable I/O:

1. **GET-SCAN priority** — a database registers its scan thread-pool's
   TIDs; the policy gives scan-fetched folios their own eviction list
   and sacrifices them first, protecting point-lookup latency.
2. **Compaction admission filter** — an LSM store registers its
   background compaction threads; folios they fault in are never
   admitted to the cache at all (direct-I/O-style service).

Both sweeps go through the one-call facade, :func:`repro.api.run`,
on the reference full engine; ``mode="replay"`` prints the same
tables, since the replay engine runs the same loop, TID-map updates
from live threads included.

Run it::

    python examples/application_informed.py
"""

from repro import api
from repro.experiments import admission, fig10

GET_SCAN_VARIANTS = (
    ("default", "default", None),
    ("fadv-dontneed", "default", "dontneed"),
    ("cache_ext get-scan", "get-scan", None),
)

GET_SCAN_SCALE = dict(nkeys=10000, cgroup_pages=256, n_gets=10000,
                      scan_len=2000, get_threads=2, scan_threads=1)

ADMISSION_SCALE = dict(nkeys=10000, cgroup_pages=256, nops=8000,
                       warmup_ops=2000, nthreads=4)


def main():
    print("1) GET-SCAN priority policy (§6.1.4)\n")
    report = api.run(fig10.plan(variants=GET_SCAN_VARIANTS,
                                scale=GET_SCAN_SCALE))
    print(report.result.format_table())

    print("\n2) compaction admission filter (§6.1.5)\n")
    report = api.run(admission.plan(scale=ADMISSION_SCALE))
    print(report.result.format_table())
    print("\nThe filter keeps compaction's bulk reads out of the page "
          "cache,\nso the read path's working set survives compaction "
          "storms.")


if __name__ == "__main__":
    main()
