"""Trace-driven cache simulation.

The paper's closing pitch is that "any publicly available policy can
be used by anyone, lowering the barrier to ... experimenting with
eviction policies on different workloads" (§1).  This module is that
workflow as a library call and a CLI: feed it an access trace — pairs
of ``(file, page)`` or just page numbers — and it replays the trace
against any set of policies on a machine sized to your cache budget.

Trace format (text, one access per line)::

    <file-id> <page-index> [r|w]

Lines starting with ``#`` are ignored.  A bare integer per line is
treated as ``0 <page> r``.

CLI::

    python -m repro.tools.cachesim TRACE --cache-pages 1024 \
        --policies default,lfu,s3fifo,sieve

Each policy gets its own machine; one engine thread steps the trace
through :meth:`Filesystem.read_page` / :meth:`write_page`, one access
per turn, so the counts are the page cache's own — agent-backed
policies (LHD) included, whose reconfiguration thread runs on the same
engine.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.experiments.harness import POLICY_NAMES, attach_policy
from repro.kernel import Machine
from repro.tools import _cli


@dataclass
class TraceReport:
    """Replay outcome for one policy."""

    policy: str
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_pages: int = 0
    elapsed_ms: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


def parse_trace(lines: Iterable[str]) -> list[tuple]:
    """Parse the text trace format into (file_id, page, is_write)."""
    out = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) == 1:
                access = (0, int(parts[0]), False)
            else:
                is_write = len(parts) > 2 and parts[2].lower() == "w"
                access = (int(parts[0]), int(parts[1]), is_write)
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {line!r}") from exc
        if access[1] < 0:
            raise ValueError(
                f"trace line {lineno}: negative page index in {line!r}")
        out.append(access)
    return out


def read_trace(path: str) -> list[tuple]:
    """:func:`parse_trace` over ``path`` (``-`` reads stdin)."""
    if path == "-":
        return parse_trace(sys.stdin)
    with open(path) as source:
        return parse_trace(source)


def replay_trace(trace: list[tuple], policy: str,
                 cache_pages: int, readahead: bool = False) -> TraceReport:
    """Replay one parsed trace against one policy."""
    if cache_pages <= 0:
        raise ValueError("cache_pages must be positive")
    kernel = "mglru" if policy == "mglru" else "default"
    machine = Machine(kernel_policy=kernel)
    cgroup = machine.new_cgroup("trace", limit_pages=cache_pages)
    attach_policy(machine, cgroup, policy, cache_pages)

    # Size the trace's files.  No page contents are stored: nothing
    # reads them, and a store entry per index would cost memory and
    # time in the largest index rather than in the trace's length.
    files = {}
    for file_id, page, _w in trace:
        f = files.get(file_id)
        if f is None:
            f = machine.fs.create(f"trace/file-{file_id}")
            f.ra_enabled = readahead
            files[file_id] = f
        f.npages = max(f.npages, page + 1)

    def step(thread, it=iter(trace)):
        access = next(it, None)
        if access is None:
            return False
        file_id, page, is_write = access
        if is_write:
            machine.fs.write_page(files[file_id], page, "w")
        else:
            machine.fs.read_page(files[file_id], page)
        return True

    thread = machine.spawn("replay", step, cgroup=cgroup)
    machine.run()

    report = TraceReport(policy=policy)
    report.accesses = len(trace)
    report.hits = cgroup.stats.hits
    report.misses = cgroup.stats.misses
    report.evictions = cgroup.stats.evictions
    report.disk_pages = machine.disk.stats.total_pages
    report.elapsed_ms = thread.clock_us / 1000.0
    if cgroup.stats.ext_policy_faults:
        report.notes.append("policy was removed by the watchdog")
    return report


def simulate_policies(trace: list[tuple], policies: Iterable[str],
                      cache_pages: int,
                      readahead: bool = False) -> list[TraceReport]:
    """Replay the trace against each policy; returns one report each."""
    return [replay_trace(trace, policy, cache_pages, readahead)
            for policy in policies]


def format_reports(reports: list[TraceReport]) -> str:
    lines = [f"{'policy':>10s}  {'hit%':>7s}  {'misses':>9s}  "
             f"{'evictions':>9s}  {'disk pages':>10s}  {'time (ms)':>10s}"]
    for r in sorted(reports, key=lambda r: -r.hit_ratio):
        lines.append(
            f"{r.policy:>10s}  {100 * r.hit_ratio:6.2f}%  "
            f"{r.misses:9d}  {r.evictions:9d}  {r.disk_pages:10d}  "
            f"{r.elapsed_ms:10.2f}"
            + ("  (" + "; ".join(r.notes) + ")" if r.notes else ""))
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay an access trace against cache_ext policies")
    parser.add_argument("trace", help="trace file ('-' for stdin)")
    parser.add_argument("--cache-pages", type=int, default=1024)
    parser.add_argument("--policies", default="default,lfu,s3fifo",
                        help="comma-separated policy names")
    parser.add_argument("--readahead", action="store_true",
                        help="enable kernel readahead during replay")
    args = parser.parse_args(argv)
    if args.cache_pages <= 0:
        parser.error(f"--cache-pages must be positive: {args.cache_pages}")
    policies = args.policies.split(",")
    for name in policies:
        if name not in POLICY_NAMES:
            parser.error(f"unknown policy {name!r}; choose from: "
                         + ", ".join(POLICY_NAMES))
    trace = _cli.load("cachesim", read_trace, args.trace)
    if trace is None:
        return 1
    if not trace:
        parser.error("empty trace")
    reports = simulate_policies(trace, policies,
                                args.cache_pages, args.readahead)
    print(format_reports(reports))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    _cli.run(main)
