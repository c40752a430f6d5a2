"""Frozen calibration kernel: the benchmark's unit of host time.

The sandbox this benchmark runs on changes speed by up to 2x within a
second (CPU time swings with wall time, so it is machine speed, not
preemption).  Raw seconds of two identical runs therefore disagree by
20-30 %.  Every timed phase is instead bracketed by :func:`kernel` — a
fixed amount of pure-Python work shaped like the simulator's hot path
(dict get/set, ``__slots__`` attribute traffic, ``heapq`` push/pop,
float adds, an LCG) — and reported in *calibrated seconds*: wall
seconds scaled so that the mean of the two adjacent kernel runs reads
:data:`REFERENCE_S`.

Most of the kernel's reads go to an :func:`arena` of 24 MiB that it
walks in LCG order, because the box slows memory-bound code at other
moments than compute-bound code: a kernel that stayed inside the L1
cache swung 1.8x where an LSM cell (40 MB of records, folios and list
nodes) swung 1.55x, which left that cell's calibrated times in the slow
and the fast state 9 % apart (25 % for the fio cell).  Kernels that
walk an arena brought the two states within 0-8 % of each other.

The kernel imports nothing from ``repro``: a speed-up of the simulator
must not shrink the yardstick.  It is **never edited** — changing a
single operation re-bases every number the benchmark has ever printed,
so an edit is a re-baseline and belongs in its own ``benchmark`` issue.
:meth:`Clock.tick` checks the kernel's checksum on every run to catch
an accidental edit.
"""

from __future__ import annotations

import heapq
from array import array
import time

#: What one kernel run is defined to cost, in calibrated seconds.
REFERENCE_S = 0.100
ROUNDS = 20_000
COLD_READS = 3
ARENA_CELLS = 1 << 21
ARENA_KEYS = 1 << 16
#: ``kernel()``'s result; the float only ever accumulates multiples of
#: 0.25 far below 2**53, so both parts are exact.
CHECKSUM = (65776808, 31458321.0)


class _Node:
    __slots__ = ("clock", "hits")

    def __init__(self) -> None:
        self.clock = 0.0
        self.hits = 0


def arena() -> tuple:
    """The read-only structures the kernel walks: 16 MB of cells (each
    holds its own index; the kernel hashes it into the next cell to
    read, so the two loads depend on each other) and a dict too big for
    the L2 cache, with its keys.  Arrays and dicts of numbers cost the
    cyclic collector nothing, so the arena adds nothing to the
    collections of the program being measured."""
    table = {(k * 2654435761) & 0xFFFFFFF: k for k in range(ARENA_KEYS)}
    return array("q", range(ARENA_CELLS)), table, array("q", table)


def kernel(arena: tuple) -> tuple:
    """The frozen work unit; returns its checksum.  Writes only to what
    it allocates itself, so every run over one arena is the same run."""
    cells, table, keys = arena
    local = [_Node() for _ in range(64)]
    small: dict = {}
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    acc = 0.0
    for i in range(ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        y = x
        found = 0
        for _ in range(COLD_READS):
            far = cells[(y >> 7) % ARENA_CELLS]
            acc += cells[(far * 40503 + 1) % ARENA_CELLS] & 1023
            found = table.get(keys[(y >> 5) % ARENA_KEYS])
            y = (y * 1103515245 + 12345) & 0x7FFFFFFF
        node = local[x & 63]
        node.hits += 1
        node.clock += 0.25
        key = x >> 19
        seen = small.get(key)
        if seen is None:
            small[key] = found
        else:
            small[key] = seen + 1
        push(heap, (node.clock, i))
        if len(heap) > 8:
            acc += pop(heap)[0]
    return x ^ len(small) ^ sum(small.values()), acc


def calibrated(wall_s: float, kernel_before_s: float,
               kernel_after_s: float) -> float:
    """``wall_s`` in calibrated seconds, given its two bracket runs."""
    return wall_s * REFERENCE_S / ((kernel_before_s + kernel_after_s) / 2)


class Clock:
    """Runs the kernel on demand and remembers every raw time, so the
    report can show how noisy the box was."""

    def __init__(self) -> None:
        self._arena = arena()
        self.kernel_s: list[float] = []

    def tick(self) -> float:
        """One kernel run; returns (and records) its wall seconds."""
        t0 = time.perf_counter()
        checksum = kernel(self._arena)
        elapsed = time.perf_counter() - t0
        if checksum != CHECKSUM:
            raise RuntimeError(
                f"calibration kernel was edited: checksum {checksum} "
                f"!= {CHECKSUM} (see calib.py: an edit is a re-baseline)")
        self.kernel_s.append(elapsed)
        return elapsed
