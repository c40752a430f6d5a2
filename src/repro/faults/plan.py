"""Fault plans: declarative, seeded descriptions of what goes wrong.

A :class:`FaultPlan` is pure data — frozen dataclasses describing
*which* faults exist, *when* (virtual-time windows) and *how often*
(per-request probabilities drawn from a seeded RNG).  Arming a plan on
a machine (:meth:`repro.kernel.machine.Machine.arm_faults`) builds a
:class:`~repro.faults.injector.FaultInjector` that consults the plan at
every gated site.

The determinism contract: every fault decision is a function of the
plan's seed and the machine's virtual time only.  No wall clock, no
process-global state — two machines armed with the same plan and driven
by the same workload make identical fault decisions, so serial and
parallel experiment runs stay byte-identical (the property
``python -m repro.obs.guard faults`` enforces).

Fault taxonomy (mirrors the failure modes the stack must degrade
through rather than crash on):

* **device** — transient ``EIO`` completions, latency-spike windows,
  degraded-channel windows (part of the SSD's internal parallelism
  gone), and stuck requests that exceed the per-request deadline;
* **policy** — hook stalls (a cache_ext program burning CPU), kfunc
  misuse (error returns from the helper API), and corrupted
  eviction-candidate lists (garbage entries the kernel must reject);
* **memory** — a sudden cgroup limit shrink mid-run (the "neighbour
  container landed" event).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

#: Window end meaning "until the end of the run".
FOREVER = math.inf


@dataclass(frozen=True)
class DeviceFault:
    """One device-level fault source.

    ``kind`` selects the behaviour:

    * ``"eio"`` — each matching request fails with :class:`EIO` with
      probability ``prob`` (the device still occupies a channel for the
      full service time: the electronics did the work, the transfer
      failed);
    * ``"latency"`` — service time of matching requests is multiplied
      by ``latency_mult`` inside the window (a brownout);
    * ``"degrade"`` — ``channels_down`` of the device's channels are
      unavailable inside the window (firmware rebuilding a die);
    * ``"stuck"`` — with probability ``prob`` a request takes
      ``stuck_extra_us`` additional microseconds.  Combined with a
      :attr:`FaultPlan.request_deadline_us` this produces
      :class:`ETIMEDOUT` completions while the channel stays busy —
      the classic hung-request pattern.
    """

    kind: str  # "eio" | "latency" | "degrade" | "stuck"
    start_us: float = 0.0
    end_us: float = FOREVER
    #: Which operations the fault applies to.
    ops: tuple = ("read", "write")
    #: Per-request probability for "eio" / "stuck" (1.0 = always; the
    #: RNG is only consulted for probabilities strictly inside (0, 1),
    #: keeping the seeded stream stable when plans change shape).
    prob: float = 0.0
    latency_mult: float = 1.0
    channels_down: int = 0
    stuck_extra_us: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("eio", "latency", "degrade", "stuck"):
            raise ValueError(f"unknown device fault kind: {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"probability out of range: {self.prob}")
        # Anything that would make a service time, a channel count or
        # a window run backwards is a malformed plan, not a fault.
        if self.start_us > self.end_us:
            raise ValueError(f"start_us {self.start_us} after end_us "
                             f"{self.end_us}")
        if not set(self.ops) <= {"read", "write"}:
            raise ValueError(f"ops must be 'read'/'write': {self.ops!r}")
        for name in ("latency_mult", "channels_down", "stuck_extra_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative {name}: {getattr(self, name)}")


@dataclass(frozen=True)
class PolicyFault:
    """One cache_ext policy-level fault source.

    * ``"hook_stall"`` — with probability ``prob`` a hook dispatch
      burns ``stall_us`` extra CPU (charged as hook time, so a
      per-hook runtime budget sees it);
    * ``"kfunc_misuse"`` — with probability ``prob`` a hook dispatch
      also records one kfunc error return (the buggy-policy
      indicator);
    * ``"corrupt_candidates"`` — every ``evict_folios`` request inside
      the window gets ``corrupt_entries`` garbage candidates appended
      (stale pointers the kernel-side validation must reject).
    """

    kind: str  # "hook_stall" | "kfunc_misuse" | "corrupt_candidates"
    start_us: float = 0.0
    end_us: float = FOREVER
    #: Which cgroup's policy the fault targets ("*" = any).
    cgroup: str = "*"
    prob: float = 1.0
    stall_us: float = 0.0
    corrupt_entries: int = 4

    def __post_init__(self) -> None:
        if self.kind not in ("hook_stall", "kfunc_misuse",
                             "corrupt_candidates"):
            raise ValueError(f"unknown policy fault kind: {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"probability out of range: {self.prob}")

    def matches(self, now_us: float, cgroup_name: str) -> bool:
        return (self.start_us <= now_us < self.end_us
                and (self.cgroup == "*" or self.cgroup == cgroup_name))


@dataclass(frozen=True)
class MemoryFault:
    """A one-shot cgroup limit shrink at virtual time ``at_us``.

    ``shrink_to_pages`` sets the new absolute limit; alternatively
    ``shrink_factor`` scales the limit at fire time (0.5 = halve it).
    The shrink triggers immediate direct reclaim; if reclaim cannot
    make progress the failure is absorbed (counted, not raised) — the
    fault plane never crashes the host.
    """

    cgroup: str
    at_us: float
    shrink_to_pages: Optional[int] = None
    shrink_factor: Optional[float] = None
    #: Reclaim down to the new limit right away (memory.max semantics).
    reclaim: bool = True

    def __post_init__(self) -> None:
        if (self.shrink_to_pages is None) == (self.shrink_factor is None):
            raise ValueError(
                "exactly one of shrink_to_pages/shrink_factor required")


@dataclass(frozen=True)
class QuarantineConfig:
    """Backoff schedule for re-attaching watchdog-detached policies.

    After the n-th detach of a cgroup's policy, re-attachment becomes
    eligible ``base_backoff_us * multiplier**(n-1)`` after the detach
    (capped at ``max_backoff_us``); the attempt itself happens lazily
    on the cgroup's next reclaim pass.  ``max_reattaches`` bounds the
    total number of re-attach attempts per cgroup (None = unbounded).
    """

    base_backoff_us: float = 10_000.0
    multiplier: float = 2.0
    max_backoff_us: float = 10_000_000.0
    max_reattaches: Optional[int] = None


@dataclass(frozen=True)
class FaultPlan:
    """The full armed-fault description for one machine."""

    seed: int = 1
    device: tuple = ()
    policy: tuple = ()
    memory: tuple = ()
    #: Per-request completion deadline enforced by the block layer
    #: (None = no deadline).  Requests whose completion would exceed
    #: it raise :class:`ETIMEDOUT` at the deadline; the channel stays
    #: busy until the real completion (the request is stuck, not
    #: cancelled).
    request_deadline_us: Optional[float] = None
    #: Per-hook runtime budget for cache_ext policies (None = off).
    #: A single hook dispatch charging more CPU than this is treated
    #: exactly like a faulting program: watchdog detach.
    hook_budget_us: Optional[float] = None
    #: Quarantine/backoff re-attach of detached policies (None = a
    #: watchdog detach stays permanent, the pre-fault-plane default).
    quarantine: Optional[QuarantineConfig] = None

    def __post_init__(self) -> None:
        # Tolerate lists in user code; store tuples (hashable, frozen).
        object.__setattr__(self, "device", tuple(self.device))
        object.__setattr__(self, "policy", tuple(self.policy))
        object.__setattr__(self, "memory", tuple(self.memory))
        if self.request_deadline_us is not None \
                and not self.request_deadline_us > 0.0:
            raise ValueError(f"request_deadline_us must be positive: "
                             f"{self.request_deadline_us}")

    def describe(self) -> dict:
        """JSON-safe summary (experiment metadata / trace payloads)."""
        return {
            "seed": self.seed,
            "device": [f.kind for f in self.device],
            "policy": [f.kind for f in self.policy],
            "memory": [f.cgroup for f in self.memory],
            "request_deadline_us": self.request_deadline_us,
            "hook_budget_us": self.hook_budget_us,
            "quarantine": self.quarantine is not None,
        }
