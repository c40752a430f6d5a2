"""Least Hit Density (LHD) eviction policy (§5.2 of the paper).

LHD [Beckmann et al., NSDI '18] predicts each object's *hit density* —
expected hits per unit of cache space-time — from conditional
probabilities over object features, and evicts the lowest-density
objects.  The cache_ext port in the paper (and here) works like this:

* one eviction list; candidates chosen by **batch scoring** with the
  lowest hit density;
* folios are grouped into *classes* by their age at last access; each
  (class, age-bucket) cell keeps hit and eviction counts;
* hit densities are recomputed periodically ("reconfiguration") with an
  exponentially weighted moving average.  Reconfiguration is too
  expensive for the access hot path, so the hot path posts a ring-buffer
  event and a **userspace agent** triggers a BPF_PROG_TYPE_SYSCALL
  program that does the heavy lifting (:func:`spawn_lhd_agent`);
* eBPF has no floating point, so densities are **fixed-point** values
  scaled by :data:`FP` — exactly the paper's workaround.

Ages are bucketed logarithmically (bucket = ilog2(age/quantum + 1)),
and a folio's class is the age bucket observed at its previous access,
capturing the "last access and age at that time" feature pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache_ext.kfuncs import (MODE_SCORING, ktime_us, list_add,
                                    list_create, list_iterate)
from repro.cache_ext.ops import CacheExtOps
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.ringbuf import RingBuffer
from repro.ebpf.runtime import bpf_program, run_syscall_prog
from repro.ebpf.verifier import verify_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.machine import Machine

#: Fixed-point scale for densities (no floats in BPF).
FP = 65536
#: Logarithmic age buckets.
AGE_BUCKETS = 16
#: Folio classes (age bucket at previous access, capped).  Eight
#: classes separate hot (short-gap) pages from warm and cold ones.
CLASSES = 8
#: Microseconds per age quantum before the log bucketing.
AGE_QUANTUM_US = 1000
#: Events (insertions + accesses) between reconfigurations.  The paper
#: uses ~2**20 at full scale; scaled down with everything else so the
#: densities adapt several times within one experiment run.
RECONFIG_EVERY = 4096

DEFAULT_NR_SCAN = 512

# bss layout
_LIST = 0
_EVENTS = 1
_RECONFIGS = 2


def make_lhd_policy(map_entries: int = 65536,
                    nr_scan: int = DEFAULT_NR_SCAN) -> CacheExtOps:
    """Build an LHD policy instance.

    The returned ops expose ``user_maps["reconfig_rb"]`` (the
    notification ring buffer) and ``user_maps["reconfigure"]`` (the
    syscall program); :func:`spawn_lhd_agent` wires them up.
    """
    # folio -> (last_access_us, class_id)
    meta = HashMap(max_entries=map_entries, name="lhd_meta")
    cells = CLASSES * AGE_BUCKETS
    hits = ArrayMap(cells, name="lhd_hits")
    evictions = ArrayMap(cells, name="lhd_evictions")
    avg_hits = ArrayMap(cells, name="lhd_avg_hits")
    avg_evictions = ArrayMap(cells, name="lhd_avg_evictions")
    density = ArrayMap(cells, name="lhd_density")
    bss = ArrayMap(4, name="lhd_bss")
    reconfig_rb = RingBuffer(capacity=64, name="lhd_reconfig")

    @bpf_program
    def lhd_count_event():
        events = bss.atomic_add(_EVENTS, 1)
        if events % RECONFIG_EVERY == 0:
            reconfig_rb.output(events)

    @bpf_program
    def lhd_policy_init(memcg):
        lhd_list = list_create(memcg)
        if lhd_list < 0:
            return lhd_list
        bss.update(_LIST, lhd_list)
        return 0

    @bpf_program
    def lhd_folio_added(folio):
        list_add(bss.lookup(_LIST), folio, True)
        # New folios join the *unproven* class (longest observed gap);
        # they must demonstrate hits to graduate to a hotter class.
        meta.update(folio.id, (ktime_us(), CLASSES - 1))
        lhd_count_event()

    # The three programs below (accessed on every cache hit, score at
    # nr_scan per reclaim pass, removed on every eviction) each write
    # out the age bucket, ilog2(age/quantum + 1), as a loop-free shift
    # cascade rather than calling a shared program: two Python frames
    # cheaper per invocation — a real cost at millions of score calls
    # per cell.

    @bpf_program
    def lhd_folio_accessed(folio):
        info = meta.lookup(folio.id)
        now = ktime_us()
        if info is None:
            meta.update(folio.id, (now, 0))
            return
        value = (now - info[0]) // AGE_QUANTUM_US + 1
        age = 0
        if value >= 256:
            age += 8
            value >>= 8
        if value >= 16:
            age += 4
            value >>= 4
        if value >= 4:
            age += 2
            value >>= 2
        if value >= 2:
            age += 1
        if age > AGE_BUCKETS - 1:
            age = AGE_BUCKETS - 1
        hits.atomic_add(info[1] * AGE_BUCKETS + age, 1)
        # Class follows the access-gap history with smoothing (EWMA of
        # log-gap) so one long gap does not demote a hot folio.
        klass = (info[1] + age) // 2
        if klass > CLASSES - 1:
            klass = CLASSES - 1
        meta.update(folio.id, (now, klass))
        lhd_count_event()

    @bpf_program
    def lhd_score(i, folio):
        info = meta.lookup(folio.id)
        if info is None:
            return 0
        value = (ktime_us() - info[0]) // AGE_QUANTUM_US + 1
        age = 0
        if value >= 256:
            age += 8
            value >>= 8
        if value >= 16:
            age += 4
            value >>= 4
        if value >= 4:
            age += 2
            value >>= 2
        if value >= 2:
            age += 1
        if age > AGE_BUCKETS - 1:
            age = AGE_BUCKETS - 1
        return density.lookup(info[1] * AGE_BUCKETS + age)

    @bpf_program
    def lhd_evict_folios(ctx, memcg):
        list_iterate(memcg, bss.lookup(_LIST), lhd_score, ctx,
                     MODE_SCORING, nr_scan)

    @bpf_program
    def lhd_folio_removed(folio):
        info = meta.lookup(folio.id)
        if info is not None:
            value = (ktime_us() - info[0]) // AGE_QUANTUM_US + 1
            age = 0
            if value >= 256:
                age += 8
                value >>= 8
            if value >= 16:
                age += 4
                value >>= 4
            if value >= 4:
                age += 2
                value >>= 2
            if value >= 2:
                age += 1
            if age > AGE_BUCKETS - 1:
                age = AGE_BUCKETS - 1
            evictions.atomic_add(info[1] * AGE_BUCKETS + age, 1)
            meta.delete(folio.id)

    @bpf_program(allow_loops=True)
    def lhd_reconfigure():
        # EWMA-fold the live windows into the averages, then recompute
        # fixed-point densities.  Density at (class, age) is computed
        # over the *tail* of the age distribution — a folio of age a
        # earns credit for every future hit its class produces at ages
        # >= a, divided by the expected space-time those events occupy
        # (log buckets double in width, hence the w = ev + 2*w
        # recurrence).  This is the conditional-probability core of
        # LHD, in integer arithmetic.
        for cell in range(CLASSES * AGE_BUCKETS):
            folded_h = (avg_hits.lookup(cell) + hits.lookup(cell)) // 2
            folded_e = (avg_evictions.lookup(cell)
                        + evictions.lookup(cell)) // 2
            avg_hits.update(cell, folded_h)
            avg_evictions.update(cell, folded_e)
            hits.update(cell, 0)
            evictions.update(cell, 0)
        for klass in range(CLASSES):
            hits_tail = 0
            events_tail = 0
            for rev in range(AGE_BUCKETS):
                age = AGE_BUCKETS - 1 - rev
                cell = klass * AGE_BUCKETS + age
                hits_tail += avg_hits.lookup(cell)
                events_tail += (avg_hits.lookup(cell)
                                + avg_evictions.lookup(cell))
                if events_tail > 0:
                    # P(hit eventually | class, survived to this age),
                    # discounted by the expected remaining lifetime
                    # (one log-bucket span per age step).
                    cell_density = (FP * hits_tail // events_tail
                                    // (age + 1))
                else:
                    # Unobserved cells get a neutral, age-decaying
                    # prior so fresh folios are not evicted purely for
                    # lack of statistics.
                    cell_density = FP // (2 * (age + 1))
                density.update(cell, cell_density)
        bss.atomic_add(_RECONFIGS, 1)
        return 0

    return CacheExtOps(
        name="lhd",
        policy_init=lhd_policy_init,
        evict_folios=lhd_evict_folios,
        folio_added=lhd_folio_added,
        folio_accessed=lhd_folio_accessed,
        folio_removed=lhd_folio_removed,
        user_maps={
            "reconfig_rb": reconfig_rb,
            "reconfigure": lhd_reconfigure,
            "bss": bss,
        },
    )


#: Userspace agent poll interval when idle.
AGENT_POLL_US = 500.0
#: CPU cost of one reconfiguration syscall-program run, charged to the
#: agent thread (it runs off the hot path — that is the whole point).
RECONFIG_COST_US = 50.0


def spawn_lhd_agent(machine: "Machine", ops: CacheExtOps):
    """Start LHD's userspace reconfiguration daemon.

    Drains the notification ring buffer; on any event, invokes the
    reconfiguration program BPF_PROG_TYPE_SYSCALL-style.
    """
    rb: RingBuffer = ops.user_maps["reconfig_rb"]
    prog = ops.user_maps["reconfigure"]
    verify_program(prog)

    def agent_step(thread) -> bool:
        if rb.drain():
            run_syscall_prog(prog)
            thread.advance(RECONFIG_COST_US)
        else:
            thread.advance(AGENT_POLL_US)
        return True

    return machine.spawn("lhd-agent", agent_step, daemon=True)


def init_lhd(machine: "Machine", ops: CacheExtOps):
    """Post-attach initialization for an already-loaded LHD policy.

    Runs one initial reconfiguration (so densities start from the
    neutral prior rather than all-zero) and starts the userspace
    agent.  Pairs with the one-call attach API::

        ops = make_lhd_policy(map_entries=4096)
        machine.attach(cgroup, ops)
        init_lhd(machine, ops)

    Returns the agent thread.
    """
    prog = ops.user_maps["reconfigure"]
    verify_program(prog)
    run_syscall_prog(prog)
    return spawn_lhd_agent(machine, ops)

