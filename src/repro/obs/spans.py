"""Span-based latency attribution: where every virtual microsecond goes.

The paper's headline results all reduce to "policy X changed the
hit/miss mix, which changed where time is spent" — this module makes
that decomposition a first-class, exact measurement.  Each simulated
request (a VFS read/write/range, an LSM get/put/scan, one compaction
step) opens a :class:`Span` on its :class:`~repro.sim.engine.SimThread`;
the kernel layers annotate the span as virtual time accrues, and when
the request finishes the span closes into a single ``span:close`` trace
event whose named components sum *exactly* — bit for bit, others
first and ``cpu`` last — to the span's virtual duration (on every span
measured; :meth:`SpanRecorder.close` states the float limit).

Components
----------
``cpu``
    Residual application/kernel CPU: syscall dispatch, LSM bookkeeping,
    per-op application work.  Computed at close as duration minus the
    fold of everything explicitly attributed, so that adding it last
    reproduces the duration (see :meth:`SpanRecorder.close`).
``cache_hit``
    Page-cache hit servicing (``folio_mark_accessed`` cost).
``device_wait``
    Block-device queueing delay (waiting for a free channel).
``device_service``
    Block-device service time (the transfer itself).
``reclaim_stall``
    Direct reclaim on the access path: candidate proposal, validation,
    list surgery, eviction writeback I/O — everything inside
    ``reclaim_cgroup``/``evict_folio`` except kfunc time.
``fsync``
    Time inside ``fsync`` writeback (batched dirty-page write).
``kfunc``
    Time inside cache_ext policy code: hook dispatch plus every kfunc
    the policy's programs ran.  Always attributed as ``kfunc`` even
    when it happens under reclaim, so policy cost is never hidden
    inside ``reclaim_stall``.

Contract
--------
Spans follow the tracepoint contract: they are *gated by* the
``span:close`` tracepoint, so enabling them means subscribing a
consumer (a :class:`~repro.obs.attr.SpanAggregator`, or a
:class:`~repro.obs.trace.TraceSession` matching ``span:*``).  Disabled
cost at every request site is one attribute load plus a branch — the
same pattern ``repro.obs.guard`` budgets for every other tracepoint —
and annotation sites cost one ``thread.span`` load plus a branch.
Spans never advance any clock: results with spans enabled are
bit-identical to results with spans disabled (asserted by
``python -m repro.obs.guard breakdown``).

Two accounting mechanisms cover the kernel layers:

* **explicit charges** — a site that knows its component calls
  ``span.add(comp, us)`` right where it advances the thread clock
  (cache-hit cost, device wait/service, every kfunc/hook charge);
* **section deltas** — a region like direct reclaim brackets itself
  with :meth:`Span.begin_section` / :meth:`Span.end_section`; the
  clock delta across the region, minus whatever was explicitly
  attributed inside it (kfunc time), folds into the section's
  component.  Device I/O inside a section skips its explicit charge
  (see ``BlockDevice._submit``) so eviction writeback lands in
  ``reclaim_stall``, not ``device_*`` — the stall is what the request
  experienced.  Sections nest by save/restore.
"""

from __future__ import annotations

from typing import Optional

#: Fixed component order.  ``cpu`` is the residual: the others fold
#: left to right in this order, then ``cpu`` is added last, and the sum
#: reproduces the span duration (see :meth:`SpanRecorder.close`).
COMPONENTS = ("cpu", "cache_hit", "device_wait", "device_service",
              "reclaim_stall", "fsync", "kfunc")


class Span:
    """One in-flight request's attribution state.

    Lives on ``thread.span`` while the request runs; ``None`` there
    means attribution is off (the annotation sites' single-branch
    check).  Spans are non-reentrant per thread: a nested request
    (e.g. a VFS read inside an LSM get) is absorbed into the outer
    span rather than opening its own.
    """

    __slots__ = ("kind", "open_us", "comps", "attributed", "section",
                 "_sect_open_us", "_sect_attr")

    def __init__(self, kind: str, open_us: float) -> None:
        self.kind = kind
        self.open_us = open_us
        #: component name -> microseconds explicitly attributed.
        self.comps: dict[str, float] = {}
        #: running total of everything in :attr:`comps` (kept alongside
        #: so section deltas need no re-summation).
        self.attributed = 0.0
        #: active section component, or None.  ``BlockDevice._submit``
        #: checks this to fold in-section device time into the section.
        self.section: Optional[str] = None
        self._sect_open_us = 0.0
        self._sect_attr = 0.0

    def add(self, comp: str, us: float) -> None:
        """Explicitly attribute ``us`` microseconds to ``comp``."""
        comps = self.comps
        comps[comp] = comps.get(comp, 0.0) + us
        self.attributed += us

    def begin_section(self, comp: str, now_us: float) -> tuple:
        """Enter a region whose unlabelled time folds into ``comp``.

        Returns the state to pass to :meth:`end_section` (sections
        nest by save/restore — an inner section temporarily shadows
        the outer one).
        """
        state = (self.section, self._sect_open_us, self._sect_attr)
        self.section = comp
        self._sect_open_us = now_us
        self._sect_attr = self.attributed
        return state

    def end_section(self, now_us: float, state: tuple) -> None:
        """Leave a region: charge the clock delta minus whatever was
        explicitly attributed inside (kfunc time stays ``kfunc``)."""
        inner = self.attributed - self._sect_attr
        fold = (now_us - self._sect_open_us) - inner
        if fold > 0.0:
            comp = self.section
            comps = self.comps
            comps[comp] = comps.get(comp, 0.0) + fold
            self.attributed += fold
        self.section, self._sect_open_us, self._sect_attr = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.kind!r}, open={self.open_us:.1f}us, "
                f"attributed={self.attributed:.2f}us)")


class SpanRecorder:
    """Opens and closes spans for one machine.

    Gated by the machine's ``span:close`` tracepoint: request sites
    check ``recorder.tracepoint.enabled`` (through their own cached
    reference) before opening, so with no consumer attached the whole
    subsystem reduces to the standard disabled-tracepoint pattern.
    """

    __slots__ = ("tracepoint",)

    def __init__(self, registry) -> None:
        self.tracepoint = registry.tracepoint("span:close")

    @property
    def enabled(self) -> bool:
        return self.tracepoint.enabled

    def open(self, thread, kind: str) -> Span:
        """Open a span for the request starting on ``thread`` now.

        Callers must have checked ``enabled`` and that ``thread.span``
        is None (non-reentrancy) — the request-site pattern is::

            span = None
            tp = self._tp_span
            if tp.enabled:
                thread = current_thread()
                if thread is not None and thread.span is None:
                    span = self._spans.open(thread, "vfs.read")
            try:
                ...  # request body
            finally:
                if span is not None:
                    self._spans.close(thread, span)
        """
        span = Span(kind, thread.clock_us)
        thread.span = span
        return span

    def close(self, thread, span: Span) -> None:
        """Close ``span``: set the residual ``cpu`` component and emit
        one ``span:close`` event.

        The canonical fold: the components other than ``cpu``, left to
        right in :data:`COMPONENTS` order from ``0.0``, then ``cpu``.
        ``cpu = dur - acc`` with ``acc`` that fold, so the canonical fold
        is ``acc + cpu``.  When ``dur - acc`` is exact (always, by
        Sterbenz's lemma, once ``acc >= dur / 2``) it equals ``dur``
        bitwise.  Otherwise ``cpu`` is the float nearest the exact
        residual, and no other float folds closer: ``acc + cpu == dur``
        unless no float ``cpu`` gives it.  That can happen.  With
        ``dur = 7991.704504922217`` and ``acc = 3660.447816470148`` the
        exact sum of ``acc`` and either neighbour of the residual is a
        tie that round-half-even sends past ``dur``.  So the contract is
        as measured: every span that tier-1 and quick fig6 produce folds
        to ``dur_us`` bitwise (``tests/test_spans.py`` pins the limit).
        ``cpu`` may be a few ulps below zero where the others' fold
        rounds above ``dur``; it is kept so, since clamping it would
        break the fold.
        """
        thread.span = None
        dur = thread.clock_us - span.open_us
        comps = span.comps
        others = [comps.get(c, 0.0) for c in COMPONENTS[1:]]
        acc = 0.0
        for v in others:
            acc += v
        cpu = dur - acc
        tp = self.tracepoint
        if not tp.enabled:  # consumer detached mid-request
            return
        cgroup = thread.cgroup
        if cgroup is not None and cgroup.ext_policy is not None:
            policy = cgroup.ext_policy.name
        else:
            policy = "kernel"
        data = {"span": span.kind, "policy": policy, "dur_us": dur}
        if cpu != 0.0:
            data["cpu"] = cpu
        for comp, value in zip(COMPONENTS[1:], others):
            if value != 0.0:
                data[comp] = value
        tp.emit(thread.clock_us, thread.cgroup_name, thread.tid, **data)
