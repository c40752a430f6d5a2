"""Tracepoints: the simulator's ftrace analogue.

The real kernel's answer to "what is the page cache doing?" is the
tracing infrastructure — static tracepoints (``mm_filemap_add_to_page_cache``,
``block_rq_issue``/``block_rq_complete``, …) that cost one patched-out
branch when disabled and dispatch structured events to attached
consumers (ftrace ring buffer, BPF programs, perf) when enabled.  This
module reproduces that contract for the simulator:

* a :class:`Tracepoint` is a named emission point.  Disabled dispatch
  is one attribute load plus a branch at the call site::

      tp = self._tp_insert
      if tp.enabled:
          tp.emit(ts, cgroup, tid, file=f, index=i)

  Nothing — not even the payload dict — is built unless a consumer is
  attached, which is what keeps the whole subsystem out of the hot
  path (``python -m repro.obs.guard overhead`` bounds its cost).

* a :class:`TraceRegistry` is the per-:class:`~repro.kernel.machine.Machine`
  namespace of tracepoints (``/sys/kernel/tracing/events`` in kernel
  terms), supporting glob patterns (``"cache:*"``).

* a :class:`TraceSession` attaches to a set of tracepoints for the
  duration of a ``with`` block, buffers every event, fans out to
  :mod:`repro.obs.collectors`, and round-trips through JSONL.

Events are *virtually* timestamped: two identical runs produce
bit-identical traces, which the determinism test in
``tests/test_obs.py`` asserts.
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
import json
from fnmatch import fnmatchcase
from typing import Callable, Iterable, Optional, TextIO


class TraceEvent:
    """One structured trace record.

    Attributes
    ----------
    name:
        Tracepoint name, ``"subsystem:event"`` (e.g. ``"cache:insert"``).
    ts_us:
        Virtual timestamp in microseconds — the emitting thread's clock,
        or the engine clock when emitted outside a thread.
    cgroup:
        Name of the cgroup the event is attributed to (the *accessing*
        cgroup for cache events, matching how stats accrue).
    tid:
        Simulated thread id, 0 outside the engine.
    data:
        Event-specific payload (plain ints/strings, JSON-safe).
    """

    __slots__ = ("name", "ts_us", "cgroup", "tid", "data")

    def __init__(self, name: str, ts_us: float, cgroup: str, tid: int,
                 data: dict) -> None:
        self.name = name
        self.ts_us = ts_us
        self.cgroup = cgroup
        self.tid = tid
        self.data = data

    def to_json_obj(self) -> dict:
        return {"name": self.name, "ts_us": self.ts_us,
                "cgroup": self.cgroup, "tid": self.tid, "data": self.data}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TraceEvent":
        return cls(obj["name"], obj["ts_us"], obj["cgroup"], obj["tid"],
                   obj.get("data", {}))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.name == other.name and self.ts_us == other.ts_us
                and self.cgroup == other.cgroup and self.tid == other.tid
                and self.data == other.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TraceEvent({self.name!r}, ts={self.ts_us:.2f}us, "
                f"cgroup={self.cgroup!r}, tid={self.tid}, {self.data!r})")


class Tracepoint:
    """One named emission point.

    ``enabled`` is public and is *the* hot-path gate: emitting code
    checks it before building any payload.  Subscribing a consumer
    enables the tracepoint; removing the last consumer disables it.
    ``disable()`` mutes emission even while consumers stay attached
    (``echo 0 > events/.../enable`` with ftrace consumers still open).
    """

    __slots__ = ("name", "enabled", "_subscribers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.enabled = False
        self._subscribers: list[Callable[[TraceEvent], None]] = []

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Attach a consumer; enables the tracepoint."""
        self._subscribers.append(callback)
        self.enabled = True

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Detach a consumer; the last detach disables the tracepoint."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass
        if not self._subscribers:
            self.enabled = False

    def enable(self) -> None:
        """Re-enable emission (only meaningful with consumers attached)."""
        if self._subscribers:
            self.enabled = True

    def disable(self) -> None:
        """Mute emission without detaching consumers."""
        self.enabled = False

    @property
    def nr_subscribers(self) -> int:
        return len(self._subscribers)

    def emit(self, ts_us: float, cgroup: str, tid: int, **data) -> None:
        """Dispatch one event to every consumer.

        Callers are expected to have checked ``enabled`` already (that
        check is the near-zero-cost disabled path); ``emit`` re-checks
        defensively so an un-gated call on a disabled tracepoint is
        merely wasted work, never a spurious event.
        """
        if not self.enabled:
            return
        event = TraceEvent(self.name, ts_us, cgroup, tid, data)
        for callback in self._subscribers:
            callback(event)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return (f"Tracepoint({self.name!r}, {state}, "
                f"{len(self._subscribers)} subscribers)")


class _NullTracepoint(Tracepoint):
    """Permanently disabled tracepoint.

    Components that can exist without a machine (a bare
    :class:`~repro.sim.engine.Engine`, a standalone
    :class:`~repro.kernel.block.BlockDevice`) default their cached
    tracepoints to this, so emitting code never needs a None check.
    """

    def subscribe(self, callback) -> None:  # pragma: no cover - guard
        raise RuntimeError("cannot subscribe to the null tracepoint")

    def enable(self) -> None:
        pass  # stays disabled forever


#: Shared always-disabled tracepoint (see :class:`_NullTracepoint`).
NULL_TRACEPOINT = _NullTracepoint("null")


class TraceRegistry(SnapshotFriendly):
    """Per-machine namespace of tracepoints.

    Tracepoints are created on demand by name; the kernel layers
    declare theirs at machine construction so ``names()`` lists the
    full event surface before anything has fired (like
    ``available_events`` in tracefs).
    """

    def __init__(self) -> None:
        self._tracepoints: dict[str, Tracepoint] = {}

    def tracepoint(self, name: str) -> Tracepoint:
        """Get-or-create the tracepoint called ``name``."""
        tp = self._tracepoints.get(name)
        if tp is None:
            tp = Tracepoint(name)
            self._tracepoints[name] = tp
        return tp

    def names(self) -> list[str]:
        return sorted(self._tracepoints)

    def match(self, *patterns: str) -> list[Tracepoint]:
        """Tracepoints whose names match any glob pattern."""
        if not patterns:
            patterns = ("*",)
        return [tp for name, tp in sorted(self._tracepoints.items())
                if any(fnmatchcase(name, pat) for pat in patterns)]

    def enable(self, *patterns: str) -> list[Tracepoint]:
        tps = self.match(*patterns)
        for tp in tps:
            tp.enable()
        return tps

    def disable(self, *patterns: str) -> list[Tracepoint]:
        tps = self.match(*patterns)
        for tp in tps:
            tp.disable()
        return tps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        on = sum(1 for tp in self._tracepoints.values() if tp.enabled)
        return f"TraceRegistry({len(self._tracepoints)} tracepoints, {on} enabled)"


def _registry_of(source) -> TraceRegistry:
    """Accept a Machine (duck-typed via ``.trace``) or a registry."""
    if isinstance(source, TraceRegistry):
        return source
    registry = getattr(source, "trace", None)
    if isinstance(registry, TraceRegistry):
        return registry
    raise TypeError(f"no trace registry on {source!r}")


class TraceSession:
    """Attach to tracepoints for a ``with`` block and buffer events.

    Parameters
    ----------
    source:
        A :class:`~repro.kernel.machine.Machine` or a
        :class:`TraceRegistry`.
    events:
        Glob patterns selecting tracepoints (default: everything).
    collectors:
        :class:`repro.obs.collectors.Collector` instances to feed.  A
        collector subscribes to its own declared tracepoints, so a
        session can drive a histogram without buffering being the
        point.
    buffer:
        Keep raw events in :attr:`events` (default True).  Disable for
        collector-only sessions over long runs.
    sink:
        Optional path: stream every matched event to this file as JSON
        Lines *while the session runs*, instead of (or besides)
        buffering.  The file is opened by :meth:`start` and is always
        flushed and closed by :meth:`stop` — including when the ``with``
        body raises — so a crashed run still leaves a complete,
        parseable trace of everything up to the failure.

    Usage::

        with TraceSession(machine, "cache:*", "block:*") as session:
            machine.run()
        session.save("run.jsonl")
    """

    def __init__(self, source, *events: str, collectors: Iterable = (),
                 buffer: bool = True, sink: Optional[str] = None) -> None:
        self.registry = _registry_of(source)
        self.patterns = events or ("*",)
        self.collectors = list(collectors)
        self.buffer = buffer
        self.sink = sink
        self.events: list[TraceEvent] = []
        self._attached: list[tuple[Tracepoint, Callable]] = []
        self._sink_fp: Optional[TextIO] = None
        self.active = False

    # ------------------------------------------------------------------
    def _record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def _stream(self, event: TraceEvent) -> None:
        self._sink_fp.write(json.dumps(event.to_json_obj(),
                                       separators=(",", ":"),
                                       sort_keys=True))
        self._sink_fp.write("\n")

    def start(self) -> "TraceSession":
        if self.active:
            raise RuntimeError("trace session already active")
        # Everything below must unwind on failure: a half-started
        # session (sink open, some tracepoints subscribed) would leak
        # subscriptions into the next run and hold the file open.
        try:
            if self.sink is not None:
                self._sink_fp = open(self.sink, "w")
            for tp in self.registry.match(*self.patterns):
                if self.buffer:
                    tp.subscribe(self._record)
                    self._attached.append((tp, self._record))
                if self._sink_fp is not None:
                    tp.subscribe(self._stream)
                    self._attached.append((tp, self._stream))
            for collector in self.collectors:
                for name in collector.tracepoints:
                    for tp in self.registry.match(name):
                        tp.subscribe(collector.handle)
                        self._attached.append((tp, collector.handle))
        except BaseException:
            self._teardown()
            raise
        self.active = True
        return self

    def _teardown(self) -> None:
        """Detach everything and close the sink; safe to call twice."""
        for tp, callback in self._attached:
            tp.unsubscribe(callback)
        self._attached.clear()
        fp = self._sink_fp
        if fp is not None:
            self._sink_fp = None
            try:
                fp.flush()
            finally:
                fp.close()
        self.active = False

    def stop(self) -> None:
        self._teardown()

    def __enter__(self) -> "TraceSession":
        return self.start()

    def __exit__(self, *exc) -> None:
        # Runs on exception unwind too: collectors detach and the sink
        # is flushed/closed no matter how the body exits.
        self.stop()

    # ------------------------------------------------------------------
    # JSONL export / import
    # ------------------------------------------------------------------
    def write_jsonl(self, fp: TextIO) -> int:
        """Write buffered events as JSON Lines; returns the count."""
        for event in self.events:
            fp.write(json.dumps(event.to_json_obj(),
                                separators=(",", ":"), sort_keys=True))
            fp.write("\n")
        return len(self.events)

    def save(self, path: str) -> int:
        with open(path, "w") as fp:
            return self.write_jsonl(fp)

    @staticmethod
    def load(path_or_fp) -> list[TraceEvent]:
        """Read a JSONL trace back into :class:`TraceEvent` objects."""
        if hasattr(path_or_fp, "read"):
            return read_jsonl(path_or_fp)
        with open(path_or_fp) as fp:
            return read_jsonl(fp)


def read_jsonl(fp: TextIO) -> list[TraceEvent]:
    """Parse a JSONL stream of trace events (blank lines skipped)."""
    events = []
    for lineno, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(TraceEvent.from_json_obj(json.loads(line)))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad trace line {lineno}: {line[:80]!r}") from exc
    return events
