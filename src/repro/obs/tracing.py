"""Span-based tracing with a JSONL event sink for injection campaigns.

Every injection campaign becomes a replayable, auditable event stream: one
JSON object per line, written as the campaign runs, so a crashed or slow run
can be inspected mid-flight (``tail -f trace.jsonl``) and a finished run can
be re-aggregated offline without re-executing a single inference.

Event schema (JSONL, one object per line)
-----------------------------------------
Common fields: ``type`` (``"span"`` | ``"event"``), ``name``, ``ts``
(unix **wall-clock** seconds, event/span *end*), ``ts_mono`` (the same
instant on the monotonic clock — comparable across forked workers, immune
to NTP steps), and free-form attributes.  Spans add ``dur_s`` (duration,
computed from the monotonic clock so a wall-clock step can never produce
a negative duration), ``span_id`` (8-byte hex, unique across processes)
and — when the span started inside another span — ``parent_id``.  Point
events carry ``parent_id`` of the enclosing span too, so every event
stream forms a forest rooted at ``campaign.run``.  The campaign runner
emits:

* ``span  campaign.run``      — one per campaign (kind, location, format, ...)
* ``span  campaign.layer``    — one per layer (layer, performed, retries)
* ``span  campaign.batch``    — one per ``fault_batch`` chunk of plans
  (``fault_batch=1`` campaigns get one per injection)
* ``span  exec.worker_shard`` — one per worker shard attempt (parallel
  runs; replayed into the parent sink with a ``worker_id`` tag)
* ``event campaign.injection``— one per injection: ``layer``, ``site``
  (flat index or metadata register), ``bits``, ``delta_loss``,
  ``mismatch_rate``, ``dur_s`` (seconds for that injected inference)
* ``span  goldeneye.attach`` / ``goldeneye.capture_golden`` — setup timing
* ``span  dse.node``          — one per DSE tree evaluation

Span parentage crosses the fork boundary: the supervisor stamps the
active ``campaign.run`` span id into each worker's payload, the worker
seeds its span-context stack with it (:func:`seed_span_context`), and the
buffered worker events flow back through the existing
``Tracer.emit_foreign`` path — so ``repro timeline`` can render one
campaign as campaign → layer/shard → batch nested lanes per worker.

Overhead contract
-----------------
Tracing is off by default: the process-wide tracer is a :class:`NullTracer`
whose ``span``/``event`` are constant-time no-ops (a shared reusable context
manager, no allocation), budgeted at <2% campaign overhead and asserted by
``benchmarks/bench_telemetry_overhead.py``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import IO, Any

__all__ = [
    "JsonlSink",
    "Tracer",
    "BufferingTracer",
    "BroadcastTracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "configure_tracing",
    "current_span_id",
    "seed_span_context",
    "sink_path",
]


def sink_path(tracer) -> str | None:
    """The JSONL file a tracer writes to, unwrapping composition (or None).

    Used by the campaign ledger to link a run to its trace artifact:
    a :class:`BroadcastTracer` is unwrapped to its inner tracer, and
    tracers without a file-backed sink (null, buffering) yield None.
    """
    inner = getattr(tracer, "inner", None)
    if inner is not None:
        tracer = inner
    sink = getattr(tracer, "sink", None)
    return getattr(sink, "path", None)


# ----------------------------------------------------------------------
# span context: a per-thread stack of active span ids
# ----------------------------------------------------------------------
_span_context = threading.local()


def _span_stack() -> list:
    stack = getattr(_span_context, "stack", None)
    if stack is None:
        stack = []
        _span_context.stack = stack
    return stack


def current_span_id() -> str | None:
    """The id of this thread's innermost active span (None outside spans)."""
    stack = getattr(_span_context, "stack", None)
    return stack[-1] if stack else None


def seed_span_context(parent_id: str | None) -> None:
    """Reset this thread's span stack to a foreign root (worker startup).

    A forked campaign worker calls this with the supervisor's active
    ``campaign.run`` span id so every span it opens parents into the
    campaign's tree even though it runs in another process.
    """
    _span_context.stack = [parent_id] if parent_id else []


def _new_span_id() -> str:
    # os.urandom, not the random module: a forked worker inherits the
    # parent's PRNG state, and colliding span ids would corrupt the tree
    return os.urandom(8).hex()


def _json_default(obj: Any) -> Any:
    """Fallback serializer: numpy scalars/arrays and everything else."""
    if hasattr(obj, "item"):  # numpy scalar
        try:
            return obj.item()
        except Exception:  # pragma: no cover - exotic array-likes
            pass
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


class JsonlSink:
    """Append-only JSON-lines sink (thread-safe, line-buffered)."""

    def __init__(self, target: str | IO[str]):
        self._lock = threading.Lock()
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns = False
            self.path = getattr(target, "name", None)
        else:
            self._file = open(target, "a", encoding="utf-8")
            self._owns = True
            self.path = str(target)
        self.events_written = 0

    def write(self, event: dict) -> None:
        line = json.dumps(event, default=_json_default, separators=(",", ":"))
        with self._lock:
            self._file.write(line + "\n")
            self.events_written += 1

    def flush(self) -> None:
        with self._lock:
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            try:
                self._file.flush()
            finally:
                if self._owns:
                    self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Span:
    """Context manager recording one span's extent and tree position.

    Durations come from ``time.monotonic()`` (a wall-clock step — NTP
    correction, manual ``date`` — can never yield a negative duration);
    the emitted event still carries the wall-clock end in ``ts`` plus the
    monotonic end in ``ts_mono`` so offline tools can reconstruct both
    human time and a step-free campaign timeline.
    """

    __slots__ = ("_tracer", "name", "attrs", "_t0_mono", "span_id",
                 "parent_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._t0_mono = 0.0
        self.span_id = _new_span_id()
        self.parent_id: str | None = None

    def set(self, **attrs) -> None:
        """Attach/override attributes mid-span (e.g. results computed inside)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._t0_mono = time.monotonic()
        stack = _span_stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_mono = time.monotonic()
        stack = _span_stack()
        # normally a plain pop; the remove() fallback keeps the stack sane
        # if spans were exited out of order (manual __enter__/__exit__)
        if stack and stack[-1] == self.span_id:
            stack.pop()
        elif self.span_id in stack:
            stack.remove(self.span_id)
        event = {"type": "span", "name": self.name, "ts": time.time(),
                 "ts_mono": end_mono,
                 "dur_s": max(0.0, end_mono - self._t0_mono),
                 "span_id": self.span_id, **self.attrs}
        if self.parent_id is not None:
            event["parent_id"] = self.parent_id
        if exc_type is not None:
            event["error"] = exc_type.__name__
        self._tracer._emit(event)


def _point_event(name: str, attrs: dict) -> dict:
    """A point event stamped with both clocks and the enclosing span."""
    event = {"type": "event", "name": name, "ts": time.time(),
             "ts_mono": time.monotonic(), **attrs}
    parent = current_span_id()
    if parent is not None:
        event["parent_id"] = parent
    return event


class Tracer:
    """Active tracer: spans and point events into a :class:`JsonlSink`.

    Also mirrors span durations into the metrics registry when one is given
    (histogram ``trace.span_seconds{span=...}``), so traced runs get timing
    distributions for free.
    """

    enabled = True

    def __init__(self, sink: JsonlSink, registry=None):
        self.sink = sink
        self.registry = registry

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        self._emit(_point_event(name, attrs))

    def _emit(self, event: dict) -> None:
        self.sink.write(event)
        if self.registry is not None and event["type"] == "span":
            self.registry.histogram(
                "trace.span_seconds", span=event["name"]).observe(event["dur_s"])

    def emit_foreign(self, event: dict) -> None:
        """Write an event produced by *another* process (a worker) verbatim.

        Unlike :meth:`_emit`, foreign spans are **not** mirrored into
        ``trace.span_seconds`` — the worker's metric delta already carries its
        histogram contribution, and double-mirroring would double-count.
        """
        self.sink.write(event)

    def close(self) -> None:
        self.sink.close()


class BufferingTracer:
    """Worker-side tracer: buffers events in memory instead of writing.

    Installed in forked campaign workers when the parent process is tracing.
    The worker cannot share the parent's file handle safely (interleaved
    writes through a forked buffered ``IO`` corrupt JSONL), so spans and
    events accumulate here and :meth:`drain` serializes them over the result
    queue; the supervisor replays them into the parent sink via
    :meth:`Tracer.emit_foreign` with a ``worker_id`` tag.

    No registry mirroring happens worker-side: span durations reach the
    parent's ``trace.span_seconds`` through the worker's metric delta, never
    twice.
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[dict] = []

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        self._emit(_point_event(name, attrs))

    def _emit(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    def drain(self) -> list[dict]:
        """Return all buffered events and clear the buffer."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def close(self) -> None:
        with self._lock:
            self._events.clear()


class BroadcastTracer:
    """Composing tracer: forwards to an inner tracer AND a subscriber.

    Installed by ``run_campaign(serve=...)`` around whatever tracer is
    already configured, so the live ``/events`` SSE stream *adds* a
    consumer without replacing the JSONL sink: every span end and point
    event still reaches the inner tracer exactly as before (including a
    :class:`NullTracer`, where it is dropped), and is also handed to
    ``publish`` — a callable like :meth:`repro.obs.live.LiveServer.publish`
    that fans it out to connected SSE clients.

    ``enabled`` is always true: forked workers check
    ``get_tracer().enabled`` to decide whether to install a
    :class:`BufferingTracer`, and with a live server attached worker
    events must flow back to the parent even when no JSONL sink exists.
    Publish failures are swallowed — observability must never fail the
    campaign.
    """

    enabled = True

    def __init__(self, inner: "Tracer | NullTracer", publish):
        self.inner = inner
        self.publish = publish

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        self._emit(_point_event(name, attrs))

    def _emit(self, event: dict) -> None:
        # NullTracer has no _emit (its spans are shared no-ops); anything
        # with one gets the event verbatim, preserving registry mirroring
        if self.inner.enabled:
            self.inner._emit(event)
        self._publish(event)

    def emit_foreign(self, event: dict) -> None:
        self.inner.emit_foreign(event)
        self._publish(event)

    def _publish(self, event: dict) -> None:
        try:
            self.publish(event)
        except Exception:  # noqa: BLE001 - never fail the campaign
            pass

    def close(self) -> None:
        self.inner.close()


class _NullSpan:
    """Shared, allocation-free no-op span."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a constant-time no-op."""

    enabled = False

    __slots__ = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        pass

    def emit_foreign(self, event: dict) -> None:
        pass

    def close(self) -> None:
        pass


#: the process-wide disabled tracer (shared instance)
NULL_TRACER = NullTracer()

_tracer: Tracer | NullTracer = NULL_TRACER
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer | NullTracer:
    """The process-wide tracer (``NULL_TRACER`` unless configured)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` process-wide; returns the previous tracer."""
    global _tracer
    with _tracer_lock:
        previous, _tracer = _tracer, tracer
    return previous


def configure_tracing(path: str | None, registry=None) -> Tracer | NullTracer:
    """Enable tracing to ``path`` (JSONL); ``None`` disables tracing.

    Returns the installed tracer.  The caller owns closing it (the CLI does
    this in a ``finally``); re-configuring replaces but does not close the
    previous tracer.
    """
    if path is None:
        set_tracer(NULL_TRACER)
        return NULL_TRACER
    tracer = Tracer(JsonlSink(path), registry=registry)
    set_tracer(tracer)
    return tracer
