"""Structured tracing: nested spans over the simulation stack.

A :class:`Tracer` maintains a stack of open :class:`Span` objects; each
``tracer.span(name, **attrs)`` context manager opens a child of the
innermost open span, so the natural call nesting of the code —
``campaign → defect → analysis → newton_solve`` — becomes the span
hierarchy of the trace with no explicit parent plumbing.  Spans are
emitted to the tracer's sinks when they close (children therefore appear
before their parents in a JSONL file); each carries wall-clock start
time, duration, the originating process id, and a free-form attribute
dict.

Every tracer belongs to exactly one **trace**: a ``trace_id`` minted at
the root (or inherited through a :class:`TraceContext`) stamped onto
every event.  Span ids are globally-unique strings, so spans produced in
different processes never collide and :meth:`Tracer.ingest` can
correlate worker events purely by id — a worker created with
``TraceContext(trace_id, parent_span_id)`` parents its root spans under
the parent's span *at creation time*, and its events pass through ingest
verbatim.  Event lists from legacy tracers (no ``trace_id``) are still
grafted positionally: ids rewritten, roots re-parented.

Tracers are single-threaded by design (the simulation stack is
synchronous; parallelism is process-based).
"""

from __future__ import annotations

import os
import secrets
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence


def new_trace_id() -> str:
    """A fresh 64-bit random trace id (hex string)."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of a trace: cross-process span parentage.

    A root tracer mints a ``trace_id``; when it fans work out to other
    processes (``parallel_map`` worker envelopes) it ships a
    ``TraceContext`` naming that trace and the span the remote work
    logically nests under.  The remote side passes the context to its
    own :class:`Tracer` (or ``Telemetry.capturing(context=...)``): the
    child tracer joins the parent's trace instead of starting its own,
    and its root spans are born parented under ``parent_span_id``.

    Picklable and JSON-friendly by construction (two strings).
    """

    trace_id: str
    parent_span_id: Optional[str] = None


class Span:
    """One timed, attributed operation; also its own context manager."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "t_start",
                 "duration_s", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: Optional[str], attrs: Dict[str, Any]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.t_start = time.time()
        self.duration_s: Optional[float] = None
        self._tracer = tracer
        self._t0 = time.perf_counter()

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self)
        return False

    def to_event(self) -> Dict[str, Any]:
        return {"type": "span", "name": self.name, "span_id": self.span_id,
                "parent_id": self.parent_id,
                "trace_id": self._tracer.trace_id, "pid": os.getpid(),
                "t_start": self.t_start, "duration_s": self.duration_s,
                "attrs": dict(self.attrs)}


class Tracer:
    """Span factory, nesting stack and sink fan-out.

    With no ``context`` the tracer roots a fresh trace (mints a
    ``trace_id``); with one it joins the trace named there and parents
    its root spans under ``context.parent_span_id``.
    """

    def __init__(self, sinks: Optional[Sequence[Any]] = None,
                 context: Optional[TraceContext] = None):
        self.sinks = list(sinks) if sinks else []
        self._stack: List[Span] = []
        if context is not None:
            self.trace_id = context.trace_id
            self._root_parent = context.parent_span_id
        else:
            self.trace_id = new_trace_id()
            self._root_parent = None
        # Span ids must be unique across every process and every tracer
        # contributing to one trace (a pool worker builds a fresh tracer
        # per chunk, so pid+counter is not enough): random base + counter.
        self._id_base = secrets.token_hex(6)
        self._next_id = 1

    def _alloc_id(self) -> str:
        span_id = f"{self._id_base}-{self._next_id:x}"
        self._next_id += 1
        return span_id

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def context(self, span: Optional[Span] = None) -> TraceContext:
        """A :class:`TraceContext` handing child tracers this trace.

        ``span`` names the parent the children nest under; defaults to
        the innermost open span (or the tracer's own root parent).
        """
        if span is not None:
            parent = span.span_id
        elif self._stack:
            parent = self._stack[-1].span_id
        else:
            parent = self._root_parent
        return TraceContext(self.trace_id, parent)

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a child span of the current one; use as ``with``-block."""
        parent = self._stack[-1].span_id if self._stack else self._root_parent
        opened = Span(self, name, self._alloc_id(), parent, attrs)
        self._stack.append(opened)
        return opened

    def _finish(self, span: Span) -> None:
        span.duration_s = time.perf_counter() - span._t0
        # Pop down to (and including) the finishing span; an exception
        # unwinding through nested spans closes them inner-first, so
        # this is normally a single pop.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.emit(span.to_event())

    def emit(self, event: Dict[str, Any]) -> None:
        """Send a raw event to every sink."""
        for sink in self.sinks:
            sink.emit(event)

    def ingest(self, events: Sequence[Dict[str, Any]],
               parent_id: Optional[Any] = None) -> None:
        """Merge a foreign (worker-process) event list into this trace.

        Events carrying this tracer's ``trace_id`` were produced by a
        tracer created from our :meth:`context` — their span ids are
        already globally unique and their roots already parented — so
        they correlate by id and pass through verbatim.  Legacy span
        events (different or missing ``trace_id``) are grafted the old
        way: ids rewritten into this tracer's id space, spans whose
        parent is not part of ``events`` (the worker's roots)
        re-parented under ``parent_id``, and our ``trace_id`` stamped
        on.  Non-span events (metrics, meta, profile) pass through
        unchanged.  Events emit in the order given, preserving the
        worker's child-before-parent completion order.
        """
        mapping = {
            event["span_id"]: self._alloc_id()
            for event in events
            if event.get("type") == "span"
            and event.get("trace_id") != self.trace_id
        }
        for event in events:
            if event.get("type") != "span":
                self.emit(event)
                continue
            if event.get("trace_id") == self.trace_id:
                self.emit(event)
                continue
            event = dict(event)
            event["span_id"] = mapping[event["span_id"]]
            foreign_parent = event.get("parent_id")
            event["parent_id"] = mapping.get(foreign_parent, parent_id)
            event["trace_id"] = self.trace_id
            self.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
