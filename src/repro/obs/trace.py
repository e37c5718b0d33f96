"""Contextvar-based request tracing with nested phase spans.

A request handler opens a root trace (:func:`start_trace`); any code it
calls — directly, or via the scheduler's pool threads when the caller
copies its :mod:`contextvars` context — can annotate a phase with
:func:`span` without plumbing a tracer argument through the stack:

    with start_trace("/explain") as trace:
        ...
        with span("cube-build"):
            ...

Spans nest: a ``span`` opened inside another records the outer span as
its parent, producing a tree rooted at span id 0 (the request itself).
Phases whose duration was measured elsewhere (the scheduler's queue
wait, which elapses *before* the pool thread runs) are attached
post-hoc with :func:`record_span`.

Every span is measured, so the span tree is the one clock of a request:
result timings are computed from it (:meth:`Trace.self_times`).  A span
opened outside any trace roots a fresh trace of its own, which is never
exported and ends with the span.  Sampling is decided at the root and
decides only visibility: an unsampled trace still carries a trace id (so
every response can return ``X-Repro-Trace-Id``) and records its spans,
but it is neither exported nor seen by the profiler.  Sampled traces are
serialized by :class:`JsonLinesExporter` as one JSON object per line,
with size-based rotation (the current file plus one ``.1`` predecessor)
so a long-running server cannot fill the disk with trace exports.

Besides the contextvar (which only the *owning* context can read), the
tracer maintains a process-wide **active-span map** — ``{thread id:
(trace, innermost open span)}`` — updated on every sampled span entry
and exit.  That map is the join surface for the sampling profiler
(:mod:`repro.obs.profile`): a sampler walking
``sys._current_frames()`` from its own thread looks up each sampled
thread's current phase with :func:`active_phases` and attributes the
stack to it.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

#: (Trace, parent span id) for the code currently executing, or None.
_CURRENT: contextvars.ContextVar[tuple["Trace", int] | None] = contextvars.ContextVar(
    "repro_obs_trace", default=None
)

#: {thread id: (trace, innermost open span)} for *sampled* traces — the
#: profiler's join surface.  Guarded by its own lock: entries are written
#: by the thread they describe (span enter/exit) and read wholesale by a
#: profiler thread mid-sample.
_ACTIVE_LOCK = threading.Lock()
_ACTIVE: dict[int, tuple["Trace", "Span"]] = {}


def _activate(trace: "Trace", span: "Span") -> tuple["Trace", "Span"] | None:
    """Mark ``span`` as this thread's innermost; returns the previous entry."""
    ident = threading.get_ident()
    with _ACTIVE_LOCK:
        previous = _ACTIVE.get(ident)
        _ACTIVE[ident] = (trace, span)
    return previous


def _deactivate(previous: tuple["Trace", "Span"] | None) -> None:
    """Restore the thread's previous innermost span (or clear it)."""
    ident = threading.get_ident()
    with _ACTIVE_LOCK:
        if previous is None:
            _ACTIVE.pop(ident, None)
        else:
            _ACTIVE[ident] = previous


def active_phases() -> dict[int, tuple[str, str]]:
    """``{thread id: (trace id, innermost span name)}`` right now.

    The snapshot a sampling profiler joins its ``sys._current_frames()``
    walk against: a thread inside ``span("cube-build")`` maps to
    ``(trace_id, "cube-build")``; a thread that only opened the root
    trace maps to the request name.  Threads with no sampled trace are
    absent (the profiler buckets them as untraced).
    """
    with _ACTIVE_LOCK:
        return {
            ident: (trace.trace_id, span.name)
            for ident, (trace, span) in _ACTIVE.items()
        }


class Span:
    """One timed phase inside a trace."""

    __slots__ = ("span_id", "parent_id", "name", "start", "duration")

    def __init__(self, span_id: int, parent_id: int | None, name: str, start: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration: float | None = None


class Trace:
    """A request-scoped span tree; append-safe from pool threads."""

    def __init__(self, name: str, sampled: bool = True):
        self.trace_id = os.urandom(8).hex()
        self.name = name
        self.sampled = sampled
        self.started_unix = time.time()
        self._started_perf = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 1
        self.root = Span(0, None, name, 0.0)
        self.spans: list[Span] = [self.root]

    def begin_span(self, name: str, parent_id: int) -> Span:
        now = time.perf_counter() - self._started_perf
        with self._lock:
            span = Span(self._next_id, parent_id, name, now)
            self._next_id += 1
            self.spans.append(span)
        return span

    def end_span(self, span: Span) -> None:
        span.duration = (time.perf_counter() - self._started_perf) - span.start

    def attach_span(self, name: str, seconds: float, parent_id: int) -> Span:
        """Attach a phase measured elsewhere, ending now."""
        end = time.perf_counter() - self._started_perf
        with self._lock:
            span = Span(self._next_id, parent_id, name, max(0.0, end - seconds))
            span.duration = seconds
            self._next_id += 1
            self.spans.append(span)
        return span

    def finish(self) -> None:
        self.root.duration = time.perf_counter() - self._started_perf

    def self_times(self, top: Span) -> dict[str, float]:
        """Self seconds per span name over the subtree rooted at ``top``.

        A span's self time is its duration minus the durations of its
        direct children, so the values sum to ``top``'s own duration.
        Children recorded from other threads through a copied context
        count like any other; a span still open is left out, which leaves
        its time with its parent.  ``top`` must have ended.
        """
        with self._lock:
            # A span's id is its list position, and descendants follow it.
            spans = self.spans[top.span_id + 1 :]
        names = {top.span_id: top.name}
        totals = {top.name: top.duration}
        for entry in spans:
            if entry.parent_id in names and entry.duration is not None:
                names[entry.span_id] = entry.name
                totals[entry.name] = totals.get(entry.name, 0.0) + entry.duration
                totals[names[entry.parent_id]] -= entry.duration
        return totals

    @property
    def duration_seconds(self) -> float:
        if self.root.duration is None:
            return time.perf_counter() - self._started_perf
        return self.root.duration

    def to_dict(self) -> dict:
        with self._lock:
            spans = [
                {
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "name": span.name,
                    "start_ms": round(span.start * 1000.0, 3),
                    "duration_ms": (
                        round(span.duration * 1000.0, 3)
                        if span.duration is not None
                        else None
                    ),
                }
                for span in self.spans
            ]
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "time_unix": self.started_unix,
            "pid": os.getpid(),
            "duration_ms": round(self.duration_seconds * 1000.0, 3),
            "spans": spans,
        }


@contextmanager
def start_trace(name: str, sampled: bool = True) -> Iterator[Trace]:
    """Open a root trace for the enclosed request."""
    trace = Trace(name, sampled=sampled)
    token = _CURRENT.set((trace, 0))
    previous = _activate(trace, trace.root) if sampled else None
    try:
        yield trace
    finally:
        trace.finish()
        if sampled:
            _deactivate(previous)
        _CURRENT.reset(token)


@contextmanager
def span(name: str) -> Iterator[Span]:
    """Time a phase under the current trace and yield its :class:`Span`.

    The span is always measured; only a sampled trace makes it visible
    to the profiler.  Outside any trace the span is the root of a fresh
    unsampled trace (never exported) that ends with it, so callers can
    read ``duration`` after the block either way.
    """
    current = _CURRENT.get()
    if current is None:
        with start_trace(name, sampled=False) as trace:
            yield trace.root
        return
    trace, parent_id = current
    entry = trace.begin_span(name, parent_id)
    token = _CURRENT.set((trace, entry.span_id))
    previous = _activate(trace, entry) if trace.sampled else None
    try:
        yield entry
    finally:
        trace.end_span(entry)
        if trace.sampled:
            _deactivate(previous)
        _CURRENT.reset(token)


def record_span(name: str, seconds: float) -> Span | None:
    """Attach an already-measured phase to the current trace, if any."""
    current = _CURRENT.get()
    if current is None:
        return None
    trace, parent_id = current
    return trace.attach_span(name, seconds, parent_id)


def current_trace() -> Trace | None:
    current = _CURRENT.get()
    return current[0] if current is not None else None


def current_trace_id() -> str | None:
    trace = current_trace()
    return trace.trace_id if trace is not None else None


#: Default rotation threshold for JSON-lines observability files (trace
#: exports, slow-query profiles).  At most ``2 * max_bytes`` survives on
#: disk per file: the current file plus its one ``.1`` predecessor.
DEFAULT_EXPORT_MAX_BYTES = 8 * 1024 * 1024


def rotated_path(path: Path) -> Path:
    """Where a rotated-out JSON-lines file lands (``<name>.1``)."""
    return path.with_name(path.name + ".1")


def append_jsonl_rotating(path: Path, line: str, max_bytes: int) -> None:
    """Append one line to ``path``, rotating to ``<name>.1`` at the cap.

    Rotation happens *before* a write that would push the file past
    ``max_bytes``: the current file replaces the previous ``.1`` (which
    is dropped) and the line starts a fresh file — disk usage per export
    stream is bounded at roughly twice the cap, forever.  Callers
    serialize writes with their own lock.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    if max_bytes > 0:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if size and size + len(line) + 1 > max_bytes:
            os.replace(path, rotated_path(path))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


class JsonLinesExporter:
    """Append sampled traces to a JSON-lines file (one object per line).

    The file rotates at ``max_bytes``: the current export plus one
    ``.1`` predecessor are kept, older traces are dropped — a
    long-running server's trace export is disk-bounded by construction.
    """

    def __init__(self, path: str | Path, max_bytes: int = DEFAULT_EXPORT_MAX_BYTES):
        self._path = Path(path).expanduser()
        self._max_bytes = int(max_bytes)
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        return self._path

    @property
    def rotated(self) -> Path:
        """Where rotated-out traces land (may not exist yet)."""
        return rotated_path(self._path)

    def export(self, trace: Trace) -> bool:
        if not trace.sampled:
            return False
        line = json.dumps(trace.to_dict(), separators=(",", ":"))
        with self._lock:
            append_jsonl_rotating(self._path, line, self._max_bytes)
        return True

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        """Every well-formed trace line in ``path`` (skips torn writes)."""
        traces: list[dict] = []
        try:
            text = Path(path).expanduser().read_text(encoding="utf-8")
        except OSError:
            return traces
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and "trace_id" in payload:
                traces.append(payload)
        return traces
