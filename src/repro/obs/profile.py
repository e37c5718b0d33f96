"""Sampling wall-clock profiler joined to the tracer's phase spans.

The observability layer's *where-does-the-time-go* surface, stdlib-only:
a :class:`SamplingProfiler` runs a background daemon thread that walks
``sys._current_frames()`` at a configurable rate, collapses each
thread's Python stack into a ``frame;frame;frame`` path, and — by
consulting the tracer's active-span map
(:func:`repro.obs.trace.active_phases`) — attributes every sample to
the *phase* the sampled thread is currently inside (``queue-wait``,
``cube-build``, ``score``, ``segment``, …).  Three consumers:

* ``GET /debug/profile?seconds=S&hz=H`` on a live server captures a
  short profile and returns it as collapsed-stack text (each line is
  ``phase;frame;…;frame count`` — directly consumable by
  ``flamegraph.pl`` and by ``repro obs flame``);
* ``repro serve --profile-slow`` auto-captures a short profile whenever
  a request crosses ``--slow-query-ms``, written next to the slow-query
  log keyed by the request's trace id (:class:`SlowProfileWriter`);
* a continuous low-rate profiler (``repro serve --profile-hz``) feeds
  per-phase self-time into the metrics registry, so a ``/metrics``
  scrape answers "which phase is burning CPU" without a capture.

Sampling is wall-clock: a thread blocked on a lock or a read counts
toward its phase just like one spinning — exactly what a latency
investigation wants.  Overhead is bounded by design: the sampler does
all aggregation work on its own thread, and each sweep costs one
``sys._current_frames()`` call plus a frame walk per live thread, so
profiled workloads slow down by well under 5% at the default rate (the
test suite pins that bound).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

from repro.exceptions import QueryError
from repro.obs.trace import (
    DEFAULT_EXPORT_MAX_BYTES,
    active_phases,
    append_jsonl_rotating,
)

#: Default sampling rate.  97 Hz, not 100: a prime rate cannot phase-lock
#: with millisecond-periodic work, which would systematically over- or
#: under-sample it.
DEFAULT_HZ = 97.0

#: Hard cap on the sampling rate a caller (or an HTTP client) may ask
#: for; beyond ~1 kHz the sampler's own GIL time stops being negligible.
MAX_HZ = 997.0


def check_hz(hz: float) -> float:
    """``hz`` as a float; :class:`QueryError` unless ``0 < hz <= MAX_HZ``."""
    hz = float(hz)
    if not (0.0 < hz <= MAX_HZ):
        raise QueryError(f"profiler hz must be in (0, {MAX_HZ:g}], got {hz:g}")
    return hz


#: Frames kept per sampled stack, innermost-first during the walk; a
#: deeper stack keeps its leaf frames and truncates the root end.
MAX_STACK_DEPTH = 64

#: Phase bucket for threads with no sampled trace (server plumbing,
#: flusher threads, user threads outside any request).
UNTRACED = "untraced"

#: Collapsed-stack root placed when a stack was depth-truncated.
TRUNCATED = "..."


def _frame_stack(frame, max_depth: int) -> tuple[str, ...]:
    """Collapse one frame chain into a root-first ``module.func`` tuple."""
    stack: list[str] = []
    while frame is not None and len(stack) < max_depth:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        stack.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    if frame is not None:
        stack.append(TRUNCATED)
    stack.reverse()
    return tuple(stack)


class ProfileReport:
    """Aggregated samples of one profiling window.

    ``stacks`` maps ``(phase, frame-tuple)`` to its sample count;
    ``phase_samples`` is the per-phase marginal.  ``sweeps`` counts
    sampling passes (each pass samples every live thread once), so
    ``interval_seconds * phase_samples[p]`` estimates phase ``p``'s
    wall-clock self time — summed across threads, which is why a
    parallel phase can legitimately exceed the window's duration.
    """

    def __init__(
        self,
        hz: float,
        duration_seconds: float,
        sweeps: int,
        stacks: dict[tuple[str, tuple[str, ...]], int],
        started_unix: float | None = None,
    ):
        self.hz = float(hz)
        self.duration_seconds = float(duration_seconds)
        self.sweeps = int(sweeps)
        self.stacks = stacks
        self.started_unix = started_unix
        self.samples = sum(stacks.values())
        self.phase_samples: dict[str, int] = {}
        for (phase, _stack), count in stacks.items():
            self.phase_samples[phase] = self.phase_samples.get(phase, 0) + count

    # ------------------------------------------------------------------
    @property
    def interval_seconds(self) -> float:
        """Achieved seconds per sweep (falls back to the nominal rate)."""
        if self.sweeps > 0 and self.duration_seconds > 0:
            return self.duration_seconds / self.sweeps
        return 1.0 / self.hz if self.hz > 0 else 0.0

    def phase_self_seconds(self) -> dict[str, float]:
        """Estimated wall-clock self time per phase, largest first."""
        interval = self.interval_seconds
        return dict(
            sorted(
                ((phase, count * interval) for phase, count in self.phase_samples.items()),
                key=lambda item: -item[1],
            )
        )

    def top(self, n: int = 20) -> list[tuple[str, int, float]]:
        """Hotspots: ``(leaf frame, self samples, self seconds)`` rows."""
        interval = self.interval_seconds
        leaves: dict[str, int] = {}
        for (_phase, stack), count in self.stacks.items():
            leaf = stack[-1] if stack else "?"
            leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda item: (-item[1], item[0]))
        return [(leaf, count, count * interval) for leaf, count in ranked[:n]]

    def collapsed(self) -> str:
        """Collapsed-stack text: ``phase;frame;…;frame count`` per line.

        The phase is the synthetic root frame, so a flamegraph built
        from this output groups time by trace phase first — the join
        the raw profiler could never show on its own.
        """
        lines = [
            ";".join((phase, *stack)) + f" {count}"
            for (phase, stack), count in sorted(
                self.stacks.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "hz": self.hz,
            "duration_seconds": round(self.duration_seconds, 6),
            "sweeps": self.sweeps,
            "samples": self.samples,
            "started_unix": self.started_unix,
            "stacks": [
                [phase, list(stack), count]
                for (phase, stack), count in sorted(
                    self.stacks.items(), key=lambda item: (-item[1], item[0])
                )
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ProfileReport":
        stacks: dict[tuple[str, tuple[str, ...]], int] = {}
        for entry in payload.get("stacks", ()):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                continue
            phase, stack, count = entry
            try:
                stacks[(str(phase), tuple(str(f) for f in stack))] = int(count)
            except (TypeError, ValueError):
                continue
        return cls(
            hz=float(payload.get("hz", 0.0) or 0.0),
            duration_seconds=float(payload.get("duration_seconds", 0.0) or 0.0),
            sweeps=int(payload.get("sweeps", 0) or 0),
            stacks=stacks,
            started_unix=payload.get("started_unix"),
        )

    @classmethod
    def merge(cls, reports: "list[ProfileReport]") -> "ProfileReport":
        """Sum many windows into one (the CLI aggregation unit)."""
        stacks: dict[tuple[str, tuple[str, ...]], int] = {}
        duration = 0.0
        sweeps = 0
        hz = 0.0
        for report in reports:
            duration += report.duration_seconds
            sweeps += report.sweeps
            hz = hz or report.hz
            for key, count in report.stacks.items():
                stacks[key] = stacks.get(key, 0) + count
        return cls(hz=hz, duration_seconds=duration, sweeps=sweeps, stacks=stacks)


def parse_collapsed(text: str) -> ProfileReport:
    """Parse collapsed-stack text (``/debug/profile`` output) back into a
    report.  Sweep/duration information is not carried by the format, so
    the result supports stack aggregation (``top``, ``collapsed``,
    merging) but estimates time at the default rate."""
    stacks: dict[tuple[str, tuple[str, ...]], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        path, _, count_text = line.rpartition(" ")
        try:
            count = int(count_text)
        except ValueError:
            continue
        if not path:
            continue
        frames = path.split(";")
        key = (frames[0], tuple(frames[1:]))
        stacks[key] = stacks.get(key, 0) + count
    sweeps = sum(stacks.values())
    return ProfileReport(
        hz=DEFAULT_HZ,
        duration_seconds=sweeps / DEFAULT_HZ if sweeps else 0.0,
        sweeps=sweeps,
        stacks=stacks,
    )


class SamplingProfiler:
    """Background-thread sampling profiler with phase attribution.

    Parameters
    ----------
    hz:
        Sampling rate (sweeps per second), ``0 < hz <= MAX_HZ``.
    max_stack:
        Frames kept per sampled stack (leaf end wins on truncation).
    exclude_threads:
        Thread idents never sampled — a ``/debug/profile`` handler
        excludes itself so the capture doesn't show its own wait.
    phase_counter:
        Optional labeled metrics counter; when set, every sample adds
        one nominal interval to ``phase=<phase>`` — the continuous
        profiler's feed into ``/metrics``.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_stack: int = MAX_STACK_DEPTH,
        exclude_threads: tuple[int, ...] = (),
        phase_counter=None,
    ):
        hz = check_hz(hz)
        self.hz = hz
        self._interval = 1.0 / hz
        self._max_stack = int(max_stack)
        self._exclude = set(exclude_threads)
        self._phase_counter = phase_counter
        self._lock = threading.Lock()
        self._stacks: dict[tuple[str, tuple[str, ...]], int] = {}
        self._sweeps = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_perf: float | None = None
        self._started_unix: float | None = None
        self._stopped_elapsed: float | None = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise QueryError("profiler already started (one-shot; build a new one)")
        self._started_perf = time.perf_counter()
        self._started_unix = time.time()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profile", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> ProfileReport:
        """Stop sampling and return the window's report (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if self._stopped_elapsed is None and self._started_perf is not None:
            self._stopped_elapsed = time.perf_counter() - self._started_perf
        return self.report()

    def report(self) -> ProfileReport:
        """A snapshot report (usable mid-run for continuous profiling)."""
        if self._started_perf is None:
            elapsed = 0.0
        elif self._stopped_elapsed is not None:
            elapsed = self._stopped_elapsed
        else:
            elapsed = time.perf_counter() - self._started_perf
        with self._lock:
            stacks = dict(self._stacks)
            sweeps = self._sweeps
        return ProfileReport(
            hz=self.hz,
            duration_seconds=elapsed,
            sweeps=sweeps,
            stacks=stacks,
            started_unix=self._started_unix,
        )

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        skip_base = self._exclude
        own = threading.get_ident()
        while not self._stop.wait(self._interval):
            self._sample(skip_base | {own})

    def _sample(self, skip: set[int]) -> None:
        frames = sys._current_frames()
        phases = active_phases()
        sampled: list[str] = []
        try:
            with self._lock:
                self._sweeps += 1
                for ident, frame in frames.items():
                    if ident in skip:
                        continue
                    stack = _frame_stack(frame, self._max_stack)
                    phase = phases.get(ident, (None, UNTRACED))[1]
                    key = (phase, stack)
                    self._stacks[key] = self._stacks.get(key, 0) + 1
                    sampled.append(phase)
        finally:
            # Frame objects keep their whole chain (locals included)
            # alive; drop the reference the moment aggregation is done.
            del frames
        if self._phase_counter is not None:
            for phase in sampled:
                self._phase_counter.inc(self._interval, phase=phase)


def capture(
    seconds: float,
    hz: float = DEFAULT_HZ,
    exclude_threads: tuple[int, ...] = (),
) -> ProfileReport:
    """Profile the whole process for ``seconds`` and return the report."""
    if seconds <= 0:
        raise QueryError(f"capture seconds must be positive, got {seconds:g}")
    profiler = SamplingProfiler(hz=hz, exclude_threads=exclude_threads)
    profiler.start()
    try:
        # An Event wait, not time.sleep: wakes promptly under interpreter
        # shutdown and keeps the capture's own thread trivially cheap.
        threading.Event().wait(seconds)
    finally:
        report = profiler.stop()
    return report


class SlowProfileWriter:
    """Auto-capture for slow queries, appended as JSON lines.

    ``repro serve --profile-slow`` hands each slow request's trace id
    here; at most one capture runs at a time (a herd of slow queries
    yields one representative profile, not a pile-up of samplers), and
    each finished capture appends one ``{trace_id, latency_ms, …,
    stacks}`` object to ``slowprof-<worker>.jsonl`` next to the
    slow-query log — joinable back to the span tree by trace id, with
    the same size-based rotation policy as the trace export.
    """

    def __init__(
        self,
        path: str | Path,
        seconds: float = 2.0,
        hz: float = DEFAULT_HZ,
        max_bytes: int = DEFAULT_EXPORT_MAX_BYTES,
    ):
        self._path = Path(path).expanduser()
        self._seconds = float(seconds)
        self._hz = float(hz)
        self._max_bytes = int(max_bytes)
        self._busy = threading.Lock()
        self._write_lock = threading.Lock()
        self.captures = 0
        self.skipped = 0

    @property
    def path(self) -> Path:
        return self._path

    def maybe_capture(
        self,
        trace_id: str | None,
        path: str,
        latency_ms: float,
        wait: bool = False,
    ) -> bool:
        """Start a background capture for one slow request.

        Returns False (and counts a skip) when a capture is already in
        flight.  ``wait=True`` blocks until the capture has been written
        — tests use it; the serve path never does.
        """
        if not self._busy.acquire(blocking=False):
            self.skipped += 1
            return False
        thread = threading.Thread(
            target=self._run,
            args=(trace_id, path, latency_ms),
            name="repro-slowprof",
            daemon=True,
        )
        thread.start()
        if wait:
            thread.join()
        return True

    def _run(self, trace_id: str | None, path: str, latency_ms: float) -> None:
        try:
            # This thread only waits out the window; excluding it keeps
            # its own sleep from polluting the capture.
            report = capture(
                self._seconds,
                hz=self._hz,
                exclude_threads=(threading.get_ident(),),
            )
            entry = {
                "ts": round(time.time(), 3),
                "trace_id": trace_id,
                "path": path,
                "latency_ms": round(latency_ms, 3),
                **report.to_json(),
            }
            line = json.dumps(entry, separators=(",", ":"))
            with self._write_lock:
                append_jsonl_rotating(self._path, line, self._max_bytes)
            self.captures += 1
        except OSError:  # pragma: no cover - disk-full etc.
            pass
        finally:
            self._busy.release()

    @staticmethod
    def read(path: str | Path) -> list[dict]:
        """Every well-formed profile entry in ``path`` (skips torn lines)."""
        entries: list[dict] = []
        try:
            text = Path(path).expanduser().read_text(encoding="utf-8")
        except OSError:
            return entries
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict) and "stacks" in payload:
                entries.append(payload)
        return entries
