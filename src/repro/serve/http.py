"""The stdlib JSON-over-HTTP front end of the serving tier.

No web framework — a :class:`http.server.ThreadingHTTPServer` whose
handler parses query strings, hands the work to the
:class:`~repro.serve.scheduler.QueryScheduler` (which dedupes identical
in-flight queries and shares prepared sessions through the registry), and
writes JSON.  Endpoints:

``GET /explain?dataset=NAME[&start=..&stop=..&k=..&m=..&metric=..&smoothing=..&variant=..&filter=0|1&filter_ratio=..]``
    Segment and explain the dataset's series (optionally windowed).
``GET /diff?dataset=NAME&start=..&stop=..[&m=..]``
    Two-point diff between two timestamp labels.
``GET /recommend?dataset=NAME[&m=..]``
    Rank the dataset's candidate explain-by attributes.
``GET /detect?dataset=NAME[&z_warn=..&z_alert=..&z_critical=..&min_deviation=..&min_volume=..&direction=both|spike|drop&top=..&plan=0|1]``
    Score every cube cell against its tiered rolling baseline
    (:mod:`repro.detect`); with ``plan=1`` the response also carries a
    reviewable suppression plan cross-linked to the top explanations.
``GET /datasets``
    Registered datasets with residency info.
``GET /stats``
    Registry + scheduler counters, memory, uptime.
``GET /healthz``
    Liveness probe with build info (version, pid, worker id, uptime).
``GET /metrics``
    Prometheus text exposition.  On a multi-process pool every worker
    merges the other workers' persisted snapshots into its own live
    registry, so one scrape sees the whole pool.
``GET /debug/profile?seconds=S&hz=H``
    Sample this worker's threads for ``S`` seconds (default 2, max 30)
    and return collapsed stacks as plain text — ``phase;frame;…;frame
    count`` lines, flamegraph.pl-compatible, with each sample attributed
    to its trace phase via the tracer's active-span map
    (:mod:`repro.obs.profile`).

Every response carries an ``X-Repro-Trace-Id`` header; sampled requests
export their phase-span tree as JSON lines (:mod:`repro.obs.trace`).
Errors map to JSON bodies: 400 for malformed or unservable queries
(:class:`~repro.exceptions.ReproError`), 404 for unknown paths or
unregistered datasets, 500 for anything unexpected.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.datasets.registry import available_datasets
from repro.exceptions import QueryError, ReproError
from repro.obs.logging import AccessLog, SlowQueryLog
from repro.obs.metrics import (
    get_registry as get_metrics,
    merge_snapshots,
    render_snapshot,
    SnapshotStore,
)
from repro.obs.profile import (
    DEFAULT_HZ as PROFILE_DEFAULT_HZ,
    SamplingProfiler,
    SlowProfileWriter,
    capture as capture_profile,
    check_hz,
)
from repro.obs.trace import JsonLinesExporter, Trace, start_trace
from repro.serve.jsonio import (
    detect_to_json,
    diff_to_json,
    recommend_to_json,
    result_to_json,
)
from repro.serve.registry import DatasetSpec, SessionRegistry
from repro.serve.scheduler import (
    DEFAULT_QUERY_WORKERS,
    DETECT_OVERRIDE_TYPES,
    QUERY_OVERRIDE_TYPES,
    QueryScheduler,
)

#: Query-string spellings that differ from the ExplainConfig field name.
_QS_NAME = {"smoothing_window": "smoothing", "use_filter": "filter"}


def _explain_param_table() -> dict[str, tuple[str, type]]:
    """``{query-string name: (scheduler parameter, type)}`` for /explain.

    Derived from the scheduler's canonical ``QUERY_OVERRIDE_TYPES`` so a
    new override becomes reachable over HTTP without a second edit here.
    """
    table: dict[str, tuple[str, type]] = {
        "start": ("start", str),
        "stop": ("stop", str),
    }
    for field, kind in QUERY_OVERRIDE_TYPES.items():
        table[_QS_NAME.get(field, field)] = (field, kind)
    return table


_EXPLAIN_TABLE = _explain_param_table()

#: Query-string spellings for /detect that differ from the scheduler name.
_DETECT_QS_NAME = {"max_cells": "top"}


def _detect_param_table() -> dict[str, tuple[str, type]]:
    """``{query-string name: (scheduler parameter, type)}`` for /detect,
    derived from ``DETECT_OVERRIDE_TYPES`` like the /explain table."""
    return {
        _DETECT_QS_NAME.get(field, field): (field, kind)
        for field, kind in DETECT_OVERRIDE_TYPES.items()
    }


_DETECT_TABLE = _detect_param_table()

#: Paths that get their own ``endpoint`` label on HTTP metrics; anything
#: else is folded into ``"other"`` so probing random URLs cannot blow up
#: the label cardinality of every scrape.
_KNOWN_ENDPOINTS = frozenset(
    (
        "/explain",
        "/diff",
        "/recommend",
        "/detect",
        "/datasets",
        "/stats",
        "/healthz",
        "/health",
        "/metrics",
        "/debug/profile",
    )
)

#: Longest profile window ``/debug/profile`` will run: the capture holds
#: a handler thread (and an admission slot) for its whole duration.
MAX_PROFILE_SECONDS = 30.0


def _coerce(name: str, raw: str, kind: type):
    # A blank value (``?k=``) reaches here because the parser keeps blank
    # values; it is malformed for every parameter type — silently running
    # the query with defaults instead would hide the client's typo.
    if raw == "":
        raise QueryError(f"parameter {name!r} expects {kind.__name__}, got an empty value")
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise QueryError(
            f"parameter {name!r} expects {kind.__name__}, got {raw!r}"
        ) from None


class _Handler(BaseHTTPRequestHandler):
    """One request; the app instance is injected via the server object."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY too, so a response never waits on the client's ACK of
    # the one before it (see _write_body).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        app: "ServeApp" = self.server.app  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        # Blank values are kept so ``?k=`` is rejected loudly by _coerce
        # instead of silently running the query with defaults.
        params = {
            name: values[-1]
            for name, values in parse_qs(
                parsed.query, keep_blank_values=True
            ).items()
        }
        # Captured here because dispatch pops it from its params dict.
        dataset = params.get("dataset")
        with start_trace(parsed.path, sampled=app.sample_trace()) as trace:
            if not app.try_admit():
                # Admission control: beyond max_inflight the server sheds
                # load with an immediate 503 + Retry-After instead of
                # queueing unboundedly behind the thread pool.
                status = 503
                app.count_response(parsed.path, status)
                self._write_json(
                    {"error": "server is at capacity; retry shortly"},
                    503,
                    retry_after=app.retry_after_seconds,
                    trace_id=trace.trace_id,
                )
            else:
                try:
                    if parsed.path == "/metrics":
                        try:
                            body, status = app.render_metrics(), 200
                        except Exception as error:  # pragma: no cover
                            body = f"# metrics unavailable: {error}\n"
                            status = 500
                        write = self._write_text
                    elif parsed.path == "/debug/profile":
                        try:
                            body, status = app.render_profile(params), 200
                        except ReproError as error:
                            body, status = f"error: {error}\n", 400
                        write = self._write_text
                    else:
                        try:
                            body, status = app.dispatch(parsed.path, params)
                        except ReproError as error:
                            body, status = {"error": str(error)}, 400
                        except Exception as error:  # pragma: no cover - 500
                            body, status = {"error": f"internal error: {error}"}, 500
                        write = self._write_json
                    # Count before writing (a client that has read its
                    # response must observe the updated counters).
                    app.note_request()
                    app.count_response(parsed.path, status)
                    write(body, status, trace_id=trace.trace_id)
                finally:
                    # Released only after the body is fully written, so a
                    # drain that observes zero in-flight requests knows
                    # every admitted response is already on the wire.
                    app.release()
                # Trip the max-requests breaker only after the body is
                # written and released — shutting down mid-write would
                # hand the last client a torn response.
                app.maybe_trip()
        # Latency / access log / slow-query log / trace export, after the
        # trace root span is closed: the request latency is its duration.
        app.observe_request(
            method=self.command,
            path=parsed.path,
            dataset=dataset,
            status=status,
            trace=trace,
        )

    def _write_json(
        self,
        payload: dict,
        status: int,
        retry_after: int | None = None,
        trace_id: str | None = None,
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self._write_body(body, status, "application/json", retry_after, trace_id)

    def _write_text(
        self, text: str, status: int, trace_id: str | None = None
    ) -> None:
        self._write_body(
            text.encode("utf-8"),
            status,
            "text/plain; version=0.0.4; charset=utf-8",
            None,
            trace_id,
        )

    def _write_body(
        self,
        body: bytes,
        status: int,
        content_type: str,
        retry_after: int | None,
        trace_id: str | None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if trace_id is not None:
            self.send_header("X-Repro-Trace-Id", trace_id)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # an HTTP/0.9 response has no head
            return
        # The status line, headers and body leave in one write: on a
        # keep-alive connection a separate body write would wait for the
        # client's delayed ACK of the headers (Nagle's algorithm).
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def log_request(self, code="-", size="-") -> None:
        # Per-request lines are emitted by observe_request through the
        # structured access log, with full latency and the trace id —
        # the stdlib line here would be a poorer duplicate.
        pass

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Stdlib plumbing messages (parse errors, broken pipes) go
        # through the structured access logger when one is configured.
        app: "ServeApp" = self.server.app  # type: ignore[attr-defined]
        if app.access_log is not None:
            app.access_log.message(format % args)
        elif app.verbose:
            super().log_message(format, *args)


class _ReuseportHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer that joins an ``SO_REUSEPORT`` group.

    Every multi-process serve worker binds the *same* port with this
    option set; the kernel then load-balances incoming connections
    across the workers' accept queues — no parent proxy process, no
    shared listening socket to inherit.
    """

    allow_reuse_address = False  # REUSEPORT is the sharing mechanism

    def server_bind(self) -> None:
        self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def reuseport_available() -> bool:
    """Whether this platform exposes ``SO_REUSEPORT`` (Linux, BSDs)."""
    return hasattr(socket, "SO_REUSEPORT")


#: glibc ``mallopt`` parameters (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_heap() -> None:
    """Keep the memory one query frees for the next (glibc only).

    A cold query builds (epsilon, segments) score matrices of a few MB
    (a solve chunk is budgeted at 32 MB) and frees them when it returns.
    glibc maps a block at or above its mmap threshold on its own and
    unmaps it when freed, and trims free heap top beyond its trim
    threshold, so the next query faults that memory in again page by
    page: ~2,000 minor faults per cold query over a 256-candidate flat
    cube, whose cost follows the host's memory load.  glibc raises both
    thresholds itself, to the largest mmapped block freed so far (at
    most 32 MiB) and twice that, so how much a query pages depends on
    what the process happened to free before.  A server starts at that
    ceiling instead: blocks under 32 MiB come from the heap, and up to
    64 MiB of free heap top stays mapped.  A no-op where the C library
    has no ``mallopt``.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


#: How long :meth:`ServeApp.shutdown` waits for in-flight requests.
SHUTDOWN_GRACE_SECONDS = 5.0


class ServeApp:
    """The wired-together serving tier: registry + scheduler + HTTP server.

    Parameters
    ----------
    registry / scheduler:
        The state and execution layers; :func:`make_app` builds both from
        flat options.
    host / port:
        Bind address; ``port=0`` asks the OS for an ephemeral port (read
        it back from :attr:`port` — the CLI prints it).
    max_requests:
        After this many served requests the server shuts itself down —
        smoke tests and CI use it to run a bounded session without
        process-kill choreography.  ``None`` (default) serves forever.
    max_inflight:
        Admission-control bound: beyond this many concurrently admitted
        requests, new ones are shed with ``503`` + ``Retry-After``
        instead of queueing unboundedly.  ``None`` (default) admits all.
    reuse_port:
        Bind with ``SO_REUSEPORT`` so N worker processes can share one
        port (:mod:`repro.serve.multiproc`); requires
        :func:`reuseport_available`.
    verbose:
        Log each request line to stderr (stdlib format).
    access_log:
        Emit one structured JSON line per request (method, path,
        dataset, status, latency, trace id) to stderr.  Off by default
        here so library/test construction stays quiet; :func:`make_app`
        defaults it *on* for real serving.
    slow_query_ms:
        Threshold for the slow-query log; ``None`` disables it.  With an
        ``obs_dir`` entries append to ``slowquery-<worker>.jsonl`` there,
        otherwise they go to stderr.
    trace_sample:
        Fraction of requests whose span tree is exported and visible to
        the profiler (``1.0`` = all).  Every request records its spans
        and gets an ``X-Repro-Trace-Id`` regardless.
    obs_dir:
        Directory for observability artifacts: periodic metrics
        snapshots (merged by every worker's ``/metrics``), the trace
        export, and the slow-query log.  :func:`make_app` derives it
        from ``cache_dir`` so a multi-process pool shares one.
    worker_id:
        Label for this process's snapshot/trace/slow-log files;
        :class:`~repro.serve.multiproc.WorkerPool` assigns ``w0..wN``.
        Defaults to ``pid<pid>``.
    snapshot_interval_seconds:
        How often the background flusher persists this worker's metrics
        snapshot to ``obs_dir`` (a scrape also writes one, so the
        interval only bounds staleness seen *via other workers*).
    profile_hz:
        Continuous-profiling rate; ``None`` (default) disables it.  When
        set, a background :class:`~repro.obs.profile.SamplingProfiler`
        runs for the server's whole lifetime feeding per-phase self-time
        into ``repro_profile_phase_self_seconds_total{phase}`` — a
        ``/metrics`` scrape then answers "which phase burns the time"
        with no capture round-trip.
    profile_slow:
        Auto-capture a short profile whenever a request crosses the
        slow-query threshold; entries append (with rotation) to
        ``slowprof-<worker>.jsonl`` next to the slow-query log, keyed by
        the slow request's trace id.  Requires ``slow_query_ms`` and an
        ``obs_dir``.
    profile_slow_seconds:
        Length of each auto-captured slow profile window.
    """

    def __init__(
        self,
        registry: SessionRegistry,
        scheduler: QueryScheduler | None = None,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_requests: int | None = None,
        max_inflight: int | None = None,
        reuse_port: bool = False,
        verbose: bool = False,
        access_log: bool = False,
        slow_query_ms: float | None = None,
        trace_sample: float = 1.0,
        obs_dir: str | Path | None = None,
        worker_id: str | None = None,
        snapshot_interval_seconds: float = 2.0,
        profile_hz: float | None = None,
        profile_slow: bool = False,
        profile_slow_seconds: float = 2.0,
    ):
        # A bad profiler rate is refused before the port is bound, not
        # after the address has been announced.
        if profile_hz is not None:
            check_hz(profile_hz)
        self.registry = registry
        self.scheduler = scheduler or QueryScheduler(registry)
        self.verbose = verbose
        self._max_requests = max_requests
        self._requests = 0
        self._requests_lock = threading.Lock()
        self._max_inflight = max_inflight
        self._inflight = 0
        self._rejected = 0
        self._inflight_cond = threading.Condition()
        self._shutdown_lock = threading.Lock()
        self._shutting_down = False
        self._shutdown_done = threading.Event()
        self._started = time.monotonic()
        # ----- observability ------------------------------------------
        self.worker_id = worker_id if worker_id is not None else f"pid{os.getpid()}"
        self._trace_sample = max(0.0, min(1.0, float(trace_sample)))
        self._obs_dir = Path(obs_dir).expanduser() if obs_dir is not None else None
        self._snapshots = (
            SnapshotStore(self._obs_dir) if self._obs_dir is not None else None
        )
        self._snapshot_interval = max(0.05, float(snapshot_interval_seconds))
        self._flush_stop = threading.Event()
        self._flusher: threading.Thread | None = None
        self.access_log = AccessLog() if access_log else None
        if slow_query_ms is not None:
            slow_path = (
                self._obs_dir / f"slowquery-{self.worker_id}.jsonl"
                if self._obs_dir is not None
                else None
            )
            self._slow_log = SlowQueryLog(
                slow_query_ms,
                path=slow_path,
                stream=None if slow_path is not None else sys.stderr,
            )
        else:
            self._slow_log = None
        self._trace_exporter = (
            JsonLinesExporter(self._obs_dir / f"traces-{self.worker_id}.jsonl")
            if self._obs_dir is not None
            else None
        )
        # Slow-query auto-profiling: only meaningful when there is a slow
        # log to key against and a directory to write beside it.
        if profile_slow and self._slow_log is not None and self._obs_dir is not None:
            self._slow_profiles = SlowProfileWriter(
                self._obs_dir / f"slowprof-{self.worker_id}.jsonl",
                seconds=profile_slow_seconds,
            )
        else:
            self._slow_profiles = None
        self._profile_hz = profile_hz
        self._profiler: SamplingProfiler | None = None
        metrics = get_metrics()
        self._metric_requests = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint and status",
            labels=("endpoint", "status"),
        )
        self._metric_latency = metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request latency by endpoint",
            labels=("endpoint",),
        )
        self._metric_inflight = metrics.gauge(
            "repro_http_inflight_requests", "Requests admitted and not yet written"
        )
        self._metric_rejected = metrics.counter(
            "repro_http_requests_rejected_total",
            "Requests shed with 503 by admission control",
        )
        self._metric_phase_seconds = metrics.counter(
            "repro_profile_phase_self_seconds_total",
            "Sampled wall-clock self time by trace phase (continuous profiler)",
            labels=("phase",),
        )
        # --------------------------------------------------------------
        server_class = _ReuseportHTTPServer if reuse_port else ThreadingHTTPServer
        self._server = server_class((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.app = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        # Set just before the accept loop runs: stopping a loop that never
        # ran would wait for it forever.
        self._accepting = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def requests_served(self) -> int:
        with self._requests_lock:
            return self._requests

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (CLI mode).

        The process is then the server's, so its allocator keeps freed
        memory for the next query (:func:`keep_freed_heap`).
        """
        keep_freed_heap()
        self._start_flusher()
        self._start_profiler()
        self._accepting = True
        self._server.serve_forever()

    def start(self) -> "ServeApp":
        """Serve on a daemon thread (tests, benchmarks); returns self."""
        self._start_flusher()
        self._start_profiler()
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-serve", daemon=True
        )
        self._accepting = True
        self._thread.start()
        return self

    def shutdown(self, grace: float = SHUTDOWN_GRACE_SECONDS) -> None:
        """Stop accepting, drain in-flight requests, then tear down.

        The drain is the torn-response fix: handler threads are daemons,
        so stopping the scheduler (or exiting the process) while a
        response is mid-write would cut the client off.  ``shutdown``
        first stops the accept loop (if it ever started), then waits up
        to ``grace`` seconds for every admitted request to finish
        writing, and only then closes the socket and the scheduler.
        Idempotent and safe to call concurrently — late callers wait for
        the first shutdown to complete instead of racing it.
        """
        with self._shutdown_lock:
            first = not self._shutting_down
            self._shutting_down = True
        if not first:
            self._shutdown_done.wait(timeout=grace + SHUTDOWN_GRACE_SECONDS)
            return
        try:
            if self._accepting:
                self._server.shutdown()  # stop the accept loop (blocks until out)
            self.drain(grace)
            self._server.server_close()
            self.scheduler.shutdown(wait=False)
            self._stop_profiler()
            self._stop_flusher()
            if self._thread is not None:
                # Leave _thread set: observers may still poll it for
                # liveness after shutdown completes.
                self._thread.join(timeout=5.0)
        finally:
            self._shutdown_done.set()

    def drain(self, grace: float = SHUTDOWN_GRACE_SECONDS) -> bool:
        """Wait until no admitted request is in flight; True if drained."""
        deadline = time.monotonic() + grace
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cond.wait(timeout=remaining)
            return True

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    @property
    def retry_after_seconds(self) -> int:
        """The ``Retry-After`` hint sent with shed (503) responses."""
        return 1

    @property
    def inflight(self) -> int:
        with self._inflight_cond:
            return self._inflight

    @property
    def requests_rejected(self) -> int:
        with self._inflight_cond:
            return self._rejected

    def try_admit(self) -> bool:
        """Admit one request, or refuse (the handler then sheds a 503)."""
        with self._inflight_cond:
            if (
                self._max_inflight is not None
                and self._inflight >= self._max_inflight
            ):
                self._rejected += 1
                self._metric_rejected.inc()
                return False
            self._inflight += 1
        self._metric_inflight.inc()
        return True

    def release(self) -> None:
        """Mark one admitted request complete (response fully written)."""
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()
        self._metric_inflight.dec()

    def note_request(self) -> None:
        """Count one served request toward ``max_requests``."""
        with self._requests_lock:
            self._requests += 1

    def count_response(self, path: str, status: int) -> None:
        """Count one response in ``repro_http_requests_total``.

        Called before the body is written, shed 503s included: a client
        that has read its response must find it in the next scrape.
        """
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        self._metric_requests.inc(endpoint=endpoint, status=str(status))

    def maybe_trip(self) -> None:
        """Stop serving once ``max_requests`` responses are out."""
        with self._requests_lock:
            tripped = (
                self._max_requests is not None
                and self._requests >= self._max_requests
            )
        if tripped:
            # The full shutdown must come from another thread:
            # serve_forever cannot process its own stop event while
            # handling a request.  Reusing shutdown() means the breaker
            # path drains in-flight requests exactly like a CLI exit.
            threading.Thread(target=self.shutdown, daemon=True).start()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def sample_trace(self) -> bool:
        """Whether this request's span tree should be collected."""
        if self._trace_sample >= 1.0:
            return True
        if self._trace_sample <= 0.0:
            return False
        return random.random() < self._trace_sample

    def observe_request(
        self,
        method: str,
        path: str,
        dataset: str | None,
        status: int,
        trace: Trace,
    ) -> None:
        """Record one finished request: latency, logs, trace export.

        Its count is already in (:meth:`count_response`).
        """
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        seconds = trace.duration_seconds
        self._metric_latency.observe(seconds, endpoint=endpoint)
        latency_ms = seconds * 1000.0
        trace_id = trace.trace_id
        if self.access_log is not None:
            self.access_log.log(
                method, path, status, latency_ms, dataset=dataset, trace_id=trace_id
            )
        if self._slow_log is not None:
            was_slow = self._slow_log.observe(
                path, latency_ms, dataset=dataset, trace_id=trace_id, status=status
            )
            if was_slow and self._slow_profiles is not None:
                # Capture runs on its own daemon thread; at most one at a
                # time, so a herd of slow queries yields one profile.
                self._slow_profiles.maybe_capture(trace_id, path, latency_ms)
        if self._trace_exporter is not None:
            try:
                self._trace_exporter.export(trace)
            except OSError:  # pragma: no cover - disk-full etc.
                pass

    def render_metrics(self) -> str:
        """This process's metrics, merged with sibling workers' snapshots.

        Without an ``obs_dir`` there is nothing to merge and the live
        registry renders directly.  With one, the scrape first persists
        a fresh snapshot of *this* worker (so siblings scraped next see
        it current), then merges every other live worker's latest file —
        one scrape reflects the whole ``SO_REUSEPORT`` pool.
        """
        metrics = get_metrics()
        if self._snapshots is None:
            return metrics.render()
        snapshot = metrics.snapshot(worker=self.worker_id)
        try:
            self._snapshots.write(snapshot, self.worker_id)
        except OSError:  # pragma: no cover - scrape must still answer
            pass
        others = [
            other
            for other in self._snapshots.load_all()
            if other.get("worker") != self.worker_id
        ]
        return render_snapshot(merge_snapshots([snapshot, *others]))

    def render_profile(self, params: dict[str, str]) -> str:
        """Run one ``/debug/profile`` capture and return collapsed stacks.

        Blocks the calling handler thread for the window (that thread is
        excluded from its own capture, so the wait doesn't show up as a
        fake hotspot); other requests keep being served meanwhile and
        are exactly what the capture observes.
        """
        unknown = set(params) - {"seconds", "hz"}
        if unknown:
            raise QueryError(
                f"unsupported parameter(s) {sorted(unknown)} for /debug/profile"
            )
        seconds = _coerce("seconds", params.get("seconds", "2"), float)
        hz = _coerce("hz", params.get("hz", str(PROFILE_DEFAULT_HZ)), float)
        if not 0.0 < seconds <= MAX_PROFILE_SECONDS:
            raise QueryError(
                f"seconds must be in (0, {MAX_PROFILE_SECONDS:g}], got {seconds:g}"
            )
        report = capture_profile(
            seconds, hz=hz, exclude_threads=(threading.get_ident(),)
        )
        collapsed = report.collapsed()
        return collapsed if collapsed else "# no samples\n"

    def _start_profiler(self) -> None:
        """Start the continuous low-rate profiler when configured."""
        if self._profile_hz is None or self._profiler is not None:
            return
        self._profiler = SamplingProfiler(
            hz=self._profile_hz, phase_counter=self._metric_phase_seconds
        )
        self._profiler.start()

    def _stop_profiler(self) -> None:
        if self._profiler is not None:
            self._profiler.stop()

    @property
    def continuous_profiler(self) -> SamplingProfiler | None:
        return self._profiler

    @property
    def slow_profile_path(self) -> Path | None:
        return self._slow_profiles.path if self._slow_profiles is not None else None

    @property
    def trace_export_path(self) -> Path | None:
        return self._trace_exporter.path if self._trace_exporter is not None else None

    @property
    def slow_query_log(self) -> SlowQueryLog | None:
        return self._slow_log

    def _start_flusher(self) -> None:
        if self._snapshots is None or self._flusher is not None:
            return
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-obs-flush", daemon=True
        )
        self._flusher.start()

    def _flush_loop(self) -> None:
        while not self._flush_stop.wait(self._snapshot_interval):
            self._write_snapshot()

    def _stop_flusher(self) -> None:
        self._flush_stop.set()
        if self._flusher is not None:
            self._flusher.join(timeout=2.0)
        # One final write so a drained worker's last counters survive
        # for siblings to merge until its pid is observed dead.
        self._write_snapshot()

    def _write_snapshot(self) -> None:
        if self._snapshots is None:
            return
        try:
            self._snapshots.write(
                get_metrics().snapshot(worker=self.worker_id), self.worker_id
            )
        except OSError:  # pragma: no cover - disk-full etc.
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def dispatch(self, path: str, params: dict[str, str]) -> tuple[dict, int]:
        """Resolve one request to ``(json_payload, status)``."""
        if path in ("/healthz", "/health"):
            return (
                {
                    "ok": True,
                    "version": __version__,
                    "pid": os.getpid(),
                    "worker": self.worker_id,
                    "uptime_seconds": round(time.monotonic() - self._started, 3),
                },
                200,
            )
        if path == "/datasets":
            return {"datasets": self.registry.describe()}, 200
        if path == "/stats":
            self.registry.sweep()
            return (
                {
                    "uptime_seconds": round(time.monotonic() - self._started, 3),
                    "requests": self.requests_served,
                    "inflight": self.inflight,
                    "rejected": self.requests_rejected,
                    "max_inflight": self._max_inflight,
                    "registry": self.registry.stats(),
                    "scheduler": self.scheduler.stats(),
                },
                200,
            )
        if path in ("/explain", "/diff", "/recommend", "/detect"):
            dataset = params.pop("dataset", None)
            if not dataset:
                raise QueryError(f"{path} requires a dataset parameter")
            if dataset not in self.registry:
                return (
                    {
                        "error": f"unknown dataset {dataset!r}",
                        "registered": list(self.registry.names()),
                    },
                    404,
                )
            return self._query(path.lstrip("/"), dataset, params), 200
        return {"error": f"no such endpoint {path!r}"}, 404

    def _query(self, kind: str, dataset: str, params: dict[str, str]) -> dict:
        if kind == "explain":
            known = _EXPLAIN_TABLE
        elif kind == "detect":
            known = _DETECT_TABLE
        elif kind == "diff":
            known = {"start": ("start", str), "stop": ("stop", str), "m": ("m", int)}
        else:
            known = {"m": ("m", int)}
        unknown = set(params) - set(known)
        if unknown:
            raise QueryError(
                f"unsupported parameter(s) {sorted(unknown)} for /{kind}"
            )
        converted = {
            known[qs][0]: _coerce(qs, raw, known[qs][1])
            for qs, raw in params.items()
        }
        outcome = self.scheduler.execute(kind, dataset, **converted)
        if kind == "explain":
            return result_to_json(outcome)
        if kind == "detect":
            return detect_to_json(outcome)
        if kind == "diff":
            return diff_to_json(outcome)
        return recommend_to_json(outcome)


def make_app(
    datasets: Sequence[str] | None = None,
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir: str | None = None,
    memory_budget_bytes: int | None = None,
    ttl_seconds: float | None = None,
    query_workers: int = DEFAULT_QUERY_WORKERS,
    max_requests: int | None = None,
    max_inflight: int | None = None,
    lattice: bool = False,
    reuse_port: bool = False,
    verbose: bool = False,
    access_log: bool = True,
    slow_query_ms: float | None = None,
    trace_sample: float = 1.0,
    obs_dir: str | None = None,
    worker_id: str | None = None,
    profile_hz: float | None = None,
    profile_slow: bool = False,
    profile_slow_seconds: float = 2.0,
) -> ServeApp:
    """Assemble a ready-to-start :class:`ServeApp` from flat options.

    ``datasets`` defaults to every bundled dataset; entries may also be
    :mod:`repro.store` source URIs (``csv:…`` / ``npz:…`` / ``sqlite:…``),
    which are served through the source-keyed rollup cache and the
    out-of-core build.  With a ``cache_dir``, cold prepares adopt the
    dataset's cache entry memory-mapped when one exists (and feed it
    when not) — the multi-process front end (:mod:`repro.serve.multiproc`)
    relies on it so N workers share one resident copy per dataset;
    ``reuse_port`` binds the listening socket with ``SO_REUSEPORT`` for
    the same purpose.  ``lattice`` routes every cold prepare through the
    dataset's rollup lattice (:mod:`repro.lattice`) — pre-build it with
    ``repro lattice build`` and point both at the same ``cache_dir``.

    Observability: ``access_log`` defaults *on* here (real serving wants
    request lines; tests construct with ``access_log=False``), and
    ``obs_dir`` defaults to ``<cache_dir>/obs`` when a cache dir is
    given so multi-process workers merge their metrics snapshots, trace
    exports and slow-query logs under one shared directory.
    ``profile_hz`` turns on the continuous phase-attributed profiler and
    ``profile_slow`` auto-captures a profile for each slow query
    (:mod:`repro.obs.profile`).
    """
    names = tuple(datasets) if datasets is not None else available_datasets()
    specs = [DatasetSpec.for_name(name, lattice=lattice) for name in names]
    registry = SessionRegistry(
        specs=specs,
        memory_budget_bytes=memory_budget_bytes,
        ttl_seconds=ttl_seconds,
        cache_dir=cache_dir,
    )
    scheduler = QueryScheduler(registry, max_workers=query_workers)
    if obs_dir is None and cache_dir is not None:
        obs_dir = str(Path(cache_dir).expanduser() / "obs")
    return ServeApp(
        registry,
        scheduler,
        host=host,
        port=port,
        max_requests=max_requests,
        max_inflight=max_inflight,
        reuse_port=reuse_port,
        verbose=verbose,
        access_log=access_log,
        slow_query_ms=slow_query_ms,
        trace_sample=trace_sample,
        obs_dir=obs_dir,
        worker_id=worker_id,
        profile_hz=profile_hz,
        profile_slow=profile_slow,
        profile_slow_seconds=profile_slow_seconds,
    )
