"""The multi-process serving front end: N workers, one port, one cube file.

One Python process caps the solve throughput at the GIL however many
threads the scheduler pools.  The classic fix — fork N servers — normally
multiplies resident memory by N, because every worker would hold a
private copy of every prepared cube.  This module combines two kernel
facilities so neither cost is paid:

* **``SO_REUSEPORT``** — every worker binds the *same* ``host:port`` with
  the option set and the kernel load-balances incoming connections across
  their accept queues.  No parent proxy, no socket hand-off; a worker
  that dies simply drops out of the group and the survivors keep
  answering.
* **the rollup-cache entry** (:mod:`repro.cube.cache`) — the parent
  pre-builds each dataset's cube once into the shared cache directory,
  whose uncompressed entries are mmap-able; every worker's registry then
  adopts the entry read-only via ``np.memmap``, so the series matrices
  live once in the page cache regardless of the worker count.  Resident
  memory is per *dataset*, not per worker.

Admission control rides along: each worker bounds its in-flight requests
(``max_inflight``) and sheds the excess with ``503`` + ``Retry-After``
instead of queueing unboundedly — N workers at the same port make
unbounded queues N times worse, so the bound is wired through here.

Platforms without ``SO_REUSEPORT`` (or explicit ``--workers 1``) fall
back to the classic single-process server; the CLI prints a notice and
serves identically, just without the parallelism.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import time
import urllib.request
from typing import Sequence

from repro.exceptions import QueryError
from repro.serve.http import reuseport_available

#: How long :meth:`WorkerPool.start` waits for workers to answer /healthz.
READY_TIMEOUT_SECONDS = 60.0

#: How long :meth:`WorkerPool.shutdown` waits for a graceful worker exit.
STOP_GRACE_SECONDS = 10.0


def _worker_main(options: dict) -> None:
    """One serve worker: bind the shared port, serve until stopped.

    Runs in a forked child.  SIGINT (the pool's graceful stop signal)
    surfaces as KeyboardInterrupt out of ``serve_forever``; the
    ``finally`` then drains in-flight requests before the process exits,
    so a pool shutdown never tears a response.
    """
    from repro.serve.http import make_app

    app = make_app(**options)
    try:
        app.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        app.shutdown()


def prebuild_artifacts(
    datasets: Sequence[str] | None, cache_dir: str, lattice: bool = False
) -> int:
    """Build and publish every dataset's cube once.

    Runs in the parent before forking: each cold build lands in
    ``cache_dir`` as a mmap-able cache entry, so every worker's first
    request is an artifact hit (warm start, no per-worker build).  The
    parent's own sessions are dropped afterwards — it keeps serving
    nothing, so its resident set stays small.  Returns the number of
    datasets prepared.
    """
    from repro.datasets.registry import available_datasets
    from repro.serve.registry import DatasetSpec, SessionRegistry
    from repro.store import is_source_uri

    names = tuple(datasets) if datasets is not None else available_datasets()
    specs = [
        DatasetSpec.from_source(name, lattice=lattice)
        if is_source_uri(name)
        else DatasetSpec.bundled(name, lattice=lattice)
        for name in names
    ]
    registry = SessionRegistry(specs=specs, cache_dir=cache_dir)
    for name in names:
        registry.session(name)
    registry.clear()
    return len(names)


class WorkerPool:
    """N forked ``SO_REUSEPORT`` serve workers over one shared cache directory.

    Parameters
    ----------
    options:
        :func:`~repro.serve.http.make_app` keyword options, applied to
        every worker.  ``port=0`` reserves an ephemeral port in the
        parent (read it back from :attr:`port`).  With a ``cache_dir``
        the parent pre-builds every dataset there and the workers adopt
        the entries memory-mapped — they do not build.
    workers:
        How many processes to fork (must be >= 2; use the plain
        :class:`~repro.serve.http.ServeApp` for one).
    """

    def __init__(self, options: dict, workers: int):
        if workers < 2:
            raise QueryError("WorkerPool needs workers >= 2; use ServeApp for 1")
        if not reuseport_available():
            raise QueryError(
                "SO_REUSEPORT is unavailable on this platform; "
                "serve single-process instead"
            )
        self._options = dict(options)
        self._workers = int(workers)
        self._procs: list[multiprocessing.process.BaseProcess] = []
        self._probe: socket.socket | None = None
        self._host = self._options.get("host", "127.0.0.1")
        self._port = int(self._options.get("port", 0))

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}"

    @property
    def pids(self) -> tuple[int, ...]:
        return tuple(proc.pid for proc in self._procs if proc.pid is not None)

    @property
    def alive(self) -> tuple[bool, ...]:
        return tuple(proc.is_alive() for proc in self._procs)

    @property
    def n_alive(self) -> int:
        return sum(self.alive)

    # ------------------------------------------------------------------
    def start(
        self, warm: bool = True, ready_timeout: float = READY_TIMEOUT_SECONDS
    ) -> "WorkerPool":
        """Reserve the port, pre-build the cubes, fork and await readiness."""
        # Reserve the port first: a bound (never listening) SO_REUSEPORT
        # socket pins an ephemeral port for the pool's lifetime without
        # receiving connections — TCP only balances across *listening*
        # members of the group.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind((self._host, self._port))
        self._probe = probe
        self._port = probe.getsockname()[1]

        worker_options = dict(self._options)
        worker_options.update(
            host=self._host, port=self._port, reuse_port=True
        )
        cache_dir = worker_options.get("cache_dir")
        if warm and cache_dir:
            prebuild_artifacts(
                worker_options.get("datasets"),
                cache_dir,
                lattice=bool(worker_options.get("lattice", False)),
            )
        context = multiprocessing.get_context("fork")
        # Each worker gets a stable id: its snapshot/trace/slow-log files
        # under the shared obs dir stay distinct, and /healthz and
        # /metrics scrapes can tell workers apart.
        self._procs = [
            context.Process(
                target=_worker_main,
                args=({**worker_options, "worker_id": f"w{index}"},),
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            for index in range(self._workers)
        ]
        for proc in self._procs:
            proc.start()
        self._await_ready(ready_timeout)
        return self

    def _await_ready(self, timeout: float) -> None:
        """Block until the port answers /healthz (any worker suffices)."""
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            if not any(proc.is_alive() for proc in self._procs):
                self.shutdown()
                raise QueryError("every serve worker exited during startup")
            try:
                with urllib.request.urlopen(
                    f"{self.url}/healthz", timeout=2.0
                ) as response:
                    if json.loads(response.read().decode("utf-8")).get("ok"):
                        return
            except Exception as error:  # noqa: BLE001 - retry until deadline
                last_error = error
            time.sleep(0.05)
        self.shutdown()
        raise QueryError(
            f"serve workers did not become ready within {timeout:.0f}s"
            + (f" (last error: {last_error})" if last_error else "")
        )

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block until every worker exits (CLI mode).

        Workers normally exit only on :meth:`shutdown` (or their own
        ``max_requests`` breaker); a KeyboardInterrupt here propagates
        to the caller, whose ``finally`` is expected to call
        :meth:`shutdown`.
        """
        for proc in self._procs:
            proc.join()

    def kill_worker(self, index: int) -> int | None:
        """Hard-kill one worker (chaos testing); returns its pid.

        The remaining workers keep the ``SO_REUSEPORT`` group alive —
        the kernel stops routing new connections to the dead socket, so
        clients only ever race the instant of death itself.
        """
        proc = self._procs[index]
        pid = proc.pid
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=STOP_GRACE_SECONDS)
        return pid

    def shutdown(self, grace: float = STOP_GRACE_SECONDS) -> None:
        """Gracefully stop every worker (SIGINT → drain), then escalate."""
        for proc in self._procs:
            if proc.is_alive() and proc.pid is not None:
                try:
                    # SIGINT surfaces as KeyboardInterrupt in the worker,
                    # which drains in-flight requests before exiting.
                    os.kill(proc.pid, signal.SIGINT)
                except (OSError, ProcessLookupError):
                    pass
        deadline = time.monotonic() + grace
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=STOP_GRACE_SECONDS)
        if self._probe is not None:
            try:
                self._probe.close()
            except OSError:
                pass
            self._probe = None
