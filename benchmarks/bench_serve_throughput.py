"""Serving-tier load test: concurrent clients, one and many processes.

The serving tier's claims, measured end to end over real HTTP:

1. the first ``/explain`` for a dataset pays the cold build once
   (single-flight: a whole herd of concurrent clients triggers exactly
   one prepare), after which **warm** requests are served from the
   session LRU orders of magnitude faster — cold latency vs warm
   p50/p95 and aggregate requests/second are reported;
2. the served answers carry **byte-identical** top-k explanations
   (``float.hex`` comparison over HTTP JSON) to a direct in-process
   :class:`ExplainSession` over the same data and configuration;
3. the **multi-process front end** (``repro serve --workers N``) answers
   identically to the single-process server from one shared mmap-ed cube
   file, with per-worker RSS far below a per-worker cube copy —
   measured end to end through the real CLI, with p50/p95/p99 latency
   per worker count.

``BENCH_serve.json`` is a *trajectory*: every run appends a record
(``support.append_run``) instead of overwriting, so regressions show up
as a time series across commits (each record carries the git revision).
"""

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.datasets.synthetic import generate_synthetic
from repro.serve.http import ServeApp, reuseport_available
from repro.serve.registry import DatasetSpec, SessionRegistry
from repro.serve.scheduler import QueryScheduler
from support import append_run, emit, git_rev, is_paper_scale, scale

BENCH_JSON = Path(__file__).parent / "BENCH_serve.json"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _get_json(url: str):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))



def _rss_mb(pid: int) -> float | None:
    """Resident set size of ``pid`` in MiB (Linux /proc; None elsewhere)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    except OSError:
        return None
    match = re.search(r"^VmRSS:\s+(\d+)\s+kB", text, re.MULTILINE)
    return round(int(match.group(1)) / 1024.0, 1) if match else None


def _served_top_k(payload: dict):
    """Byte-exact rendering of a served /explain response's top-k."""
    return tuple(
        (
            segment["start_label"],
            segment["stop_label"],
            tuple(
                (scored["explanation"], scored["gamma_hex"], scored["tau"])
                for scored in segment["explanations"]
            ),
        )
        for segment in payload["segments"]
    )


def _session_top_k(result):
    return tuple(
        (
            segment.start_label,
            segment.stop_label,
            tuple(
                (repr(s.explanation), s.gamma.hex(), s.tau)
                for s in segment.explanations
            ),
        )
        for segment in result.segments
    )


def bench_serve_throughput(benchmark):
    n_points = 480 if is_paper_scale() else 240
    n_categories = 1024 if is_paper_scale() else 256
    n_clients = 16 if is_paper_scale() else 8
    n_requests = 128 if is_paper_scale() else 64
    synthetic = generate_synthetic(
        seed=23, snr_db=40.0, n_points=n_points, n_categories=n_categories
    )
    dataset = synthetic.dataset
    config = ExplainConfig.optimized(k=3)

    # --- 1. concurrent clients against a live server ----------------------
    spec = DatasetSpec.from_dataset(dataset, config=config)
    registry = SessionRegistry([spec])
    app = ServeApp(
        registry, QueryScheduler(registry, max_workers=n_clients), port=0
    ).start()
    try:
        url = f"{app.url}/explain?dataset={dataset.name}"

        started = time.perf_counter()
        cold_payload = _get_json(url)
        cold_seconds = time.perf_counter() - started

        latencies: list[float] = []

        def one_request(_):
            request_started = time.perf_counter()
            payload = _get_json(url)
            latencies.append(time.perf_counter() - request_started)
            return payload

        wall_started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=n_clients) as clients:
            payloads = list(clients.map(one_request, range(n_requests)))
        wall_seconds = time.perf_counter() - wall_started
        throughput = n_requests / wall_seconds
        p50, p95 = (float(np.percentile(latencies, q)) for q in (50, 95))

        # Every concurrent answer is identical, and the cold build ran once.
        reference = _served_top_k(cold_payload)
        assert all(_served_top_k(p) == reference for p in payloads)
        stats = _get_json(f"{app.url}/stats")
        assert stats["registry"]["misses"] == 1

        warm_result = benchmark.pedantic(
            lambda: _get_json(url), rounds=5, iterations=1
        )
        assert _served_top_k(warm_result) == reference
        epsilon = registry.session(dataset.name).cube.n_explanations
    finally:
        app.shutdown()

    # --- 2. parity with a direct in-process session -----------------------
    direct = ExplainSession(
        dataset.relation,
        dataset.measure,
        dataset.explain_by,
        config=config,
    ).explain()
    assert reference == _session_top_k(direct)

    import os

    cores = os.cpu_count() or 1
    lines = [
        f"rows={dataset.relation.n_rows} epsilon={epsilon} "
        f"n={n_points} clients={n_clients} requests={n_requests} cores={cores}",
        f"cold  /explain (build + query): {cold_seconds * 1000:8.1f} ms",
        f"warm  /explain p50:             {p50 * 1000:8.1f} ms",
        f"warm  /explain p95:             {p95 * 1000:8.1f} ms",
        f"throughput ({n_clients} concurrent clients): {throughput:8.1f} req/s",
        "served vs direct-session top-k: byte-identical",
        "cold builds for the client herd: 1 (single-flight)",
    ]
    emit("serve_throughput", "\n".join(lines))
    record = {
        "bench": "serve_throughput",
        "scale": scale(),
        "git_rev": git_rev(),
        "rows": dataset.relation.n_rows,
        "cores": cores,
        "clients": n_clients,
        "requests": n_requests,
        "http": {
            "cold_ms": round(cold_seconds * 1000, 3),
            "warm_p50_ms": round(p50 * 1000, 3),
            "warm_p95_ms": round(p95 * 1000, 3),
            "throughput_rps": round(throughput, 1),
            "cold_builds": 1,
        },
    }
    append_run(BENCH_JSON, record)
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["throughput_rps"] = round(throughput, 1)
    benchmark.extra_info["warm_p50_ms"] = round(p50 * 1000, 2)
    benchmark.extra_info["warm_p95_ms"] = round(p95 * 1000, 2)


# ----------------------------------------------------------------------
# 3. multi-process worker sweep (through the real CLI)
# ----------------------------------------------------------------------
_LISTEN_RE = re.compile(r"listening on (http://[\d.]+:\d+)")
_PIDS_RE = re.compile(r"workers: \d+ \(pids ([\d, ]+)\)")


class _CliServer:
    """One ``repro serve`` subprocess; parses its URL and worker pids."""

    def __init__(self, uri: str, cache_dir: str, workers: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--datasets", uri, "--cache-dir", cache_dir,
                "--workers", str(workers), "--max-inflight", "64",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        self.url: str | None = None
        self.pids: list[int] = []
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("repro serve exited before listening")
            if match := _LISTEN_RE.search(line):
                self.url = match.group(1)
            if match := _PIDS_RE.search(line):
                self.pids = [int(p) for p in match.group(1).split(",")]
            if self.url and (workers == 1 or self.pids):
                break
        if not self.url:
            raise RuntimeError("no listen line from repro serve")
        if not self.pids:
            self.pids = [self.proc.pid]

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()


def _canonical(payload: dict) -> dict:
    """A served /explain payload minus its wall-clock timings."""
    payload = dict(payload)
    payload.pop("timings", None)
    return payload


def bench_serve_worker_sweep(benchmark):
    if not reuseport_available():  # pragma: no cover - non-Linux fallback
        import pytest

        pytest.skip("SO_REUSEPORT unavailable; multi-process serve disabled")
    sweep = (1, 2, 4) if is_paper_scale() else (1, 2)
    n_clients = 8 if is_paper_scale() else 6
    n_requests = 96 if is_paper_scale() else 48
    n_points = 480 if is_paper_scale() else 240
    n_categories = 1024 if is_paper_scale() else 256
    synthetic = generate_synthetic(
        seed=23, snr_db=40.0, n_points=n_points, n_categories=n_categories
    )

    from repro.store.npz_source import write_npz

    points: list[dict] = []
    reference: dict | None = None
    with tempfile.TemporaryDirectory() as tmp:
        source_path = Path(tmp) / "sweep.npz"
        write_npz(synthetic.dataset.relation, source_path)
        uri = f"npz:{source_path}"
        cube_nbytes = None
        for workers in sweep:
            # A fresh cache dir per point would defeat the sweep's purpose:
            # every point shares the one cube file, so points 2+ start warm
            # (the paper-metric: memory-mapped adoption, not rebuild).
            cache_dir = str(Path(tmp) / "cache")
            server = _CliServer(uri, cache_dir, workers)
            try:
                explain_url = f"{server.url}/explain?dataset={uri}"
                warmup = _canonical(_get_json(explain_url))
                if reference is None:
                    reference = warmup
                assert warmup == reference, "worker sweep answers diverged"

                latencies: list[float] = []

                def one_request(_):
                    started = time.perf_counter()
                    payload = _get_json(explain_url)
                    latencies.append(time.perf_counter() - started)
                    return payload

                wall_started = time.perf_counter()
                with ThreadPoolExecutor(max_workers=n_clients) as clients:
                    payloads = list(clients.map(one_request, range(n_requests)))
                wall_seconds = time.perf_counter() - wall_started
                assert all(_canonical(p) == reference for p in payloads)

                rss = [_rss_mb(pid) for pid in server.pids]
                stats = _get_json(f"{server.url}/stats")
                cube_nbytes = stats["registry"]["memory_bytes"]
                p50, p95, p99 = (
                    float(np.percentile(latencies, q)) for q in (50, 95, 99)
                )
                points.append(
                    {
                        "workers": workers,
                        "p50_ms": round(p50 * 1000, 3),
                        "p95_ms": round(p95 * 1000, 3),
                        "p99_ms": round(p99 * 1000, 3),
                        "throughput_rps": round(n_requests / wall_seconds, 1),
                        "per_worker_rss_mb": rss,
                    }
                )
            finally:
                server.stop()

        # One timed warm request through a fresh 2-worker pool for the
        # pytest-benchmark record.
        server = _CliServer(uri, str(Path(tmp) / "cache"), 2)
        try:
            explain_url = f"{server.url}/explain?dataset={uri}"
            _get_json(explain_url)  # warm both the cube file and the socket
            warm = benchmark.pedantic(
                lambda: _get_json(explain_url), rounds=5, iterations=1
            )
            assert _canonical(warm) == reference
        finally:
            server.stop()

    cores = os.cpu_count() or 1
    lines = [
        f"rows={synthetic.dataset.relation.n_rows} clients={n_clients} "
        f"requests={n_requests} cores={cores} "
        f"resident_cube={cube_nbytes / 1e6:.1f} MB (shared via mmap)"
    ]
    for point in points:
        rss_text = ", ".join(
            "n/a" if value is None else f"{value:.0f}" for value in point["per_worker_rss_mb"]
        )
        lines.append(
            f"workers={point['workers']}: p50 {point['p50_ms']:7.1f} ms  "
            f"p95 {point['p95_ms']:7.1f} ms  p99 {point['p99_ms']:7.1f} ms  "
            f"{point['throughput_rps']:6.1f} req/s  rss/worker [{rss_text}] MB"
        )
    lines.append("all sweep points answer identically (timings excluded)")
    emit("serve_worker_sweep", "\n".join(lines))
    append_run(
        BENCH_JSON,
        {
            "bench": "serve_worker_sweep",
            "scale": scale(),
            "git_rev": git_rev(),
            "rows": synthetic.dataset.relation.n_rows,
            "cores": cores,
            "clients": n_clients,
            "requests": n_requests,
            "resident_cube_bytes": cube_nbytes,
            "sweep": points,
        },
    )
    benchmark.extra_info["sweep"] = json.dumps(points)
