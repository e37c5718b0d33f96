"""The two HTTP workloads: one closed-loop client against ``repro serve``.

A dashboard user waits for each answer, and per-query CPU is the limit,
so a second client would mostly queue behind the GIL-bound run tier and
add scheduler noise.  The client keeps one HTTP/1.1 connection open.

An untraced run cold-starts the serving process, which then takes the
warm-up and the timed requests, a fixed count set by ``--seconds``.
Between quarters of the timed requests it cold-starts a throwaway server
as well, each with a fresh cache dir, and reports the median time from
spawn to the first correct answer of these ``SETUP_STARTS`` starts as
``setup_s``.  A shared virtual machine can change speed by tens of
percent within seconds, so starts spread over the run give a steadier
median than starts in a row.  A traced run starts a plain and a traced server side by side and
sends each of the first half of the timed requests to both, alternating
which goes first, so machine drift hits both sides alike.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import urlencode, urlsplit

import numpy as np

from perfbench import checks, layers, summary, workloads
from perfbench.summary import Outcome
from perfbench.workloads import Request

#: Cold starts per untraced run (the serving process, then one after each
#: quarter of the timed requests); ``setup_s`` is their median.
SETUP_STARTS = 5
#: Timed responses per run compared byte for byte with an in-process session.
SAMPLE_CHECKS = 6

_LISTEN = re.compile(r"listening on (http://[\w.\-]+:\d+)")
_SAMPLE_STREAM = 4


@dataclass
class Workload:
    name: str
    dataset: str
    serve_args: list[str]
    warmup: list[Request]
    timed: list[Request]
    #: Builds an in-process ``ExplainSession`` with the server's config.
    reference: Callable[[], object]
    shape: dict = field(default_factory=dict)


def flat_workload(seed: int, seconds: float, workdir: Path) -> Workload:
    from repro.core.config import ExplainConfig
    from repro.core.session import ExplainSession
    from repro.store.npz_source import write_npz

    relation = workloads.flat_relation(seed)
    path = workdir / "flat.npz"
    write_npz(relation, path)
    uri = f"npz:{path}"
    ops = workloads.timed_ops(seconds, workloads.FLAT_OPS_PER_SECOND)
    warmup, timed = workloads.flat_requests(seed, ops)
    return Workload(
        name="dashboard-flat",
        dataset=uri,
        serve_args=["--datasets", uri],
        warmup=warmup,
        timed=timed,
        reference=lambda: ExplainSession.from_source(uri, config=ExplainConfig.optimized()),
        shape={"rows": relation.n_rows, "n": workloads.FLAT_POINTS},
    )


def hier_workload(seed: int, seconds: float, workdir: Path) -> Workload:
    from repro.core.session import ExplainSession
    from repro.datasets.registry import load_dataset
    from repro.serve.registry import default_config_for

    dataset = load_dataset(workloads.HIER_DATASET)
    _, labels = dataset.relation.time_positions()
    ops = workloads.timed_ops(seconds, workloads.HIER_OPS_PER_SECOND)
    warmup, timed = workloads.hier_requests(seed, list(labels), ops)

    def reference() -> ExplainSession:
        return ExplainSession(
            dataset.relation,
            measure=dataset.measure,
            explain_by=dataset.explain_by,
            aggregate=dataset.aggregate,
            config=default_config_for(dataset),
        )

    return Workload(
        name="dashboard-hier",
        dataset=dataset.name,
        serve_args=["--datasets", dataset.name],
        warmup=warmup,
        timed=timed,
        reference=reference,
        shape={"rows": dataset.relation.n_rows, "n": len(labels)},
    )


def describe_cube(workload: Workload, session) -> None:
    """Add the prepared cube's epsilon and drill-down nodes to the shape."""
    from repro.ca.cascade import DrillDownTree

    cube = session.cube
    workload.shape["epsilon"] = cube.n_explanations
    workload.shape["drill_down_nodes"] = DrillDownTree(cube.explanations).n_nodes


# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` child process and a keep-alive client to it."""

    def __init__(self, root: Path, argv: list[str], log_path: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + str(root)
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, *argv],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self._connection: http.client.HTTPConnection | None = None
        url = self._await_listening()
        parts = urlsplit(url)
        self._connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=120)

    def _await_listening(self) -> str:
        for line in self.process.stdout:
            match = _LISTEN.search(line)
            if match:
                return match.group(1)
        self.stop()
        raise RuntimeError(f"repro serve exited before listening (log: {self._log.name})")

    def get(self, path: str, params: dict[str, str] | None = None) -> tuple[int, dict]:
        self._connection.request("GET", path + ("?" + urlencode(params) if params else ""))
        response = self._connection.getresponse()
        return response.status, json.loads(response.read())

    def explain(self, request: Request, dataset: str) -> tuple[int, dict, float]:
        started = time.perf_counter()
        status, payload = self.get("/explain", request.params(dataset))
        return status, payload, time.perf_counter() - started

    def stats(self) -> dict:
        status, payload = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return payload

    def stop(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self._log.close()


class TracedServer(Server):
    """A server started through :mod:`perfbench.launch`, with layer totals."""

    def __init__(self, root: Path, serve_args: list[str], workdir: Path):
        self._totals_dir = workdir / "totals"
        self._totals_dir.mkdir()
        self._snapshots = 0
        super().__init__(
            root,
            ["-m", "perfbench.launch", str(self._totals_dir), "serve", *serve_args],
            workdir / "traced-server.log",
        )

    def snapshot(self) -> dict:
        """The server's layer totals right now (asked for with SIGUSR1)."""
        self._snapshots += 1
        path = self._totals_dir / f"snapshot-{self._snapshots}.json"
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not path.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced server wrote no totals snapshot")
            time.sleep(0.01)
        return json.loads(path.read_text(encoding="utf-8"))

    def final_totals(self) -> dict:
        """The totals the server wrote at exit (call after :meth:`stop`)."""
        return json.loads((self._totals_dir / "final.json").read_text(encoding="utf-8"))


def _serve_argv(workload: Workload, cache_dir: Path) -> list[str]:
    return ["--port", "0", "--cache-dir", str(cache_dir), *workload.serve_args]


def disk_mb(cache_dir: Path) -> float:
    """Bytes under the cache dir, excluding the ``obs`` exports, in MiB."""
    total = 0
    for path in cache_dir.rglob("*"):
        if path.is_file() and path.relative_to(cache_dir).parts[0] != "obs":
            total += path.stat().st_size
    return total / 2**20


def _check_answer(outcome: Outcome, request: Request, status: int, payload: dict, what: str) -> None:
    if status != 200:
        outcome.fail(f"{what}: HTTP {status}: {payload.get('error')}")
        return
    problems = checks.tiling_problems(payload, request)
    if problems:
        outcome.fail(f"{what} {request}: {'; '.join(problems)}")


def _check_sample(outcome: Outcome, workload: Workload, seed: int, sent: list) -> None:
    """Compare a seeded sample of answers with an in-process session,
    whose cube also gives the workload's epsilon and drill-down nodes."""
    answered = [index for index, (_, status, _) in enumerate(sent) if status == 200]
    rng = np.random.default_rng([seed, _SAMPLE_STREAM])
    chosen = sorted(rng.choice(answered, size=min(SAMPLE_CHECKS, len(answered)), replace=False))
    session = workload.reference()
    for index in chosen:
        request, _, payload = sent[index]
        difference = checks.mismatch(payload, checks.expected(session, request))
        if difference:
            outcome.fail(f"timed op {index} {request}: {difference}")
    describe_cube(workload, session)


def _check_stats(outcome: Outcome, stats: dict) -> None:
    errors = stats["scheduler"]["errors"]
    misses = stats["registry"]["misses"]
    if errors != 0:
        outcome.fail(f"/stats reports {errors} scheduler error(s)")
    if misses != 1:
        outcome.fail(f"/stats reports {misses} registry misses, expected exactly 1")


def _cold_start(
    workload: Workload, root: Path, workdir: Path, index: int, outcome: Outcome
) -> tuple[Server, float]:
    """Start a server on a fresh cache dir; return it and the time from
    spawn to its first answer to the workload's first request."""
    first = workload.warmup[0]
    started = time.perf_counter()
    server = Server(
        root,
        ["-m", "repro", "serve", *_serve_argv(workload, workdir / f"cache-{index}")],
        workdir / f"server-{index}.log",
    )
    try:
        status, payload, _ = server.explain(first, workload.dataset)
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - started
    _check_answer(outcome, first, status, payload, f"cold start {index}")
    return server, elapsed


def run(workload: Workload, seed: int, root: Path, workdir: Path) -> Outcome:
    """Untraced run: the timed requests, with cold starts for ``setup_s``."""
    outcome = Outcome()
    chunk = -(-len(workload.timed) // (SETUP_STARTS - 1))
    server: Server | None = None
    try:
        server, setup = _cold_start(workload, root, workdir, 0, outcome)
        setups = [setup]
        for request in workload.warmup[1:]:
            status, payload, _ = server.explain(request, workload.dataset)
            _check_answer(outcome, request, status, payload, "warm-up")

        sent: list[tuple[Request, int, dict]] = []
        latencies: list[float] = []
        wall = 0.0
        for begin in range(0, len(workload.timed), chunk):
            started = time.perf_counter()
            for request in workload.timed[begin : begin + chunk]:
                status, payload, latency = server.explain(request, workload.dataset)
                sent.append((request, status, payload))
                if status == 200:
                    latencies.append(latency)
            wall += time.perf_counter() - started
            throwaway, setup = _cold_start(workload, root, workdir, len(setups), outcome)
            throwaway.stop()
            setups.append(setup)
        stats = server.stats()
        rss = summary.peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()

    outcome.attempted = len(sent)
    for index, (request, status, payload) in enumerate(sent):
        _check_answer(outcome, request, status, payload, f"timed op {index}")
    _check_stats(outcome, stats)
    _check_sample(outcome, workload, seed, sent)
    outcome.metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "latency_p50_ms": (1000.0 * summary.percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1000.0 * summary.percentile(latencies, 90), "ms"),
        "throughput_ops_per_s": (len(latencies) / wall, "1/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    outcome.shape = dict(
        workload.shape,
        **workloads.request_shape([request for request, _, _ in sent]),
        setup_samples_s=[round(value, 4) for value in setups],
    )
    return outcome


def run_traced(workload: Workload, seed: int, root: Path, workdir: Path) -> Outcome:
    """Traced run: per-layer metrics, with a plain server as the overhead baseline."""
    outcome = Outcome()
    plain_cache, traced_cache = workdir / "cache-plain", workdir / "cache-traced"
    servers: list[Server] = []
    try:
        plain = Server(root, ["-m", "repro", "serve", *_serve_argv(workload, plain_cache)],
                       workdir / "plain-server.log")
        servers.append(plain)
        traced = TracedServer(root, _serve_argv(workload, traced_cache), workdir)
        servers.append(traced)
        for request in workload.warmup:
            for side, server in (("plain", plain), ("traced", traced)):
                status, payload, _ = server.explain(request, workload.dataset)
                _check_answer(outcome, request, status, payload, f"{side} warm-up")

        stats_before = traced.stats()
        totals_before = traced.snapshot()
        sent: list[tuple[Request, int, dict]] = []
        plain_latencies: list[float] = []
        traced_latencies: list[float] = []
        pairs = len(workload.timed) // 2
        for index, request in enumerate(workload.timed[:pairs]):
            order = [(plain, plain_latencies), (traced, traced_latencies)]
            if index % 2:
                order.reverse()
            answers = {}
            for server, latencies in order:
                status, payload, latency = server.explain(request, workload.dataset)
                latencies.append(latency)
                answers[server is traced] = (status, payload)
            sent.append((request, *answers[True]))
            if checks.canonical(answers[True][1]) != checks.canonical(answers[False][1]):
                outcome.fail(f"traced and plain answers differ for {request}")
        totals_after = traced.snapshot()
        stats_after = traced.stats()
        cache_disk = disk_mb(traced_cache)
    finally:
        for server in servers:
            server.stop()

    outcome.attempted = 2 * pairs
    for index, (request, status, payload) in enumerate(sent):
        _check_answer(outcome, request, status, payload, f"timed op {index}")
    _check_stats(outcome, stats_after)
    _check_sample(outcome, workload, seed, sent)

    timed = layers.difference(totals_after, totals_before)
    dispatch_seconds = timed["busy"].get("serve.http.dispatch", 0.0)
    scheduler_wait = (
        stats_after["scheduler"]["wait_seconds"] - stats_before["scheduler"]["wait_seconds"]
    )
    lookups = {
        key: stats_after["registry"].get(key, 0) - stats_before["registry"].get(key, 0)
        for key in ("hits", "misses", "coalesced")
    }
    metrics = layers.per_op_metrics(timed, pairs, "core.session.explain")
    metrics.update(layers.per_run_metrics(traced.final_totals()))
    metrics.update(
        {
            "serve.http.tax_ms": (1000.0 * (sum(traced_latencies) - dispatch_seconds) / pairs, "ms"),
            "serve.scheduler.wait_ms": (1000.0 * scheduler_wait / pairs, "ms"),
            "serve.registry.hit_ratio": (
                lookups["hits"] / sum(lookups.values()) if sum(lookups.values()) else 0.0,
                "ratio",
            ),
            "cache_disk_mb": (cache_disk, "MiB"),
            "trace.overhead_pct": (
                100.0 * (summary.percentile(traced_latencies, 50)
                         / summary.percentile(plain_latencies, 50) - 1.0),
                "%",
            ),
        }
    )
    outcome.metrics = metrics
    outcome.shape = dict(workload.shape, **workloads.request_shape([r for r, _, _ in sent]))
    return outcome
