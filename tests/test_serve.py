"""Tests for the serving tier (repro.serve).

Covers the session registry (LRU, TTL, memory budget, single-flight
coalescing, memory-mapped adoption of a warm cache entry), the query
scheduler (in-flight dedupe), and the JSON-over-HTTP API (every endpoint,
error mapping, and parity with the CLI's answers) — plus the ``repro
serve`` CLI verb end-to-end in a subprocess.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import socketserver
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.datasets.base import Dataset
from repro.exceptions import QueryError
from repro.serve.http import ServeApp, make_app
from repro.serve.registry import DatasetSpec, SessionRegistry, session_nbytes
from repro.serve.scheduler import QueryScheduler
from tests.conftest import regime_relation


def make_dataset(name: str = "regime", n: int = 24) -> Dataset:
    return Dataset(
        name=name,
        relation=regime_relation(n=n),
        measure="sales",
        explain_by=("cat",),
        aggregate="sum",
    )


def spec_for(dataset: Dataset, **kwargs) -> DatasetSpec:
    kwargs.setdefault("config", ExplainConfig(k=2))
    return DatasetSpec.from_dataset(dataset, **kwargs)


def _get_json(url: str):
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read().decode("utf-8"))


# ----------------------------------------------------------------------
# SessionRegistry
# ----------------------------------------------------------------------
class TestSessionRegistry:
    def test_unknown_dataset_raises(self):
        registry = SessionRegistry()
        with pytest.raises(QueryError, match="unknown dataset"):
            registry.session("nope")

    def test_sessions_are_cached_and_counted(self):
        calls = []
        dataset = make_dataset()
        spec = DatasetSpec(
            name="regime",
            loader=lambda: calls.append(1) or dataset,
            config=ExplainConfig(k=2),
        )
        registry = SessionRegistry([spec])
        first = registry.session("regime")
        second = registry.session("regime")
        assert first is second
        assert calls == [1]
        stats = registry.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["resident_sessions"] == 1
        assert stats["memory_bytes"] == session_nbytes(first) > 0

    def test_cold_build_is_single_flight(self):
        release = threading.Event()
        calls = []
        dataset = make_dataset()

        def slow_loader():
            calls.append(1)
            release.wait(timeout=10.0)
            return dataset

        registry = SessionRegistry(
            [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
        )
        sessions: list = []
        threads = [
            threading.Thread(target=lambda: sessions.append(registry.session("regime")))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(timeout=15.0)
        assert len(calls) == 1, "concurrent cold requests must coalesce to one prepare"
        assert len(sessions) == 6
        assert all(session is sessions[0] for session in sessions)
        stats = registry.stats()
        assert stats["coalesced"] >= 1
        assert stats["misses"] >= 1

    def test_ttl_expires_idle_sessions(self):
        now = [0.0]
        registry = SessionRegistry(
            [spec_for(make_dataset())], ttl_seconds=10.0, clock=lambda: now[0]
        )
        first = registry.session("regime")
        now[0] = 5.0
        assert registry.session("regime") is first  # still fresh
        now[0] = 20.0
        second = registry.session("regime")
        assert second is not first
        assert registry.stats()["expirations"] == 1

    def test_sweep_drops_expired_sessions(self):
        now = [0.0]
        registry = SessionRegistry(
            [spec_for(make_dataset())], ttl_seconds=1.0, clock=lambda: now[0]
        )
        registry.session("regime")
        assert registry.sweep() == 0
        now[0] = 5.0
        assert registry.sweep() == 1
        assert registry.stats()["resident_sessions"] == 0

    def test_memory_budget_evicts_lru_but_keeps_newest(self):
        specs = [
            spec_for(make_dataset(name=f"d{i}")) for i in range(3)
        ]
        registry = SessionRegistry(specs, memory_budget_bytes=1)  # everything over
        registry.session("d0")
        registry.session("d1")
        registry.session("d2")
        stats = registry.stats()
        # Each admit evicts the previous resident; the newest survives
        # even though it alone exceeds the budget.
        assert stats["resident_sessions"] == 1
        assert stats["evictions"] == 2
        assert registry.describe()[-1]["loaded"]

    def test_lru_order_follows_use_not_admission(self):
        big_budget = 10**9
        registry = SessionRegistry(
            [spec_for(make_dataset(name=name)) for name in ("a", "b")],
            memory_budget_bytes=big_budget,
        )
        session_a = registry.session("a")
        registry.session("b")
        registry.session("a")  # refresh a: b is now least recently used
        # Shrink the effective budget by registering a third dataset and
        # admitting it with a tiny budget.
        registry._memory_budget = 1  # type: ignore[attr-defined]
        registry.register(spec_for(make_dataset(name="c")))
        registry.session("c")
        names = [row["name"] for row in registry.describe() if row["loaded"]]
        assert names == ["c"]
        # "a" survived longer than "b" in the eviction sequence: rebuild
        # and check the counters add up.
        assert registry.stats()["evictions"] == 2
        assert session_a.prepared

    def test_describe_lists_loaded_metadata(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        rows = registry.describe()
        assert rows[0] == {"name": "regime", "description": "", "loaded": False}
        registry.session("regime")
        row = registry.describe()[0]
        assert row["loaded"] and row["epsilon"] > 0 and row["memory_bytes"] > 0

    @pytest.mark.parametrize("kind", ["bundled", "source"])
    def test_second_registry_adopts_the_first_ones_entry_memory_mapped(
        self, tmp_path, kind
    ):
        """The adopt key a registry derives equals the key its own cold
        build stores under: a second registry over the same cache dir
        adopts the first one's entry memory-mapped and answers /explain
        byte-identically."""
        if kind == "bundled":
            name = "covid-total"
            spec = DatasetSpec.bundled(name)
        else:
            from repro.store.npz_source import write_npz

            path = tmp_path / "regime.npz"
            write_npz(regime_relation(n=30), path)
            name = f"npz:{path}"
            spec = DatasetSpec.from_source(name)
        cache_dir = str(tmp_path / "cache")

        def serve_once():
            registry = SessionRegistry([spec], cache_dir=cache_dir)
            app = ServeApp(registry, QueryScheduler(registry), port=0).start()
            try:
                payload = _get_json(
                    f"{app.url}/explain?dataset={urllib.parse.quote(name, safe='')}"
                )
            finally:
                app.shutdown()
            payload.pop("timings")
            return registry, json.dumps(payload, sort_keys=True)

        first, first_body = serve_once()
        assert first.stats()["adopt_hits"] == 0
        second, second_body = serve_once()
        assert second.stats()["adopt_hits"] == 1
        session = second.session(name)
        assert isinstance(session.cube.included_values, np.memmap)
        if kind == "source":
            assert session.relation_loaded is False
        assert second_body == first_body


# ----------------------------------------------------------------------
# QueryScheduler
# ----------------------------------------------------------------------
class TestQueryScheduler:
    def test_identical_inflight_queries_share_one_future(self):
        release = threading.Event()
        dataset = make_dataset()

        def slow_loader():
            release.wait(timeout=10.0)
            return dataset

        registry = SessionRegistry(
            [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
        )
        scheduler = QueryScheduler(registry, max_workers=4)
        try:
            first = scheduler.submit("explain", "regime")
            second = scheduler.submit("explain", "regime")
            different = scheduler.submit("explain", "regime", k=3)
            assert first is second
            assert different is not first
            release.set()
            assert first.result(timeout=30.0).k == 2
            assert different.result(timeout=30.0).k == 3
            stats = scheduler.stats()
            assert stats["coalesced"] == 1
            assert stats["submitted"] == 2
        finally:
            scheduler.shutdown()

    def test_key_is_dropped_after_completion(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=2)
        try:
            first = scheduler.submit("explain", "regime")
            first.result(timeout=30.0)
            second = scheduler.submit("explain", "regime")
            assert second is not first
            assert scheduler.stats()["inflight"] == 0 or second.result(timeout=30.0)
        finally:
            scheduler.shutdown()

    def test_diff_and_recommend_kinds(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=2)
        try:
            scored = scheduler.execute(
                "diff", "regime", start="t000", stop="t023", m=2
            )
            assert len(scored) <= 2 and scored[0].gamma >= 0
            ranked = scheduler.execute("recommend", "regime", m=1)
            assert ranked[0].attribute == "cat"
        finally:
            scheduler.shutdown()

    def test_bad_queries_fail_synchronously(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=1)
        try:
            with pytest.raises(QueryError, match="unknown query kind"):
                scheduler.submit("mutate", "regime")
            with pytest.raises(QueryError, match="unsupported parameter"):
                scheduler.submit("explain", "regime", nonsense=1)
            with pytest.raises(QueryError, match="requires both"):
                scheduler.submit("diff", "regime", start="t000")
        finally:
            scheduler.shutdown()

    def test_worker_errors_propagate_and_count(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        scheduler = QueryScheduler(registry, max_workers=1)
        try:
            future = scheduler.submit("explain", "regime", start="no-such-label")
            with pytest.raises(QueryError):
                future.result(timeout=30.0)
            assert scheduler.stats()["errors"] == 1
        finally:
            scheduler.shutdown()


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
@pytest.fixture
def app():
    registry = SessionRegistry([spec_for(make_dataset())])
    app = ServeApp(registry, QueryScheduler(registry, max_workers=4), port=0).start()
    yield app
    app.shutdown()


class TestHttpApi:
    def test_healthz(self, app):
        payload = _get_json(f"{app.url}/healthz")
        assert payload["ok"] is True
        # Build info rides along so multi-worker smokes can tell workers
        # apart: version, pid, worker id, uptime.
        from repro import __version__

        assert payload["version"] == __version__
        assert payload["pid"] > 0
        assert isinstance(payload["worker"], str) and payload["worker"]
        assert payload["uptime_seconds"] >= 0.0

    def test_datasets_endpoint(self, app):
        payload = _get_json(f"{app.url}/datasets")
        assert payload["datasets"][0]["name"] == "regime"

    def test_explain_matches_direct_session(self, app):
        payload = _get_json(f"{app.url}/explain?dataset=regime")
        direct = ExplainSession(
            regime_relation(),
            "sales",
            ["cat"],
            config=ExplainConfig(k=2),
        ).explain()
        assert payload["k"] == direct.k == 2
        assert payload["epsilon"] == direct.epsilon
        served = [
            (seg["start_label"], seg["stop_label"], [e["explanation"] for e in seg["explanations"]])
            for seg in payload["segments"]
        ]
        expected = [
            (
                seg.start_label,
                seg.stop_label,
                [repr(s.explanation) for s in seg.explanations],
            )
            for seg in direct.segments
        ]
        assert served == expected
        hexes = [
            e["gamma_hex"]
            for seg in payload["segments"]
            for e in seg["explanations"]
        ]
        assert hexes == [
            s.gamma.hex() for seg in direct.segments for s in seg.explanations
        ]

    def test_explain_window_and_overrides(self, app):
        payload = _get_json(
            f"{app.url}/explain?dataset=regime&start=t004&stop=t020&k=2&smoothing=3"
        )
        assert payload["k"] == 2
        assert payload["series"]["labels"][0] == "t004"
        assert payload["series"]["labels"][-1] == "t020"

    def test_diff_endpoint(self, app):
        payload = _get_json(
            f"{app.url}/diff?dataset=regime&start=t000&stop=t023&m=2"
        )
        explanations = [e["explanation"] for e in payload["explanations"]]
        assert explanations and all(e.startswith("cat=") for e in explanations)

    def test_recommend_endpoint(self, app):
        payload = _get_json(f"{app.url}/recommend?dataset=regime&m=1")
        assert payload["attributes"][0]["attribute"] == "cat"

    def test_stats_endpoint(self, app):
        _get_json(f"{app.url}/explain?dataset=regime")
        payload = _get_json(f"{app.url}/stats")
        assert payload["requests"] >= 1
        assert payload["registry"]["resident_sessions"] == 1
        assert payload["scheduler"]["submitted"] >= 1
        assert payload["uptime_seconds"] >= 0

    def test_unknown_dataset_is_404(self, app):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}/explain?dataset=nope")
        assert error.value.code == 404
        assert "registered" in json.loads(error.value.read().decode("utf-8"))

    def test_unknown_path_is_404(self, app):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}/frobnicate")
        assert error.value.code == 404

    def test_allpair_over_an_emptied_candidate_set_is_200(self, app):
        for variant in ("tse", "allpair"):
            payload = _get_json(
                f"{app.url}/explain?dataset=regime&variant={variant}&filter=1&filter_ratio=0.999"
            )
            assert payload["segments"], variant
            assert all(seg["explanations"] == [] for seg in payload["segments"])

    def test_bad_parameter_is_400(self, app):
        for query in (
            "/explain?dataset=regime&k=banana",
            "/explain?dataset=regime&bogus=1",
            "/explain",
            "/diff?dataset=regime&start=t000",
        ):
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(f"{app.url}{query}")
            assert error.value.code == 400, query

    def test_concurrent_clients_get_identical_answers(self, app):
        url = f"{app.url}/explain?dataset=regime"
        payloads: list = []
        errors: list = []

        def hit():
            try:
                payloads.append(_get_json(url))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert len(payloads) == 8
        # Identical *answers*: wall-clock timings are excluded — a client
        # arriving after the coalesced flight completed legitimately
        # recomputes, and only its timings may differ.
        answers = [{k: v for k, v in p.items() if k != "timings"} for p in payloads]
        reference = json.dumps(answers[0], sort_keys=True)
        assert all(
            json.dumps(p, sort_keys=True) == reference for p in answers[1:]
        )
        stats = _get_json(f"{app.url}/stats")
        assert stats["registry"]["misses"] == 1  # one cold build for 8 clients

    def test_each_response_leaves_in_one_write(self, app, monkeypatch):
        writes: list[bytes] = []
        write = socketserver._SocketWriter.write

        def recording_write(writer, data):
            writes.append(bytes(data))
            return write(writer, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", recording_write)
        connection = http.client.HTTPConnection(app.host, app.port, timeout=30)
        try:
            for path in ("/healthz", "/explain?dataset=regime", "/nope"):
                connection.request("GET", path)
                response = connection.getresponse()
                body = response.read()
                assert len(writes) == 1, (path, [len(w) for w in writes])
                assert writes.pop().startswith(b"HTTP/1.1 ")
                assert body and writes == []
        finally:
            connection.close()

    def test_accepted_sockets_disable_nagle(self, app, monkeypatch):
        from repro.serve.http import _Handler

        flags: list[int] = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            flags.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        assert _get_json(f"{app.url}/healthz")["ok"] is True
        assert len(flags) == 1 and flags[0] != 0

    def test_keep_alive_requests_do_not_wait_on_delayed_acks(self, app):
        connection = http.client.HTTPConnection(app.host, app.port, timeout=30)
        seconds = []
        try:
            for _ in range(21):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200 and response.read()
                seconds.append(time.perf_counter() - started)
        finally:
            connection.close()
        # The first request opens the connection; the rest reuse it.
        assert statistics.median(seconds[1:]) < 0.010, seconds

    def test_http_0_9_gets_a_bare_body(self, app):
        with socket.create_connection((app.host, app.port), timeout=30) as client:
            client.sendall(b"GET /healthz\r\n\r\n")
            received = b""
            while chunk := client.recv(65536):
                received += chunk
        assert json.loads(received.decode("utf-8"))["ok"] is True

    def test_make_app_assembles_bundled_registry(self, tmp_path):
        app = make_app(
            datasets=["covid-total"],
            port=0,
            cache_dir=str(tmp_path / "rollups"),
            memory_budget_bytes=1 << 30,
            ttl_seconds=600.0,
            query_workers=2,
            access_log=False,
        ).start()
        try:
            names = _get_json(f"{app.url}/datasets")["datasets"]
            assert [row["name"] for row in names] == ["covid-total"]
            payload = _get_json(f"{app.url}/explain?dataset=covid-total")
            assert payload["segments"]
            stats = _get_json(f"{app.url}/stats")
            assert stats["registry"]["cache_dir"] == str(tmp_path / "rollups")
            # The cold build fed the shared rollup cache.
            assert list((tmp_path / "rollups").glob("*.npz"))
        finally:
            app.shutdown()

    def test_max_requests_trips_the_breaker(self):
        registry = SessionRegistry([spec_for(make_dataset())])
        app = ServeApp(
            registry, QueryScheduler(registry), port=0, max_requests=2
        ).start()
        try:
            _get_json(f"{app.url}/healthz")
            _get_json(f"{app.url}/healthz")
            assert app.requests_served == 2
            app._thread.join(timeout=10.0)  # serve loop exits by itself
            assert not app._thread.is_alive()
        finally:
            app.shutdown()


# ----------------------------------------------------------------------
# repro serve CLI (subprocess end-to-end, parity with the CLI answer)
# ----------------------------------------------------------------------
REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_serve_cli_smoke_and_cli_parity():
    """Start ``repro serve`` for real, hit /explain + /stats, compare with CLI."""
    import os

    from repro.cli import main as cli_main

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--datasets",
            "covid-total",
            "--port",
            "0",
            "--max-requests",
            "3",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        assert match, f"no listen line, got: {line!r}"
        url = match.group(1)
        explain = _get_json(f"{url}/explain?dataset=covid-total")
        stats = _get_json(f"{url}/stats")
        _get_json(f"{url}/healthz")  # third request trips --max-requests
        process.wait(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
    assert process.returncode == 0
    assert stats["registry"]["resident_sessions"] == 1

    # Parity: every served explanation appears verbatim in the CLI's
    # report for the same dataset and default configuration.
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert cli_main(["explain", "--dataset", "covid-total"]) == 0
    cli_out = buffer.getvalue()
    served = [
        e["explanation"]
        for seg in explain["segments"]
        for e in seg["explanations"]
    ]
    assert served
    for explanation in served:
        assert explanation in cli_out
    assert f"K={explain['k']}" in cli_out


def test_register_during_inflight_build_never_caches_stale_session():
    """A spec replaced while its cold build is in flight must not be
    admitted: the racing request is served the stale session once, but
    the next request prepares the new spec."""
    release = threading.Event()
    old_dataset = make_dataset(n=24)
    new_dataset = make_dataset(n=26)

    def slow_loader():
        release.wait(timeout=10.0)
        return old_dataset

    registry = SessionRegistry(
        [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
    )
    sessions: list = []
    thread = threading.Thread(target=lambda: sessions.append(registry.session("regime")))
    thread.start()
    registry.register(spec_for(new_dataset))  # replace while the build waits
    release.set()
    thread.join(timeout=30.0)
    assert len(sessions) == 1
    assert sessions[0].relation.n_rows == old_dataset.relation.n_rows
    # The stale build was not cached: the next request builds the new spec.
    fresh = registry.session("regime")
    assert fresh is not sessions[0]
    assert fresh.relation.n_rows == new_dataset.relation.n_rows


# ----------------------------------------------------------------------
# Serve-tier accounting, drain shutdown, admission, multi-process front end
# ----------------------------------------------------------------------
def test_detect_state_counts_toward_memory_budget():
    """The cached detector's baselines are resident state of the dataset:
    the memory budget must see them, not just the explain cube."""
    from repro.serve.registry import detector_nbytes

    registry = SessionRegistry([spec_for(make_dataset())])
    registry.session("regime")
    before = registry.stats()["memory_bytes"]
    detector = registry.detect_session("regime")
    after = registry.stats()["memory_bytes"]
    assert detector_nbytes(detector) > 0
    assert after == before + detector_nbytes(detector)
    # Rebuilding the same detector does not double-count.
    assert registry.detect_session("regime") is detector
    assert registry.stats()["memory_bytes"] == after


def test_detect_state_can_trigger_eviction_and_evicts_its_detector():
    """Growing a resident entry by its detector bytes re-checks the budget,
    and an evicted dataset takes its cached detector with it."""
    from repro.serve.registry import detector_nbytes, session_nbytes

    probe = SessionRegistry([spec_for(make_dataset("probe"))])
    probe_session = probe.session("probe")
    probe_detector = probe.detect_session("probe")
    plain = session_nbytes(probe_session)
    full = plain + detector_nbytes(probe_detector)

    # Both plain sessions fit; the second detector build pushes past the
    # budget and the LRU entry (dataset "a") must go.
    registry = SessionRegistry(
        [spec_for(make_dataset("a")), spec_for(make_dataset("b"))],
        memory_budget_bytes=full + plain + detector_nbytes(probe_detector) // 2,
    )
    registry.detect_session("a")
    assert registry.stats()["resident_sessions"] == 1  # b not yet built
    registry.session("b")
    registry.detect_session("b")
    assert registry.stats()["resident_sessions"] == 1
    assert registry.detect_stats()["sessions"] == 1  # a's detector went too
    assert registry.stats()["evictions"] >= 1


def test_shutdown_waits_for_inflight_responses():
    """shutdown() must not tear an in-flight response: the client gets a
    complete, valid payload even when shutdown lands mid-request."""
    entered = threading.Event()
    release = threading.Event()
    dataset = make_dataset()

    def slow_loader():
        entered.set()
        release.wait(timeout=30.0)
        return dataset

    registry = SessionRegistry(
        [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
    )
    app = ServeApp(
        registry, QueryScheduler(registry, max_workers=2), port=0
    ).start()
    result: dict = {}

    def client():
        try:
            result["payload"] = _get_json(f"{app.url}/explain?dataset=regime")
        except Exception as error:  # pragma: no cover - failure detail
            result["error"] = error

    thread = threading.Thread(target=client)
    thread.start()
    assert entered.wait(timeout=30.0)

    releaser = threading.Timer(0.5, release.set)
    releaser.start()
    try:
        app.shutdown()  # must block until the admitted response is written
    finally:
        releaser.cancel()
        release.set()
    thread.join(timeout=10.0)
    assert "error" not in result, result.get("error")
    assert result["payload"]["segments"]


def test_blank_parameter_is_400(app):
    """``?k=`` must be rejected loudly, not silently dropped."""
    for query in (
        "/explain?dataset=regime&k=",
        "/explain?dataset=regime&start=",
        "/explain?dataset=regime&smoothing=",
        "/detect?dataset=regime&direction=",
    ):
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}{query}")
        assert error.value.code == 400, query
        assert "empty value" in json.loads(error.value.read().decode("utf-8"))["error"]
    # A blank dataset is indistinguishable from a missing one; still 400.
    with pytest.raises(urllib.error.HTTPError) as error:
        urllib.request.urlopen(f"{app.url}/explain?dataset=")
    assert error.value.code == 400


def test_admission_control_sheds_excess_with_503():
    entered = threading.Event()
    release = threading.Event()
    dataset = make_dataset()

    def slow_loader():
        entered.set()
        release.wait(timeout=30.0)
        return dataset

    registry = SessionRegistry(
        [DatasetSpec(name="regime", loader=slow_loader, config=ExplainConfig(k=2))]
    )
    app = ServeApp(
        registry,
        QueryScheduler(registry, max_workers=2),
        port=0,
        max_inflight=1,
    ).start()
    try:
        result: dict = {}

        def client():
            result["payload"] = _get_json(f"{app.url}/explain?dataset=regime")

        thread = threading.Thread(target=client)
        thread.start()
        assert entered.wait(timeout=30.0)
        # The slot is taken: even /healthz is refused, with a retry hint.
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(f"{app.url}/healthz")
        assert error.value.code == 503
        assert error.value.headers["Retry-After"] == "1"
        release.set()
        thread.join(timeout=30.0)
        assert result["payload"]["segments"]

        # A client finishes reading slightly before the handler thread
        # runs its release(): with a single slot, wait for the server to
        # actually free it before each follow-up request.
        def wait_idle():
            for _ in range(500):
                if app.inflight == 0:
                    return
                time.sleep(0.01)

        wait_idle()
        assert _get_json(f"{app.url}/healthz")["ok"] is True
        wait_idle()
        stats = _get_json(f"{app.url}/stats")
        assert stats["rejected"] >= 1
        assert stats["max_inflight"] == 1
    finally:
        release.set()
        app.shutdown()


def _no_timings(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("timings", None)
    return payload


@pytest.mark.skipif(
    not __import__("repro.serve.http", fromlist=["reuseport_available"]).reuseport_available(),
    reason="SO_REUSEPORT unavailable on this platform",
)
def test_worker_pool_serves_identically_and_survives_worker_loss(tmp_path):
    """N workers over one shared cube file answer exactly like the
    single-process server, and survivors keep answering after a kill."""
    from repro.cube.cache import CACHE_SUFFIX
    from repro.serve.multiproc import WorkerPool

    cache_dir = str(tmp_path / "cache")
    pool = WorkerPool(
        {"datasets": ["covid-total"], "cache_dir": cache_dir, "port": 0, "access_log": False},
        workers=2,
    ).start()
    try:
        url = f"{pool.url}/explain?dataset=covid-total"
        served = _no_timings(_get_json(url))

        single = make_app(
            datasets=["covid-total"], cache_dir=cache_dir, port=0, access_log=False
        ).start()
        try:
            reference = _no_timings(_get_json(f"{single.url}/explain?dataset=covid-total"))
        finally:
            single.shutdown()
        assert served == reference

        # The parent pre-built the shared cube file; the workers adopted
        # it instead of rebuilding.
        assert list(Path(cache_dir).glob(f"*{CACHE_SUFFIX}"))
        # /stats lands on whichever worker the kernel picks per
        # connection; sample until we see the one that served /explain.
        saw_adopt_hit = False
        for _ in range(20):
            stats = _get_json(f"{pool.url}/stats")
            if stats["registry"]["adopt_hits"] >= 1:
                saw_adopt_hit = True
                break
        assert saw_adopt_hit

        pool.kill_worker(0)
        assert pool.n_alive == 1
        for _ in range(6):
            assert _no_timings(_get_json(url)) == reference
    finally:
        pool.shutdown()
