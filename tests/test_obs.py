"""Tests for the observability layer (repro.obs).

Covers the metrics registry (labeled counters/gauges/histograms, lost-
increment-free concurrency, bucket boundary semantics), the Prometheus
text exposition and its validating parser (round-trip), cross-process
snapshot persistence and merging (SnapshotStore, dead-pid filtering),
contextvar tracing (nesting, sampling, thread propagation, JSON-lines
export), structured logging (JsonFormatter, AccessLog, SlowQueryLog),
and the serve tier end-to-end: ``/metrics`` scrapes, the
``X-Repro-Trace-Id`` ↔ trace-export join, the slow-query log, and the
multi-worker merged scrape.
"""

from __future__ import annotations

import contextvars
import io
import json
import logging
import math
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.exceptions import QueryError
from repro.obs.logging import AccessLog, JsonFormatter, SlowQueryLog
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    SNAPSHOT_FORMAT,
    SnapshotStore,
    get_registry,
    merge_snapshots,
    parse_exposition,
    render_snapshot,
    set_registry,
)
from repro.obs.trace import (
    JsonLinesExporter,
    current_trace,
    current_trace_id,
    record_span,
    span,
    start_trace,
)
from tests.test_serve import _get_json


@pytest.fixture()
def fresh_registry():
    """Swap in an empty process-default registry for the test's duration.

    Keeps counts deterministic: every other test in the process records
    into the shared default registry, so exact-value assertions need a
    clean slate (and the restore keeps later tests unaffected).
    """
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# MetricsRegistry semantics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "hits", labels=("kind",))
        hits.inc(kind="a")
        hits.inc(2.5, kind="a")
        hits.inc(kind="b")
        assert hits.value(kind="a") == 3.5
        assert hits.value(kind="b") == 1.0
        depth = registry.gauge("depth")
        depth.set(4)
        depth.inc()
        depth.dec(2)
        assert depth.value() == 3.0

    def test_counter_rejects_negative_increment(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        with pytest.raises(QueryError, match="cannot decrease"):
            counter.inc(-1)

    def test_families_are_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", labels=("endpoint",))
        second = registry.counter("requests_total", labels=("endpoint",))
        assert first is second

    def test_conflicting_registration_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(QueryError, match="already registered"):
            registry.gauge("x_total", labels=("a",))
        with pytest.raises(QueryError, match="already registered"):
            registry.counter("x_total", labels=("b",))
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(QueryError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_and_labels_raise(self):
        registry = MetricsRegistry()
        with pytest.raises(QueryError, match="invalid metric name"):
            registry.counter("bad name")
        with pytest.raises(QueryError, match="invalid label name"):
            registry.counter("ok_total", labels=("bad-label",))
        with pytest.raises(QueryError, match="buckets"):
            registry.histogram("h2", buckets=())

    def test_wrong_label_set_raises(self):
        registry = MetricsRegistry()
        counter = registry.counter("y_total", labels=("kind",))
        with pytest.raises(QueryError, match="takes labels"):
            counter.inc(other="z")

    def test_concurrent_increments_lose_nothing(self):
        """The satellite's concurrency pin: N threads hammering one
        registry must account for every single update."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", labels=("worker",))
        gauge = registry.gauge("hammer_depth")
        histogram = registry.histogram("hammer_seconds", buckets=(0.5, 1.0))
        n_threads, per_thread = 8, 500

        def hammer(worker: int) -> None:
            for i in range(per_thread):
                counter.inc(worker=str(worker % 2))
                gauge.inc()
                gauge.dec()
                histogram.observe(float(i % 3))

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        total = counter.value(worker="0") + counter.value(worker="1")
        assert total == n_threads * per_thread
        assert gauge.value() == 0.0
        state = histogram.state()
        assert state["count"] == n_threads * per_thread
        assert sum(state["counts"]) == n_threads * per_thread


class TestHistogramBuckets:
    def test_boundary_value_lands_in_its_bucket(self):
        """``le`` is inclusive: an observation equal to a bound counts
        in that bound's bucket, not the next one up."""
        registry = MetricsRegistry()
        histogram = registry.histogram("b_seconds", buckets=(0.1, 0.5, 1.0))
        histogram.observe(0.1)
        histogram.observe(0.5)
        histogram.observe(1.0)
        state = histogram.state()
        assert state["counts"] == [1, 1, 1, 0]

    def test_beyond_last_bound_lands_in_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("c_seconds", buckets=(0.1, 0.5))
        histogram.observe(0.500001)
        histogram.observe(99.0)
        state = histogram.state()
        assert state["counts"] == [0, 0, 2]
        assert state["sum"] == pytest.approx(99.500001)
        assert state["count"] == 2

    def test_rendered_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("d_seconds", buckets=(0.1, 0.5, 1.0))
        for value in (0.05, 0.05, 0.3, 0.9, 5.0):
            histogram.observe(value)
        samples = parse_exposition(registry.render())
        assert samples[("d_seconds_bucket", (("le", "0.1"),))] == 2
        assert samples[("d_seconds_bucket", (("le", "0.5"),))] == 3
        assert samples[("d_seconds_bucket", (("le", "1"),))] == 4
        assert samples[("d_seconds_bucket", (("le", "+Inf"),))] == 5
        assert samples[("d_seconds_count", ())] == 5
        assert samples[("d_seconds_sum", ())] == pytest.approx(6.3)

    def test_default_buckets_are_request_scale(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


# ----------------------------------------------------------------------
# Exposition round-trip
# ----------------------------------------------------------------------
class TestExposition:
    def test_round_trip_parse_matches_registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("rt_total", "round trip", labels=("endpoint", "status"))
        counter.inc(3, endpoint="/explain", status="200")
        counter.inc(endpoint="/diff", status="400")
        gauge = registry.gauge("rt_depth")
        gauge.set(7)
        text = registry.render()
        assert "# HELP rt_total round trip" in text
        assert "# TYPE rt_total counter" in text
        samples = parse_exposition(text)
        key = ("rt_total", (("endpoint", "/explain"), ("status", "200")))
        assert samples[key] == 3
        assert samples[("rt_total", (("endpoint", "/diff"), ("status", "400")))] == 1
        assert samples[("rt_depth", ())] == 7

    def test_label_values_escape_and_unescape(self):
        registry = MetricsRegistry()
        counter = registry.counter("esc_total", labels=("path",))
        tricky = 'a"b\\c\nd'
        counter.inc(path=tricky)
        text = registry.render()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        samples = parse_exposition(text)
        assert samples[("esc_total", (("path", tricky),))] == 1

    def test_parser_rejects_sample_without_type(self):
        with pytest.raises(QueryError, match="no TYPE declaration"):
            parse_exposition("orphan_total 1\n")

    def test_parser_rejects_malformed_sample(self):
        with pytest.raises(QueryError, match="malformed sample"):
            parse_exposition("# TYPE x counter\nx{=} oops extra\n")

    def test_parser_rejects_unparsable_value(self):
        with pytest.raises(QueryError, match="unparsable value"):
            parse_exposition("# TYPE x counter\nx notanumber\n")

    def test_parser_rejects_duplicate_samples(self):
        with pytest.raises(QueryError, match="duplicate sample"):
            parse_exposition("# TYPE x counter\nx 1\nx 2\n")

    def test_parser_rejects_decreasing_histogram_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        with pytest.raises(QueryError, match="bucket counts decrease"):
            parse_exposition(text)

    def test_parser_handles_inf_values(self):
        samples = parse_exposition("# TYPE g gauge\ng +Inf\n")
        assert samples[("g", ())] == math.inf


# ----------------------------------------------------------------------
# Snapshots: merge and persistence
# ----------------------------------------------------------------------
class TestSnapshotMerge:
    def _worker_registry(self, requests: int, latency: float) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("m_requests_total", labels=("endpoint",)).inc(
            requests, endpoint="/explain"
        )
        registry.histogram("m_seconds", buckets=(0.1, 1.0)).observe(latency)
        registry.gauge("m_inflight").set(1)
        return registry

    def test_merge_sums_counters_gauges_and_histograms(self):
        a = self._worker_registry(3, 0.05)
        b = self._worker_registry(4, 0.5)
        merged = merge_snapshots([a.snapshot(worker="w0"), b.snapshot(worker="w1")])
        assert merged["worker"] == "merged"
        samples = parse_exposition(render_snapshot(merged))
        assert samples[("m_requests_total", (("endpoint", "/explain"),))] == 7
        assert samples[("m_inflight", ())] == 2
        assert samples[("m_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("m_seconds_bucket", (("le", "+Inf"),))] == 2
        assert samples[("m_seconds_count", ())] == 2

    def test_merge_skips_conflicting_family_shapes(self):
        a = MetricsRegistry()
        a.counter("shape_total").inc(5)
        b = MetricsRegistry()
        b.gauge("shape_total").set(100)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        samples = parse_exposition(render_snapshot(merged))
        # First spelling wins; the conflicting worker must not poison it.
        assert samples[("shape_total", ())] == 5

    def test_merge_skips_unknown_format(self):
        a = MetricsRegistry()
        a.counter("fmt_total").inc(1)
        stale = a.snapshot()
        stale["format"] = SNAPSHOT_FORMAT + 1
        merged = merge_snapshots([a.snapshot(), stale])
        samples = parse_exposition(render_snapshot(merged))
        assert samples[("fmt_total", ())] == 1

    def test_render_with_extra_snapshots(self):
        live = self._worker_registry(1, 0.05)
        other = self._worker_registry(9, 0.05)
        samples = parse_exposition(live.render(extra_snapshots=[other.snapshot()]))
        assert samples[("m_requests_total", (("endpoint", "/explain"),))] == 10


class TestSnapshotStore:
    def test_write_then_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path / "obs")
        registry = MetricsRegistry()
        registry.counter("s_total").inc(2)
        path = store.write(registry.snapshot(worker="w0"), "w0")
        assert path.name == "metrics-w0.json"
        loaded = store.load_all(alive=lambda pid: True)
        assert len(loaded) == 1
        assert loaded[0]["worker"] == "w0"
        assert loaded[0]["metrics"]["s_total"]["series"][0]["value"] == 2

    def test_worker_id_is_sanitized_into_filename(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.path_for("w/0:x").name == "metrics-w_0_x.json"

    def test_load_all_skips_corrupt_files(self, tmp_path):
        store = SnapshotStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("ok_total").inc(1)
        store.write(registry.snapshot(worker="good"), "good")
        (tmp_path / "metrics-bad.json").write_text("{ torn", encoding="utf-8")
        (tmp_path / "metrics-alien.json").write_text('{"hello": 1}', encoding="utf-8")
        loaded = store.load_all(alive=lambda pid: True)
        assert [snapshot["worker"] for snapshot in loaded] == ["good"]

    def test_load_all_drops_dead_writers(self, tmp_path):
        """A restarted worker must not be double-counted against the
        snapshot its dead predecessor left behind."""
        store = SnapshotStore(tmp_path)
        registry = MetricsRegistry()
        registry.counter("live_total").inc(1)
        dead = registry.snapshot(worker="ghost")
        dead["pid"] = 999_999_999
        store.write(dead, "ghost")
        store.write(registry.snapshot(worker="alive"), "alive")
        loaded = store.load_all(alive=lambda pid: pid != 999_999_999)
        assert [snapshot["worker"] for snapshot in loaded] == ["alive"]

    def test_delete(self, tmp_path):
        store = SnapshotStore(tmp_path)
        registry = MetricsRegistry()
        store.write(registry.snapshot(worker="w1"), "w1")
        assert store.delete("w1") is True
        assert store.delete("w1") is False
        assert store.load_all(alive=lambda pid: True) == []


def test_set_registry_swaps_the_process_default(fresh_registry):
    assert get_registry() is fresh_registry
    get_registry().counter("swap_total").inc()
    assert fresh_registry.counter("swap_total").value() == 1


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTrace:
    def test_spans_nest_into_a_tree(self):
        with start_trace("/explain") as trace:
            with span("prepare") as prepare:
                with span("cube-build") as build:
                    pass
            with span("score"):
                pass
        by_name = {s.name: s for s in trace.spans}
        assert by_name["/explain"].span_id == 0
        assert by_name["prepare"].parent_id == 0
        assert by_name["cube-build"].parent_id == prepare.span_id
        assert by_name["score"].parent_id == 0
        assert all(s.duration is not None for s in trace.spans)
        assert build.duration <= prepare.duration <= trace.duration_seconds

    def test_unsampled_trace_keeps_id_and_spans_but_is_not_exported(self, tmp_path):
        with start_trace("/explain", sampled=False) as trace:
            assert current_trace_id() == trace.trace_id
            with span("prepare") as entry:
                pass
            attached = record_span("queue-wait", 0.1)
        assert [s.name for s in trace.spans] == ["/explain", "prepare", "queue-wait"]
        assert entry.duration is not None and attached.duration == 0.1
        assert len(trace.trace_id) == 16
        exporter = JsonLinesExporter(tmp_path / "traces.jsonl")
        assert exporter.export(trace) is False
        assert JsonLinesExporter.read(exporter.path) == []

    def test_span_without_a_trace_is_measured_and_leaves_no_trace(self):
        assert current_trace() is None
        with span("orphan") as entry:
            fresh = current_trace()
            assert entry is fresh.root and not fresh.sampled
            time.sleep(0.001)
        assert entry.duration >= 0.001
        assert current_trace() is None
        assert record_span("orphan", 1.0) is None

    def test_record_span_attaches_premeasured_phase(self):
        with start_trace("/explain") as trace:
            time.sleep(0.01)
            attached = record_span("queue-wait", 0.005)
        assert attached.duration == 0.005
        assert attached.parent_id == 0
        assert attached.start >= 0.0

    def test_contextvars_carry_the_trace_into_pool_threads(self):
        """The scheduler's submit() copies its context so pool threads
        annotate the submitting request's trace; mimic that here."""
        with start_trace("/explain") as trace:
            context = contextvars.copy_context()

            def pool_work():
                with span("prepare"):
                    time.sleep(0.001)

            thread = threading.Thread(target=lambda: context.run(pool_work))
            thread.start()
            thread.join(timeout=10.0)
        names = [s.name for s in trace.spans]
        assert names == ["/explain", "prepare"]
        assert trace.spans[1].parent_id == 0

    def test_to_dict_rounds_and_labels_spans(self):
        with start_trace("/x") as trace:
            with span("a"):
                pass
        payload = trace.to_dict()
        assert payload["trace_id"] == trace.trace_id
        assert payload["name"] == "/x"
        assert payload["duration_ms"] >= 0
        assert [s["name"] for s in payload["spans"]] == ["/x", "a"]
        assert payload["spans"][1]["parent"] == 0

    def test_exporter_round_trip_skips_unsampled_and_torn_lines(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        exporter = JsonLinesExporter(path)
        with start_trace("/kept") as kept:
            pass
        with start_trace("/dropped", sampled=False) as dropped:
            pass
        assert exporter.export(kept) is True
        assert exporter.export(dropped) is False
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn\n')
        traces = JsonLinesExporter.read(path)
        assert [t["name"] for t in traces] == ["/kept"]
        assert traces[0]["trace_id"] == kept.trace_id

    def test_exporter_read_missing_file_is_empty(self, tmp_path):
        assert JsonLinesExporter.read(tmp_path / "absent.jsonl") == []


class TestSelfTimes:
    def test_a_parents_self_time_excludes_its_nested_child(self):
        with start_trace("/x") as trace:
            with span("outer") as outer:
                with span("inner") as inner:
                    time.sleep(0.002)
                time.sleep(0.001)
            with span("after"):
                pass
        times = trace.self_times(outer)
        assert times == {
            "outer": outer.duration - inner.duration,
            "inner": inner.duration,
        }

    def test_sibling_spans_of_one_name_add_up(self):
        with start_trace("/x") as trace:
            with span("a") as first:
                time.sleep(0.001)
            with span("a") as second:
                time.sleep(0.001)
            with span("b") as third:
                pass
        times = trace.self_times(trace.root)
        assert times["a"] == first.duration + second.duration
        assert times["b"] == third.duration
        assert sum(times.values()) == pytest.approx(trace.root.duration, rel=1e-9)

    def test_a_child_in_a_pool_thread_is_charged_to_its_parent(self):
        with start_trace("/x") as trace:
            with span("query") as query:
                context = contextvars.copy_context()

                def work():
                    with span("ca-solve"):
                        time.sleep(0.002)

                thread = threading.Thread(target=lambda: context.run(work))
                thread.start()
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        (child,) = [s for s in trace.spans if s.name == "ca-solve"]
        assert child.parent_id == query.span_id
        assert trace.self_times(query) == {
            "query": query.duration - child.duration,
            "ca-solve": child.duration,
        }

    def test_a_roots_self_time_is_its_duration_minus_its_childrens(self):
        with span("explain") as root:  # outside any trace: a fresh root
            trace = current_trace()
            with span("unit-solve") as first:
                time.sleep(0.001)
            with span("ca-solve") as second:
                time.sleep(0.001)
        assert trace.self_times(root) == {
            "explain": root.duration - first.duration - second.duration,
            "unit-solve": first.duration,
            "ca-solve": second.duration,
        }


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_json_formatter_inlines_extras(self):
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("world",), None
        )
        record.dataset = "covid-total"
        record.latency_ms = 12.5
        record.weird = object()
        payload = json.loads(JsonFormatter().format(record))
        assert payload["message"] == "hello world"
        assert payload["level"] == "INFO"
        assert payload["dataset"] == "covid-total"
        assert payload["latency_ms"] == 12.5
        assert payload["weird"].startswith("<object object")

    def test_access_log_writes_one_json_line(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        log.log("GET", "/explain", 200, 12.345, dataset="covid-total", trace_id="abc123")
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["message"] == "GET /explain 200"
        assert payload["status"] == 200
        assert payload["latency_ms"] == 12.345
        assert payload["trace_id"] == "abc123"

    def test_access_logs_do_not_cross_instances(self):
        """Two apps in one process must not duplicate each other's lines
        (the reason AccessLog avoids logging.getLogger)."""
        first_stream, second_stream = io.StringIO(), io.StringIO()
        AccessLog(stream=first_stream).log("GET", "/a", 200, 1.0)
        AccessLog(stream=second_stream).log("GET", "/b", 200, 1.0)
        assert len(first_stream.getvalue().strip().splitlines()) == 1
        assert len(second_stream.getvalue().strip().splitlines()) == 1

    def test_slow_query_log_applies_threshold(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(10.0, path=path)
        assert log.observe("/explain", 9.9) is False
        assert log.observe("/explain", 10.0, dataset="d", trace_id="t1", status=200)
        entries = SlowQueryLog.read(path)
        assert len(entries) == 1
        assert entries[0]["latency_ms"] == 10.0
        assert entries[0]["threshold_ms"] == 10.0
        assert entries[0]["trace_id"] == "t1"

    def test_slow_query_log_stream_mode(self):
        stream = io.StringIO()
        log = SlowQueryLog(0.0, stream=stream)
        assert log.observe("/diff", 5.0) is True
        assert json.loads(stream.getvalue())["path"] == "/diff"


# ----------------------------------------------------------------------
# Serve-tier integration
# ----------------------------------------------------------------------
class TestServeObservability:
    def test_scrape_trace_join_and_slow_log(self, tmp_path, fresh_registry):
        """One app, the whole surface: a request's trace header joins
        against the exported span tree, phase durations sum to within the
        recorded latency, the scrape is well-formed and covers every
        instrumented layer, and the seeded slow query carries the id."""
        from repro.serve.http import make_app

        app = make_app(
            datasets=["covid-total"],
            port=0,
            cache_dir=str(tmp_path / "cache"),
            access_log=False,
            slow_query_ms=0.0,  # threshold 0 → every request is "slow"
            worker_id="t0",
        ).start()
        try:
            request = urllib.request.Request(f"{app.url}/explain?dataset=covid-total")
            with urllib.request.urlopen(request) as response:
                trace_id = response.headers["X-Repro-Trace-Id"]
                assert json.loads(response.read())["segments"]
            assert trace_id and len(trace_id) == 16
            _get_json(f"{app.url}/detect?dataset=covid-total")
            _get_json(f"{app.url}/healthz")
            with pytest.raises(urllib.error.HTTPError, match="404"):
                _get_json(f"{app.url}/does-not-exist")

            # --- trace export joins on the response header -------------
            traces = JsonLinesExporter.read(app.trace_export_path)
            matching = [t for t in traces if t["trace_id"] == trace_id]
            assert len(matching) == 1
            trace = matching[0]
            names = {s["name"] for s in trace["spans"]}
            assert "/explain" in names
            assert "queue-wait" in names
            assert "prepare" in names
            # Cold prepare tried the memory-mapped cache entry, then built
            # the cube, under the prepare span.
            assert {"cache-adopt", "cube-build"} & names

            # Direct children of the root partition the request's time:
            # their durations must sum to within the recorded latency.
            slow_entries = SlowQueryLog.read(app.slow_query_log.path)
            recorded = [e for e in slow_entries if e["trace_id"] == trace_id]
            assert len(recorded) == 1
            children_ms = sum(
                s["duration_ms"]
                for s in trace["spans"]
                if s["parent"] == 0 and s["duration_ms"] is not None
            )
            assert children_ms <= recorded[0]["latency_ms"] + 2.0
            assert trace["duration_ms"] <= recorded[0]["latency_ms"] + 2.0
            # Every slow-log entry joins back to a trace id.
            assert all(e["trace_id"] for e in slow_entries)

            # --- /metrics scrape ---------------------------------------
            with urllib.request.urlopen(f"{app.url}/metrics") as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                assert response.headers["X-Repro-Trace-Id"]
                exposition = response.read().decode("utf-8")
            samples = parse_exposition(exposition)  # raises if malformed
            for expected in (
                "repro_http_requests_total",
                "repro_http_request_seconds",
                "repro_http_inflight_requests",
                "repro_scheduler_queue_depth",
                "repro_scheduler_queries_total",
                "repro_scheduler_wait_seconds_total",
                "repro_registry_lookups_total",
                "repro_registry_build_seconds",
                "repro_rollup_cache_requests_total",
                "repro_detect_scans_total",
            ):
                assert any(name.startswith(expected) for name, _ in samples), expected
            explain_ok = ("repro_http_requests_total", (("endpoint", "/explain"), ("status", "200")))
            assert samples[explain_ok] == 1
            # Unknown paths fold into the "other" endpoint label so
            # URL probing cannot blow up scrape cardinality.
            other_404 = ("repro_http_requests_total", (("endpoint", "other"), ("status", "404")))
            assert samples[other_404] == 1
            assert samples[("repro_http_inflight_requests", ())] >= 0
            count_key = ("repro_http_request_seconds_count", (("endpoint", "/explain"),))
            assert samples[count_key] == 1

            # --- scheduler stats surface -------------------------------
            stats = _get_json(f"{app.url}/stats")["scheduler"]
            assert stats["queue_depth"] == 0
            assert stats["wait_seconds"] >= 0.0
            assert "explain" in stats["wait_seconds_by_kind"]

            # The scrape persisted this worker's snapshot for siblings.
            assert (tmp_path / "cache" / "obs" / "metrics-t0.json").exists()
        finally:
            app.shutdown()

    def test_a_request_is_counted_before_its_response_is_read(
        self, tmp_path, fresh_registry
    ):
        """The after-write bookkeeping (latency, logs, trace export) is
        held until the client's next scrape has returned: the request it
        has already read must be counted in that scrape anyway."""
        from repro.serve.http import make_app

        app = make_app(
            datasets=["covid-total"],
            port=0,
            cache_dir=str(tmp_path / "cache"),
            access_log=False,
            worker_id="t2",
        ).start()
        scraped = threading.Event()
        observe = app.observe_request

        def held_observe(**kwargs):
            scraped.wait(timeout=30.0)
            observe(**kwargs)

        app.observe_request = held_observe
        try:
            with pytest.raises(urllib.error.HTTPError, match="404"):
                _get_json(f"{app.url}/does-not-exist")
            with urllib.request.urlopen(f"{app.url}/metrics") as response:
                samples = parse_exposition(response.read().decode("utf-8"))
            other_404 = ("repro_http_requests_total", (("endpoint", "other"), ("status", "404")))
            assert samples.get(other_404) == 1
        finally:
            scraped.set()
            app.shutdown()

    def test_trace_sampling_zero_still_returns_trace_ids(self, tmp_path, fresh_registry):
        from repro.serve.http import make_app

        app = make_app(
            datasets=["covid-total"],
            port=0,
            cache_dir=str(tmp_path / "cache"),
            access_log=False,
            trace_sample=0.0,
            worker_id="t1",
        ).start()
        try:
            request = urllib.request.Request(f"{app.url}/healthz")
            with urllib.request.urlopen(request) as response:
                trace_id = response.headers["X-Repro-Trace-Id"]
                assert json.loads(response.read())["ok"] is True
            assert trace_id and len(trace_id) == 16
            # Unsampled traces are never exported.
            assert JsonLinesExporter.read(app.trace_export_path) == []
        finally:
            app.shutdown()


@pytest.mark.skipif(
    not __import__("repro.serve.http", fromlist=["reuseport_available"]).reuseport_available(),
    reason="SO_REUSEPORT unavailable on this platform",
)
def test_worker_pool_metrics_merge_across_processes(tmp_path):
    """A scrape on any SO_REUSEPORT worker reflects the whole pool:
    per-worker snapshot files under <cache_dir>/obs merge at scrape
    time, so request counts from both forked workers appear."""
    from repro.serve.multiproc import WorkerPool

    cache_dir = str(tmp_path / "cache")
    pool = WorkerPool(
        {
            "datasets": ["covid-total"],
            "cache_dir": cache_dir,
            "port": 0,
            "access_log": False,
        },
        workers=2,
    ).start()
    try:
        n_requests = 12
        for _ in range(n_requests):
            assert _get_json(f"{pool.url}/healthz")["ok"] is True
        # Workers flush snapshots periodically (and on every scrape of
        # themselves); poll until one worker's merged scrape accounts
        # for every request the pool served and both workers have
        # flushed.  The pool is ready once *one* worker answers, so a
        # slower sibling may serve nothing and appear only at its first
        # periodic flush.
        obs_dir = Path(cache_dir) / "obs"
        deadline = time.monotonic() + 30.0
        merged_total = 0.0
        names: list[str] = []
        while time.monotonic() < deadline:
            with urllib.request.urlopen(f"{pool.url}/metrics") as response:
                samples = parse_exposition(response.read().decode("utf-8"))
            merged_total = sum(
                value
                for (name, labels), value in samples.items()
                if name == "repro_http_requests_total"
                and dict(labels).get("endpoint") == "/healthz"
            )
            names = sorted(p.name for p in obs_dir.glob("metrics-*.json"))
            if merged_total >= n_requests and len(names) == 2:
                break
            time.sleep(0.25)
        assert merged_total >= n_requests
        # Both workers left snapshot files behind the merge.
        assert names == ["metrics-w0.json", "metrics-w1.json"]
        workers = {
            json.loads(p.read_text(encoding="utf-8"))["worker"]
            for p in obs_dir.glob("metrics-*.json")
        }
        assert workers == {"w0", "w1"}
    finally:
        pool.shutdown()
