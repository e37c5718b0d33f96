"""Tests of the benchmark's own logic: percentiles, self time, checks, inputs."""

from __future__ import annotations

import argparse
import contextvars
import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, run, stream, summary, workloads
from perfbench.workloads import Request


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_p90_is_refused_below_100_ops():
    with pytest.raises(ValueError, match="p90 needs at least 100"):
        summary.percentile([float(v) for v in range(99)], 90)
    assert summary.percentile([float(v) for v in range(100)], 90) == pytest.approx(89.1)


def test_p50_needs_twenty_samples_and_interpolates():
    with pytest.raises(ValueError):
        summary.percentile([1.0] * 19, 50)
    assert summary.percentile([float(v) for v in range(1, 21)], 50) == pytest.approx(10.5)


def test_relative_spread_is_iqr_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert summary.relative_spread(values) == pytest.approx((11.5 - 8.5) / 10.0)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
class _Clock:
    """A clock the traced functions advance by hand."""

    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds


def test_nested_calls_charge_children_to_their_parent():
    clock = _Clock()
    tracer = layers.LayerTracer(clock=clock)
    inner = tracer.wrap("inner", lambda: clock.advance(3.0), count_under="outer")

    def outer_body():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(2.0)

    tracer.wrap("outer", outer_body)()
    inner()
    totals = tracer.snapshot()
    assert totals["calls"] == {"outer": 1, "inner": 3}
    assert totals["busy"] == {"outer": 9.0, "inner": 9.0}
    assert totals["self"] == {"outer": 3.0, "inner": 9.0}
    assert totals["counters"] == {"inner<outer": 2}


def test_a_child_in_a_copied_context_on_another_thread_is_charged_to_its_parent():
    clock = _Clock()
    tracer = layers.LayerTracer(clock=clock)
    inner = tracer.wrap("query", lambda: clock.advance(5.0), count_under="dispatch")

    def dispatch_body():
        clock.advance(1.0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(contextvars.copy_context().run, inner).result()

    tracer.wrap("dispatch", dispatch_body)()
    totals = tracer.snapshot()
    assert totals["busy"]["dispatch"] == 6.0
    assert totals["self"]["dispatch"] == 1.0
    assert totals["self"]["query"] == 5.0
    assert totals["counters"] == {"query<dispatch": 1}


def test_a_thread_without_the_callers_context_is_a_root():
    clock = _Clock()
    tracer = layers.LayerTracer(clock=clock)
    inner = tracer.wrap("query", lambda: clock.advance(5.0), count_under="dispatch")

    def dispatch_body():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("dispatch", dispatch_body)()
    totals = tracer.snapshot()
    assert totals["self"]["dispatch"] == 5.0
    assert totals["counters"] == {}


def test_install_patches_where_callers_look_up_and_uninstall_restores(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Solver:
        iterations = 0

        def solve_batch(self, gammas):
            self.iterations += 2
            return list(gammas)

    def helper(x):
        return x + 1

    module.Solver = Solver
    module.helper = helper
    original = Solver.solve_batch
    monkeypatch.setitem(sys.modules, module.__name__, module)
    targets = (
        layers.Target("fake.helper", module.__name__, "helper"),
        layers.Target("fake.solver", module.__name__, "Solver.solve_batch", layers._guess_rounds),
        layers.Target("fake.rows", module.__name__, "Solver.solve_batch", layers._ca_rows),
    )
    tracer = layers.LayerTracer().install(targets)
    try:
        assert module.helper(1) == 2
        assert Solver().solve_batch([[1.0], [2.0], [3.0]]) == [[1.0], [2.0], [3.0]]
    finally:
        tracer.uninstall()
    assert module.helper is helper
    assert Solver.__dict__["solve_batch"] is original
    totals = tracer.snapshot()
    assert totals["calls"] == {"fake.helper": 1, "fake.rows": 1, "fake.solver": 1}
    assert totals["counters"]["ca.rows"] == 3
    assert totals["counters"]["ca.guess_verify.rounds"] == 2


def test_per_op_metrics_divide_timed_totals_by_ops():
    before = {"calls": {}, "busy": {}, "self": {}, "counters": {}}
    after = {
        "calls": {"core.session.scorer": 4, "diff.scorer.tau": 40, "segmentation.variance.build": 6},
        "busy": {"core.session.explain": 2.0, "core.session.scorer": 0.4},
        "self": {"core.session.explain": 0.1, "diff.scorer.tau": 0.2, "diff.scorer.gamma_many": 0.2},
        "counters": {"diff.scorer.construct<core.session.scorer": 1, "ca.rows": 300},
    }
    metrics = layers.per_op_metrics(layers.difference(after, before), 2, "core.session.explain")
    assert metrics["core.session.explain_ms"] == (1000.0, "ms")
    assert metrics["core.session.scorer_miss_ratio"] == (0.25, "ratio")
    assert metrics["diff.scorer.tau_calls"] == (20.0, "count")
    assert metrics["diff.scorer.self_ms"] == (pytest.approx(200.0), "ms")
    assert metrics["segmentation.variance.builds"] == (3.0, "count")
    assert metrics["ca.rows"] == (150.0, "count")
    assert metrics["trace.coverage_pct"] == (pytest.approx(95.0), "%")


# ----------------------------------------------------------------------
# Correctness checker
# ----------------------------------------------------------------------
REQUEST = Request(start="t0010", stop="t0019", length=10, k=2)


def _payload() -> dict:
    def scored(name: str, gamma: float) -> dict:
        return {"explanation": name, "gamma_hex": float(gamma).hex(), "tau": 1}

    return {
        "k": 2,
        "k_was_auto": False,
        "segments": [
            {"start": 0, "stop": 4, "start_label": "t0010", "stop_label": "t0014",
             "explanations": [scored("category=a1", 0.75)]},
            {"start": 4, "stop": 9, "start_label": "t0014", "stop_label": "t0019",
             "explanations": [scored("category=a2", 0.5)]},
        ],
    }


def test_checker_accepts_a_tiling_answer():
    assert checks.tiling_problems(_payload(), REQUEST) == []
    assert checks.mismatch(_payload(), _payload()) is None


def test_checker_rejects_a_gap_between_segments():
    payload = _payload()
    payload["segments"][1].update(start=5, start_label="t0015")
    assert any("gap" in problem for problem in checks.tiling_problems(payload, REQUEST))


def test_checker_rejects_an_ignored_k():
    payload = _payload()
    assert checks.tiling_problems(payload, Request("t0010", "t0019", 10, k=3))


def test_checker_rejects_a_tampered_gamma_hex():
    tampered = _payload()
    tampered["segments"][0]["explanations"][0]["gamma_hex"] = float(0.7500000000000001).hex()
    assert "segment 0 differs" in checks.mismatch(tampered, _payload())


def test_stream_checker_rejects_a_gap():
    assert checks.stream_result_problems([(0, 4), (4, 9)], 2, 10) == []
    assert checks.stream_result_problems([(0, 4), (5, 9)], 2, 10)
    assert checks.stream_result_problems([(0, 4), (4, 8)], 2, 10)


def test_cube_digest_rejects_a_changed_value_or_dtype():
    from repro.relation.predicates import Conjunction

    def cube(values: np.ndarray) -> types.SimpleNamespace:
        arrays = {name: np.arange(6.0).reshape(2, 3) for name in checks.CUBE_ARRAYS}
        arrays["included_values"] = values
        explanations = [Conjunction.from_items([("category", "a1")])]
        return types.SimpleNamespace(labels=("t0", "t1", "t2"), explanations=explanations, **arrays)

    reference = checks.cube_digest(cube(np.ones((2, 3))))
    assert checks.cube_problems(checks.cube_digest(cube(np.ones((2, 3)))), reference) == []
    changed = np.ones((2, 3))
    changed[1, 2] = np.nextafter(1.0, 2.0)
    assert checks.cube_problems(checks.cube_digest(cube(changed)), reference) == [
        "included_values differ"
    ]
    as_float32 = np.ones((2, 3), dtype=np.float32)
    assert checks.cube_problems(checks.cube_digest(cube(as_float32)), reference) == [
        "included_values differ"
    ]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
#: The sp500 time axis: 190 points.
HIER_LABELS = [f"d{i:03d}" for i in range(190)]


def test_the_generators_repeat_for_a_seed_and_differ_across_seeds():
    for make in (
        lambda seed: workloads.flat_requests(seed, 90),
        lambda seed: workloads.hier_requests(seed, HIER_LABELS, 90),
    ):
        warm_a, timed_a = make(7)
        warm_b, timed_b = make(7)
        _, timed_c = make(8)
        assert warm_a == warm_b
        assert len(timed_a) == 90
        assert timed_a == timed_b
        assert timed_a != timed_c


def test_timed_ops_depend_on_seconds_alone_and_never_fall_below_100():
    assert workloads.timed_ops(25, workloads.FLAT_OPS_PER_SECOND) == 100
    assert workloads.timed_ops(25, workloads.HIER_OPS_PER_SECOND) == 125
    assert workloads.timed_ops(40, workloads.FLAT_OPS_PER_SECOND) == 160
    assert workloads.timed_ops(1, workloads.HIER_OPS_PER_SECOND) == workloads.MIN_OPS


def test_stream_passes_depend_on_seconds_alone_and_each_has_a_p90():
    assert stream.passes_for(30) == 6
    assert stream.passes_for(1) == 1
    assert workloads.STREAM_UPDATES >= workloads.MIN_OPS


def test_the_longest_run_fits_the_window_pools():
    longest = run._seconds(str(run.MAX_SECONDS))
    with pytest.raises(argparse.ArgumentTypeError):
        run._seconds(str(run.MAX_SECONDS + 1))
    ops = workloads.timed_ops(longest, workloads.HIER_OPS_PER_SECOND)
    _, timed = workloads.hier_requests(11, HIER_LABELS, ops)
    assert len({(r.start, r.stop) for r in timed}) == ops
    ops = workloads.timed_ops(longest, workloads.FLAT_OPS_PER_SECOND)
    _, timed = workloads.flat_requests(11, ops)
    assert len(timed) == ops


def test_flat_views_repeat_only_by_k_and_never_reuse_a_warmup_window():
    warmup, requests = workloads.flat_requests(3, 3 * 200)
    views = [requests[i : i + 3] for i in range(0, len(requests), 3)]
    assert all(len({(r.start, r.stop) for r in view}) == 1 for view in views)
    assert [r.k for r in views[0]] == [None, 3, 5]
    windows = [(view[0].start, view[0].stop) for view in views]
    assert len(set(windows)) == len(windows)
    assert not set(windows) & {(r.start, r.stop) for r in warmup}
    assert workloads.request_shape(requests)["re_k_share"] == pytest.approx(2 / 3, abs=1e-3)
    assert all(
        workloads.FLAT_MIN_WINDOW <= r.length <= workloads.FLAT_MAX_WINDOW for r in requests
    )


def test_hier_windows_are_fresh_and_auto_k():
    warmup, requests = workloads.hier_requests(5, HIER_LABELS, 400)
    windows = [(r.start, r.stop) for r in requests]
    assert len(set(windows)) == len(windows)
    assert not set(windows) & {(r.start, r.stop) for r in warmup}
    assert all(r.k is None and not r.re_k for r in requests)


def test_split_rows_keeps_cell_sums_and_time_order():
    from repro.datasets.synthetic import generate_synthetic

    relation = generate_synthetic(seed=1, snr_db=40.0, n_points=30, n_categories=4).dataset.relation
    split = workloads.split_rows(relation, 8, np.random.default_rng(0))
    assert split.n_rows == 8 * relation.n_rows
    positions, _ = split.time_positions()
    assert np.all(np.diff(positions) >= 0)
    original = {
        (t, c): v
        for t, c, v in zip(relation.column("T"), relation.column("category"), relation.column("sales"))
    }
    sums: dict = {}
    for t, c, v in zip(split.column("T"), split.column("category"), split.column("sales")):
        sums[(t, c)] = sums.get((t, c), 0.0) + v
    assert sums.keys() == original.keys()
    assert all(sums[key] == pytest.approx(original[key]) for key in original)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.END_TO_END)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
