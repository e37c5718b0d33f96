"""The ``stream-append`` workload: in-process ``StreamingExplainer`` updates.

Configured the way ``repro explain --follow`` runs it: the optimized
config, the default ``pinned`` schedule and no cache dir (a cache dir
writes a snapshot of the whole cube on every update).  The timed phase
is a fixed count of one-day updates, not a time budget, because an
update's cost grows with the series length: a time budget would let a
faster machine run a costlier mix.

The run repeats one pass — a fresh explainer fed every delta — several
times, and each end-to-end metric is the median over the passes of that
pass's value.  A shared virtual machine speeds up or slows down by a
quarter for seconds at a time; such a spell moves the passes it falls on
and leaves the median pass alone, where a statistic pooled over the whole
run would move with it.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import numpy as np

from perfbench import checks, layers, summary, workloads
from perfbench.summary import Outcome

#: Nominal seconds of one pass of ``STREAM_UPDATES`` updates.  The pass
#: count is fixed by ``--seconds`` alone, never by how fast a run goes.
PASS_SECONDS = 5


def passes_for(seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS))


def _config():
    from repro.core.config import ExplainConfig

    return ExplainConfig.optimized()


def _explainer(data: workloads.StreamInput):
    from repro.core.streaming import StreamingExplainer

    return StreamingExplainer(
        data.base,
        measure=data.measure,
        explain_by=data.explain_by,
        time_attr=data.time_attr,
        config=_config(),
    )


def _reset_peak_rss() -> None:
    """Start the process's peak-RSS mark afresh.

    It then leaves out the memory that building the inputs used for a
    while; the inputs themselves stay resident and are counted.
    """
    Path("/proc/self/clear_refs").write_text("5", encoding="ascii")


def _spans(result) -> list[tuple[int, int]]:
    return [(segment.start, segment.stop) for segment in result.segments]


def _check_result(outcome: Outcome, result, what: str) -> None:
    problems = checks.stream_result_problems(_spans(result), result.k, len(result.series))
    if problems:
        outcome.fail(f"{what}: {'; '.join(problems)}")


def _fingerprint(result) -> tuple:
    return tuple(
        (
            segment.start,
            segment.stop,
            tuple((repr(s.explanation), s.gamma.hex(), s.tau) for s in segment.explanations),
        )
        for segment in result.segments
    )


def _check_cubes(outcome: Outcome, data: workloads.StreamInput, digests: list[dict]) -> None:
    """Each stream's final cube (given by its digest) must equal a one-shot
    build over all rows."""
    from repro.cube.datacube import ExplanationCube
    from repro.relation.table import Relation

    parts = (data.base, *data.deltas)
    schema = data.base.schema
    relation = Relation(
        {name: np.concatenate([part.column(name) for part in parts]) for name in schema.names},
        schema,
    )
    config = _config()
    reference = ExplanationCube(
        relation,
        data.explain_by,
        data.measure,
        time_attr=data.time_attr,
        max_order=config.max_order,
        deduplicate=config.deduplicate,
    )
    expected = checks.cube_digest(reference)
    for index, digest in enumerate(digests):
        problems = checks.cube_problems(digest, expected)
        if problems:
            outcome.fail(f"stream {index} final cube: {'; '.join(problems)}", len(data.deltas))


def _shape(data: workloads.StreamInput, cube) -> dict:
    from repro.ca.cascade import DrillDownTree

    return {
        "base_rows": data.base.n_rows,
        "rows_per_update": data.deltas[0].n_rows,
        "n_start": workloads.STREAM_BASE_POINTS,
        "n_end": cube.n_times,
        "epsilon": cube.n_explanations,
        "drill_down_nodes": DrillDownTree(cube.explanations).n_nodes,
        "updates_per_pass": len(data.deltas),
    }


def run(seed: int, seconds: float) -> Outcome:
    """Untraced run: timed passes, each with its explainer's set-up.

    Each pass sets up a fresh explainer and feeds it every delta; only
    one pass's explainer is alive at a time, and only a digest of its
    final cube outlives it.  Every metric but ``peak_rss_mb`` is the
    median over the passes of that pass's own figure.
    """
    outcome = Outcome()
    data = workloads.stream_input(seed)
    _reset_peak_rss()
    setups: list[float] = []
    passes: list[list[float]] = []
    results: list[tuple] = []
    digests: list[dict] = []
    for index in range(passes_for(seconds)):
        started = time.perf_counter()
        explainer = _explainer(data)
        result = explainer.refresh()
        setups.append(time.perf_counter() - started)
        _check_result(outcome, result, f"pass {index} set-up")
        latencies: list[float] = []
        for delta in data.deltas:
            started = time.perf_counter()
            result = explainer.update(delta)
            latencies.append(time.perf_counter() - started)
            results.append((_spans(result), result.k, len(result.series)))
        passes.append(latencies)
        cube = explainer.session().cube
        digests.append(checks.cube_digest(cube))
        shape = _shape(data, cube)
        del explainer, result, cube
    rss = summary.peak_rss_mb()

    outcome.attempted = len(results)
    for index, (spans, k, n_times) in enumerate(results):
        problems = checks.stream_result_problems(spans, k, n_times)
        expected_n = workloads.STREAM_BASE_POINTS + 1 + index % len(data.deltas)
        if n_times != expected_n:
            problems.append(f"series has {n_times} points, expected {expected_n}")
        if problems:
            outcome.fail(f"update {index}: {'; '.join(problems)}")
    _check_cubes(outcome, data, digests)
    p50s = [1000.0 * summary.percentile(latencies, 50) for latencies in passes]
    p90s = [1000.0 * summary.percentile(latencies, 90) for latencies in passes]
    rates = [len(latencies) / sum(latencies) for latencies in passes]
    outcome.metrics = {
        "setup_s": (float(np.median(setups)), "s"),
        "latency_p50_ms": (float(np.median(p50s)), "ms"),
        "latency_p90_ms": (float(np.median(p90s)), "ms"),
        "throughput_ops_per_s": (float(np.median(rates)), "1/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    outcome.shape = dict(
        shape,
        passes=len(passes),
        pass_p50_ms=[round(value, 3) for value in p50s],
        setup_samples_s=[round(value, 4) for value in setups],
    )
    return outcome


def run_traced(seed: int, seconds: float) -> Outcome:
    """Traced run: a plain and a traced stream take the same deltas in turn.

    The wrappers are installed only around the traced stream's updates,
    so its layer totals are the timed phase's and the plain stream pays
    no tracing cost at all.  Each side runs one pass, so the run does
    the work of two untraced passes whatever ``seconds`` is.
    """
    outcome = Outcome()
    data = workloads.stream_input(seed)
    plain, traced = _explainer(data), _explainer(data)
    plain.refresh()
    traced.refresh()
    tracer = layers.LayerTracer()
    plain_latencies: list[float] = []
    traced_latencies: list[float] = []
    for index, delta in enumerate(data.deltas):
        sides = [(False, plain, plain_latencies), (True, traced, traced_latencies)]
        if index % 2:
            sides.reverse()
        results = {}
        for is_traced, explainer, latencies in sides:
            with tracer if is_traced else contextlib.nullcontext():
                started = time.perf_counter()
                results[is_traced] = explainer.update(delta)
                latencies.append(time.perf_counter() - started)
        _check_result(outcome, results[True], f"traced update {index}")
        if _fingerprint(results[True]) != _fingerprint(results[False]):
            outcome.fail(f"traced and plain updates {index} differ")
    updates = len(data.deltas)
    outcome.attempted = 2 * updates
    _check_cubes(
        outcome, data, [checks.cube_digest(side.session().cube) for side in (plain, traced)]
    )

    metrics = layers.per_op_metrics(tracer.snapshot(), updates, "core.streaming.update")
    metrics.update(layers.per_run_metrics({}))
    metrics.update(
        {
            "serve.http.tax_ms": (0.0, "ms"),
            "serve.scheduler.wait_ms": (0.0, "ms"),
            "serve.registry.hit_ratio": (0.0, "ratio"),
            "cache_disk_mb": (0.0, "MiB"),
            "trace.overhead_pct": (
                100.0 * (summary.percentile(traced_latencies, 50)
                         / summary.percentile(plain_latencies, 50) - 1.0),
                "%",
            ),
        }
    )
    outcome.metrics = metrics
    outcome.shape = _shape(data, traced.session().cube)
    return outcome
