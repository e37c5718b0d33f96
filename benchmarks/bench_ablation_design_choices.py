"""Ablations of the reproduction's notable design choices.

1. Support-filter ratio: epsilon shrinkage vs result quality.
2. Guess-and-verify initial prefix size: verification rounds vs latency.
3. Sketch parameters (L, |S|): latency vs full-resolution variance.
4. Explanation quota m: how the segmentation reacts to m=1..5.
"""

import time

import numpy as np

from repro.ca.guess_verify import GuessAndVerify
from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.datacube import ExplanationCube
from repro.cube.filters import apply_support_filter
from repro.diff.scorer import SegmentScorer
from support import emit, real_dataset, with_smoothing


def bench_ablation_filter_ratio(benchmark):
    ds = real_dataset("liquor")

    def run():
        cube = ExplanationCube(ds.relation, ds.explain_by, ds.measure)
        rows = []
        for ratio in (0.0, 0.0005, 0.001, 0.005, 0.02):
            filtered = apply_support_filter(cube, ratio)
            rows.append((ratio, cube.n_explanations, filtered.n_explanations))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'ratio':>8s} {'eps':>6s} {'kept':>6s}"]
    for ratio, epsilon, kept in rows:
        lines.append(f"{ratio:>8g} {epsilon:>6d} {kept:>6d}")
    emit("ablation_filter_ratio", "\n".join(lines))
    kept_counts = [kept for _, _, kept in rows]
    assert kept_counts == sorted(kept_counts, reverse=True)


def bench_ablation_initial_guess(benchmark):
    ds = real_dataset("sp500")
    cube = apply_support_filter(ExplanationCube(ds.relation, ds.explain_by, ds.measure))
    scorer = SegmentScorer(cube)
    n = cube.n_times
    rng = np.random.default_rng(0)
    starts = rng.integers(0, n - 2, size=64)
    stops = starts + rng.integers(1, n - 1 - starts)
    gammas = np.abs(cube.signed_contributions_many(starts, stops)).T

    def run():
        rows = []
        for guess in (5, 15, 30, 60, 120):
            solver = GuessAndVerify(cube.explanations, m=3, initial_guess=guess)
            started = time.perf_counter()
            solver.solve_batch(gammas)
            rows.append((guess, solver.iterations, time.perf_counter() - started))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'m_bar':>6s} {'rounds':>7s} {'seconds':>9s}"]
    for guess, rounds, seconds in rows:
        lines.append(f"{guess:>6d} {rounds:>7d} {seconds:>9.3f}")
    emit("ablation_initial_guess", "\n".join(lines))
    # Larger initial guesses never need more verification rounds.
    round_counts = [rounds for _, rounds, _ in rows]
    assert round_counts == sorted(round_counts, reverse=True)
    del scorer


def bench_ablation_sketch_parameters(benchmark):
    ds = real_dataset("covid-total")

    def run():
        rows = []
        for length, size in ((None, None), (10, 120), (20, 60), (40, 30)):
            config = ExplainConfig.o2(sketch_length=length, sketch_size=size)
            started = time.perf_counter()
            result = ExplainSession(
                ds.relation, ds.measure, ds.explain_by, config=config
            ).explain()
            rows.append(
                (
                    length or "auto",
                    size or "auto",
                    time.perf_counter() - started,
                    result.total_variance,
                    result.k,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'L':>6} {'|S|':>6} {'seconds':>9s} {'variance':>10s} {'K':>3s}"]
    for length, size, seconds, variance, k in rows:
        lines.append(f"{length!s:>6} {size!s:>6} {seconds:>9.2f} {variance:>10.4f} {k:>3d}")
    emit("ablation_sketch_parameters", "\n".join(lines))
    variances = [variance for *_, variance, _ in rows]
    assert max(variances) / min(variances) < 2.0  # quality stays in range


def bench_ablation_top_m(benchmark):
    ds = real_dataset("covid-total")

    def run():
        rows = []
        for m in (1, 2, 3, 5):
            config = with_smoothing(ds, ExplainConfig.optimized(m=m))
            result = ExplainSession(
                ds.relation, ds.measure, ds.explain_by, config=config
            ).explain()
            rows.append((m, result.k, list(result.cuts)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'m':>3s} {'K':>3s}  cuts"]
    for m, k, cuts in rows:
        lines.append(f"{m:>3d} {k:>3d}  {cuts}")
    emit("ablation_top_m", "\n".join(lines))
    assert all(2 <= k <= 10 for _, k, _ in rows)
