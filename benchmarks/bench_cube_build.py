"""Columnar cube build vs. the row-loop reference, plus the rollup cache.

Three claims are measured on a synthetic dataset:

1. the vectorized columnar build (factorized dimension codes +
   ``np.add.at`` scatter + per-subset batch finalize) beats a faithful
   reimplementation of the row-at-a-time build by >= 5x while producing
   numerically identical included/excluded series;
2. a warm rollup cache turns ``explain()``'s prepare phase into a disk
   load that skips the build entirely (``session.cache_hit``);
3. cached and uncached runs return **byte-identical** top-k explanations
   (``float.hex`` comparison, no tolerance).
"""

import tempfile
import time

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.datacube import ExplanationCube
from repro.datasets.synthetic import generate_synthetic
from support import emit, is_paper_scale


def rowloop_build(relation, explanations, measure):
    """The pre-columnar reference: iterate Python rows once per candidate.

    This is the access pattern the columnar build replaces — an OLAP tool
    recomputing each candidate's aggregated series by scanning the
    relation row by row.  Kept here (not in the library) as the
    benchmark's ground truth for the series; the candidate list is the
    built cube's.
    """
    time_positions, labels = relation.time_positions(None)
    n_times = len(labels)
    values = relation.column(measure)
    columns = relation.columns()

    overall = np.zeros(n_times)
    for row in range(relation.n_rows):
        overall[time_positions[row]] += float(values[row])

    included = np.zeros((len(explanations), n_times))
    for position, conjunction in enumerate(explanations):
        items = conjunction.items
        for row in range(relation.n_rows):
            if all(columns[name][row] == value for name, value in items):
                included[position, time_positions[row]] += float(values[row])
    return included, overall[None, :] - included


def _top_k_fingerprint(result):
    """Byte-exact rendering of every segment's top explanations."""
    return tuple(
        (
            segment.start,
            segment.stop,
            tuple(
                (repr(s.explanation), s.gamma.hex(), s.tau)
                for s in segment.explanations
            ),
        )
        for segment in result.segments
    )


def bench_cube_build(benchmark):
    n_categories = 96 if is_paper_scale() else 48
    synthetic = generate_synthetic(
        seed=7, snr_db=40.0, n_points=120, n_categories=n_categories
    )
    dataset = synthetic.dataset
    relation = dataset.relation
    explain_by = list(dataset.explain_by)
    measure = dataset.measure

    # --- 1. columnar vs row-loop -------------------------------------
    def columnar_build():
        return ExplanationCube(relation, explain_by, measure)

    cube = benchmark.pedantic(columnar_build, rounds=3, iterations=1)
    started = time.perf_counter()
    columnar_build()
    columnar_seconds = time.perf_counter() - started

    started = time.perf_counter()
    reference_included, reference_excluded = rowloop_build(
        relation, cube.explanations, measure
    )
    rowloop_seconds = time.perf_counter() - started

    assert np.allclose(cube.included_values, reference_included)
    assert np.allclose(cube.excluded_values, reference_excluded)
    speedup = rowloop_seconds / columnar_seconds

    # --- 2 + 3. rollup cache: warm explain skips the build -----------
    with tempfile.TemporaryDirectory() as cache_dir:
        config = ExplainConfig(k=synthetic.k, cache_dir=cache_dir)

        uncached = ExplainSession(
            relation, measure, explain_by, config=config.updated(cache_dir=None)
        ).explain()

        cold_session = ExplainSession(relation, measure, explain_by, config=config)
        started = time.perf_counter()
        cold = cold_session.explain()
        cold_seconds = time.perf_counter() - started

        warm_session = ExplainSession(relation, measure, explain_by, config=config)
        started = time.perf_counter()
        warm = warm_session.explain()
        warm_seconds = time.perf_counter() - started

    assert cold_session.cache_hit is False
    assert warm_session.cache_hit is True  # the build was skipped entirely
    assert (
        _top_k_fingerprint(uncached)
        == _top_k_fingerprint(cold)
        == _top_k_fingerprint(warm)
    )

    lines = [
        f"rows={relation.n_rows} epsilon={cube.n_explanations} n={cube.n_times}",
        f"row-loop build:        {rowloop_seconds * 1000:8.1f} ms",
        f"columnar build:        {columnar_seconds * 1000:8.1f} ms",
        f"speedup (row-loop -> columnar): {speedup:.1f}x",
        f"explain cold (build+store):  {cold_seconds * 1000:8.1f} ms "
        f"(prepare {cold.timings['precomputation'] * 1000:.1f} ms)",
        f"explain warm (cache load):   {warm_seconds * 1000:8.1f} ms "
        f"(prepare {warm.timings['precomputation'] * 1000:.1f} ms)",
        "cached vs uncached top-k: byte-identical",
    ]
    emit("cube_build", "\n".join(lines))
    benchmark.extra_info["rowloop_speedup"] = round(speedup, 1)
    benchmark.extra_info["warm_cache_hit"] = True

    assert speedup >= 5.0
