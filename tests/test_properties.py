"""Cross-module property-based tests on end-to-end invariants.

These generate random relations and check invariants that must hold for
*any* input: decomposition identities in the cube, non-overlap and
optimality of the CA selection, bounds of the NDCG distance, optimality of
the segmentation DP against exhaustive search, and agreement between the
vectorized cost path and the reference distance implementation.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ca.bruteforce import is_non_overlapping
from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.core.config import ExplainConfig
from repro.core.pipeline import ExplainPipeline
from repro.core.smoothing import smooth_cube
from repro.cube.datacube import ExplanationCube, merge_cubes
from repro.diff.scorer import SegmentScorer
from repro.segmentation.bruteforce import exhaustive_best_segmentation
from repro.segmentation.distance import explanation_distance
from repro.segmentation.dp import solve_k_segmentation
from repro.segmentation.variance import SegmentationCosts
from repro.relation.schema import Schema
from repro.relation.table import Relation


@st.composite
def small_relations(draw):
    """Random relations: 4-10 time points, 2-3 categories, 1-2 attributes."""
    n_times = draw(st.integers(4, 10))
    n_cats = draw(st.integers(2, 3))
    two_attrs = draw(st.booleans())
    values = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False),
            min_size=n_times * n_cats * (2 if two_attrs else 1),
            max_size=n_times * n_cats * (2 if two_attrs else 1),
        )
    )
    rows = {"t": [], "a": [], "m": []}
    if two_attrs:
        rows["b"] = []
    position = 0
    for t in range(n_times):
        for c in range(n_cats):
            for b in range(2 if two_attrs else 1):
                rows["t"].append(f"t{t:02d}")
                rows["a"].append(f"a{c}")
                if two_attrs:
                    rows["b"].append(f"b{b}")
                rows["m"].append(values[position])
                position += 1
    dimensions = ["a", "b"] if two_attrs else ["a"]
    schema = Schema.build(dimensions=dimensions, measures=["m"], time="t")
    return Relation(rows, schema), dimensions


@settings(max_examples=25, deadline=None)
@given(data=small_relations())
def test_cube_decomposition_invariant(data):
    """included + excluded == overall for every candidate (SUM cubes)."""
    relation, dimensions = data
    cube = ExplanationCube(relation, dimensions, "m", max_order=2)
    for index in range(cube.n_explanations):
        np.testing.assert_allclose(
            cube.included_values[index] + cube.excluded_values[index],
            cube.overall_values,
            rtol=1e-9,
            atol=1e-6,
        )


@settings(max_examples=25, deadline=None)
@given(data=small_relations(), start_frac=st.floats(0, 0.8), m=st.integers(1, 4))
def test_ca_selection_invariants(data, start_frac, m):
    """CA output: non-overlapping, at most m, gammas sorted, total consistent."""
    relation, dimensions = data
    cube = ExplanationCube(relation, dimensions, "m", max_order=2)
    scorer = SegmentScorer(cube)
    n = cube.n_times
    start = min(int(start_frac * (n - 1)), n - 2)
    stop = n - 1
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=m)
    result = solver.solve(scorer.gamma(start, stop))
    assert len(result.indices) <= m
    assert list(result.gammas) == sorted(result.gammas, reverse=True)
    assert is_non_overlapping([cube.explanations[i] for i in result.indices])
    assert result.total == pytest.approx(sum(result.gammas), abs=1e-9)
    # Best is monotone and the selection achieves Best[m].
    assert all(b <= a + 1e-9 for b, a in zip(result.best, result.best[1:]))


@settings(max_examples=15, deadline=None)
@given(data=small_relations())
def test_distance_bounds_and_symmetry(data):
    """dist in [0,1]; tse symmetric; self-distance 0."""
    relation, dimensions = data
    cube = ExplanationCube(relation, dimensions, "m", max_order=2)
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=3)
    costs = SegmentationCosts(scorer, solver)
    n = cube.n_times
    seg_i, seg_j = (0, n // 2), (n // 2, n - 1)
    if seg_i[1] == seg_i[0] or seg_j[1] == seg_j[0]:
        return
    res_i = costs.segment_result(*seg_i)
    res_j = costs.segment_result(*seg_j)
    d_ij = explanation_distance(scorer, seg_i, seg_j, res_i, res_j, "tse")
    d_ji = explanation_distance(scorer, seg_j, seg_i, res_j, res_i, "tse")
    assert 0.0 <= d_ij <= 1.0
    assert d_ij == pytest.approx(d_ji, abs=1e-12)
    assert explanation_distance(scorer, seg_i, seg_i, res_i, res_i, "tse") == pytest.approx(0.0)


@settings(max_examples=15, deadline=None)
@given(data=small_relations(), k=st.integers(1, 4))
def test_dp_optimal_on_real_costs(data, k):
    """The Eq. 11 DP matches exhaustive search on real variance costs."""
    relation, dimensions = data
    cube = ExplanationCube(relation, dimensions, "m", max_order=2)
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=3)
    costs = SegmentationCosts(scorer, solver)
    k = min(k, costs.n_points - 1)
    schemes = solve_k_segmentation(costs.cost_matrix, k_max=k)
    scheme = next(s for s in schemes if s.k == k)
    _, best = exhaustive_best_segmentation(costs.cost_matrix, k)
    assert scheme.total_cost == pytest.approx(best, abs=1e-9)
    assert costs.total_cost(scheme.boundaries) == pytest.approx(best, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(data=small_relations())
def test_pipeline_segments_tile_the_series(data):
    """End-to-end: segments partition [0, n-1]; K matches; labels align."""
    relation, dimensions = data
    result = ExplainPipeline(
        relation,
        "m",
        dimensions,
        config=ExplainConfig(use_filter=False, k_max=5),
    ).run()
    boundaries = result.boundaries
    assert boundaries[0] == 0
    assert boundaries[-1] == len(result.series) - 1
    assert list(boundaries) == sorted(set(boundaries))
    assert result.k == len(result.segments)
    for segment in result.segments:
        assert segment.start_label == result.series.label_at(segment.start)
        assert segment.variance >= -1e-12
    curve = list(result.k_variance_curve.values())
    assert all(v >= -1e-9 for v in curve)


# ----------------------------------------------------------------------
# Append equivalence: build-then-append is byte-identical to one-shot
# ----------------------------------------------------------------------
@st.composite
def streaming_relations(draw):
    """Random relations with ragged per-timestamp rows and late-only values.

    Unlike :func:`small_relations`, rows are *not* a dense grid: each
    timestamp draws its own category multiset, later timestamps may
    introduce brand-new categories (so appends can grow the candidate
    set), and a random split point divides the rows into base + delta —
    possibly mid-timestamp, so deltas can revisit the base's last labels.
    """
    n_times = draw(st.integers(3, 8))
    n_cats = draw(st.integers(2, 4))
    late_cat = draw(st.booleans())
    two_attrs = draw(st.booleans())
    rows = {"t": [], "a": [], "m": []}
    if two_attrs:
        rows["b"] = []
    for t in range(n_times):
        cats = list(range(n_cats)) + draw(
            st.lists(st.integers(0, n_cats - 1), max_size=2)
        )
        if late_cat and t >= n_times // 2:
            cats.append(n_cats + 7)  # appears only late in the stream
        for cat in cats:
            rows["t"].append(f"t{t:02d}")
            rows["a"].append(f"a{cat}")
            if two_attrs:
                rows["b"].append(f"b{draw(st.integers(0, 1))}")
            rows["m"].append(draw(st.floats(-50.0, 50.0, allow_nan=False)))
    dimensions = ["a", "b"] if two_attrs else ["a"]
    schema = Schema.build(dimensions=dimensions, measures=["m"], time="t")
    relation = Relation(rows, schema)
    split = draw(st.integers(0, relation.n_rows))
    return relation, dimensions, split


def _split_rows(relation, split):
    base = relation.take(np.arange(split))
    delta = relation.take(np.arange(split, relation.n_rows))
    return base, delta


def _assert_cubes_byte_identical(left, right):
    assert left.labels == right.labels
    assert left.explanations == right.explanations
    assert left.supports.tobytes() == right.supports.tobytes()
    assert left.overall_values.tobytes() == right.overall_values.tobytes()
    assert left.included_values.tobytes() == right.included_values.tobytes()
    assert left.excluded_values.tobytes() == right.excluded_values.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    data=streaming_relations(),
    aggregate=st.sampled_from(["sum", "count", "avg", "var"]),
    smoothing=st.sampled_from([None, 3]),
)
def test_append_is_byte_identical_to_one_shot_build(data, aggregate, smoothing):
    """build(base) + append(delta) == build(base + delta), bit for bit.

    Covers SUM/COUNT/AVG/VAR, smoothing on/off, empty deltas (split at the
    end), whole-stream deltas (split at 0 — the base still has to span two
    timestamps), mid-timestamp splits, and candidate growth.
    """
    relation, dimensions, split = data
    base, delta = _split_rows(relation, split)
    if len(set(base.column("t"))) < 2:
        return  # a cube needs at least one base timestamp pair
    appended = ExplanationCube(base, dimensions, "m", aggregate=aggregate, max_order=2)
    appended.append(delta)
    one_shot = ExplanationCube(
        relation, dimensions, "m", aggregate=aggregate, max_order=2
    )
    _assert_cubes_byte_identical(appended, one_shot)
    if smoothing is not None and appended.n_times > 1:
        _assert_cubes_byte_identical(
            smooth_cube(appended, smoothing), smooth_cube(one_shot, smoothing)
        )


@settings(max_examples=25, deadline=None)
@given(data=streaming_relations(), aggregate=st.sampled_from(["sum", "var"]))
def test_chunked_appends_match_single_append(data, aggregate):
    """Appending row-by-row equals appending everything at once."""
    relation, dimensions, split = data
    base, delta = _split_rows(relation, split)
    if len(set(base.column("t"))) < 2 or delta.n_rows == 0:
        return
    chunked = ExplanationCube(base, dimensions, "m", aggregate=aggregate, max_order=2)
    for row in range(delta.n_rows):
        chunked.append(delta.take(np.asarray([row])))
    one_shot = ExplanationCube(
        relation, dimensions, "m", aggregate=aggregate, max_order=2
    )
    _assert_cubes_byte_identical(chunked, one_shot)


@settings(max_examples=20, deadline=None)
@given(data=streaming_relations(), aggregate=st.sampled_from(["sum", "avg"]))
def test_merge_cubes_matches_one_shot_on_time_shards(data, aggregate):
    """Merging cubes of time-disjoint shards equals the one-shot build."""
    relation, dimensions, _ = data
    positions, labels = relation.time_positions(None)
    if len(labels) < 4:
        return
    cut = len(labels) // 2
    left = relation.take(positions < cut)
    right = relation.take(positions >= cut)
    if len(set(right.column("t"))) < 1:
        return
    merged = merge_cubes(
        ExplanationCube(left, dimensions, "m", aggregate=aggregate, max_order=2),
        ExplanationCube(right, dimensions, "m", aggregate=aggregate, max_order=2),
    )
    one_shot = ExplanationCube(
        relation, dimensions, "m", aggregate=aggregate, max_order=2
    )
    _assert_cubes_byte_identical(merged, one_shot)


@settings(max_examples=25, deadline=None)
@given(
    data=streaming_relations(),
    aggregate=st.sampled_from(["sum", "count", "avg", "var"]),
    n_shards=st.integers(1, 4),
)
def test_sharded_build_is_byte_identical_to_one_shot(data, aggregate, n_shards):
    """Building time shards and folding them with ``merge_cubes`` == one-shot.

    The rows are split into 1-4 contiguous time-label ranges.  Such shards
    feed disjoint ``(group, time)`` buckets, so building each shard's cube
    independently and merging them left in time order must reproduce the
    exact bytes (candidate order, series arrays, supports) of a single
    build over the whole relation.
    """
    relation, dimensions, _ = data
    positions, labels = relation.time_positions(None)
    ranges = np.array_split(np.arange(len(labels)), min(n_shards, len(labels)))
    shards = [
        relation.take((positions >= chunk[0]) & (positions <= chunk[-1]))
        for chunk in ranges
    ]
    merged = functools.reduce(
        merge_cubes,
        [
            ExplanationCube(shard, dimensions, "m", aggregate=aggregate, max_order=2)
            for shard in shards
        ],
    )
    one_shot = ExplanationCube(
        relation, dimensions, "m", aggregate=aggregate, max_order=2
    )
    _assert_cubes_byte_identical(merged, one_shot)


@settings(max_examples=10, deadline=None)
@given(data=small_relations(), k=st.integers(2, 3))
def test_optimal_k_plus_1_beats_every_single_split_refinement(data, k):
    """D(n, K+1) <= cost of any single-split refinement of the optimal K.

    This is the invariant DP optimality actually guarantees.  The
    stronger folklore claim — D(n, K+1) <= D(n, K) outright — is *false*
    for explanation-aware costs: splitting a segment re-selects each
    part's top-m explanations, which can re-rank unit distances and
    raise the summed cost (hypothesis found an 18-row counterexample
    exceeding the curve by 0.03).  The elbow selection only needs the
    curve, not its monotonicity.
    """
    relation, dimensions = data
    cube = ExplanationCube(relation, dimensions, "m", max_order=2)
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=3)
    costs = SegmentationCosts(scorer, solver)
    k = min(k, costs.n_points - 2)
    if k < 1:
        return
    matrix = costs.cost_matrix
    schemes = {s.k: s for s in solve_k_segmentation(matrix, k_max=k + 1)}
    if k not in schemes or k + 1 not in schemes:
        return
    base = schemes[k]
    refinements = [
        base.total_cost - matrix[left, right] + matrix[left, cut] + matrix[cut, right]
        for left, right in zip(base.boundaries, base.boundaries[1:])
        for cut in range(left + 1, right)
    ]
    if refinements:
        assert schemes[k + 1].total_cost <= min(refinements) + 1e-9


# ----------------------------------------------------------------------
# Storage layer: cross-backend round trips and the out-of-core build
# ----------------------------------------------------------------------
_cell_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00"
    ),
    max_size=6,
)


@st.composite
def csv_policy_relations(draw):
    """Random relations in the CSV dtype policy (object text, float64).

    This is the domain every storage backend round-trips exactly: text
    dimension/time cells (arbitrary printable content, including commas,
    quotes and newlines) and finite float64 measures.
    """
    from repro.relation.schema import Schema

    n_rows = draw(st.integers(0, 16))
    times = draw(st.lists(_cell_text, min_size=n_rows, max_size=n_rows))
    cats = draw(st.lists(_cell_text, min_size=n_rows, max_size=n_rows))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    # + 0.0 normalizes -0.0 (identity for every other float): SQLite's
    # record format stores integral REALs as integers, which erases the
    # sign of negative zero — the one documented lossy cell (see
    # repro.store.sqlite_source.write_sqlite).
    values = [value + 0.0 for value in values]
    schema = Schema.build(dimensions=["cat"], measures=["v"], time="t")
    columns = {
        "t": np.asarray(times, dtype=object),
        "cat": np.asarray(cats, dtype=object),
        "v": np.asarray(values, dtype=np.float64),
    }
    return Relation(columns, schema)


@settings(max_examples=40, deadline=None)
@given(relation=csv_policy_relations())
def test_source_round_trips_preserve_fingerprint(relation):
    """csv -> npz -> sqlite round trips yield identical fingerprints.

    `Relation.fingerprint` keys the rollup cache, so a backend that
    changed a single cell, the row order, or a dtype would silently split
    (or worse, poison) the cache.
    """
    import tempfile
    from pathlib import Path

    from repro.relation.csvio import read_csv, write_csv
    from repro.store import CsvSource, NpzSource, SqliteSource, write_npz, write_sqlite

    expected = relation.fingerprint()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_csv(relation, tmp / "r.csv")
        via_read_csv = read_csv(
            tmp / "r.csv", dimensions=["cat"], measures=["v"], time="t"
        )
        assert via_read_csv.fingerprint() == expected
        via_source = CsvSource(
            tmp / "r.csv", dimensions=["cat"], measures=["v"], time="t"
        ).read()
        assert via_source.fingerprint() == expected

        write_npz(relation, tmp / "r.npz")
        assert NpzSource(tmp / "r.npz").read().fingerprint() == expected

        write_sqlite(relation, tmp / "r.db", "t1")
        via_sqlite = SqliteSource(
            tmp / "r.db", "t1", dimensions=["cat"], measures=["v"], time="t"
        ).read()
        assert via_sqlite.fingerprint() == expected


# ----------------------------------------------------------------------
# Lattice equivalence: routing, derivation and the single-scan build
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    data=small_relations(),
    aggregate=st.sampled_from(["sum", "count", "avg", "var"]),
    smoothing=st.sampled_from([None, 3]),
    start_frac=st.floats(0, 0.6),
)
def test_lattice_routed_equals_direct_build(data, aggregate, smoothing, start_frac):
    """(a) Every lattice-routed cube is byte-identical to a one-shot
    build, and a routed session answers windowed (smoothed) queries
    exactly like a session that never saw the lattice."""
    from repro.core.session import ExplainSession
    from repro.lattice import LatticeRouter, RollupSpec, build_lattice, default_lattice
    from repro.serve.jsonio import result_to_json

    relation, dimensions = data
    specs = default_lattice(dimensions, "m", aggregate=aggregate, max_order=2)
    cubes, _ = build_lattice(relation, specs)
    router = LatticeRouter.for_relation(relation)
    router.seed(cubes)
    for dims in [tuple(sorted(dimensions))] + [(d,) for d in dimensions]:
        routed, info = router.route(
            RollupSpec(dims=dims, measure="m", aggregate=aggregate, max_order=2)
        )
        assert info.decision in ("exact", "derived")
        _assert_cubes_byte_identical(
            routed,
            ExplanationCube(relation, dims, "m", aggregate=aggregate, max_order=2),
        )
    config = ExplainConfig(use_filter=False, k_max=4, max_order=2)
    if smoothing is not None:
        config = config.updated(smoothing_window=smoothing)
    routed_session = ExplainSession.from_lattice(
        router,
        relation=relation,
        measure="m",
        explain_by=dimensions,
        aggregate=aggregate,
        config=config,
    )
    assert routed_session.route_info.decision == "exact"
    direct_session = ExplainSession(
        relation, measure="m", explain_by=dimensions, aggregate=aggregate, config=config
    )
    labels = sorted(set(relation.column("t")))
    start = labels[min(int(start_frac * (len(labels) - 1)), len(labels) - 2)]
    routed_payload = result_to_json(routed_session.query().window(start, labels[-1]).run())
    direct_payload = result_to_json(direct_session.query().window(start, labels[-1]).run())
    routed_payload.pop("timings", None)  # wall clock is the one legit difference
    direct_payload.pop("timings", None)
    assert routed_payload == direct_payload


@settings(max_examples=15, deadline=None)
@given(
    data=streaming_relations(),
    target_agg=st.sampled_from(["sum", "count", "avg", "var"]),
)
def test_lattice_derivation_equals_scratch_build(data, target_agg):
    """(b) Re-aggregating a finer rollup's ledger into a coarser shape is
    byte-identical to building that shape from the relation."""
    from repro.lattice import RollupSpec, derive_rollup

    relation, dimensions, _ = data
    if len(dimensions) < 2:
        return  # nothing finer to derive from
    finest = ExplanationCube(
        relation, dimensions, "m", aggregate="var", max_order=2, appendable=True
    )
    for dims in [tuple(sorted(dimensions))] + [(d,) for d in dimensions]:
        target = RollupSpec(dims=dims, measure="m", aggregate=target_agg, max_order=2)
        derived = derive_rollup(finest, target)
        scratch = ExplanationCube(
            relation, dims, "m", aggregate=target_agg, max_order=2
        )
        _assert_cubes_byte_identical(derived, scratch)


@settings(max_examples=10, deadline=None)
@given(
    data=small_relations(),
    aggregate=st.sampled_from(["sum", "count", "avg", "var"]),
    chunk_rows=st.integers(1, 37),
)
def test_single_scan_lattice_equals_independent_builds(data, aggregate, chunk_rows):
    """(c) One chunked scan feeding every lattice rollup yields exactly
    the cubes N independent source builds would."""
    import tempfile
    from pathlib import Path

    from repro.lattice import build_lattice, default_lattice
    from repro.store import NpzSource, write_npz

    relation, dimensions = data
    specs = default_lattice(dimensions, "m", aggregate=aggregate, max_order=2)
    with tempfile.TemporaryDirectory() as tmp:
        write_npz(relation, Path(tmp) / "r.npz")
        source = NpzSource(Path(tmp) / "r.npz")
        cubes, report = build_lattice(source, specs, chunk_rows=chunk_rows)
        assert report.out_of_core
        assert set(cubes) == set(specs)
        independent = source.read()
        for one, cube in cubes.items():
            _assert_cubes_byte_identical(
                cube,
                ExplanationCube(
                    independent, one.dims, "m", aggregate=aggregate, max_order=2
                ),
            )


@settings(max_examples=20, deadline=None)
@given(
    data=small_relations(),
    aggregate=st.sampled_from(["sum", "count", "avg", "var"]),
    chunk_rows=st.integers(1, 37),
)
def test_out_of_core_build_is_byte_identical(data, aggregate, chunk_rows):
    """A chunked source build equals the one-shot cube, byte for byte."""
    import tempfile
    from pathlib import Path

    from repro.store import NpzSource, load_or_build_from_source, write_npz

    relation, dimensions = data
    with tempfile.TemporaryDirectory() as tmp:
        write_npz(relation, Path(tmp) / "r.npz")
        source = NpzSource(Path(tmp) / "r.npz")
        one_shot = ExplanationCube(
            source.read(), dimensions, "m", aggregate=aggregate, max_order=2
        )
        chunked, report = load_or_build_from_source(
            None,
            source,
            dimensions,
            "m",
            aggregate=aggregate,
            max_order=2,
            chunk_rows=chunk_rows,
        )
    assert report.out_of_core
    assert report.peak_chunk_rows <= chunk_rows
    assert chunked.explanations == one_shot.explanations
    assert chunked.labels == one_shot.labels
    np.testing.assert_array_equal(chunked.supports, one_shot.supports)
    np.testing.assert_array_equal(chunked.overall_values, one_shot.overall_values)
    np.testing.assert_array_equal(chunked.included_values, one_shot.included_values)
    np.testing.assert_array_equal(chunked.excluded_values, one_shot.excluded_values)


# ----------------------------------------------------------------------
# Detect tier: incremental baseline advance equals a one-shot rebuild
# ----------------------------------------------------------------------
def _assert_baselines_byte_identical(left, right):
    assert left.calendar_mode == right.calendar_mode
    assert left.tier.tobytes() == right.tier.tobytes()
    assert left.samples.tobytes() == right.samples.tobytes()
    assert left.mean.tobytes() == right.mean.tobytes()
    assert left.std.tobytes() == right.std.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    data=streaming_relations(),
    aggregate=st.sampled_from(["sum", "count", "avg", "var"]),
    date_labels=st.booleans(),
    n_chunks=st.integers(1, 4),
)
def test_baseline_advance_is_byte_identical_to_one_shot(
    data, aggregate, date_labels, n_chunks
):
    """Chunked appends advance the baselines to the exact bytes a fresh
    build over ``base + delta`` produces — for SUM/COUNT/AVG/VAR, both
    calendar modes, mid-timestamp splits, and candidate growth.

    This is the invariant ``repro detect follow`` rides: scoring only the
    recomputed columns per poll tick loses nothing against rescanning.
    """
    from repro.detect import DetectConfig, TieredBaselines

    relation, dimensions, split = data
    if date_labels:
        # Remap tNN -> consecutive ISO dates so the day-of-week tiers
        # (not just the positional fallback) are exercised.
        import datetime

        first = datetime.date(2024, 1, 1)
        remap = {
            label: (first + datetime.timedelta(days=int(label[1:]))).isoformat()
            for label in set(relation.column("t"))
        }
        columns = relation.columns()
        columns["t"] = np.asarray(
            [remap[label] for label in relation.column("t")], dtype=object
        )
        relation = Relation(columns, relation.schema)
    base, delta = _split_rows(relation, split)
    if len(set(base.column("t"))) < 2:
        return
    config = DetectConfig(
        dow_windows=(14, 7), dow_min_samples=(2, 1), recency_window=3,
        recency_min_samples=1,
    )
    cube = ExplanationCube(base, dimensions, "m", aggregate=aggregate, max_order=2)
    advanced = TieredBaselines(cube, config)
    bounds = np.linspace(0, delta.n_rows, n_chunks + 1).astype(int)
    for lo, hi in zip(bounds, bounds[1:]):
        info = cube.append(delta.take(np.arange(lo, hi)))
        advanced.advance(info)
    one_shot = ExplanationCube(
        relation, dimensions, "m", aggregate=aggregate, max_order=2
    )
    fresh = TieredBaselines(one_shot, config)
    assert advanced.calendar_mode == ("date" if date_labels else "positional")
    _assert_baselines_byte_identical(advanced, fresh)
