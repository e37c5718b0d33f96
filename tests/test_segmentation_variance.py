"""Tests for the vectorized SegmentationCosts against the reference path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.ca.guess_verify import GuessAndVerify
from repro.core.config import ExplainConfig
from repro.core.pipeline import make_solver
from repro.core.session import ExplainSession
from repro.cube.datacube import ExplanationCube
from repro.diff.metrics import available_metrics
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.segmentation.distance import ALLPAIR_VARIANTS, VARIANTS, explanation_distance
from repro.segmentation.variance import SegmentationCosts, scheme_total_variance
from tests.conftest import (
    assert_batch_format,
    build_relation,
    regime_relation,
    two_attr_relation,
)


def reference_centroid_cost(costs: SegmentationCosts, i: int, j: int) -> float:
    """``sum_x dist(object_x, centroid)`` of the reduced segment ``[i, j]``,
    one segment at a time: the evaluation the span kernel batches, whose
    bits it must reproduce."""
    weights = costs._weights
    batch = costs._batch
    row = int(costs._row[i, j])
    start_pos = int(costs.positions[i])
    stop_pos = int(costs.positions[j])
    span = slice(start_pos, stop_pos)
    n_objects = stop_pos - start_pos
    k = int(batch.counts[row])

    # --- NDCG(object_x, E*(centroid)) per object ----------------------
    if k:
        c_idx = batch.indices[row, :k]
        c_tau = batch.taus[row, :k]
        rel = costs._gamma_unit[c_idx][:, span]  # (m_c, L)
        agree = costs._tau_unit[c_idx][:, span] == c_tau[:, None]
        numerator = (rel * agree).T @ weights[:k]  # (L,)
    else:
        numerator = np.zeros(n_objects)
    ideal = costs._ideal_unit[span]
    centroid_explains_obj = np.ones(n_objects)
    positive = ideal > 0.0
    centroid_explains_obj[positive] = np.minimum(numerator[positive] / ideal[positive], 1.0)

    # --- NDCG(centroid, E*(object_x)) per object ----------------------
    ideal_centroid = float(np.dot(batch.gammas[row, :k], weights[:k])) if k else 0.0
    if ideal_centroid > 0.0:
        # The objects' winners (L, m) scored over the centroid segment.
        rel, tau = costs._scorer.gamma_tau(start_pos, stop_pos, costs._unit_idx[span])
        agree = tau == costs._unit_tau[span]
        masked = rel * agree * costs._unit_valid[span]
        numerator_back = masked @ weights
        obj_explains_centroid = np.minimum(numerator_back / ideal_centroid, 1.0)
    else:
        obj_explains_centroid = np.ones(n_objects)
    return float(np.sum(costs._combine(obj_explains_centroid, centroid_explains_obj)))


def reference_cost_matrix(costs: SegmentationCosts) -> np.ndarray:
    """``costs``' cost matrix with every solved segment re-costed by
    :func:`reference_centroid_cost`."""
    expected = costs.cost_matrix.copy()
    for i, j in zip(*np.nonzero(costs._row >= costs._n_units)):
        expected[i, j] = reference_centroid_cost(costs, int(i), int(j))
    return expected


def noisy_relation(n_times: int, seed: int = 0):
    """Two attributes with small random integer values: changes of both
    signs, and tied gammas."""
    rng = np.random.default_rng(seed)
    grid = [(t, a, b) for t in range(n_times) for a in "xyz" for b in "pq"]
    columns = {
        "t": [f"t{t:02d}" for t, _, _ in grid],
        "a": [a for _, a, _ in grid],
        "b": [b for _, _, b in grid],
        "m": rng.integers(0, 4, len(grid)).astype(float).tolist(),
    }
    return build_relation(columns, ["a", "b"], ["m"], time="t")


def make_parts(relation, explain_by, measure, m=3):
    cube = ExplanationCube(relation, explain_by, measure)
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=m)
    return scorer, solver


@pytest.fixture(scope="module")
def covid_like():
    return make_parts(regime_relation(), ["cat"], "sales")


CENTROID_VARIANTS = [v for v in VARIANTS if v not in ALLPAIR_VARIANTS]


@st.composite
def segmentation_inputs(draw):
    """A random relation over one or two attributes, with a config that
    sets the metric, the variant, smoothing, the support filter (a quarter
    of the draws empty the candidate set) and the solver; plus a cut grid
    and a ``max_length`` that fit the series."""
    n_times = draw(st.integers(3, 20))
    attributes = draw(st.sampled_from([("a",), ("a", "b")]))
    values_b = "pq" if len(attributes) == 2 else "p"
    grid = [(t, a, b) for t in range(n_times) for a in "xyz" for b in values_b]
    # Small integers tie in gamma; their signs mix the change effects.
    values = st.integers(-3, 3).map(float) | st.floats(-50, 50, allow_nan=False)
    # Positive values, each group a small share of every point, under a
    # 0.999 support filter: an emptied candidate set.
    emptied = draw(st.sampled_from([False, False, False, True]))
    if emptied:
        values = st.integers(1, 3).map(float)
    columns = {
        "t": [f"t{t:02d}" for t, _, _ in grid],
        "a": [a for _, a, _ in grid],
        "m": draw(st.lists(values, min_size=len(grid), max_size=len(grid))),
    }
    if len(attributes) == 2:
        columns["b"] = [b for _, _, b in grid]
    relation = build_relation(columns, list(attributes), ["m"], time="t")
    m = draw(st.integers(1, 4))
    config = ExplainConfig(
        m=m,
        metric=draw(st.sampled_from(available_metrics())),
        variant=draw(st.sampled_from(CENTROID_VARIANTS)),
        smoothing_window=draw(st.sampled_from([None, 3])),
        filter_ratio=0.999 if emptied else 0.001,
        use_guess_verify=draw(st.booleans()),
        initial_guess=draw(st.integers(m, 6)),
    )
    inner = draw(st.lists(st.integers(1, n_times - 2), unique=True))
    cuts = None if draw(st.booleans()) else np.asarray(sorted({0, n_times - 1, *inner}))
    widest = int(np.diff(cuts).max()) if cuts is not None else 1
    max_length = draw(st.none() | st.integers(widest, n_times))
    return relation, list(attributes), config, cuts, max_length


@settings(max_examples=150, deadline=None)
@given(inputs=segmentation_inputs(), regrid=st.booleans())
def test_span_kernel_costs_are_the_per_segment_bits(inputs, regrid):
    """Every centroid cost the span kernel writes is bit for bit the one
    :func:`reference_centroid_cost` computes for its segment alone; also
    after a regrid onto the full grid, where the carried costs stay and
    the rest are fresh."""
    relation, attributes, config, cuts, max_length = inputs
    scorer = ExplainSession(relation, "m", attributes, config=config).scorer(config=config)
    solver = make_solver(scorer, config)
    costs = SegmentationCosts(
        scorer, solver, variant=config.variant, cut_positions=cuts, max_length=max_length
    )
    if regrid:
        costs = costs.extend(scorer, solver)
    expected = reference_cost_matrix(costs)
    assert costs.cost_matrix.view(np.int64).tolist() == expected.view(np.int64).tolist()


@pytest.mark.parametrize("variant", CENTROID_VARIANTS)
def test_centroid_cost_matches_reference(covid_like, variant):
    """Vectorized centroid costs == sum of reference distances."""
    scorer, solver = covid_like
    costs = SegmentationCosts(scorer, solver, variant=variant)
    for start, stop in [(0, 4), (3, 9), (10, 16), (0, 23)]:
        centroid = costs.segment_result(start, stop)
        reference = 0.0
        for x in range(start, stop):
            unit = costs.unit_result(x)
            reference += explanation_distance(
                scorer, (start, stop), (x, x + 1), centroid, unit, variant
            )
        assert costs.cost(start, stop) == pytest.approx(reference, abs=1e-9), (
            variant,
            start,
            stop,
        )


@pytest.mark.parametrize("variant", ["allpair", "Sallpair"])
def test_allpair_cost_matches_reference(covid_like, variant):
    scorer, solver = covid_like
    costs = SegmentationCosts(scorer, solver, variant=variant)
    for start, stop in [(0, 4), (5, 10), (8, 15)]:
        units = [costs.unit_result(x) for x in range(start, stop)]
        pairs = []
        for i in range(len(units)):
            for j in range(i + 1, len(units)):
                pairs.append(
                    explanation_distance(
                        scorer,
                        (start + i, start + i + 1),
                        (start + j, start + j + 1),
                        units[i],
                        units[j],
                        variant,
                    )
                )
        length = stop - start
        expected = 0.0 if not pairs else length * (sum(pairs) / len(pairs))
        assert costs.cost(start, stop) == pytest.approx(expected, abs=1e-9)


def test_unit_cost_zero(covid_like):
    scorer, solver = covid_like
    costs = SegmentationCosts(scorer, solver)
    for x in range(costs.n_points - 1):
        assert costs.cost(x, x + 1) == 0.0


def test_cohesive_segment_low_variance(covid_like):
    """Within-regime variance is far below cross-regime variance."""
    scorer, solver = covid_like
    costs = SegmentationCosts(scorer, solver)
    within = costs.variance(0, 11)
    across = costs.variance(6, 18)
    assert within < across


def test_cost_matrix_marks_length_violations(covid_like):
    scorer, solver = covid_like
    costs = SegmentationCosts(scorer, solver, max_length=4)
    assert np.isinf(costs.cost(0, 10))
    assert np.isfinite(costs.cost(0, 4))


def test_cut_grid_subset(covid_like):
    """Restricting cut positions must not change segment costs.

    The variance is always measured over full-resolution unit objects, so
    a segment between two grid points costs exactly what it costs on the
    full grid (the paper's phase-II semantics, O(m |S|^2 n)).
    """
    scorer, solver = covid_like
    full = SegmentationCosts(scorer, solver)
    grid = np.asarray([0, 6, 12, 23])
    costs = SegmentationCosts(scorer, solver, cut_positions=grid)
    assert costs.n_points == 4
    # Objects stay full resolution.
    assert costs.unit_result(7) == full.unit_result(7)
    # Reduced (1, 2) spans original [6, 12]: identical cost and variance.
    assert costs.cost(1, 2) == pytest.approx(full.cost(6, 12))
    assert costs.variance(1, 2) == pytest.approx(full.variance(6, 12))
    assert np.isfinite(costs.cost(0, 3))


def test_positions_validation(covid_like):
    scorer, solver = covid_like
    with pytest.raises(SegmentationError):
        SegmentationCosts(scorer, solver, cut_positions=np.asarray([5]))
    with pytest.raises(SegmentationError):
        SegmentationCosts(scorer, solver, cut_positions=np.asarray([3, 3, 5]))
    with pytest.raises(SegmentationError):
        SegmentationCosts(scorer, solver, cut_positions=np.asarray([0, 99]))
    with pytest.raises(SegmentationError):
        SegmentationCosts(scorer, solver, variant="nope")


def test_total_cost_and_bounds(covid_like):
    scorer, solver = covid_like
    costs = SegmentationCosts(scorer, solver)
    n = costs.n_points
    total = costs.total_cost([0, 12, n - 1])
    assert total == pytest.approx(costs.cost(0, 12) + costs.cost(12, n - 1))
    with pytest.raises(SegmentationError):
        costs.total_cost([1, 5, n - 1])
    with pytest.raises(SegmentationError):
        costs.cost(5, 5)


def test_scheme_total_variance_matches_full(covid_like):
    scorer, solver = covid_like
    full = SegmentationCosts(scorer, solver)
    boundaries = [0, 12, full.n_points - 1]
    scheme_grid = SegmentationCosts(scorer, solver, cut_positions=boundaries)
    total, per_segment = scheme_total_variance(scheme_grid, [0, 1, 2])
    assert total == pytest.approx(full.total_cost(boundaries))
    assert len(per_segment) == 2
    assert per_segment[0] == pytest.approx(full.variance(0, 12))


def test_multi_attribute_costs_consistent():
    scorer, solver = make_parts(two_attr_relation(), ["a", "b"], "m", m=2)
    costs = SegmentationCosts(scorer, solver)
    centroid = costs.segment_result(0, 7)
    reference = sum(
        explanation_distance(
            scorer, (0, 7), (x, x + 1), centroid, costs.unit_result(x), "tse"
        )
        for x in range(0, 7)
    )
    assert costs.cost(0, 7) == pytest.approx(reference, abs=1e-9)


@pytest.mark.parametrize(
    "relation, explain_by, measure",
    [
        (regime_relation(), ["cat"], "sales"),
        (two_attr_relation(), ["a", "b"], "m"),
        (noisy_relation(16), ["a", "b"], "m"),
    ],
    ids=["flat", "hierarchical", "mixed-signs"],
)
def test_segment_taus_are_the_winners_change_effects(relation, explain_by, measure):
    """The one batch holds every answer with its change effects: each
    unit's and segment's taus are ``tau`` at its winners, and the
    padding is 0."""
    scorer, solver = make_parts(relation, explain_by, measure)
    costs = SegmentationCosts(scorer, solver)
    assert_batch_format(costs._batch, costs.m)
    units = [(x, x + 1) for x in range(costs.n_points - 1)]
    for start, stop in units + [(0, 4), (3, 9), (2, 15)]:
        result = costs.segment_result(start, stop)
        winners = np.asarray(result.indices, dtype=np.intp)
        assert result.taus == tuple(int(t) for t in scorer.tau(start, stop, winners))


def test_allpair_single_objects_read_their_unit_rows():
    """Under ``allpair`` a single-object segment reports its unit's row of
    the units' one batch, as under every variant.  Guess-and-verify's
    restricted DAG is the union of a batch's rows, so a one-row solve of
    the same gammas reaches the same optimum but may pick another tied
    selection; this pins which one the costs report."""
    cube = ExplanationCube(noisy_relation(8), ["a", "b"], "m")
    scorer = SegmentScorer(cube)

    def solver():
        return GuessAndVerify(cube.explanations, m=2, initial_guess=2)

    costs = SegmentationCosts(scorer, solver(), variant="allpair")
    gammas = [scorer.gamma(x, x + 1) for x in range(cube.n_times - 1)]
    units = solver().solve_batch(np.stack(gammas))
    ties = 0
    for x, gamma in enumerate(gammas):
        result = costs.segment_result(x, x + 1)
        alone = solver().solve(gamma)
        assert result == costs.unit_result(x)
        assert result.indices == units[x].indices
        assert result.total == alone.total
        ties += result.indices != alone.indices
    assert ties  # unit 4 reports (2, 8); solved alone it picks (2, 6)
