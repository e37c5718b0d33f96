"""Tests for the vectorized SegmentationCosts against the reference path."""

import numpy as np
import pytest

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.cube.datacube import ExplanationCube
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.segmentation.distance import VARIANTS, explanation_distance
from repro.segmentation.variance import SegmentationCosts, scheme_total_variance
from tests.conftest import regime_relation, two_attr_relation


def make_parts(relation, explain_by, measure, m=3):
    cube = ExplanationCube(relation, explain_by, measure)
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=m)
    return scorer, solver


@pytest.fixture(scope="module")
def covid_like():
    return make_parts(regime_relation(), ["cat"], "sales")


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v not in ("allpair", "Sallpair")])
def test_centroid_cost_matches_reference(covid_like, variant):
    """Vectorized centroid costs == sum of reference distances."""
    scorer, solver = covid_like
    costs = SegmentationCosts(scorer, solver, m=3, variant=variant)
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
    costs = SegmentationCosts(scorer, solver, m=3, variant=variant)
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
    unit = costs.unit_result(7)
    assert unit.source_segment == (7, 8)
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
    scorer, solver = make_parts(two_attr_relation(), ["a", "b"], "m")
    costs = SegmentationCosts(scorer, solver, m=2)
    centroid = costs.segment_result(0, 7)
    reference = sum(
        explanation_distance(
            scorer, (0, 7), (x, x + 1), centroid, costs.unit_result(x), "tse"
        )
        for x in range(0, 7)
    )
    assert costs.cost(0, 7) == pytest.approx(reference, abs=1e-9)
