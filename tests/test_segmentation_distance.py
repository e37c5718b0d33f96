"""Unit tests for the NDCG-based distance (reference implementation)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.ca.cascade import CascadingAnalysts, DrillDownTree, TopMResult
from repro.cube.datacube import ExplanationCube
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.segmentation.distance import (
    VARIANTS,
    combine_ndcg,
    dcg_cross,
    dcg_weights,
    explanation_distance,
    ideal_dcg,
    ndcg,
)
from tests.conftest import regime_relation


@pytest.fixture
def scorer():
    return SegmentScorer(ExplanationCube(regime_relation(), ["cat"], "sales"))


def solve(scorer, start, stop, m=3) -> TopMResult:
    solver = CascadingAnalysts(DrillDownTree(scorer.cube.explanations), m=m)
    gammas, taus = scorer.gamma_tau(start, stop)
    result = solver.solve(gammas)
    return dataclasses.replace(result, taus=tuple(int(taus[i]) for i in result.indices))


def test_dcg_weights():
    weights = dcg_weights(3)
    assert weights[0] == pytest.approx(1.0)
    assert weights[1] == pytest.approx(1.0 / math.log2(3))
    assert weights[2] == pytest.approx(0.5)


def test_ideal_dcg_matches_manual(scorer):
    result = solve(scorer, 0, 11)
    expected = sum(g / math.log2(r + 2) for r, g in enumerate(result.gammas))
    assert ideal_dcg(result) == pytest.approx(expected)


def test_table2_worked_example(scorer):
    """The Table 2 walk-through: rectified relevance zeroes disagreeing tau.

    We build a source result manually: ranks 1 and 2 agree in effect with
    the target segment; rank 3 has the opposite effect and contributes 0.
    """
    cube = scorer.cube
    # Target [12, 23]: b rises (tau +), a flat (0), c flat (0).
    target = (12, 23)
    gammas, _ = scorer.gamma_tau(*target)
    index_a = 0  # cat=a
    index_b = 1  # cat=b
    source = TopMResult(
        indices=(index_b, index_a),
        gammas=(40.0, 30.0),
        best=(0.0, 40.0, 70.0),
        taus=(1, -1),  # pretend a *decreased* on the source segment
    )
    got = dcg_cross(scorer, target, source)
    # Rank 1 (cat=b): tau on target +1 == +1 -> contributes gamma_b / log2(2).
    # Rank 2 (cat=a): tau on target 0 != -1 -> rectified to zero.
    assert got == pytest.approx(float(gammas[index_b]) / 1.0)


def test_dcg_cross_requires_context(scorer):
    bare = TopMResult(indices=(0,), gammas=(1.0,), best=(0.0, 1.0))
    with pytest.raises(SegmentationError):
        dcg_cross(scorer, (0, 5), bare)


def test_ndcg_self_is_one(scorer):
    result = solve(scorer, 0, 11)
    assert ndcg(scorer, (0, 11), result, result) == pytest.approx(1.0)


def test_ndcg_range(scorer):
    first = solve(scorer, 0, 11)
    second = solve(scorer, 12, 23)
    value = ndcg(scorer, (0, 11), first, second)
    assert 0.0 <= value <= 1.0


def test_ndcg_flat_target_defined_as_one(scorer):
    # Category c is flat everywhere; scoring a segment where the overall
    # change only comes from flat candidates yields ideal DCG 0.
    empty = TopMResult(indices=(), gammas=(), best=(0.0, 0.0, 0.0, 0.0), taus=())
    other = solve(scorer, 12, 23)
    assert ndcg(scorer, (0, 1), empty, other) == 1.0


def test_distance_symmetric_for_tse(scorer):
    first = solve(scorer, 0, 11)
    second = solve(scorer, 12, 23)
    d_ij = explanation_distance(scorer, (0, 11), (12, 23), first, second, "tse")
    d_ji = explanation_distance(scorer, (12, 23), (0, 11), second, first, "tse")
    assert d_ij == pytest.approx(d_ji)
    assert 0.0 <= d_ij <= 1.0


def test_distance_zero_for_same_segment(scorer):
    result = solve(scorer, 0, 11)
    assert explanation_distance(scorer, (0, 11), (0, 11), result, result, "tse") == pytest.approx(0.0)


def test_regime_change_increases_distance(scorer):
    """Segments across the regime switch are farther than within a regime."""
    left_a = solve(scorer, 0, 5)
    left_b = solve(scorer, 6, 11)
    right = solve(scorer, 12, 23)
    within = explanation_distance(scorer, (0, 5), (6, 11), left_a, left_b, "tse")
    across = explanation_distance(scorer, (0, 5), (12, 23), left_a, right, "tse")
    assert across > within


@pytest.mark.parametrize("variant", VARIANTS)
def test_combine_ndcg_bounds(variant):
    for forward in (0.0, 0.3, 1.0):
        for backward in (0.0, 0.7, 1.0):
            value = combine_ndcg(forward, backward, variant)
            assert 0.0 <= value <= 1.0
    assert combine_ndcg(1.0, 1.0, variant) == pytest.approx(0.0)


def test_combine_unknown_variant():
    with pytest.raises(SegmentationError):
        combine_ndcg(0.5, 0.5, "bogus")


def test_combine_one_sided():
    assert combine_ndcg(0.25, 0.75, "dist1") == pytest.approx(0.75)
    assert combine_ndcg(0.25, 0.75, "dist2") == pytest.approx(0.25)
    assert combine_ndcg(0.6, 0.8, "Sdist1") == pytest.approx(1 - 0.36)
    assert combine_ndcg(0.6, 0.8, "Sdist2") == pytest.approx(1 - 0.64)
    assert combine_ndcg(0.6, 0.8, "Stse") == pytest.approx(
        1 - math.sqrt((0.36 + 0.64) / 2)
    )

