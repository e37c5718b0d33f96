"""Tests for the sketching optimization (O2, section 5.3.2)."""

import numpy as np
import pytest

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.cube.datacube import ExplanationCube
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.segmentation.sketch import default_sketch_parameters, select_sketch
from tests.conftest import regime_relation


@pytest.fixture(scope="module")
def parts():
    relation = regime_relation(n=40, switch=20)
    cube = ExplanationCube(relation, ["cat"], "sales")
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=3)
    return scorer, solver


def test_default_parameters_paper_formula():
    length, size = default_sketch_parameters(300)
    assert length == 15  # ceil(0.05 * 300)
    assert size == 60  # 3 * 300 / 15


def test_default_parameters_cap_at_20():
    length, _ = default_sketch_parameters(1000)
    assert length == 20


def test_default_parameters_feasibility():
    for n in (8, 20, 50, 345, 1000):
        length, size = default_sketch_parameters(n)
        assert size * length >= n - 1
        assert size <= n - 1


def test_too_short_series_rejected():
    with pytest.raises(SegmentationError):
        default_sketch_parameters(2)


def test_sketch_includes_endpoints_and_is_sorted(parts):
    scorer, solver = parts
    positions = select_sketch(scorer, solver)
    assert positions[0] == 0
    assert positions[-1] == scorer.cube.n_times - 1
    assert np.all(np.diff(positions) > 0)


def test_sketch_respects_length_cap(parts):
    scorer, solver = parts
    positions = select_sketch(scorer, solver, length_cap=5, size=10)
    assert np.diff(positions).max() <= 5


def test_sketch_contains_true_cut(parts):
    """The regime switch at 20 must survive into the sketch."""
    scorer, solver = parts
    positions = select_sketch(scorer, solver)
    assert 20 in positions.tolist() or 19 in positions.tolist() or 21 in positions.tolist()


def test_infeasible_sketch_parameters_rejected(parts):
    scorer, solver = parts
    with pytest.raises(SegmentationError):
        select_sketch(scorer, solver, length_cap=2, size=3)  # 3*2 < 39
