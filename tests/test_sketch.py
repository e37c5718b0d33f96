"""Tests for the sketching optimization (O2, section 5.3.2)."""

import numpy as np
import pytest

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.core.config import ExplainConfig
from repro.core.pipeline import make_solver
from repro.core.session import ExplainSession
from repro.cube.datacube import ExplanationCube
from repro.datasets.registry import load_dataset
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.segmentation.sketch import default_sketch_parameters, select_sketch
from repro.segmentation.variance import SegmentationCosts
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
    positions, _ = select_sketch(scorer, solver)
    assert positions[0] == 0
    assert positions[-1] == scorer.cube.n_times - 1
    assert np.all(np.diff(positions) > 0)


def test_sketch_respects_length_cap(parts):
    scorer, solver = parts
    positions, _ = select_sketch(scorer, solver, length_cap=5, size=10)
    assert np.diff(positions).max() <= 5


def test_sketch_contains_true_cut(parts):
    """The regime switch at 20 must survive into the sketch."""
    scorer, solver = parts
    positions, _ = select_sketch(scorer, solver)
    assert 20 in positions.tolist() or 19 in positions.tolist() or 21 in positions.tolist()


def test_infeasible_sketch_parameters_rejected(parts):
    scorer, solver = parts
    with pytest.raises(SegmentationError):
        select_sketch(scorer, solver, length_cap=2, size=3)  # 3*2 < 39


# ----------------------------------------------------------------------
# Phase II is a regrid of phase I: one cost build per query
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dataset_sessions():
    sessions = {}

    def session_for(name):
        if name not in sessions:
            dataset = load_dataset(name)
            sessions[name] = (
                ExplainSession(
                    dataset.relation,
                    dataset.measure,
                    dataset.explain_by,
                    aggregate=dataset.aggregate,
                ),
                dataset.smoothing_window,
            )
        return sessions[name]

    return session_for


@pytest.mark.parametrize(
    "name, variant, sketch_points, n_points",
    [
        ("covid-daily", "tse", 59, 345),  # flat, smoothed
        ("sp500", "tse", 58, 190),  # hierarchical, guess-and-verify
        ("covid-daily", "allpair", 59, 345),
    ],
)
def test_sketched_variances_are_full_grid_numbers(
    dataset_sessions, name, variant, sketch_points, n_points
):
    """The Table 7 contract: a sketched result reports, to the last bit,
    the variances a fresh full-grid build gives its segments."""
    session, smoothing_window = dataset_sessions(name)
    config = ExplainConfig.optimized(smoothing_window=smoothing_window, variant=variant)
    result = session.explain(config=config)
    scorer = session.scorer(config=config)
    _, sketch_size = default_sketch_parameters(scorer.cube.n_times)
    assert (sketch_size + 1, scorer.cube.n_times) == (sketch_points, n_points)

    full = SegmentationCosts(scorer, make_solver(scorer, config), variant=variant)
    boundaries = result.boundaries
    assert [segment.variance.hex() for segment in result.segments] == [
        full.variance(left, right).hex()
        for left, right in zip(boundaries, boundaries[1:])
    ]
    assert result.total_variance.hex() == full.total_cost(boundaries).hex()


@pytest.mark.parametrize(
    "n_points, use_sketch",
    [(80, True), (40, True), (80, False)],
    ids=["sketch-of-61", "sketch-of-every-point", "unsketched"],
)
def test_an_explain_builds_segment_costs_once(monkeypatch, n_points, use_sketch):
    """Phase II extends phase I's costs and the result reads its
    variances off them: no second or third build."""
    builds = []
    build = SegmentationCosts.__init__

    def counting_build(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(SegmentationCosts, "__init__", counting_build)
    config = ExplainConfig(use_filter=False, use_sketch=use_sketch)
    relation = regime_relation(n=n_points, switch=n_points // 2)
    result = ExplainSession(relation, "sales", ["cat"], config=config).explain()
    assert result.boundaries[-1] == n_points - 1
    assert len(builds) == 1
