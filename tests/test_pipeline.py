"""Tests for the end-to-end pipeline run by ``ExplainSession.explain``."""

import numpy as np
import pytest

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.ca.guess_verify import GuessAndVerify
from repro.core import pipeline as pipeline_module
from repro.core.config import ExplainConfig
from repro.core.pipeline import make_solver
from repro.core.session import ExplainSession
from repro.exceptions import SegmentationError
from repro.relation.predicates import Conjunction
from tests.conftest import regime_relation, two_attr_relation


def run(relation, explain_by, measure, **overrides):
    config_kwargs = {"use_filter": False}
    config_kwargs.update(overrides)
    session = ExplainSession(
        relation, measure, explain_by, config=ExplainConfig(**config_kwargs)
    )
    return session.explain()


def test_recovers_regime_switch():
    result = run(regime_relation(), ["cat"], "sales", k=2)
    assert result.k == 2
    assert result.cuts == (12,)
    assert result.segments[0].explanations[0].explanation == Conjunction.from_items(
        [("cat", "a")]
    )
    assert result.segments[1].explanations[0].explanation == Conjunction.from_items(
        [("cat", "b")]
    )


def test_auto_k_elbow():
    result = run(regime_relation(), ["cat"], "sales")
    assert result.k_was_auto
    assert result.k >= 2
    assert 12 in result.cuts  # the true switch must be a boundary


def test_k_variance_curve_monotone_head():
    result = run(regime_relation(), ["cat"], "sales")
    curve = result.k_variance_curve
    assert curve[2] <= curve[1] + 1e-9


def test_timings_sum_to_total():
    result = run(regime_relation(), ["cat"], "sales", k=2)
    timings = result.timings
    assert timings["total"] == pytest.approx(
        timings["precomputation"] + timings["cascading"] + timings["segmentation"]
    )


def test_epsilon_reported():
    result = run(regime_relation(), ["cat"], "sales", k=2)
    assert result.epsilon == 3
    assert result.filtered_epsilon == 3


def test_filter_reduces_epsilon():
    relation = regime_relation()
    result = ExplainSession(
        relation,
        "sales",
        ["cat"],
        config=ExplainConfig(use_filter=True, filter_ratio=0.3, k=2),
    ).explain()
    # Category c (flat 7, always under 30% of the overall) is filtered.
    assert result.filtered_epsilon < result.epsilon


def test_multi_attribute_pipeline_with_o1():
    result = run(
        two_attr_relation(),
        ["a", "b"],
        "m",
        k=2,
        use_guess_verify=True,
        initial_guess=4,
    )
    assert result.k == 2
    # The second regime is driven by the (a=z & b=q) cell; since only that
    # cell moves inside a=z, gamma(a=z) == gamma(a=z & b=q) and the DP may
    # return either representation — both must constrain a=z.
    top = result.segments[1].explanations[0].explanation
    assert ("a", "z") in top.items


def test_guess_and_verify_solver_builds_no_drill_down_tree(monkeypatch):
    built = []

    def counting_tree(explanations):
        built.append(len(explanations))
        return DrillDownTree(explanations)

    monkeypatch.setattr(pipeline_module, "DrillDownTree", counting_tree)
    config = ExplainConfig.optimized()
    hierarchical = ExplainSession(two_attr_relation(), "m", ["a", "b"], config=config)
    assert isinstance(make_solver(hierarchical.scorer(), config), GuessAndVerify)
    assert built == []
    flat = ExplainSession(regime_relation(), "sales", ["cat"], config=config)
    assert isinstance(make_solver(flat.scorer(), config), CascadingAnalysts)
    assert built == [flat.scorer().cube.n_explanations]


def test_sketch_mode_full_resolution_variance():
    relation = regime_relation(n=40, switch=20)
    vanilla = ExplainSession(
        relation, "sales", ["cat"], config=ExplainConfig.vanilla(k=2)
    ).explain()
    sketched = ExplainSession(
        relation,
        "sales",
        ["cat"],
        config=ExplainConfig.vanilla(k=2).updated(use_sketch=True),
    ).explain()
    assert sketched.cuts == vanilla.cuts
    assert sketched.total_variance == pytest.approx(vanilla.total_variance, rel=1e-6)


def test_requested_k_too_large():
    with pytest.raises(SegmentationError):
        run(regime_relation(n=6), ["cat"], "sales", k=10)


def test_smoothing_window_applied():
    result = run(regime_relation(), ["cat"], "sales", k=2, smoothing_window=3)
    # Smoothed series differs from raw aggregate but has the same labels.
    assert len(result.series) == 24
    raw = run(regime_relation(), ["cat"], "sales", k=2)
    assert not np.allclose(result.series.values, raw.series.values)


def test_boundaries_and_segment_lookup():
    result = run(regime_relation(), ["cat"], "sales", k=2)
    assert result.boundaries == (0, 12, 23)
    assert result.segment_at(0).start == 0
    assert result.segment_at(12).start == 12
    assert result.segment_at(23).stop == 23
    with pytest.raises(IndexError):
        result.segment_at(99)


def test_describe_mentions_all_segments():
    result = run(regime_relation(), ["cat"], "sales", k=2)
    text = result.describe()
    assert "cat=a" in text and "cat=b" in text
    assert text.count("~") == 2
