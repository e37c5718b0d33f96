"""Edge cases and failure-injection tests across the whole pipeline."""

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.engine import TSExplain
from repro.core.session import ExplainSession
from repro.diff.metrics import available_metrics
from repro.exceptions import SegmentationError
from repro.segmentation.distance import VARIANTS
from tests.conftest import build_relation, regime_relation, two_attr_relation


def test_avg_aggregate_end_to_end():
    """Explaining an AVG query uses non-linear state subtraction."""
    rows = {"t": [], "cat": [], "v": []}
    for t in range(12):
        for cat, value in (("hot", 10.0 + (5.0 * t if t >= 6 else 0.0)), ("cold", 4.0)):
            rows["t"].append(f"t{t:02d}")
            rows["cat"].append(cat)
            rows["v"].append(value)
    relation = build_relation(rows, dimensions=["cat"], measures=["v"], time="t")
    result = TSExplain(
        relation,
        measure="v",
        explain_by=["cat"],
        aggregate="avg",
        config=ExplainConfig(use_filter=False, k=2),
    ).explain()
    # The transition unit [5, 6] may be assigned to either side of the cut.
    assert result.cuts[0] in (5, 6)
    # With AVG, excluding either category changes the mean by the same
    # amount, so gamma(hot) == gamma(cold); but the change effects differ:
    # including 'hot' pushes the average up, 'cold' drags it down.
    by_name = {
        repr(s.explanation): s.tau for s in result.segments[1].explanations
    }
    assert by_name.get("cat=hot") == 1
    assert by_name.get("cat=cold") == -1


def test_negative_measure_values():
    """Profit/loss-style measures (negative values) work end to end."""
    rows = {"t": [], "cat": [], "v": []}
    for t in range(10):
        rows["t"].append(f"t{t}")
        rows["cat"].append("loss")
        rows["v"].append(-5.0 * t)
        rows["t"].append(f"t{t}")
        rows["cat"].append("gain")
        rows["v"].append(2.0 * t)
    relation = build_relation(rows, dimensions=["cat"], measures=["v"], time="t")
    result = TSExplain(
        relation,
        measure="v",
        explain_by=["cat"],
        config=ExplainConfig(use_filter=False, k=1),
    ).explain()
    top = result.segments[0].explanations[0]
    assert repr(top.explanation) == "cat=loss"
    assert top.tau == -1


def test_two_point_series():
    relation = build_relation(
        {"t": ["a", "a", "b", "b"], "cat": ["x", "y", "x", "y"], "v": [1.0, 1.0, 5.0, 1.0]},
        dimensions=["cat"],
        measures=["v"],
        time="t",
    )
    result = TSExplain(
        relation, measure="v", explain_by=["cat"], config=ExplainConfig(use_filter=False)
    ).explain()
    assert result.k == 1
    assert repr(result.segments[0].explanations[0].explanation) == "cat=x"


def test_constant_series_has_no_explanations():
    rows = {"t": [], "cat": [], "v": []}
    for t in range(8):
        for cat in ("x", "y"):
            rows["t"].append(f"t{t}")
            rows["cat"].append(cat)
            rows["v"].append(3.0)
    relation = build_relation(rows, dimensions=["cat"], measures=["v"], time="t")
    result = TSExplain(
        relation, measure="v", explain_by=["cat"], config=ExplainConfig(use_filter=False, k=1)
    ).explain()
    assert result.segments[0].explanations == ()
    assert result.total_variance == pytest.approx(0.0)


def test_single_candidate():
    rows = {"t": [f"t{t}" for t in range(6)], "cat": ["only"] * 6, "v": list(range(6))}
    relation = build_relation(rows, dimensions=["cat"], measures=["v"], time="t")
    result = TSExplain(
        relation, measure="v", explain_by=["cat"], config=ExplainConfig(use_filter=False, k=2)
    ).explain()
    assert all(
        repr(s.explanation) == "cat=only"
        for seg in result.segments
        for s in seg.explanations
    )


@pytest.mark.parametrize("metric", available_metrics())
def test_all_difference_metrics_end_to_end(metric):
    result = ExplainSession(
        regime_relation(),
        "sales",
        ["cat"],
        config=ExplainConfig(use_filter=False, k=2, metric=metric),
    ).explain()
    assert result.k == 2
    assert result.segments[0].explanations  # something was explained


@pytest.mark.parametrize("variant", VARIANTS)
def test_all_variance_variants_end_to_end(variant):
    result = ExplainSession(
        regime_relation(),
        "sales",
        ["cat"],
        config=ExplainConfig(use_filter=False, k=2, variant=variant),
    ).explain()
    assert result.k == 2
    # All designs should find the true switch on clean data.
    assert abs(result.cuts[0] - 12) <= 1


def test_max_order_one_restricts_conjunctions():
    result = ExplainSession(
        two_attr_relation(),
        "m",
        ["a", "b"],
        config=ExplainConfig(use_filter=False, k=2, max_order=1),
    ).explain()
    for segment in result.segments:
        for scored in segment.explanations:
            assert scored.explanation.order == 1


def test_dedup_disabled_end_to_end():
    result = ExplainSession(
        two_attr_relation(),
        "m",
        ["a", "b"],
        config=ExplainConfig(use_filter=False, k=2, deduplicate=False),
    ).explain()
    assert result.epsilon >= 11  # 3 + 2 + 6 combos


def test_smoothing_window_larger_than_series():
    result = ExplainSession(
        regime_relation(n=10, switch=5),
        "sales",
        ["cat"],
        config=ExplainConfig(use_filter=False, k=2, smoothing_window=50),
    ).explain()
    # Degenerates towards a global mean but must still run.
    assert result.k == 2


def test_k_equals_max_segments():
    relation = regime_relation(n=30, switch=15)
    result = ExplainSession(
        relation,
        "sales",
        ["cat"],
        config=ExplainConfig(use_filter=False, k=20, k_max=20),
    ).explain()
    assert result.k == 20


def test_series_too_short():
    relation = build_relation(
        {"t": ["a", "a"], "cat": ["x", "y"], "v": [1.0, 2.0]},
        dimensions=["cat"],
        measures=["v"],
        time="t",
    )
    with pytest.raises(SegmentationError):
        ExplainSession(
            relation, "v", ["cat"], config=ExplainConfig(use_filter=False, k=2)
        ).explain()


def test_numeric_dimension_values():
    """Integer-valued dimensions (like Pack=12) survive the whole pipeline."""
    rows = {"t": [], "pack": [], "v": []}
    for t in range(10):
        for pack in (6, 12):
            rows["t"].append(f"t{t}")
            rows["pack"].append(pack)
            rows["v"].append(10.0 * t if pack == 12 and t >= 5 else 1.0)
    relation = build_relation(rows, dimensions=["pack"], measures=["v"], time="t")
    result = TSExplain(
        relation, measure="v", explain_by=["pack"], config=ExplainConfig(use_filter=False, k=2)
    ).explain()
    top = result.segments[1].explanations[0].explanation
    assert top.value_of("pack") == 12


@pytest.mark.parametrize("variant", ["tse", "allpair", "Sallpair"])
def test_filter_can_empty_the_candidate_set(variant):
    """An extreme ratio removes everything; the pipeline must still answer,
    under the centroid and the all-pair costs alike."""
    result = ExplainSession(
        regime_relation(),
        "sales",
        ["cat"],
        config=ExplainConfig(use_filter=True, filter_ratio=0.999, k=2, variant=variant),
    ).explain()
    assert result.filtered_epsilon == 0
    assert all(segment.explanations == () for segment in result.segments)
