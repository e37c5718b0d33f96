"""Unit tests for candidate-explanation enumeration and deduplication.

The cube's build enumerates the candidates (Definition 3.1); each case
also checks it against the test-only one-shot enumerator in
``tests.conftest``.
"""

import pytest

from repro.cube.datacube import ExplanationCube
from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction
from tests.conftest import build_relation, reference_candidates


def cube_candidates(relation, explain_by, max_order=3, deduplicate=True):
    """The candidates a cube build enumerates, checked against the
    reference enumerator."""
    cube = ExplanationCube(
        relation, explain_by, "m", max_order=max_order, deduplicate=deduplicate
    )
    reference = reference_candidates(relation, explain_by, max_order, deduplicate)
    assert cube.explanations == reference.explanations
    assert cube.supports.tobytes() == reference.supports.tobytes()
    return cube


@pytest.fixture
def relation():
    # b is determined by a for value x (hierarchy): (a=x -> b=p).
    return build_relation(
        {
            "t": ["d1"] * 4,
            "a": ["x", "x", "y", "y"],
            "b": ["p", "p", "p", "q"],
            "m": [1.0, 2.0, 3.0, 4.0],
        },
        dimensions=["a", "b"],
        measures=["m"],
        time="t",
    )


def test_order_one_candidates(relation):
    candidates = cube_candidates(relation, ["a"], max_order=1)
    assert set(candidates.explanations) == {
        Conjunction.from_items([("a", "x")]),
        Conjunction.from_items([("a", "y")]),
    }
    supports = dict(zip(candidates.explanations, candidates.supports))
    assert supports[Conjunction.from_items([("a", "x")])] == 2


def test_order_two_with_dedup(relation):
    candidates = cube_candidates(relation, ["a", "b"], max_order=2)
    explanations = set(candidates.explanations)
    # (a=x & b=p) selects exactly the rows of (a=x): redundant, dropped.
    assert Conjunction.from_items([("a", "x"), ("b", "p")]) not in explanations
    # (a=y & b=q) selects exactly the rows of (b=q): redundant, dropped.
    assert Conjunction.from_items([("a", "y"), ("b", "q")]) not in explanations
    # (a=y & b=p) is a strict refinement of both parents: kept.
    assert Conjunction.from_items([("a", "y"), ("b", "p")]) in explanations


def test_dedup_disabled_keeps_everything(relation):
    candidates = cube_candidates(relation, ["a", "b"], max_order=2, deduplicate=False)
    assert Conjunction.from_items([("a", "x"), ("b", "p")]) in set(candidates.explanations)


def test_dedup_chains_through_dropped_intermediates():
    # c is constant, so every conjunction with c=only is redundant through
    # a chain: (a & c) ~ (a), and (a & b & c) ~ (a & b).
    relation = build_relation(
        {
            "t": ["d1"] * 4,
            "a": ["x", "x", "y", "y"],
            "b": ["p", "q", "p", "q"],
            "c": ["k", "k", "k", "k"],
            "m": [1.0, 1.0, 1.0, 1.0],
        },
        dimensions=["a", "b", "c"],
        measures=["m"],
        time="t",
    )
    candidates = cube_candidates(relation, ["a", "b", "c"], max_order=3)
    for conjunction in candidates.explanations:
        assert "c" not in conjunction.attributes() or conjunction.order == 1, conjunction


def test_max_order_caps_at_attribute_count(relation):
    candidates = cube_candidates(relation, ["a"], max_order=3)
    assert all(c.order == 1 for c in candidates.explanations)


def test_invalid_inputs(relation):
    with pytest.raises(ExplanationError, match="at least one"):
        ExplanationCube(relation, [], "m")
    with pytest.raises(ExplanationError, match="repeats"):
        ExplanationCube(relation, ["a", "a"], "m")
    with pytest.raises(ExplanationError, match="max_order"):
        ExplanationCube(relation, ["a"], "m", max_order=0)


def test_supports_count_rows(relation):
    candidates = cube_candidates(relation, ["a", "b"], max_order=2)
    lookup = dict(zip(candidates.explanations, candidates.supports))
    assert lookup[Conjunction.from_items([("b", "p")])] == 3
    assert lookup[Conjunction.from_items([("a", "y"), ("b", "p")])] == 1


def test_deterministic_order(relation):
    first = cube_candidates(relation, ["a", "b"], max_order=2)
    second = cube_candidates(relation, ["a", "b"], max_order=2)
    assert first.explanations == second.explanations
