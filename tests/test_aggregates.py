"""Unit and property tests for decomposable aggregates."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import AggregateError
from repro.relation.aggregates import available_aggregates, get_aggregate

FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_registry_contents():
    assert set(available_aggregates()) == {"sum", "count", "avg", "var", "min", "max"}
    with pytest.raises(AggregateError):
        get_aggregate("median")


@pytest.mark.parametrize(
    "name,values,expected",
    [
        ("sum", [1.0, 2.0, 3.0], 6.0),
        ("count", [5.0, 5.0], 2.0),
        ("avg", [2.0, 4.0], 3.0),
        ("var", [1.0, 3.0], 1.0),
        ("min", [3.0, -1.0, 2.0], -1.0),
        ("max", [3.0, -1.0, 2.0], 3.0),
    ],
)
def test_compute_simple(name, values, expected):
    assert get_aggregate(name).compute(np.asarray(values)) == pytest.approx(expected)


@pytest.mark.parametrize("name", ["sum", "count", "avg", "var"])
def test_accumulate_groups_match_per_group_compute(name):
    aggregate = get_aggregate(name)
    values = np.asarray([1.0, 2.0, 3.0, 4.0, 10.0])
    group_ids = np.asarray([0, 1, 0, 1, 2])
    state = aggregate.accumulate(values, group_ids, 3)
    finalized = aggregate.finalize(state)
    for group in range(3):
        expected = aggregate.compute(values[group_ids == group])
        assert finalized[group] == pytest.approx(expected)


@pytest.mark.parametrize("name", ["sum", "count", "avg", "var"])
@given(data=st.data())
def test_subtraction_matches_recomputation(name, data):
    """f(R - sigma_E R) from state subtraction == recomputing from rows."""
    aggregate = get_aggregate(name)
    values = np.asarray(
        data.draw(st.lists(FLOATS, min_size=1, max_size=30)), dtype=np.float64
    )
    mask = np.asarray(
        data.draw(
            st.lists(st.booleans(), min_size=len(values), max_size=len(values))
        )
    )
    everything = np.zeros(len(values), dtype=np.intp)
    total = aggregate.accumulate(values, everything, 1)
    part = aggregate.accumulate(
        values[mask], np.zeros(int(mask.sum()), dtype=np.intp), 1
    )
    derived = aggregate.finalize(aggregate.subtract(total, part))[0]
    expected = aggregate.compute(values[~mask]) if (~mask).any() else 0.0
    # Sum-of-squares state subtraction cancels catastrophically for widely
    # spread values; the achievable accuracy is eps * sum(v^2), so the
    # tolerance scales with the squared magnitude.
    scale = float(np.max(np.abs(values))) if len(values) else 1.0
    tolerance = 1e-12 * max(1.0, scale) ** 2 * len(values) + 1e-9
    assert derived == pytest.approx(expected, rel=1e-6, abs=tolerance)


@pytest.mark.parametrize("name", ["min", "max"])
def test_extremes_not_subtractable(name):
    aggregate = get_aggregate(name)
    assert not aggregate.subtractable
    with pytest.raises(AggregateError):
        aggregate.subtract(aggregate.empty_state(1), aggregate.empty_state(1))


def test_empty_groups_finalize_to_zero():
    for name in ("sum", "count", "avg", "var", "min", "max"):
        aggregate = get_aggregate(name)
        out = aggregate.finalize(aggregate.empty_state(2))
        assert out.shape == (2,)
        assert np.all(out == 0.0)


def test_var_never_negative():
    aggregate = get_aggregate("var")
    values = np.asarray([1e6, 1e6, 1e6])
    assert aggregate.compute(values) >= 0.0
