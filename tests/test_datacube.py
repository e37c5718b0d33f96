"""Unit tests for the per-explanation data cube."""

import numpy as np
import pytest

from repro.cube.datacube import ExplanationCube
from repro.exceptions import ExplanationError
from repro.relation.aggregates import get_aggregate
from repro.relation.predicates import Conjunction, Eq
from repro.relation.groupby import aggregate_over_time
from tests.conftest import reference_candidates, regime_relation


@pytest.fixture
def cube():
    return ExplanationCube(regime_relation(), ["cat"], "sales")


def test_overall_matches_groupby(cube):
    relation = regime_relation()
    expected = aggregate_over_time(relation, "sales")
    assert np.allclose(cube.overall_values, expected.values)
    assert cube.overall_series() == expected


def test_included_plus_excluded_is_overall(cube):
    for index in range(cube.n_explanations):
        assert np.allclose(
            cube.included_values[index] + cube.excluded_values[index],
            cube.overall_values,
        )


def test_included_matches_filtered_groupby(cube):
    relation = regime_relation()
    index = cube.index_of(Conjunction.from_items([("cat", "a")]))
    expected = aggregate_over_time(relation.filter(Eq("cat", "a")), "sales")
    assert np.allclose(cube.included_values[index], expected.values)


def test_signed_contributions_definition(cube):
    """delta(E) == [f(Rt)-f(Rc)] - [f(Rt - sE Rt) - f(Rc - sE Rc)] from rows."""
    relation = regime_relation()
    index = cube.index_of(Conjunction.from_items([("cat", "b")]))
    start, stop = 3, 20
    excluded = aggregate_over_time(relation.exclude(Eq("cat", "b")), "sales")
    expected = (
        cube.overall_values[stop] - cube.overall_values[start]
    ) - (excluded.values[stop] - excluded.values[start])
    got = cube.signed_contributions(start, stop, np.asarray([index]))[0]
    assert got == pytest.approx(expected)


def test_signed_contributions_many_matches_single(cube):
    starts = np.asarray([0, 2, 5])
    stops = np.asarray([4, 9, 23])
    bulk = cube.signed_contributions_many(starts, stops)
    for column, (start, stop) in enumerate(zip(starts, stops)):
        single = cube.signed_contributions(int(start), int(stop))
        assert np.allclose(bulk[:, column], single)


def test_avg_aggregate_cube():
    cube = ExplanationCube(regime_relation(), ["cat"], "sales", aggregate="avg")
    # Excluding one of three categories leaves the average of the others.
    index = cube.index_of(Conjunction.from_items([("cat", "c")]))
    relation = regime_relation()
    excluded = aggregate_over_time(relation.exclude(Eq("cat", "c")), "sales", "avg")
    assert np.allclose(cube.excluded_values[index], excluded.values)


def test_min_aggregate_rejected():
    from repro.exceptions import AggregateError

    with pytest.raises(AggregateError):
        ExplanationCube(regime_relation(), ["cat"], "sales", aggregate="min")


def test_restrict_preserves_alignment(cube):
    keep = np.asarray([0, 2])
    restricted = cube.restrict(keep)
    assert restricted.n_explanations == 2
    assert restricted.explanations[1] == cube.explanations[2]
    assert np.allclose(restricted.included_values[1], cube.included_values[2])
    assert np.allclose(restricted.overall_values, cube.overall_values)


def test_restrict_boolean_mask(cube):
    mask = np.asarray([True, False, True])
    assert cube.restrict(mask).n_explanations == 2


def test_index_of_unknown(cube):
    with pytest.raises(ExplanationError):
        cube.index_of(Conjunction.from_items([("cat", "zz")]))


def test_series_accessor(cube):
    series = cube.series(0)
    assert len(series) == cube.n_times
    assert series.labels == cube.labels


def _reference_finalize(
    relation, explain_by, measure, aggregate, max_order=3, deduplicate=True
):
    """The per-candidate finalize loop over the reference enumeration:
    the executable specification of the cube's build.

    Aggregate states are accumulated once per attribute subset over flat
    ``group * n_times + time`` buckets; each candidate's included and
    excluded series are then finalized one at a time.  Returns
    ``(candidates, overall, included, excluded)``.
    """
    aggregate = get_aggregate(aggregate)
    time_positions, labels = relation.time_positions(None)
    n_times = len(labels)
    values = relation.column(measure).astype(np.float64)
    overall_state = aggregate.accumulate(values, time_positions, n_times)
    candidates = reference_candidates(relation, explain_by, max_order, deduplicate)
    per_subset_states = []
    for group_ids in candidates.row_groups:
        n_groups = int(group_ids.max()) + 1 if group_ids.size else 0
        state = aggregate.accumulate(
            values, group_ids * n_times + time_positions, n_groups * n_times
        )
        per_subset_states.append(
            state.reshape(aggregate.n_components, n_groups, n_times)
        )
    n_candidates = len(candidates.explanations)
    included = np.empty((n_candidates, n_times), dtype=np.float64)
    excluded = np.empty((n_candidates, n_times), dtype=np.float64)
    for position in range(n_candidates):
        subset_pos = candidates.subset_index[position]
        local_id = candidates.local_ids[position]
        state = per_subset_states[subset_pos][:, local_id, :]
        included[position] = aggregate.finalize(state)
        excluded[position] = aggregate.finalize(
            aggregate.subtract(overall_state, state)
        )
    return candidates, aggregate.finalize(overall_state), included, excluded


@pytest.mark.parametrize("aggregate", ["sum", "count", "avg", "var"])
def test_columnar_matches_legacy_build(aggregate):
    """The batched finalize equals the per-candidate reference loop."""
    from tests.conftest import two_attr_relation

    relation = two_attr_relation()
    fast = ExplanationCube(relation, ["a", "b"], "m", aggregate=aggregate)
    candidates, _, included, excluded = _reference_finalize(
        relation, ["a", "b"], "m", aggregate
    )
    assert fast.explanations == candidates.explanations
    assert np.array_equal(fast.included_values, included)
    assert np.array_equal(fast.excluded_values, excluded)
    assert np.array_equal(fast.supports, candidates.supports)


def test_public_from_arrays_roundtrip(cube):
    clone = ExplanationCube.from_arrays(
        aggregate=cube.aggregate,
        measure=cube.measure,
        explain_by=cube.explain_by,
        labels=cube.labels,
        overall=cube.overall_values,
        explanations=cube.explanations,
        supports=cube.supports,
        included=cube.included_values,
        excluded=cube.excluded_values,
    )
    assert clone.n_explanations == cube.n_explanations
    assert clone.index_of(cube.explanations[0]) == 0
    assert np.array_equal(clone.included_values, cube.included_values)
