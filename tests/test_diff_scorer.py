"""Unit tests for the segment scorer."""

import numpy as np
import pytest

from repro.cube.datacube import ExplanationCube
from repro.diff.metrics import available_metrics
from repro.diff.scorer import SegmentScorer
from repro.exceptions import QueryError
from repro.relation.predicates import Conjunction
from tests.conftest import regime_relation


@pytest.fixture
def scorer():
    cube = ExplanationCube(regime_relation(), ["cat"], "sales")
    return SegmentScorer(cube)


def test_gamma_matches_manual_computation(scorer):
    cube = scorer.cube
    index = cube.index_of(Conjunction.from_items([("cat", "a")]))
    # Over [0, 5]: category a rises 4/step, others flat -> gamma = 20.
    assert scorer.gamma(0, 5)[index] == pytest.approx(20.0)
    assert scorer.tau(0, 5)[index] == 1


def test_gamma_tau_consistency(scorer):
    gammas, taus = scorer.gamma_tau(2, 14)
    assert np.allclose(gammas, scorer.gamma(2, 14))
    assert np.array_equal(taus, scorer.tau(2, 14))


def test_invalid_segment_rejected(scorer):
    with pytest.raises(QueryError):
        scorer.gamma(5, 5)
    with pytest.raises(QueryError):
        scorer.gamma(-1, 3)
    with pytest.raises(QueryError):
        scorer.gamma(0, 99)


def test_rank_segment_orders_by_gamma(scorer):
    ranked = scorer.rank_segment(0, 11)
    gammas = [s.gamma for s in ranked]
    assert gammas == sorted(gammas, reverse=True)
    assert ranked[0].explanation == Conjunction.from_items([("cat", "a")])
    top1 = scorer.rank_segment(0, 11, top=1)
    assert len(top1) == 1


def test_scored_single(scorer):
    cube = scorer.cube
    index = cube.index_of(Conjunction.from_items([("cat", "b")]))
    scored = scorer.scored(index, 12, 23)
    assert scored.tau == 1
    assert scored.effect_symbol == "+"
    assert scored.gamma == pytest.approx(5.0 * 11)


def test_indices_selection(scorer):
    cube = scorer.cube
    subset = np.asarray([1, 2])
    full = scorer.gamma(0, 23)
    partial = scorer.gamma(0, 23, subset)
    assert np.allclose(partial, full[subset])


def test_gamma_tau_many_matches_single(scorer):
    starts = np.asarray([0, 2, 5])
    stops = np.asarray([4, 9, 23])
    gammas, taus = scorer.gamma_tau_many(starts, stops)
    assert gammas.shape == (scorer.n_explanations, 3)
    assert taus.dtype == np.int8
    for column, (start, stop) in enumerate(zip(starts, stops)):
        single_gamma, single_tau = scorer.gamma_tau(int(start), int(stop))
        assert np.allclose(gammas[:, column], single_gamma)
        assert np.array_equal(taus[:, column], single_tau.astype(np.int8))


@pytest.mark.parametrize("metric", available_metrics())
def test_gamma_tau_at_is_gamma_tau_element_wise(metric):
    """Element ``s`` is :meth:`gamma_tau`'s score and change effect of
    candidate ``indices[s]`` over segment ``s``, bit for bit."""
    scorer = SegmentScorer(ExplanationCube(regime_relation(), ["cat"], "sales"), metric)
    starts = np.asarray([0, 0, 2, 5, 11, 12])
    stops = np.asarray([4, 4, 9, 23, 13, 20])
    indices = np.asarray([0, 2, 1, 2, 0, 1])
    gammas, taus = scorer.gamma_tau_at(starts, stops, indices)
    assert taus.dtype == np.int8
    for s, (start, stop) in enumerate(zip(starts, stops)):
        gamma, tau = scorer.gamma_tau(int(start), int(stop), indices[s : s + 1])
        assert gammas[s].tobytes() == gamma[0].tobytes()
        assert taus[s] == tau[0]


def test_overall_changes_batch(scorer):
    starts = np.asarray([0, 3])
    stops = np.asarray([5, 7])
    changes = scorer.overall_changes(starts, stops)
    for column, (start, stop) in enumerate(zip(starts, stops)):
        assert changes[column] == pytest.approx(
            scorer.cube.overall_change(int(start), int(stop))
        )


def test_gamma_many_matches_gamma_tau_many(scorer):
    starts = np.asarray([0, 2, 5])
    stops = np.asarray([4, 9, 23])
    gammas, _ = scorer.gamma_tau_many(starts, stops)
    assert np.array_equal(scorer.gamma_many(starts, stops), gammas)


def test_gamma_tau_many_rejects_bad_batches(scorer):
    with pytest.raises(QueryError):
        scorer.gamma_tau_many(np.asarray([0, 5]), np.asarray([4]))
    with pytest.raises(QueryError):
        scorer.gamma_tau_many(np.asarray([5]), np.asarray([5]))
    with pytest.raises(QueryError):
        scorer.gamma_tau_many(np.asarray([0]), np.asarray([99]))


def test_batch_rejects_non_integer_positions(scorer):
    with pytest.raises(QueryError, match="integer positions"):
        scorer.gamma_tau_many(np.asarray([0.5]), np.asarray([4.0]))
    with pytest.raises(QueryError, match="integer positions"):
        scorer.overall_changes(np.asarray([0]), np.asarray([4.0]))


def test_batch_error_names_offending_segment(scorer):
    with pytest.raises(QueryError, match=r"\[5, 99\] at batch position 1"):
        scorer.gamma_tau_many(np.asarray([0, 5]), np.asarray([4, 99]))
