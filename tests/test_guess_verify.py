"""Unit and property tests for guess-and-verify (O1)."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.ca.bruteforce import is_non_overlapping
from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.ca.guess_verify import GuessAndVerify, guess_prefixes
from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction
from tests.conftest import assert_batch_format, top_m_inputs


def conj(**items) -> Conjunction:
    return Conjunction.from_items(sorted(items.items()))


def make_candidates(n_a: int, n_b: int) -> list[Conjunction]:
    out = [conj(A=a) for a in range(n_a)]
    out += [conj(B=b) for b in range(n_b)]
    out += [conj(A=a, B=b) for a in range(n_a) for b in range(n_b)]
    return out


def test_small_guess_still_optimal():
    candidates = make_candidates(4, 3)
    vanilla = CascadingAnalysts(DrillDownTree(candidates), m=3)
    o1 = GuessAndVerify(candidates, m=3, initial_guess=3)
    rng = np.random.default_rng(0)
    for _ in range(25):
        gamma = rng.uniform(0, 10, len(candidates))
        assert o1.solve(gamma).total == pytest.approx(vanilla.solve(gamma).total)


def test_adversarial_overlapping_prefix():
    """Top-2 by gamma overlap; the optimum needs a candidate ranked later."""
    candidates = [conj(A=0), conj(A=0, B=0), conj(A=1), conj(B=1)]
    gamma = np.asarray([10.0, 9.5, 1.0, 0.9])
    o1 = GuessAndVerify(candidates, m=2, initial_guess=2)
    vanilla = CascadingAnalysts(DrillDownTree(candidates), m=2)
    assert o1.solve(gamma).total == pytest.approx(vanilla.solve(gamma).total)
    # The initial guess {A=0, A=0&B=0} only supports one selection (they
    # overlap), so verification must have failed at least once.
    assert o1.iterations >= 2


def test_guess_covers_everything_immediately():
    candidates = make_candidates(2, 1)
    o1 = GuessAndVerify(candidates, m=3, initial_guess=30)
    gamma = np.linspace(1, 2, len(candidates))
    result = o1.solve(gamma)
    assert o1.iterations == 1
    assert len(result.indices) <= 3


def test_initial_guess_validation():
    with pytest.raises(ExplanationError):
        GuessAndVerify([conj(A=0)], m=3, initial_guess=2)


def test_gamma_length_validation():
    o1 = GuessAndVerify([conj(A=0)], m=1, initial_guess=1)
    with pytest.raises(ExplanationError):
        o1.solve(np.asarray([1.0, 2.0]))


def test_solve_batch_matches_loop():
    candidates = make_candidates(3, 2)
    o1 = GuessAndVerify(candidates, m=3, initial_guess=4)
    rng = np.random.default_rng(3)
    gammas = rng.uniform(0, 5, size=(6, len(candidates)))
    batch = o1.solve_batch(gammas)
    for row, result in enumerate(batch):
        again = o1.solve(gammas[row])
        assert result.indices == again.indices


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_guess_and_verify_always_matches_vanilla(data):
    candidates = make_candidates(data.draw(st.integers(2, 3)), data.draw(st.integers(1, 2)))
    gamma = np.asarray(
        data.draw(
            st.lists(
                st.floats(0, 50, allow_nan=False),
                min_size=len(candidates),
                max_size=len(candidates),
            )
        )
    )
    m = data.draw(st.integers(1, 3))
    guess = data.draw(st.integers(m, 6))
    o1 = GuessAndVerify(candidates, m=m, initial_guess=guess)
    vanilla = CascadingAnalysts(DrillDownTree(candidates), m=m)
    assert o1.solve(gamma).total == pytest.approx(vanilla.solve(gamma).total)


@settings(max_examples=150, deadline=None)
@given(inputs=top_m_inputs(max_candidates=40), rng=st.randoms(use_true_random=False))
# A row verified on a restricted union without candidate 0, holding fewer
# selections than m: its padded rank must read 0, not the union's first.
@example(
    inputs=(
        [conj(B=0), conj(A=0), conj(A=0, B=1), conj(A=1)],
        np.asarray([[0.0, 10.0, 1.0, 0.0]]),
        2,
    ),
    rng=random.Random(0),
)
def test_batch_rows_are_verified_optima(inputs, rng):
    """With the smallest guess (restricted solves, retries and the full
    fallback), every row is an optimum, the padding and ``best`` invariants hold, and a row's
    answer does not depend on where it sits in the batch.

    A row need not equal a single-row solve: the restricted DAG is the
    union of the whole batch's prefixes, so tied optima and ``Best[m']``
    for ``m' < m`` may differ.
    """
    candidates, gammas, m = inputs
    batch = GuessAndVerify(candidates, m=m, initial_guess=m).solve_batch(gammas)
    assert_batch_format(batch, m)
    vanilla = CascadingAnalysts(DrillDownTree(candidates), m=m)
    for row in range(gammas.shape[0]):
        result = batch[row]
        assert result.total == pytest.approx(vanilla.solve(gammas[row]).total)
        assert result.gammas == tuple(gammas[row, list(result.indices)])
        assert is_non_overlapping([candidates[i] for i in result.indices])
    order = list(range(gammas.shape[0]))
    rng.shuffle(order)
    shuffled = GuessAndVerify(candidates, m=m, initial_guess=m).solve_batch(gammas[order])
    for position, row in enumerate(order):
        assert shuffled[position] == batch[row]


def argsort_prefixes(gammas: np.ndarray, guess: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A guess round's reads off a full stable argsort of every row: the
    union of the first ``guess`` columns and the scores at ranks
    ``guess .. guess + m - 1``."""
    order = np.argsort(-gammas, axis=1, kind="stable")
    tail = np.take_along_axis(gammas, order[:, guess : guess + m], axis=1)
    return np.unique(order[:, :guess]), tail


@settings(max_examples=300, deadline=None)
@given(inputs=top_m_inputs(max_candidates=40), data=st.data())
def test_partition_select_reads_what_a_full_argsort_reads(inputs, data):
    """Same union and tail bytes as the stable argsort, for the batch and
    for each row alone (a row's union is its own prefix, so ties at the
    guess boundary must go to the smallest positions)."""
    _, gammas, m = inputs
    n_candidates = gammas.shape[1]
    assume(n_candidates >= 2)
    guess = data.draw(st.integers(1, n_candidates - 1))
    for rows in [gammas, *gammas[:, None]]:
        union, tail = guess_prefixes(rows, guess, m)
        expected_union, expected_tail = argsort_prefixes(rows, guess, m)
        assert union.dtype == expected_union.dtype
        assert union.tolist() == expected_union.tolist()
        assert tail.shape == expected_tail.shape
        assert tail.tobytes() == expected_tail.tobytes()
