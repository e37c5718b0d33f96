"""Tests for the K-segmentation dynamic program (Eq. 11)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SegmentationError
from repro.segmentation.bruteforce import exhaustive_best_segmentation, random_schemes
from repro.segmentation.dp import SegmentationScheme, solve_k_segmentation


def reference_k_segmentation(cost: np.ndarray, k_max: int) -> list[SegmentationScheme]:
    """The DP one end point at a time, each ``argmin`` over ``j'`` in
    ``[K-1, j)``: the schemes the column fill must reproduce, ties and
    bits included."""
    n_points = cost.shape[0]
    k_max = min(k_max, n_points - 1)
    table = np.full((n_points, k_max + 1), np.inf)
    parent = np.full((n_points, k_max + 1), -1, dtype=np.intp)
    table[0, 0] = 0.0
    for k in range(1, k_max + 1):
        for j in range(k, n_points):
            candidates = table[k - 1 : j, k - 1] + cost[k - 1 : j, j]
            best = int(np.argmin(candidates))
            if np.isfinite(candidates[best]):
                table[j, k] = candidates[best]
                parent[j, k] = k - 1 + best
    schemes = []
    for k in range(1, k_max + 1):
        if np.isfinite(table[n_points - 1, k]):
            boundaries = [n_points - 1]
            for level in range(k, 0, -1):
                boundaries.append(int(parent[boundaries[-1], level]))
            schemes.append(
                SegmentationScheme(tuple(reversed(boundaries)), float(table[n_points - 1, k]))
            )
    return schemes


def random_cost_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    cost = np.full((n, n), np.inf)
    for i in range(n):
        cost[i, i] = 0.0
        for j in range(i + 1, n):
            cost[i, j] = float(rng.uniform(0, 10))
    return cost


def test_single_segment():
    cost = random_cost_matrix(np.random.default_rng(0), 5)
    schemes = solve_k_segmentation(cost, k_max=1)
    assert schemes[0].boundaries == (0, 4)
    assert schemes[0].total_cost == pytest.approx(cost[0, 4])


def test_full_resolution_zero_cost():
    n = 6
    cost = np.zeros((n, n))
    schemes = solve_k_segmentation(cost, k_max=n - 1)
    finest = schemes[-1]
    assert finest.k == n - 1
    assert finest.boundaries == tuple(range(n))
    assert finest.total_cost == 0.0


def test_matches_exhaustive_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        cost = random_cost_matrix(rng, n)
        schemes = solve_k_segmentation(cost, k_max=min(4, n - 1))
        for scheme in schemes:
            boundaries, best = exhaustive_best_segmentation(cost, scheme.k)
            assert scheme.total_cost == pytest.approx(best)
            # The DP's scheme must achieve the optimal cost too.
            total = sum(
                cost[a, b] for a, b in zip(scheme.boundaries, scheme.boundaries[1:])
            )
            assert total == pytest.approx(best)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dp_optimal_property(data):
    n = data.draw(st.integers(3, 8))
    k = data.draw(st.integers(1, n - 1))
    seed = data.draw(st.integers(0, 10_000))
    cost = random_cost_matrix(np.random.default_rng(seed), n)
    schemes = solve_k_segmentation(cost, k_max=k)
    scheme = schemes[k - 1]
    _, best = exhaustive_best_segmentation(cost, k)
    assert scheme.total_cost == pytest.approx(best)


@st.composite
def dp_matrices(draw):
    """A square matrix of 2-12 points: half from a few values that tie in
    sums (``inf`` among them), half uniform with some ``inf``.  The
    diagonal and lower triangle hold anything, negatives and NaN too: the
    DP must not read them."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        entries = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, np.inf])
    else:
        entries = st.floats(0, 10, allow_nan=False) | st.just(np.inf)
    cost = np.asarray(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    garbage = st.sampled_from([0.0, -1.0, -np.inf, np.nan, 0.25])
    below = np.tril_indices(n)
    cost[below] = draw(st.lists(garbage, min_size=below[0].size, max_size=below[0].size))
    return cost


@settings(max_examples=300, deadline=None)
@given(cost=dp_matrices(), k_max=st.integers(1, 14))
def test_column_fill_matches_the_per_end_point_loop(cost, k_max):
    """Same schemes, boundaries and total-cost bits as the loop DP, or the
    same refusal when no scheme is feasible; ``k_max`` may exceed N - 1."""
    expected = reference_k_segmentation(cost, k_max)
    if not expected:
        with pytest.raises(SegmentationError):
            solve_k_segmentation(cost, k_max)
        return
    schemes = solve_k_segmentation(cost, k_max)
    assert [s.boundaries for s in schemes] == [s.boundaries for s in expected]
    assert [s.total_cost.hex() for s in schemes] == [s.total_cost.hex() for s in expected]


def test_monotone_in_k_for_superadditive_costs():
    """D(n, K) decreases in K when splitting a segment never hurts.

    Arbitrary matrices need not satisfy this; segment-variance costs do in
    practice (the premise of the K-variance curve).  ``cost = (j - i)^2``
    is superadditive under concatenation, so the property must hold.
    """
    n = 10
    cost = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            cost[i, j] = float((j - i) ** 2)
    schemes = solve_k_segmentation(cost, k_max=9)
    totals = [s.total_cost for s in schemes]
    assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))


def test_max_length_constraint_respected():
    rng = np.random.default_rng(1)
    n = 10
    cost = random_cost_matrix(rng, n)
    # Disallow segments longer than 3 reduced steps.
    for i in range(n):
        for j in range(i + 4, n):
            cost[i, j] = np.inf
    schemes = solve_k_segmentation(cost, k_max=9)
    for scheme in schemes:
        lengths = np.diff(scheme.boundaries)
        assert lengths.max() <= 3


def test_infeasible_constraint_raises():
    n = 10
    cost = np.full((n, n), np.inf)  # nothing allowed
    with pytest.raises(SegmentationError):
        solve_k_segmentation(cost, k_max=2)


def test_k_max_clamped_to_feasible():
    cost = np.zeros((4, 4))
    schemes = solve_k_segmentation(cost, k_max=50)
    assert max(s.k for s in schemes) == 3


def test_validation():
    with pytest.raises(SegmentationError):
        solve_k_segmentation(np.zeros((3, 4)), k_max=1)
    with pytest.raises(SegmentationError):
        solve_k_segmentation(np.zeros((1, 1)), k_max=1)
    with pytest.raises(SegmentationError):
        solve_k_segmentation(np.zeros((4, 4)), k_max=0)


def test_scheme_accessors():
    cost = np.zeros((5, 5))
    scheme = solve_k_segmentation(cost, k_max=2)[1]
    assert scheme.k == 2
    assert scheme.cuts == scheme.boundaries[1:-1]
    assert scheme.segments() == list(zip(scheme.boundaries, scheme.boundaries[1:]))


def test_random_schemes_are_valid():
    rng = np.random.default_rng(0)
    schemes = random_schemes(20, 4, 50, rng)
    for boundaries in schemes:
        assert boundaries[0] == 0 and boundaries[-1] == 19
        assert list(boundaries) == sorted(set(boundaries))
        assert len(boundaries) == 5


def test_random_schemes_enumerate_small_spaces():
    rng = np.random.default_rng(0)
    schemes = random_schemes(6, 2, 1000, rng)
    # interior positions 1..4 -> exactly 4 possible schemes.
    assert len(schemes) == 4
    assert len(set(schemes)) == 4
