"""Unit and property tests for the Cascading Analysts dynamic program."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ca.bruteforce import cascading_optimum, is_non_overlapping
from repro.ca.cascade import CascadingAnalysts, DrillDownTree, single_attribute
from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction


def conj(**items) -> Conjunction:
    return Conjunction.from_items(sorted(items.items()))


def grid_candidates(n_a: int = 2, n_b: int = 2) -> list[Conjunction]:
    """All order-1 and order-2 conjunctions over a small A x B grid."""
    out = [conj(A=a) for a in range(n_a)]
    out += [conj(B=b) for b in range(n_b)]
    out += [conj(A=a, B=b) for a in range(n_a) for b in range(n_b)]
    return out


def test_tree_structure_flat():
    candidates = [conj(A=a) for a in range(4)]
    tree = DrillDownTree(candidates)
    assert tree.is_flat
    assert tree.n_nodes == 5
    assert tree.n_candidates == 4


def test_tree_structure_dag():
    tree = DrillDownTree(grid_candidates())
    assert not tree.is_flat
    # root + 4 order-1 + 4 order-2
    assert tree.n_nodes == 9
    # (A=0 & B=0) must be reachable from both parents.
    groups = dict(tree.children_of(0))
    assert set(groups) == {"A", "B"}


def test_virtual_ancestors_created():
    # Only a deep candidate: its sub-conjunctions become virtual nodes.
    tree = DrillDownTree([conj(A=0, B=0)])
    assert tree.n_candidates == 1
    assert tree.n_nodes == 4  # root, A=0, B=0, A=0&B=0
    assert tree.candidate_of(0) == -1


def test_single_attribute_examples():
    assert single_attribute([conj(A=a) for a in range(3)])
    assert not single_attribute([])
    assert not single_attribute([conj(A=0), conj(B=0)])
    assert not single_attribute([conj(A=0), conj(A=1), conj(A=0, B=0)])
    assert not single_attribute([conj(A=0, B=0)])


_conjunctions = st.lists(
    st.tuples(st.sampled_from("ABC"), st.integers(0, 2)),
    min_size=1,
    max_size=3,
    unique_by=lambda item: item[0],
).map(Conjunction.from_items)


@settings(max_examples=200, deadline=None)
@given(candidates=st.lists(_conjunctions, max_size=8, unique=True))
def test_single_attribute_is_the_flat_dag(candidates):
    tree = DrillDownTree(candidates)
    # Flat means the DAG is the root over one dimension's candidates.
    flat_shape = tree.n_nodes == len(candidates) + 1 and len(tree.children_of(0)) == 1
    assert single_attribute(candidates) == tree.is_flat == flat_shape


def test_duplicate_candidates_rejected():
    with pytest.raises(ExplanationError):
        DrillDownTree([conj(A=0), conj(A=0)])


def test_empty_conjunction_rejected():
    with pytest.raises(ExplanationError):
        DrillDownTree([Conjunction(())])


def test_flat_fast_path_matches_sort():
    candidates = [conj(A=a) for a in range(6)]
    solver = CascadingAnalysts(DrillDownTree(candidates), m=3)
    gamma = np.asarray([1.0, 9.0, 3.0, 7.0, 0.0, 2.0])
    result = solver.solve(gamma)
    assert result.indices == (1, 3, 2)
    assert result.gammas == (9.0, 7.0, 3.0)
    assert result.best == (0.0, 9.0, 16.0, 19.0)


def test_flat_fast_path_excludes_zero_scores():
    candidates = [conj(A=a) for a in range(3)]
    solver = CascadingAnalysts(DrillDownTree(candidates), m=3)
    result = solver.solve(np.asarray([0.0, 5.0, 0.0]))
    assert result.indices == (1,)


def test_hierarchy_blocks_ancestor_and_descendant():
    # Selecting A=0 excludes (A=0 & B=0); the DP must pick the better mix.
    candidates = [conj(A=0), conj(A=0, B=0), conj(A=0, B=1)]
    solver = CascadingAnalysts(DrillDownTree(candidates), m=2)
    # Children together beat the parent.
    result = solver.solve(np.asarray([5.0, 4.0, 3.0]))
    assert set(result.indices) == {1, 2}
    # Parent beats any pair of children.
    result = solver.solve(np.asarray([9.0, 4.0, 3.0]))
    assert result.indices == (0,)


def test_root_dimension_is_shared_by_all_selected():
    """Every selected explanation must constrain the root drill dimension."""
    candidates = [conj(A=0, B=0), conj(B=1, C=0), conj(A=1, C=1)]
    solver = CascadingAnalysts(DrillDownTree(candidates), m=3)
    result = solver.solve(np.asarray([1.0, 1.0, 1.0]))
    # Pairwise conflicting, but no common dimension: at most 2 selectable.
    assert len(result.indices) == 2


def test_gamma_validation():
    solver = CascadingAnalysts(DrillDownTree([conj(A=0)]), m=2)
    with pytest.raises(ExplanationError):
        solver.solve(np.asarray([1.0, 2.0]))  # wrong length
    with pytest.raises(ExplanationError):
        solver.solve(np.asarray([-1.0]))  # negative score


def test_m_validation():
    with pytest.raises(ExplanationError):
        CascadingAnalysts(DrillDownTree([conj(A=0)]), m=0)


def test_batch_matches_single():
    candidates = grid_candidates(3, 2)
    solver = CascadingAnalysts(DrillDownTree(candidates), m=3)
    rng = np.random.default_rng(5)
    gammas = rng.uniform(0, 10, size=(17, len(candidates)))
    batch = solver.solve_batch(gammas, chunk_size=4)
    for row in range(gammas.shape[0]):
        single = solver.solve(gammas[row])
        assert batch[row].indices == single.indices
        assert batch[row].best == single.best


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dp_equals_bruteforce_and_nonoverlap(data):
    n_a = data.draw(st.integers(2, 3))
    n_b = data.draw(st.integers(1, 2))
    candidates = grid_candidates(n_a, n_b)
    # Randomly drop some candidates to exercise virtual nodes.
    keep = data.draw(
        st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates))
    )
    kept = [c for c, flag in zip(candidates, keep) if flag]
    if not kept:
        return
    gamma = np.asarray(
        data.draw(
            st.lists(
                st.floats(0, 100, allow_nan=False),
                min_size=len(kept),
                max_size=len(kept),
            )
        )
    )
    m = data.draw(st.integers(1, 3))
    solver = CascadingAnalysts(DrillDownTree(kept), m=m)
    result = solver.solve(gamma)
    expected = cascading_optimum(kept, gamma, m)
    assert result.total == pytest.approx(expected)
    assert sum(result.gammas) == pytest.approx(result.total)
    assert len(result.indices) <= m
    assert is_non_overlapping([kept[i] for i in result.indices])
    # Best[] is monotone non-decreasing.
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(result.best, result.best[1:]))


def test_with_context_annotation():
    candidates = [conj(A=0), conj(A=1)]
    solver = CascadingAnalysts(DrillDownTree(candidates), m=2)
    result = solver.solve(np.asarray([2.0, 1.0]))
    annotated = result.with_context(taus=[1, -1], source_segment=(0, 5))
    assert annotated.taus == (1, -1)
    assert annotated.source_segment == (0, 5)
    assert annotated.indices == result.indices
