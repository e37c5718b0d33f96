"""Unit and property tests for the Cascading Analysts dynamic program."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.ca.bruteforce import cascading_optimum, is_non_overlapping
from repro.ca.cascade import CascadingAnalysts, DrillDownTree, TopMBatch, single_attribute
from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction
from tests.conftest import assert_batch_format, top_m_inputs


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
    # root + 4 order-1 + 4 order-2; each node links to one parent per item
    assert tree.n_nodes == 9
    assert tree.n_edges == 4 * 1 + 4 * 2
    assert tree.n_edges == sum(
        len(kids) for node in range(tree.n_nodes) for _, kids in tree.children_of(node)
    )
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
@example(candidates=[conj(B=2), conj(B=0), conj(B=1)])
def test_single_attribute_is_the_flat_dag(candidates):
    tree = DrillDownTree(candidates)
    # Flat means the DAG is the root over one dimension's candidates.
    flat_shape = tree.n_nodes == len(candidates) + 1 and len(tree.children_of(0)) == 1
    assert single_attribute(candidates) == tree.is_flat == flat_shape
    if tree.is_flat:
        # The direct flat build has the general build's structure.
        general = DrillDownTree.__new__(DrillDownTree)
        general._build_dag(candidates)
        for name in ("_conjunctions", "_children", "_topo", "_n_edges"):
            assert getattr(tree, name) == getattr(general, name)
        assert tree._selectable.tolist() == general._selectable.tolist()


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


@settings(max_examples=150, deadline=None)
@given(inputs=top_m_inputs(), chunk_size=st.sampled_from([None, 1, 2, 5]))
def test_batch_rows_are_single_solves(inputs, chunk_size):
    """Each batch row is the single-row solve and a brute-force optimum,
    and the padding and ``best`` invariants hold: flat, hierarchical and
    empty candidate sets, all-zero rows, and m above the candidate count."""
    candidates, gammas, m = inputs
    solver = CascadingAnalysts(DrillDownTree(candidates), m=m)
    batch = solver.solve_batch(gammas, chunk_size=chunk_size)
    assert_batch_format(batch, m)
    assert batch.taus is None
    for row in range(gammas.shape[0]):
        result = batch[row]
        assert result == solver.solve(gammas[row])
        assert result.total == pytest.approx(cascading_optimum(candidates, gammas[row], m))
        assert is_non_overlapping([candidates[i] for i in result.indices])


# ----------------------------------------------------------------------
# Scalar reference: the forward pass with one knapsack overwritten in
# place per group, then each visited node's knapsacks re-solved in scalar
# Python with their full history to backtrack through.
# ----------------------------------------------------------------------
def scalar_reference(tree: DrillDownTree, gammas: np.ndarray, m: int) -> TopMBatch:
    n_rows = gammas.shape[0]
    tables: dict[int, np.ndarray] = {}
    for node in tree.iter_topological():
        value = None
        for _, kids in tree.children_of(node):
            knapsack = np.zeros((n_rows, m + 1))
            for child in kids:
                for x in range(m, 0, -1):
                    best = knapsack[:, x]
                    for y in range(1, x + 1):
                        best = np.maximum(best, knapsack[:, x - y] + tables[child][:, y])
                    knapsack[:, x] = best
            value = knapsack if value is None else np.maximum(value, knapsack)
        if value is None:
            value = np.zeros((n_rows, m + 1))
        candidate = tree.candidate_of(node)
        if candidate >= 0:
            np.maximum(value[:, 1:], gammas[:, candidate, None], out=value[:, 1:])
        tables[node] = value

    batch = TopMBatch.zeros(n_rows, m)
    batch.best[:] = tables[0]
    for row in range(n_rows):
        selected: list[int] = []
        _scalar_walk(tree, 0, m, gammas[row], {n: t[row] for n, t in tables.items()}, selected)
        ranked = sorted(selected, key=lambda candidate: (-gammas[row, candidate], candidate))
        batch.counts[row] = len(ranked)
        batch.indices[row, : len(ranked)] = ranked
        batch.gammas[row, : len(ranked)] = gammas[row, ranked]
    return batch


def _scalar_walk(tree, node, quota, gamma, tables, selected) -> None:
    if quota <= 0:
        return
    candidate = tree.candidate_of(node)
    best_value = 0.0
    best_choice = None
    if candidate >= 0 and float(gamma[candidate]) > best_value:
        best_value = float(gamma[candidate])
        best_choice = ("self",)
    for _, kids in tree.children_of(node):
        table = _scalar_knapsack(kids, quota, tables)
        if table[-1][quota] > best_value:
            best_value = table[-1][quota]
            best_choice = ("drill", kids, table)
    if best_choice is None:
        return
    if best_choice[0] == "self":
        selected.append(candidate)
        return
    _, kids, table = best_choice
    remaining = quota
    for position in range(len(kids), 0, -1):
        child_value = tables[kids[position - 1]]
        for allocation in range(0, remaining + 1):
            before = table[position - 1][remaining - allocation]
            if before + child_value[allocation] == table[position][remaining]:
                if allocation > 0:
                    _scalar_walk(tree, kids[position - 1], allocation, gamma, tables, selected)
                remaining -= allocation
                break
        else:
            raise AssertionError("knapsack backtracking failed")


def _scalar_knapsack(kids, quota, tables) -> list[list[float]]:
    """``table[i][x]``: the best total over the first ``i`` children with ``x`` quotas."""
    table = [[0.0] * (quota + 1)]
    for child in kids:
        previous = table[-1]
        row = [0.0] * (quota + 1)
        for x in range(quota + 1):
            best = previous[x]
            for y in range(1, x + 1):
                value = previous[x - y] + float(tables[child][y])
                if value > best:
                    best = value
            row[x] = best
        table.append(row)
    return table


@settings(max_examples=300, deadline=None)
@given(inputs=top_m_inputs(max_candidates=39), chunk_size=st.sampled_from([None, 1, 2, 5]))
def test_backtracking_matches_the_scalar_reference(inputs, chunk_size):
    """Backtracking through the forward pass's knapsack states selects
    exactly what re-solving each visited node's knapsack in scalar Python
    selects, tie for tie, and reaches the brute-force optimum."""
    candidates, gammas, m = inputs
    tree = DrillDownTree(candidates)
    assume(not tree.is_flat)  # the flat fast path never walks the DAG
    batch = CascadingAnalysts(tree, m=m).solve_batch(gammas, chunk_size=chunk_size)
    reference = scalar_reference(tree, gammas, m)
    for row in range(gammas.shape[0]):
        for field in ("indices", "gammas", "best", "counts"):
            assert np.array_equal(getattr(batch, field)[row], getattr(reference, field)[row])
        # The brute force adds in another order, so the totals agree to rounding.
        expected = cascading_optimum(candidates, gammas[row], m)
        assert batch.best[row, m] == pytest.approx(expected)
