"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.cube.datacube import ExplanationCube
from repro.relation.predicates import Conjunction
from repro.relation.schema import Schema
from repro.relation.table import Relation

#: Every conjunction of one to three items over attributes A, B, C with
#: values 0-2: 63 candidates nesting three levels deep.
CONJUNCTION_POOL = [
    Conjunction.from_items(items)
    for order in (1, 2, 3)
    for attributes in itertools.combinations("ABC", order)
    for items in itertools.product(*[[(a, v) for v in range(3)] for a in attributes])
]


@st.composite
def top_m_inputs(draw, max_candidates: int = 12):
    """``(candidates, gammas, m)`` for a top-m solver: a flat,
    hierarchical or empty candidate set, a gamma matrix with some
    all-zero rows, and a quota that may exceed the candidate count."""
    if draw(st.booleans()):
        values = range(draw(st.integers(0, 6)))
        candidates = [Conjunction.from_items((("A", v),)) for v in values]
    else:
        size = draw(st.integers(0, max_candidates))
        candidates = draw(st.permutations(CONJUNCTION_POOL))[:size]
    n = len(candidates)
    rows = draw(st.integers(1, 6))
    # Either scores that tie singly and in sums (1 + 1 = 2, 1 + 2.5 = 3.5,
    # 3.5 + 3.5 = 7; 0.1 + 0.2 is inexact) or arbitrary ones with zeros.
    ties = st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.5, 7.0, 0.1 + 0.2])
    scores = draw(st.sampled_from([ties, st.just(0.0) | st.floats(0, 100, allow_nan=False)]))
    matrix = st.lists(st.lists(scores, min_size=n, max_size=n), min_size=rows, max_size=rows)
    gammas = np.asarray(draw(matrix), dtype=np.float64).reshape(rows, n)
    zero_rows = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    gammas[np.asarray(zero_rows)] = 0.0
    return candidates, gammas, draw(st.integers(1, 4))


def assert_batch_format(batch, m: int) -> None:
    """The padding and ``best`` invariants of a :class:`TopMBatch`."""
    rows = len(batch)
    assert batch.indices.shape == batch.gammas.shape == (rows, m)
    assert batch.best.shape == (rows, m + 1)
    assert np.all(batch.counts <= m)
    padded = ~batch.valid
    assert not batch.indices[padded].any() and not batch.gammas[padded].any()
    assert batch.taus is None or not batch.taus[padded].any()
    assert np.all(batch.best[:, 0] == 0.0)
    assert np.all(np.diff(batch.best, axis=1) >= 0.0)


def build_relation(columns: dict, dimensions, measures, time=None) -> Relation:
    """Shorthand relation constructor used across the tests."""
    schema = Schema.build(dimensions=dimensions, measures=measures, time=time)
    return Relation(columns, schema)


def regime_relation(n: int = 24, switch: int = 12) -> Relation:
    """Three categories; 'a' drives growth before ``switch``, 'b' after.

    The ground-truth explanation-aware segmentation has one cut exactly at
    ``switch`` and the top contributor changes from a to b there.
    """
    rows = {"t": [], "cat": [], "sales": []}
    for t in range(n):
        for cat in ("a", "b", "c"):
            if cat == "a":
                v = 10.0 + (4.0 * t if t < switch else 4.0 * switch)
            elif cat == "b":
                v = 10.0 + (0.0 if t < switch else 5.0 * (t - switch))
            else:
                v = 7.0
            rows["t"].append(f"t{t:03d}")
            rows["cat"].append(cat)
            rows["sales"].append(v)
    return build_relation(rows, dimensions=["cat"], measures=["sales"], time="t")


def two_attr_relation(n: int = 16) -> Relation:
    """Two explain-by attributes with a conjunction-level driver.

    ``(a=x & b=p)`` grows in the first half; ``(a=z & b=q)`` in the second.
    """
    rows = {"t": [], "a": [], "b": [], "m": []}
    half = n // 2
    for t in range(n):
        for a in ("x", "y", "z"):
            for b in ("p", "q"):
                v = 3.0
                if (a, b) == ("x", "p") and t < half:
                    v += 6.0 * t
                if (a, b) == ("x", "p") and t >= half:
                    v += 6.0 * (half - 1)
                if (a, b) == ("z", "q") and t >= half:
                    v += 7.0 * (t - half)
                rows["t"].append(f"t{t:03d}")
                rows["a"].append(a)
                rows["b"].append(b)
                rows["m"].append(v)
    return build_relation(rows, dimensions=["a", "b"], measures=["m"], time="t")


def fixed_cube(cube: ExplanationCube) -> ExplanationCube:
    """A ledger-less copy of ``cube``: fixed, as slices, smoothed copies
    and memory-mapped cache entries are."""
    return ExplanationCube.from_arrays(
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


class ReferenceCandidates(NamedTuple):
    """What :func:`reference_candidates` enumerates: the candidates, their
    supports, and per attribute subset the dense group id of every row;
    candidate ``i`` is group ``local_ids[i]`` of subset ``subset_index[i]``."""

    explanations: tuple[Conjunction, ...]
    supports: np.ndarray
    row_groups: tuple[np.ndarray, ...]
    subset_index: tuple[int, ...]
    local_ids: tuple[int, ...]


def reference_candidates(
    relation: Relation, explain_by, max_order: int = 3, deduplicate: bool = True
) -> ReferenceCandidates:
    """One-shot candidate enumeration (Definition 3.1 with containment
    dedup), written independently of the cube's delta ledger.

    Subsets are enumerated over the sorted attributes by ascending order;
    each subset's rows are grouped by value combination, and a group is
    redundant when a sub-conjunction one attribute smaller selects the
    same number of rows.  Redundant groups still count as parents, so
    redundancy chains through dropped intermediates.
    """
    explanations: list[Conjunction] = []
    supports: list[int] = []
    row_groups: list[np.ndarray] = []
    subset_index: list[int] = []
    local_ids: list[int] = []
    group_info: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
    attrs = sorted(explain_by)
    for order in range(1, min(max_order, len(attrs)) + 1):
        for subset in itertools.combinations(attrs, order):
            group_ids, representatives = _group_rows(relation, subset)
            counts = np.bincount(group_ids, minlength=representatives.shape[0])
            redundant = np.zeros(representatives.shape[0], dtype=bool)
            if order > 1 and deduplicate:
                for drop in range(order):
                    parent_rows, parent_counts = group_info[subset[:drop] + subset[drop + 1 :]]
                    redundant |= parent_counts[parent_rows[representatives]] == counts
            group_info[subset] = (group_ids, counts)
            columns = relation.columns(subset)
            for local_id in np.flatnonzero(~redundant):
                row = representatives[local_id]
                explanations.append(
                    Conjunction.from_items(
                        (name, _python_value(columns[name][row])) for name in subset
                    )
                )
                supports.append(int(counts[local_id]))
                subset_index.append(len(row_groups))
                local_ids.append(int(local_id))
            row_groups.append(group_ids)
    return ReferenceCandidates(
        explanations=tuple(explanations),
        supports=np.asarray(supports, dtype=np.int64),
        row_groups=tuple(row_groups),
        subset_index=tuple(subset_index),
        local_ids=tuple(local_ids),
    )


def _python_value(value):
    return value.item() if hasattr(value, "item") else value


def _group_rows(relation: Relation, subset) -> tuple[np.ndarray, np.ndarray]:
    """``(group_ids, representatives)`` over the distinct value combinations
    of ``subset``: row ``i`` is in group ``group_ids[i]``, groups are
    numbered in lexicographic value order, and ``representatives[g]`` is
    group ``g``'s first row.  One column is factorized at a time and the
    combined key re-densified, so keys never overflow."""
    combined = np.zeros(relation.n_rows, dtype=np.int64)
    for name in subset:
        values, codes = np.unique(relation.column(name), return_inverse=True)
        key = combined * np.int64(len(values)) + codes.astype(np.int64).ravel()
        _, combined = np.unique(key, return_inverse=True)
        combined = combined.astype(np.int64).ravel()
    _, representatives = np.unique(combined, return_index=True)
    return combined.astype(np.intp), representatives.astype(np.intp)


@pytest.fixture
def simple_relation() -> Relation:
    return regime_relation()


@pytest.fixture
def multi_relation() -> Relation:
    return two_attr_relation()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20230613)
