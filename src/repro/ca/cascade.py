"""The Cascading Analysts algorithm (paper section 5.2, module b).

Re-implementation of Ruhl, Sundararajan and Yan's top-m *non-overlapping*
explanation search from the paper's description (Figure 8): starting at the
root with ``m`` quotas, either select the current node's explanation or
drill down along **one** dimension and split the quota among that
dimension's values; children along one dimension are disjoint slices, which
is what guarantees non-overlap.  The enumeration of drill-down dimension and
quota assignment is a dynamic program maximizing the total difference score.

Semantics notes
---------------
* We implement the "at most m" variant from the paper's footnote 2
  (``E*_m = argmax over E_x, x <= m``): since ``gamma >= 0``, the optimum
  never loses value by selecting fewer explanations, and zero-score
  selections are omitted from the result.
* The structure is a DAG, not a tree: the node ``a=1 & b=2`` is a child of
  both ``a=1`` (via dimension ``b``) and ``b=2`` (via dimension ``a``).
* *Virtual* nodes (ancestors of candidates that are themselves not
  selectable — e.g. removed by the support filter or by containment
  deduplication) can be drilled through but never selected.

Batch evaluation
----------------
TSExplain needs ``E*_m`` for every one of ``O(n^2)`` segments.  The DAG is
static across segments — only the ``gamma`` vector changes — so
:meth:`CascadingAnalysts.solve_batch` runs the DP once with value tables
vectorized over a chunk of segments, keeping every child's knapsack state.
It then reconstructs each segment's selection by walking its optimal
decisions back through those states, re-solving no knapsack.  The answer
is one :class:`TopMBatch` of arrays, one row per segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction

#: node id of the conceptual root (the empty conjunction)
_ROOT = 0


@dataclass(frozen=True)
class TopMResult:
    """Top-m non-overlapping explanations of one segment (Definition 3.5):
    one row of a :class:`TopMBatch`, as the callers that read a single
    segment's answer see it.

    Attributes
    ----------
    indices:
        Candidate positions (into the cube / gamma vector), ranked by
        ``gamma`` descending — the ranked list ``[E^1, ..., E^m]`` used by
        the NDCG distance.
    gammas:
        The difference scores of the selected explanations, same order.
    best:
        ``Best[0..m]``: the optimal total score using at most ``q`` quotas,
        for every ``q`` — the side products needed by guess-and-verify
        (Eq. 12).
    taus:
        Change effects ``tau(E^r)`` of the selections on their own segment
        (Definition 3.3); empty unless the row came from a batch that
        carries them.
    """

    indices: tuple[int, ...]
    gammas: tuple[float, ...]
    best: tuple[float, ...]
    taus: tuple[int, ...] = ()

    @property
    def total(self) -> float:
        """Total difference score of the selection (= ``best[-1]``)."""
        return self.best[-1]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(eq=False)
class TopMBatch:
    """Top-m results of many segments, one row per segment.

    ``indices``, ``gammas`` and ``taus`` have shape ``(P, m)``: row ``r``
    holds its ``counts[r]`` selections ranked by ``gamma`` descending, and
    every later rank is 0.  ``best`` has shape ``(P, m + 1)`` (each row's
    ``Best[0..m]``).  ``taus`` stays ``None`` until
    :class:`~repro.segmentation.variance.SegmentationCosts` attaches the
    change effects: the CA itself only sees non-negative scores.
    ``batch[r]`` is row ``r`` as a :class:`TopMResult`.
    """

    indices: np.ndarray
    gammas: np.ndarray
    best: np.ndarray
    counts: np.ndarray
    taus: np.ndarray | None = None

    @classmethod
    def zeros(cls, rows: int, m: int, taus: bool = False) -> "TopMBatch":
        """``rows`` empty rows (no selections, every ``Best`` 0)."""
        return cls(
            np.zeros((rows, m), dtype=np.intp),
            np.zeros((rows, m)),
            np.zeros((rows, m + 1)),
            np.zeros(rows, dtype=np.intp),
            np.zeros((rows, m), dtype=np.int8) if taus else None,
        )

    @property
    def valid(self) -> np.ndarray:
        """``(P, m)`` mask of the filled ranks."""
        return np.arange(self.indices.shape[1]) < self.counts[:, None]

    def take(self, rows) -> "TopMBatch":
        """The batch of ``rows`` (an index array, a mask or a slice)."""
        return TopMBatch(*(None if a is None else a[rows] for a in vars(self).values()))

    def put(self, rows, other: "TopMBatch") -> None:
        """Overwrite ``rows`` with ``other``'s rows (taus too, if this has them)."""
        for mine, theirs in zip(vars(self).values(), vars(other).values()):
            if mine is not None:
                mine[rows] = theirs

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, row: int) -> TopMResult:
        k = int(self.counts[row])
        return TopMResult(
            indices=tuple(self.indices[row, :k].tolist()),
            gammas=tuple(self.gammas[row, :k].tolist()),
            best=tuple(self.best[row].tolist()),
            taus=() if self.taus is None else tuple(self.taus[row, :k].tolist()),
        )


class DrillDownTree:
    """The static drill-down DAG over a fixed candidate list.

    A flat list (:func:`single_attribute`) is built directly as the root
    over one dimension's group, with no sub-conjunction to intern.

    Parameters
    ----------
    explanations:
        Selectable candidate conjunctions; their *positions* in this
        sequence are the indices used in gamma vectors and results.
    """

    def __init__(self, explanations: Sequence[Conjunction]):
        if single_attribute(explanations):
            self._build_flat(explanations)
        elif any(conj.order == 0 for conj in explanations):
            raise ExplanationError("the empty conjunction cannot be a candidate")
        else:
            self._build_dag(explanations)
        self._n_candidates = len(explanations)

    def _build_flat(self, explanations: Sequence[Conjunction]) -> None:
        """The root over one dimension's values: candidate ``p`` is node
        ``p + 1``, and no sub-conjunction but the root exists."""
        seen: set[Conjunction] = set()
        for conjunction in explanations:
            if conjunction in seen:
                raise ExplanationError(f"duplicate candidate {conjunction!r}")
            seen.add(conjunction)
        n_candidates = len(explanations)
        dim = explanations[0].items[0][0]
        self._conjunctions = (Conjunction(()), *explanations)
        self._selectable = np.arange(-1, n_candidates, dtype=np.intp)
        self._children = (((dim, tuple(range(1, n_candidates + 1))),),) + ((),) * n_candidates
        self._n_edges = n_candidates
        self._topo = [*range(1, n_candidates + 1), _ROOT]
        self._is_flat = True

    def _build_dag(self, explanations: Sequence[Conjunction]) -> None:
        """The DAG of candidates and their sub-conjunctions."""
        node_ids: dict[Conjunction, int] = {Conjunction(()): _ROOT}
        conjs: list[Conjunction] = [Conjunction(())]
        selectable: list[int] = [-1]

        def intern(conjunction: Conjunction) -> int:
            node = node_ids.get(conjunction)
            if node is None:
                node = len(conjs)
                node_ids[conjunction] = node
                conjs.append(conjunction)
                selectable.append(-1)
            return node

        # Intern every candidate and every sub-conjunction (virtual nodes).
        for position, conjunction in enumerate(explanations):
            node = intern(conjunction)
            if selectable[node] != -1:
                raise ExplanationError(f"duplicate candidate {conjunction!r}")
            selectable[node] = position
            for sub in _proper_subconjunctions(conjunction):
                intern(sub)

        # Children grouped by drill-down dimension.
        children: list[dict[str, list[int]]] = [dict() for _ in conjs]
        self._n_edges = 0
        for node in range(1, len(conjs)):
            conjunction = conjs[node]
            self._n_edges += conjunction.order
            for drop in range(conjunction.order):
                items = conjunction.items
                parent_conj = Conjunction.from_items(items[:drop] + items[drop + 1 :])
                parent = node_ids[parent_conj]
                dim = items[drop][0]
                children[parent].setdefault(dim, []).append(node)

        self._conjunctions = tuple(conjs)
        self._selectable = np.asarray(selectable, dtype=np.intp)
        self._children = tuple(
            tuple((dim, tuple(kids)) for dim, kids in sorted(by_dim.items()))
            for by_dim in children
        )
        # Deepest-first topological order (children always precede parents).
        self._topo = sorted(range(len(conjs)), key=lambda node: -conjs[node].order)
        self._is_flat = False

    @property
    def n_nodes(self) -> int:
        return len(self._conjunctions)

    @property
    def n_edges(self) -> int:
        """Parent-child links (a node of order k has k parents)."""
        return self._n_edges

    @property
    def n_candidates(self) -> int:
        return self._n_candidates

    @property
    def is_flat(self) -> bool:
        """True when the DAG is a single drill-down over one attribute.

        In that case all candidates are pairwise non-overlapping values of
        one dimension and the top-m selection degenerates to "take the m
        highest scores" — a fully vectorizable fast path.
        """
        return self._is_flat

    def conjunction(self, node: int) -> Conjunction:
        """The conjunction labelling a node."""
        return self._conjunctions[node]

    def candidate_of(self, node: int) -> int:
        """Candidate position of a node, or -1 for virtual nodes/root."""
        return int(self._selectable[node])

    def children_of(self, node: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """``(dimension, child node ids)`` groups below a node."""
        return self._children[node]

    def iter_topological(self) -> Iterator[int]:
        """Nodes deepest-first (every child before its parents)."""
        return iter(self._topo)

    def __repr__(self) -> str:
        return (
            f"DrillDownTree({self._n_candidates} candidates, "
            f"{self.n_nodes} nodes)"
        )


def single_attribute(explanations: Sequence[Conjunction]) -> bool:
    """Whether a duplicate-free candidate list is flat: at least one
    candidate, every one of order 1, all on one attribute.

    Exactly then the drill-down DAG is the root plus one dimension's
    values (:attr:`DrillDownTree.is_flat`), so callers can decide
    flatness without building the DAG.
    """
    attributes = {conj.items[0][0] if conj.order == 1 else None for conj in explanations}
    return len(attributes) == 1 and None not in attributes


def _proper_subconjunctions(conjunction: Conjunction) -> Iterator[Conjunction]:
    """All strict sub-conjunctions (the power set of items, minus itself)."""
    items = conjunction.items
    n = len(items)
    for mask in range(2**n - 1):
        yield Conjunction.from_items(
            tuple(items[k] for k in range(n) if mask >> k & 1)
        )


class CascadingAnalysts:
    """Dynamic program for top-m non-overlapping explanations.

    Parameters
    ----------
    tree:
        The drill-down DAG of the candidate set.
    m:
        Quota — the maximum number of explanations to return (paper
        default 3).
    """

    def __init__(self, tree: DrillDownTree, m: int = 3):
        if m < 1:
            raise ExplanationError(f"m must be >= 1, got {m}")
        self._tree = tree
        self._m = m

    @property
    def m(self) -> int:
        return self._m

    @property
    def tree(self) -> DrillDownTree:
        return self._tree

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(self, gamma: np.ndarray) -> TopMResult:
        """Top-m result for a single gamma vector of length ``n_candidates``."""
        return self.solve_batch(np.asarray(gamma, dtype=np.float64)[None, :])[0]

    def solve_batch(self, gammas: np.ndarray, chunk_size: int | None = None) -> TopMBatch:
        """Top-m results for many segments at once, one batch row each.

        Parameters
        ----------
        gammas:
            ``(n_segments, n_candidates)`` matrix of difference scores; all
            entries must be non-negative.
        chunk_size:
            Number of segments whose DP tables are held in memory together;
            defaults to an adaptive size targeting tens of megabytes.
        """
        gammas = np.asarray(gammas, dtype=np.float64)
        if gammas.ndim != 2 or gammas.shape[1] != self._tree.n_candidates:
            raise ExplanationError(
                f"gamma matrix shape {gammas.shape} does not match "
                f"{self._tree.n_candidates} candidates"
            )
        if gammas.size and float(gammas.min()) < 0:
            raise ExplanationError("gamma scores must be non-negative")
        if self._tree.is_flat:
            return self._solve_flat(gammas)
        if chunk_size is None:
            # A value table per node and a knapsack state per edge.
            tree = self._tree
            bytes_per_segment = 8 * (self._m + 1) * (tree.n_nodes + tree.n_edges)
            chunk_size = int(np.clip(48_000_000 // bytes_per_segment, 16, 1024))
        batch = TopMBatch.zeros(gammas.shape[0], self._m)
        for offset in range(0, gammas.shape[0], chunk_size):
            self._solve_chunk(gammas[offset : offset + chunk_size], batch, offset)
        return batch

    # ------------------------------------------------------------------
    # Flat fast path: one attribute, all values pairwise disjoint
    # ------------------------------------------------------------------
    def _solve_flat(self, gammas: np.ndarray) -> TopMBatch:
        m = self._m
        k = min(m, gammas.shape[1])
        top_unsorted = np.argpartition(-gammas, k - 1, axis=1)[:, :k]
        top_unsorted.sort(axis=1)  # deterministic tie-breaking by position
        top_gamma = np.take_along_axis(gammas, top_unsorted, axis=1)
        order = np.argsort(-top_gamma, axis=1, kind="stable")
        top_idx = np.take_along_axis(top_unsorted, order, axis=1)
        top_gamma = np.take_along_axis(top_gamma, order, axis=1)
        batch = TopMBatch.zeros(gammas.shape[0], m)
        # Best[q] is the sum of the q highest scores (all k when q > k).
        batch.best[:, 1:] = np.cumsum(top_gamma, axis=1)[:, np.minimum(np.arange(m), k - 1)]
        # Each row is sorted descending and non-negative, so its positive
        # scores are its prefix; zero scores are never selected.
        batch.counts[:] = np.count_nonzero(top_gamma > 0.0, axis=1)
        kept = np.arange(k) < batch.counts[:, None]
        batch.indices[:, :k] = np.where(kept, top_idx, 0)
        batch.gammas[:, :k] = np.where(kept, top_gamma, 0.0)
        return batch

    # ------------------------------------------------------------------
    # Forward DP over one chunk of segments
    # ------------------------------------------------------------------
    def _solve_chunk(self, gammas: np.ndarray, batch: TopMBatch, offset: int) -> None:
        tree = self._tree
        m = self._m
        n_segments = gammas.shape[0]
        zero = np.zeros((n_segments, m + 1))
        # One buffer of value tables (by node) and one of knapsack states
        # (by edge) for the whole chunk.  (node, group index) -> the group's
        # (n_kids, n_segments, m + 1) states: state p is the best total over
        # the group's first p + 1 children.
        values = np.zeros((tree.n_nodes, n_segments, m + 1))
        edges = np.zeros((tree.n_edges, n_segments, m + 1))
        states: dict[tuple[int, int], np.ndarray] = {}
        used = 0

        for node in tree.iter_topological():
            value = values[node]
            for group, (_, kids) in enumerate(tree.children_of(node)):
                knapsacks = states[node, group] = edges[used : used + len(kids)]
                used += len(kids)
                previous = zero
                for state, child in zip(knapsacks, kids):
                    child_value = values[child]
                    for x in range(m, 0, -1):
                        best = previous[:, x]
                        for y in range(1, x + 1):
                            best = np.maximum(best, previous[:, x - y] + child_value[:, y])
                        state[:, x] = best
                    previous = state
                np.maximum(value, previous, out=value)
            candidate = tree.candidate_of(node)
            if candidate >= 0:
                np.maximum(value[:, 1:], gammas[:, candidate, None], out=value[:, 1:])

        batch.best[offset : offset + n_segments] = values[_ROOT]
        for segment in range(n_segments):
            selected: list[int] = []
            self._walk(_ROOT, m, segment, gammas, values, states, selected)
            ranked = sorted(selected, key=lambda c: (-gammas[segment, c], c))
            row, k = offset + segment, len(ranked)
            batch.counts[row] = k
            batch.indices[row, :k] = ranked
            batch.gammas[row, :k] = gammas[segment, ranked]

    # ------------------------------------------------------------------
    # Per-segment reconstruction of the optimal selection
    # ------------------------------------------------------------------
    def _walk(
        self,
        node: int,
        quota: int,
        segment: int,
        gammas: np.ndarray,
        values: np.ndarray,
        states: dict[tuple[int, int], np.ndarray],
        selected: list[int],
    ) -> None:
        """Add ``segment``'s optimal selection below ``node`` with ``quota``.

        The node itself counts with its gamma, a dimension group with its
        last knapsack state; an option must beat the best so far strictly,
        so the node wins ties, then the first dimension, and nothing is
        taken when every option is 0.  A drill backtracks through the
        group's states without re-solving them: allocation 0 adds
        ``child[0] == 0``, so a child took quota exactly where the state
        grew over the one before it.  The walk jumps to the last such
        child, gives it the first allocation that reproduces its state,
        and goes on before it with the rest: at most ``quota`` jumps.
        """
        if quota <= 0:
            return
        tree = self._tree
        candidate = tree.candidate_of(node)
        best_value = 0.0
        choice: int | None = None  # -1: the node itself, g >= 0: group g
        if candidate >= 0 and gammas[segment, candidate] > best_value:
            best_value, choice = gammas[segment, candidate], -1
        for group in range(len(tree.children_of(node))):
            drill_value = states[node, group][-1, segment, quota]
            if drill_value > best_value:
                best_value, choice = drill_value, group
        if choice is None:
            return
        if choice < 0:
            selected.append(candidate)
            return
        kids = tree.children_of(node)[choice][1]
        knapsacks = states[node, choice]
        remaining, end = quota, len(kids)
        while remaining:
            column = knapsacks[:end, segment, remaining]
            grew = np.flatnonzero(column > np.concatenate(([0.0], column[:-1])))
            if not grew.size:
                return
            end = int(grew[-1])
            before = knapsacks[end - 1, segment] if end else np.zeros(remaining + 1)
            child_value = values[kids[end], segment]
            for allocation in range(1, remaining + 1):
                if before[remaining - allocation] + child_value[allocation] == column[end]:
                    break
            else:  # pragma: no cover - float safety net, not expected to trigger
                raise ExplanationError("knapsack backtracking failed")
            self._walk(kids[end], allocation, segment, gammas, values, states, selected)
            remaining -= allocation
