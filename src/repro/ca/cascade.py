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
vectorized over a chunk of segments, then reconstructs each segment's
selection by walking its optimal decisions.
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
    """Top-m non-overlapping explanations of one segment (Definition 3.5).

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
        (Definition 3.3); attached by :meth:`with_context` after solving
        because the CA itself only sees non-negative scores.
    source_segment:
        ``(start, stop)`` positions of the segment this result explains;
        attached by :meth:`with_context`.
    """

    indices: tuple[int, ...]
    gammas: tuple[float, ...]
    best: tuple[float, ...]
    taus: tuple[int, ...] = ()
    source_segment: tuple[int, int] | None = None

    def with_context(
        self, taus: Sequence[int], source_segment: tuple[int, int]
    ) -> "TopMResult":
        """A copy annotated with change effects and segment positions."""
        return TopMResult(
            indices=self.indices,
            gammas=self.gammas,
            best=self.best,
            taus=tuple(int(t) for t in taus),
            source_segment=(int(source_segment[0]), int(source_segment[1])),
        )

    @property
    def total(self) -> float:
        """Total difference score of the selection (= ``best[-1]``)."""
        return self.best[-1]

    def __len__(self) -> int:
        return len(self.indices)


class DrillDownTree:
    """The static drill-down DAG over a fixed candidate list.

    Parameters
    ----------
    explanations:
        Selectable candidate conjunctions; their *positions* in this
        sequence are the indices used in gamma vectors and results.
    """

    def __init__(self, explanations: Sequence[Conjunction]):
        if any(conj.order == 0 for conj in explanations):
            raise ExplanationError("the empty conjunction cannot be a candidate")
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
        for node in range(1, len(conjs)):
            conjunction = conjs[node]
            for drop in range(conjunction.order):
                items = conjunction.items
                parent_conj = Conjunction.from_items(items[:drop] + items[drop + 1 :])
                parent = node_ids[parent_conj]
                dim = items[drop][0]
                children[parent].setdefault(dim, []).append(node)

        self._conjunctions = tuple(conjs)
        self._selectable = np.asarray(selectable, dtype=np.intp)
        self._children: tuple[tuple[tuple[str, tuple[int, ...]], ...], ...] = tuple(
            tuple((dim, tuple(kids)) for dim, kids in sorted(by_dim.items()))
            for by_dim in children
        )
        # Deepest-first topological order (children always precede parents).
        self._topo = sorted(
            range(len(conjs)), key=lambda node: -self._conjunctions[node].order
        )
        self._n_candidates = len(explanations)
        self._is_flat = single_attribute(explanations)

    @property
    def n_nodes(self) -> int:
        return len(self._conjunctions)

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
    if not explanations or any(conj.order != 1 for conj in explanations):
        return False
    return len({conj.items[0][0] for conj in explanations}) == 1


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

    def solve_batch(self, gammas: np.ndarray, chunk_size: int | None = None) -> list[TopMResult]:
        """Top-m results for many segments at once.

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
            bytes_per_segment = 8 * (self._m + 1) * max(self._tree.n_nodes, 1)
            chunk_size = int(np.clip(48_000_000 // bytes_per_segment, 16, 1024))
        results: list[TopMResult] = []
        for offset in range(0, gammas.shape[0], chunk_size):
            chunk = gammas[offset : offset + chunk_size]
            results.extend(self._solve_chunk(chunk))
        return results

    # ------------------------------------------------------------------
    # Flat fast path: one attribute, all values pairwise disjoint
    # ------------------------------------------------------------------
    def _solve_flat(self, gammas: np.ndarray) -> list[TopMResult]:
        m = self._m
        n_segments, n_candidates = gammas.shape
        k = min(m, n_candidates)
        # Candidate node ids happen to equal candidate position + 1, but we
        # work purely in candidate positions here.
        top_unsorted = np.argpartition(-gammas, k - 1, axis=1)[:, :k]
        top_unsorted.sort(axis=1)  # deterministic tie-breaking by position
        top_gamma = np.take_along_axis(gammas, top_unsorted, axis=1)
        order = np.argsort(-top_gamma, axis=1, kind="stable")
        top_idx = np.take_along_axis(top_unsorted, order, axis=1)
        top_gamma = np.take_along_axis(top_gamma, order, axis=1)
        cumulative = np.cumsum(top_gamma, axis=1)
        results: list[TopMResult] = []
        for segment in range(n_segments):
            kept = int(np.count_nonzero(top_gamma[segment] > 0.0))
            best = [0.0]
            for q in range(1, m + 1):
                best.append(float(cumulative[segment, min(q, k) - 1]))
            results.append(
                TopMResult(
                    indices=tuple(int(i) for i in top_idx[segment, :kept]),
                    gammas=tuple(float(g) for g in top_gamma[segment, :kept]),
                    best=tuple(best),
                )
            )
        return results

    # ------------------------------------------------------------------
    # Forward DP over one chunk of segments
    # ------------------------------------------------------------------
    def _solve_chunk(self, gammas: np.ndarray) -> list[TopMResult]:
        tree = self._tree
        m = self._m
        n_segments = gammas.shape[0]
        tables: dict[int, np.ndarray] = {}

        for node in tree.iter_topological():
            candidate = tree.candidate_of(node)
            groups = tree.children_of(node)
            value: np.ndarray | None = None
            for _, kids in groups:
                knapsack = np.zeros((n_segments, m + 1), dtype=np.float64)
                for child in kids:
                    child_value = tables[child]
                    for x in range(m, 0, -1):
                        best = knapsack[:, x]
                        for y in range(1, x + 1):
                            best = np.maximum(best, knapsack[:, x - y] + child_value[:, y])
                        knapsack[:, x] = best
                value = knapsack if value is None else np.maximum(value, knapsack)
            if value is None:
                value = np.zeros((n_segments, m + 1), dtype=np.float64)
            if candidate >= 0:
                np.maximum(value[:, 1:], gammas[:, candidate, None], out=value[:, 1:])
            tables[node] = value

        return [
            self._reconstruct(segment, gammas, tables)
            for segment in range(n_segments)
        ]

    # ------------------------------------------------------------------
    # Per-segment reconstruction of the optimal selection
    # ------------------------------------------------------------------
    def _reconstruct(
        self, segment: int, gammas: np.ndarray, tables: dict[int, np.ndarray]
    ) -> TopMResult:
        selected: list[int] = []
        self._walk(_ROOT, self._m, segment, gammas, tables, selected)
        ranked = sorted(
            selected, key=lambda candidate: (-gammas[segment, candidate], candidate)
        )
        best = tuple(float(v) for v in tables[_ROOT][segment])
        return TopMResult(
            indices=tuple(ranked),
            gammas=tuple(float(gammas[segment, candidate]) for candidate in ranked),
            best=best,
        )

    def _walk(
        self,
        node: int,
        quota: int,
        segment: int,
        gammas: np.ndarray,
        tables: dict[int, np.ndarray],
        selected: list[int],
    ) -> None:
        """Re-derive the decision at ``node`` with ``quota`` and recurse."""
        if quota <= 0:
            return
        tree = self._tree
        candidate = tree.candidate_of(node)
        best_value = 0.0
        best_choice: tuple | None = None
        if candidate >= 0:
            self_value = float(gammas[segment, candidate])
            if self_value > best_value:
                best_value = self_value
                best_choice = ("self",)
        for dim, kids in tree.children_of(node):
            table = self._scalar_knapsack(kids, quota, segment, tables)
            drill_value = table[-1][quota]
            if drill_value > best_value:
                best_value = drill_value
                best_choice = ("drill", kids, table)
        if best_choice is None:
            return
        if best_choice[0] == "self":
            selected.append(candidate)
            return
        _, kids, table = best_choice
        remaining = quota
        for position in range(len(kids), 0, -1):
            child_value = tables[kids[position - 1]][segment]
            target = table[position][remaining]
            for allocation in range(0, remaining + 1):
                if table[position - 1][remaining - allocation] + child_value[allocation] == target:
                    if allocation > 0:
                        self._walk(
                            kids[position - 1],
                            allocation,
                            segment,
                            gammas,
                            tables,
                            selected,
                        )
                    remaining -= allocation
                    break
            else:  # pragma: no cover - float safety net, not expected to trigger
                raise ExplanationError("knapsack backtracking failed")

    def _scalar_knapsack(
        self,
        kids: tuple[int, ...],
        quota: int,
        segment: int,
        tables: dict[int, np.ndarray],
    ) -> list[list[float]]:
        """Quota-allocation DP over one dimension's children, with history.

        ``table[i][x]`` is the best total using the first ``i`` children and
        ``x`` quotas; the full history enables exact backtracking.
        """
        table = [[0.0] * (quota + 1)]
        for child in kids:
            child_value = tables[child][segment]
            previous = table[-1]
            row = [0.0] * (quota + 1)
            for x in range(quota + 1):
                best = previous[x]
                for y in range(1, x + 1):
                    value = previous[x - y] + float(child_value[y])
                    if value > best:
                        best = value
                row[x] = best
            table.append(row)
        return table
