"""Within-segment variance and bulk segment-cost precomputation (Eq. 7).

The K-segmentation DP needs ``cost(a, b) = |P| * var(P)`` for every
candidate segment ``P = [p_a, p_b]``.  :class:`SegmentationCosts`
precomputes that entire matrix:

1. score every *unit object* ``[p_x, p_x+1]`` and every candidate segment
   with the cascading-analysts solver (module b of the pipeline);
2. evaluate the NDCG-based distance between each object and its segment's
   centroid (Eqs. 3–6) — in array passes over the objects of many
   segments at once.  Each product and sum runs on a stack of segments
   covering the same number of objects (a *span*), in each segment's own
   layout, so a cost is bit for bit what evaluating its segment alone
   gives (the tests keep that evaluation as the reference);
3. for the ``allpair`` variance structures (Eq. 10), precompute the full
   object-pair distance matrix once and reduce any segment's variance to a
   2-D prefix-sum lookup.

Restricted cut grids
--------------------
Sketching (section 5.3.2) re-runs the pipeline with candidate *cutting
positions* restricted to the sketch, but the within-segment variance is
still measured over **full-resolution unit objects** — the paper's phase-II
complexity ``O(m * |S|^2 * n)`` carries the factor ``n`` for exactly this
reason.  ``cut_positions`` therefore only restricts where segments may
start and end; objects are always the consecutive point pairs of the
underlying series, and a segment's cost is the same number on every grid
that has both its endpoints.

That is what makes regridding cheap: :meth:`SegmentationCosts.extend`
onto the *same* series (``first_changed_position`` defaults to "nothing
changed") keeps every unit object and carries every cost whose endpoints
are on the new grid.  Sketch phase II is exactly that regrid of phase I.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.ca.cascade import TopMBatch, TopMResult
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.obs import trace
from repro.segmentation.distance import ALLPAIR_VARIANTS, VARIANTS, dcg_weights


#: Elements (objects x m, summed over segments) of one
#: :meth:`SegmentationCosts._centroid_costs` block, whose temporaries peak
#: near 2 MiB.  Twice the budget ran no faster and left a stream ~1 MiB
#: more peak RSS (allocator retention).
_COST_BLOCK = 1 << 14


class TopMSolver(Protocol):
    """Anything that maps a gamma matrix to a batch of top-m results."""

    @property
    def m(self) -> int:  # pragma: no cover
        ...

    def solve_batch(self, gammas: np.ndarray) -> TopMBatch:  # pragma: no cover
        ...


class SegmentationCosts:
    """Precomputed ``|P| * var(P)`` for all candidate segments.

    Every top-m answer it solves lives in one :class:`TopMBatch` with the
    change effects attached: the unit objects' rows first, then the
    segments'.  An ``(N, N)`` row-index matrix maps a reduced segment to
    its row; a single-object segment maps to its unit's row.

    Parameters
    ----------
    scorer:
        Difference scorer over the query's explanation cube.
    solver:
        Top-m solver (:class:`~repro.ca.cascade.CascadingAnalysts` or
        :class:`~repro.ca.guess_verify.GuessAndVerify`); its ``m`` is the
        explanation quota per segment.
    variant:
        Variance design, one of
        :data:`repro.segmentation.distance.VARIANTS` (paper default
        ``tse``).
    cut_positions:
        Sorted original time positions where segments may start/end
        (default: every point).  Only the cut grid shrinks — the variance
        of a segment is always a sum over the full-resolution unit objects
        it covers.  Reduced indices used throughout the public API index
        into this array.
    max_length:
        When given, only segments spanning at most this many original time
        steps get a finite cost — the phase-I constraint of sketching.
    """

    def __init__(
        self,
        scorer: SegmentScorer,
        solver: TopMSolver,
        variant: str = "tse",
        cut_positions: Sequence[int] | np.ndarray | None = None,
        max_length: int | None = None,
    ):
        if variant not in VARIANTS:
            raise SegmentationError(
                f"unknown variance variant {variant!r}; use one of {VARIANTS}"
            )
        n_times = scorer.cube.n_times
        if n_times < 2:
            raise SegmentationError("need a series of at least two points")
        cut_positions = _cut_grid(cut_positions, n_times)
        if max_length is not None and max_length < int(np.diff(cut_positions).max()):
            raise SegmentationError(
                "max_length smaller than the widest gap between cut positions; "
                "no valid segmentation exists"
            )

        self._scorer = scorer
        self._solver = solver
        # The candidate tuple at construction time.  Appendable cubes
        # mutate in place but *replace* their explanations tuple when the
        # candidate set grows, so this captured reference is what
        # :meth:`extend` compares against.
        self._explanations = scorer.cube.explanations
        self._m = solver.m
        self._variant = variant
        self._positions = cut_positions
        self._max_length = max_length
        self._n_points = cut_positions.shape[0]
        self._n_units = n_times - 1
        self._weights = dcg_weights(self._m)
        self._fill_costs()

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    @property
    def variant(self) -> str:
        return self._variant

    @property
    def m(self) -> int:
        return self._m

    @property
    def positions(self) -> np.ndarray:
        """Original time positions of the cut grid."""
        return self._positions

    @property
    def n_points(self) -> int:
        """Number of cut-grid points (``N``); the DP may place ``N - 1`` cuts."""
        return self._n_points

    @property
    def cost_matrix(self) -> np.ndarray:
        """``(N, N)`` matrix of ``|P| * var(P)``; ``inf`` marks disallowed."""
        return self._cost

    def cost(self, start: int, stop: int) -> float:
        """``|P| * var(P)`` for the reduced segment ``[start, stop]``."""
        if not 0 <= start < stop < self._n_points:
            raise SegmentationError(
                f"invalid reduced segment [{start}, {stop}] for {self._n_points} points"
            )
        return float(self._cost[start, stop])

    def variance(self, start: int, stop: int) -> float:
        """``var(P)`` (Eq. 7 / Eq. 10) for the reduced segment.

        The normalizer is the number of unit objects the segment covers,
        i.e. its span in original time steps.
        """
        span = int(self._positions[stop] - self._positions[start])
        return self.cost(start, stop) / span

    def total_cost(self, boundaries: Sequence[int]) -> float:
        """Objective value ``sum |P_i| var(P_i)`` of a segmentation scheme.

        ``boundaries`` are reduced cut-grid indices including both
        endpoints, e.g. ``[0, 3, 7, N-1]`` for a 3-segment scheme.
        """
        boundaries = list(boundaries)
        if boundaries[0] != 0 or boundaries[-1] != self._n_points - 1:
            raise SegmentationError("boundaries must start at 0 and end at N-1")
        total = 0.0
        for left, right in zip(boundaries, boundaries[1:]):
            total += self.cost(left, right)
        return total

    def unit_result(self, index: int) -> TopMResult:
        """Top-m result of the ``index``-th full-resolution unit object."""
        return self._batch[range(self._n_units)[index]]

    def segment_result(self, start: int, stop: int) -> TopMResult:
        """Top-m result of a reduced segment, solved on first read when
        the cost fill did not solve it (``allpair`` variants, segments
        beyond ``max_length``)."""
        row = int(self._row[start, stop])
        if row < 0:
            solved = self._solve_segments(self._positions[[start]], self._positions[[stop]])
            row = len(self._batch)
            grown = TopMBatch.zeros(row + 1, self._m, taus=True)
            grown.put(slice(0, row), self._batch)
            grown.put(slice(row, None), solved)
            self._batch = grown
            self._row[start, stop] = row
        return self._batch[row]

    # ------------------------------------------------------------------
    # Regridding and incremental growth (sketch phase II; streaming
    # appends, paper section 8)
    # ------------------------------------------------------------------
    def extend(
        self,
        scorer: SegmentScorer,
        solver: TopMSolver,
        cut_positions: Sequence[int] | np.ndarray | None = None,
        first_changed_position: int | None = None,
    ) -> "SegmentationCosts":
        """A new :class:`SegmentationCosts` on the cut grid
        ``cut_positions`` (default: every point) over the same or a
        *grown* series, reusing this instance's work for the unchanged
        prefix.

        ``scorer`` must score the same candidate set over a series at
        least as long as this instance's, and ``solver`` must have this
        instance's ``m``; ``first_changed_position`` is
        the smallest time position whose values may differ from the
        series this instance was built on
        (:attr:`repro.cube.delta.AppendInfo.first_changed_position`,
        minus the smoothing half-window when the scorer smooths).  It
        defaults to the old length, meaning nothing changed: a pure
        extension, or on the same series a pure regrid — sketch phase II
        regrids phase I's ``max_length`` instance onto the sketch this
        way.  The result has no ``max_length``.

        Two classes of work are reused instead of recomputed:

        * **unit objects** strictly before the changed region keep their
          gamma/tau rows and their cascading-analysts results (each unit
          is solved independently, so the reuse is bit-exact);
        * **segment costs** whose right endpoint lies before the changed
          region are carried over from this instance's cost matrix and
          result rows (translated through original time positions, so
          the new cut grid may differ from the old one).

        Everything else — new units, and every segment touching the
        appended region — is computed fresh, so per-update cost is
        proportional to the appended suffix, not the total length.
        ``allpair`` variants reuse the unit structures but refill their
        pair-distance prefix sums in full (they are inherently quadratic).
        """
        new_cube = scorer.cube
        old_n_times = self._n_units + 1
        if new_cube.n_times < old_n_times:
            raise SegmentationError(
                "extend() requires a series at least as long as the original"
            )
        if solver.m != self._m:
            raise SegmentationError(
                f"extend() requires a solver with m={self._m}, got m={solver.m}"
            )
        same_candidates = new_cube.explanations is self._explanations or (
            new_cube.n_explanations == len(self._explanations)
            and new_cube.explanations == self._explanations
        )
        if not same_candidates:
            raise SegmentationError(
                "extend() requires an unchanged candidate set; build fresh "
                "SegmentationCosts when candidates were added or re-filtered"
            )
        if first_changed_position is None:
            first_changed_position = old_n_times
        first_changed_position = max(0, min(first_changed_position, old_n_times))
        # Unit u spans positions [u, u+1]; it is reusable iff both lie
        # strictly before the changed region.
        keep_units = int(np.clip(first_changed_position - 1, 0, self._n_units))

        grown = SegmentationCosts.__new__(SegmentationCosts)
        grown._scorer = scorer
        grown._solver = solver
        grown._explanations = new_cube.explanations
        grown._m = self._m
        grown._variant = self._variant
        grown._max_length = None
        grown._weights = self._weights
        n_times = new_cube.n_times
        grown._positions = _cut_grid(cut_positions, n_times)
        grown._n_points = grown._positions.shape[0]
        grown._n_units = n_times - 1
        grown._fill_costs(self, keep_units, first_changed_position)
        return grown

    def _carry_costs(
        self, grown: "SegmentationCosts", first_changed_position: int
    ) -> TopMBatch:
        """Copy still-valid segment costs into ``grown``'s matrix.

        A segment is carried when its right endpoint lies strictly before
        the changed region.  Translation goes through *original*
        positions, so the old and new cut grids may differ.  Returns the
        carried segments' rows of this instance's batch, which ``grown``'s
        row matrix numbers from its first row after the units.
        """
        old = self._positions
        i, j = np.nonzero(np.triu(np.isfinite(self._cost), 1))
        new_index = np.full(grown._n_units + 1, -1, dtype=np.intp)
        new_index[grown._positions] = np.arange(grown._n_points)
        new_i, new_j = new_index[old[i]], new_index[old[j]]
        keep = (old[j] < first_changed_position) & (new_i >= 0) & (new_j >= 0)
        i, j, new_i, new_j = i[keep], j[keep], new_i[keep], new_j[keep]
        grown._cost[new_i, new_j] = self._cost[i, j]
        # A single-object segment keeps pointing at its unit's row.
        rows = self._row[i, j]
        solved = (old[j] - old[i] > 1) & (rows >= 0)
        new_rows = grown._n_units + np.arange(np.count_nonzero(solved))
        grown._row[new_i[solved], new_j[solved]] = new_rows
        return self._batch.take(rows[solved])

    # ------------------------------------------------------------------
    # Unit objects (always full resolution) and the cost matrix
    # ------------------------------------------------------------------
    def _prepare_units(
        self, previous: "SegmentationCosts | None" = None, keep_units: int = 0
    ) -> None:
        """Unit structures, in the batch's first rows: the first
        ``keep_units`` are ``previous``'s, the rest are scored and solved
        here."""
        starts = np.arange(keep_units, self._n_units, dtype=np.intp)
        stops = starts + 1
        n_explanations = self._scorer.cube.n_explanations
        gamma = np.empty((n_explanations, 0))
        tau = np.empty((n_explanations, 0), dtype=np.int8)
        if starts.size:
            gamma, tau = self._scorer.gamma_tau_many(starts, stops)
            solved = _attach_taus(self._solve(gamma.T), lambda rows, index: tau[index, rows])
            self._batch.put(slice(keep_units, self._n_units), solved)
        if previous is not None:
            gamma = np.concatenate([previous._gamma_unit[:, :keep_units], gamma], axis=1)
            tau = np.concatenate([previous._tau_unit[:, :keep_units], tau], axis=1)
            self._batch.put(slice(0, keep_units), previous._batch.take(slice(0, keep_units)))
        self._gamma_unit, self._tau_unit = gamma, tau
        units = self._batch.take(slice(0, self._n_units))
        self._unit_idx, self._unit_tau, self._unit_valid = units.indices, units.taus, units.valid
        self._unit_counts = units.counts
        self._ideal_unit = units.gammas @ self._weights

    def _fill_costs(
        self,
        previous: "SegmentationCosts | None" = None,
        keep_units: int = 0,
        first_changed_position: int = 0,
    ) -> None:
        """The cost matrix and the batch of every solved answer, reusing
        ``previous``'s first ``keep_units`` units and, for centroid
        variants, its still-valid costs and rows (:meth:`_carry_costs`)."""
        n_points, n_units = self._n_points, self._n_units
        self._cost = np.full((n_points, n_points), np.inf, dtype=np.float64)
        np.fill_diagonal(self._cost, 0.0)
        # Single-object segments cost 0 by definition (the object is its
        # own centroid), and their answer is the unit's.
        single = np.flatnonzero(np.diff(self._positions) == 1)
        self._cost[single, single + 1] = 0.0
        self._row = np.full((n_points, n_points), -1, dtype=np.intp)
        self._row[single, single + 1] = self._positions[single]
        carried = TopMBatch.zeros(0, self._m, taus=True)
        pair_i = pair_j = np.empty(0, dtype=np.intp)
        if self._variant not in ALLPAIR_VARIANTS:
            if previous is not None:
                carried = previous._carry_costs(self, first_changed_position)
            pair_i, pair_j = self._segment_pairs()
            fresh = np.isinf(self._cost[pair_i, pair_j])  # not carried
            pair_i, pair_j = pair_i[fresh], pair_j[fresh]
        first_solved = n_units + len(carried)
        self._batch = TopMBatch.zeros(first_solved + pair_i.shape[0], self._m, taus=True)
        self._batch.put(slice(n_units, first_solved), carried)
        self._row[pair_i, pair_j] = np.arange(first_solved, len(self._batch))
        with trace.span("unit-solve"):
            self._prepare_units(previous, keep_units)
        if self._variant in ALLPAIR_VARIANTS:
            self._fill_costs_allpair()
        else:
            self._fill_costs_centroid(pair_i, pair_j, first_solved)

    # ------------------------------------------------------------------
    # Segment solving helpers
    # ------------------------------------------------------------------
    def _solve(self, gammas: np.ndarray) -> TopMBatch:
        """One cascading-analysts batch: a ``ca-solve`` span."""
        with trace.span("ca-solve"):
            return self._solver.solve_batch(gammas)

    def _segment_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Reduced ``(i, j)`` pairs needing a cost, honouring constraints,
        in row-major order.

        Pairs spanning exactly one unit object are excluded — their cost is
        0 by definition and their result is the unit's.
        """
        span = self._positions[None, :] - self._positions[:, None]
        wanted = span > 1
        if self._max_length is not None:
            wanted &= span <= self._max_length
        return np.nonzero(wanted)

    def _solve_segments(self, starts: np.ndarray, stops: np.ndarray) -> TopMBatch:
        """Solve top-m for segments given by original-position arrays."""
        gammas = self._scorer.gamma_many(starts, stops)
        return _attach_taus(
            self._solve(gammas.T),
            lambda rows, index: self._scorer.tau_at(starts[rows], stops[rows], index),
        )

    # ------------------------------------------------------------------
    # Centroid-structured variants (tse, dist1, dist2, S-variants)
    # ------------------------------------------------------------------
    def _fill_costs_centroid(
        self, pair_i: np.ndarray, pair_j: np.ndarray, first_row: int
    ) -> None:
        """Solve the pairs into batch rows ``first_row`` on, and cost them.

        The solves run in chunks of pairs in row-major order.  The costs
        run over the pairs sorted by span (the number of unit objects a
        segment covers) and selection count, in blocks of at most about
        :data:`_COST_BLOCK` elements (:meth:`_centroid_costs`).
        """
        epsilon = max(self._scorer.cube.n_explanations, 1)
        chunk = int(np.clip(32_000_000 // (8 * epsilon), 64, 8192))
        starts, stops = self._positions[pair_i], self._positions[pair_j]
        for offset in range(0, pair_i.shape[0], chunk):
            block = slice(offset, offset + chunk)
            row = first_row + offset
            solved = self._solve_segments(starts[block], stops[block])
            self._batch.put(slice(row, row + len(solved)), solved)
        if not pair_i.size:
            return
        rows = first_row + np.arange(pair_i.shape[0])
        spans = stops - starts
        order = np.lexsort((self._batch.counts[rows], spans))
        # A block ends where the running element count crosses a multiple
        # of the budget, so it overshoots by less than one segment.
        blocks = (np.cumsum(spans[order]) * self._m - 1) // _COST_BLOCK
        bounds = [0, *(np.flatnonzero(np.diff(blocks)) + 1).tolist(), order.shape[0]]
        for lo, hi in zip(bounds, bounds[1:]):
            pairs = order[lo:hi]
            self._cost[pair_i[pairs], pair_j[pairs]] = self._centroid_costs(
                rows[pairs], starts[pairs], spans[pairs]
            )

    def _centroid_costs(
        self, rows: np.ndarray, starts: np.ndarray, spans: np.ndarray
    ) -> np.ndarray:
        """``sum_x dist(object_x, centroid)`` of the segments covering
        ``spans[p]`` unit objects from original position ``starts[p]``,
        their centroids being batch rows ``rows``, sorted by span and then
        by selection count.

        Every float operation is the one a single segment's evaluation
        would do, in the same order.  Element-wise work runs over all the
        segments' objects laid end to end.  The two matrix-vector products
        (their rounding depends on the matrix shape) and the sum over
        ``span`` distances run once per group of equal span and selection
        count, on a stack of the segments' own layouts; the centroids'
        ideal DCGs, dot products over their filled ranks, once per count.
        Only filled ranks are gathered: an emptied candidate set has no
        candidate 0.
        """
        weights, m = self._weights, self._m
        centroids = self._batch.take(rows)
        counts = centroids.counts
        n_pairs = rows.shape[0]
        first = np.cumsum(spans) - spans  # each segment's first object
        pair = np.repeat(np.arange(n_pairs), spans)
        unit = np.arange(pair.shape[0]) - first[pair] + starts[pair]
        n_objects = unit.shape[0]

        # --- NDCG(centroid, E*(object_x)) relevances ----------------------
        # Every object's filled ranks scored over its segment, into an
        # (E, m) array that is zero beyond each object's count.
        filled = self._unit_counts[unit]
        obj = np.repeat(np.arange(n_objects), filled)
        rank = np.arange(obj.shape[0]) - np.repeat(np.cumsum(filled) - filled, filled)
        slot = unit[obj] * m + rank  # into the units' (n_units, m) rows
        segment = pair[obj]
        gamma, tau = self._scorer.gamma_tau_at(
            starts[segment], starts[segment] + spans[segment], self._unit_idx.ravel()[slot]
        )
        relevance_back = np.zeros((n_objects, m))
        relevance_back.reshape(-1)[obj * m + rank] = gamma * (
            tau == self._unit_tau.ravel()[slot]
        )

        # The centroids' ideal DCGs: a dot product over each one's k
        # filled ranks, one call per k.
        ideal_centroid = np.zeros(n_pairs)
        for k in np.unique(counts[counts > 0]).tolist():
            same = counts == k
            ideal_centroid[same] = np.vecdot(centroids.gammas[same, :k], weights[:k])

        numerator = np.zeros(n_objects)
        numerator_back = np.empty(n_objects)
        groups = np.flatnonzero(np.diff(spans) | np.diff(counts)) + 1
        bounds = [0, *groups.tolist(), n_pairs]
        for lo, hi in zip(bounds, bounds[1:]):
            n, span, k = hi - lo, int(spans[lo]), int(counts[lo])
            objects = slice(int(first[lo]), int(first[lo]) + n * span)
            # C-ordered (L, m) per segment.
            block = relevance_back[objects].reshape(n, span, m)
            numerator_back[objects] = (block @ weights).ravel()
            if k:
                # NDCG(object_x, E*(centroid)): the centroid's k winners
                # over its objects, F-ordered (L, k) per segment.
                winners = centroids.indices[lo:hi, :k, None]
                covered = unit[objects].reshape(n, 1, span)
                relevance = self._gamma_unit[winners, covered] * (
                    self._tau_unit[winners, covered] == centroids.taus[lo:hi, :k, None]
                )
                numerator[objects] = (relevance.transpose(0, 2, 1) @ weights[:k]).ravel()
        centroid_explains_obj = _bounded_ratio(numerator, self._ideal_unit[unit])
        obj_explains_centroid = _bounded_ratio(numerator_back, ideal_centroid[pair])

        # combine_ndcg convention: first argument is NDCG(P_i, E*(P_j))
        # with P_i the centroid (Eq. 8).
        distance = self._combine(obj_explains_centroid, centroid_explains_obj)
        costs = np.empty(n_pairs)
        for lo, hi in zip(bounds, bounds[1:]):
            n, span = hi - lo, int(spans[lo])
            begin = int(first[lo])
            costs[lo:hi] = distance[begin : begin + n * span].reshape(n, span).sum(axis=1)
        return costs

    # ------------------------------------------------------------------
    # All-pair variants (Eq. 10)
    # ------------------------------------------------------------------
    def _fill_costs_allpair(self) -> None:
        n_units = self._n_units
        # ndcg_pair[x, y] = NDCG(object_x, E*(object_y)) for all unit pairs,
        # gathered at filled ranks only (the padding's candidate 0 may not exist).
        y, r = np.nonzero(self._unit_valid)
        index = self._unit_idx[y, r]
        masked = np.zeros((n_units, self._m, n_units))  # [y, r, x]
        masked[y, r] = self._gamma_unit[index] * (self._tau_unit[index] == self._unit_tau[y, r, None])
        numerator = np.einsum("yrx,r->yx", masked, self._weights)
        ndcg_pair = np.ones((n_units, n_units))
        positive = self._ideal_unit > 0.0
        ndcg_pair[positive, :] = np.minimum(
            numerator.T[positive, :] / self._ideal_unit[positive, None], 1.0
        )
        pair_distance = self._combine(ndcg_pair, ndcg_pair.T)
        np.fill_diagonal(pair_distance, 0.0)

        # 2-D prefix sums make every segment's pair total an O(1) lookup.
        prefix = np.zeros((n_units + 1, n_units + 1))
        prefix[1:, 1:] = np.cumsum(np.cumsum(pair_distance, axis=0), axis=1)
        i, j = self._segment_pairs()
        lo, hi = self._positions[i], self._positions[j]
        block = prefix[hi, hi] - prefix[lo, hi] - prefix[hi, lo] + prefix[lo, lo]
        span = hi - lo
        n_pairs = span * (span - 1) / 2.0
        self._cost[i, j] = span * ((block / 2.0) / n_pairs)

    # ------------------------------------------------------------------
    def _combine(self, forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
        """Vectorized :func:`repro.segmentation.distance.combine_ndcg`."""
        variant = self._variant
        if variant in ("tse", "allpair"):
            return 1.0 - (forward + backward) / 2.0
        if variant == "dist1":
            return 1.0 - forward
        if variant == "dist2":
            return 1.0 - backward
        if variant in ("Stse", "Sallpair"):
            return 1.0 - np.sqrt((forward * forward + backward * backward) / 2.0)
        if variant == "Sdist1":
            return 1.0 - forward * forward
        return 1.0 - backward * backward


def scheme_total_variance(
    costs: SegmentationCosts, boundaries: Sequence[int]
) -> tuple[float, list[float]]:
    """Objective and per-segment variances of a scheme, read off ``costs``.

    ``boundaries`` are reduced cut-grid indices (endpoints included).
    Every cost is measured over full-resolution unit objects whatever the
    grid, so a scheme found on a sketch reads the numbers a full-grid
    build would give it — how the optimization-quality comparison
    (Table 7) evaluates Vanilla and O1+O2 on equal footing.

    Returns ``(total, per_segment_variances)``.
    """
    pairs = zip(boundaries, boundaries[1:])
    return costs.total_cost(boundaries), [costs.variance(i, j) for i, j in pairs]


def _bounded_ratio(numerator: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """``min(numerator / ideal, 1)`` where ``ideal > 0``, else 1: the NDCG
    of a flat target (ideal DCG 0) is 1, as in
    :func:`repro.segmentation.distance.ndcg`."""
    ratio = np.ones_like(numerator)
    np.divide(numerator, ideal, out=ratio, where=ideal > 0.0)
    return np.minimum(ratio, 1.0, out=ratio)


def _attach_taus(batch: TopMBatch, gather) -> TopMBatch:
    """Attach each selection's change effect on its own segment,
    ``gather(rows, indices)``, at the filled ranks only (the padding's
    candidate 0 may not exist)."""
    rows, ranks = np.nonzero(batch.valid)
    batch.taus = np.zeros(batch.indices.shape, dtype=np.int8)
    batch.taus[rows, ranks] = gather(rows, batch.indices[rows, ranks])
    return batch


def _cut_grid(
    cut_positions: Sequence[int] | np.ndarray | None, n_times: int
) -> np.ndarray:
    """The validated cut grid over ``n_times`` points (default: every point)."""
    if cut_positions is None:
        return np.arange(n_times, dtype=np.intp)
    grid = np.asarray(cut_positions, dtype=np.intp)
    if grid.ndim != 1 or grid.shape[0] < 2:
        raise SegmentationError("cut_positions must be a 1-D array of >= 2 points")
    if np.any(np.diff(grid) <= 0):
        raise SegmentationError("cut_positions must be strictly increasing")
    if grid[0] < 0 or grid[-1] >= n_times:
        raise SegmentationError(
            f"cut_positions out of range for a series of length {n_times}"
        )
    return grid
