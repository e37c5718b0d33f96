"""Within-segment variance and bulk segment-cost precomputation (Eq. 7).

The K-segmentation DP needs ``cost(a, b) = |P| * var(P)`` for every
candidate segment ``P = [p_a, p_b]``.  :class:`SegmentationCosts`
precomputes that entire matrix:

1. score every *unit object* ``[p_x, p_x+1]`` and every candidate segment
   with the cascading-analysts solver (module b of the pipeline);
2. evaluate the NDCG-based distance between each object and its segment's
   centroid (Eqs. 3–6) — vectorized across the objects of a segment;
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

from repro.ca.cascade import TopMResult
from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.obs import trace
from repro.segmentation.distance import (
    ALLPAIR_VARIANTS,
    VARIANTS,
    dcg_weights,
    pad_results,
)


class TopMSolver(Protocol):
    """Anything that maps a gamma matrix to per-segment top-m results."""

    def solve_batch(self, gammas: np.ndarray) -> list[TopMResult]:  # pragma: no cover
        ...


class SegmentationCosts:
    """Precomputed ``|P| * var(P)`` for all candidate segments.

    Parameters
    ----------
    scorer:
        Difference scorer over the query's explanation cube.
    solver:
        Top-m solver (:class:`~repro.ca.cascade.CascadingAnalysts` or
        :class:`~repro.ca.guess_verify.GuessAndVerify`).
    m:
        Explanation quota per segment (paper default 3).
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
        m: int = 3,
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
        self._m = m
        self._variant = variant
        self._positions = cut_positions
        self._max_length = max_length
        self._n_points = cut_positions.shape[0]
        self._n_units = n_times - 1
        self._weights = dcg_weights(m)
        with trace.span("unit-solve"):
            self._prepare_units()
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
        return self._unit_results[index]

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
        least as long as this instance's; ``first_changed_position`` is
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
          result cache (translated through original time positions, so
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
        with trace.span("unit-solve"):
            grown._prepare_units(self, keep_units)
        grown._fill_costs(self, first_changed_position)
        return grown

    def _carry_costs(
        self, grown: "SegmentationCosts", first_changed_position: int
    ) -> set[tuple[int, int]]:
        """Copy still-valid segment costs into ``grown``'s matrix.

        A segment is carried when its right endpoint lies strictly before
        the changed region; returns the carried reduced pairs so the fill
        skips them.  Translation goes through *original* positions, so the
        old and new cut grids may differ.
        """
        new_index_of = {int(p): i for i, p in enumerate(grown._positions)}
        carried: set[tuple[int, int]] = set()
        old_positions = self._positions
        finite_i, finite_j = np.nonzero(np.isfinite(self._cost))
        for i, j in zip(finite_i.tolist(), finite_j.tolist()):
            if j <= i:
                continue
            orig_i = int(old_positions[i])
            orig_j = int(old_positions[j])
            if orig_j >= first_changed_position:
                continue
            new_i = new_index_of.get(orig_i)
            new_j = new_index_of.get(orig_j)
            if new_i is None or new_j is None:
                continue
            grown._cost[new_i, new_j] = self._cost[i, j]
            carried.add((new_i, new_j))
            result = self._results.get((i, j))
            if result is not None:
                grown._results[(new_i, new_j)] = result
        return carried

    def segment_result(self, start: int, stop: int) -> TopMResult:
        """Top-m result of a reduced segment (lazily computed if needed)."""
        key = (int(start), int(stop))
        result = self._results.get(key)
        if result is None:
            result = self._solve_segments(
                np.asarray([self._positions[key[0]]]),
                np.asarray([self._positions[key[1]]]),
            )[0]
            self._results[key] = result
        return result

    # ------------------------------------------------------------------
    # Unit objects (always full resolution) and the cost matrix
    # ------------------------------------------------------------------
    def _prepare_units(
        self, previous: "SegmentationCosts | None" = None, keep_units: int = 0
    ) -> None:
        """Unit structures: the first ``keep_units`` are ``previous``'s,
        the rest are scored and solved here."""
        starts = np.arange(keep_units, self._n_units, dtype=np.intp)
        stops = starts + 1
        n_explanations = self._scorer.cube.n_explanations
        gamma = np.empty((n_explanations, 0))
        tau = np.empty((n_explanations, 0), dtype=np.int8)
        results: list[TopMResult] = []
        if starts.size:
            gamma, tau = self._scorer.gamma_tau_many(starts, stops)
            results = [
                result.with_context(
                    taus=tuple(int(tau[index, x]) for index in result.indices),
                    source_segment=(int(starts[x]), int(stops[x])),
                )
                for x, result in enumerate(self._solve(gamma.T))
            ]
        if previous is not None:
            gamma = np.concatenate([previous._gamma_unit[:, :keep_units], gamma], axis=1)
            tau = np.concatenate([previous._tau_unit[:, :keep_units], tau], axis=1)
            results = previous._unit_results[:keep_units] + results
        self._gamma_unit, self._tau_unit, self._unit_results = gamma, tau, results
        self._unit_idx, self._unit_gamma, self._unit_tau, self._unit_valid = pad_results(
            results, self._m
        )
        self._ideal_unit = self._unit_gamma @ self._weights

    def _fill_costs(
        self, previous: "SegmentationCosts | None" = None, first_changed_position: int = 0
    ) -> None:
        """The cost matrix, with ``previous``'s still-valid costs carried
        over (centroid variants; :meth:`_carry_costs`)."""
        self._results: dict[tuple[int, int], TopMResult] = {}
        self._cost = np.full((self._n_points, self._n_points), np.inf, dtype=np.float64)
        np.fill_diagonal(self._cost, 0.0)
        if self._variant in ALLPAIR_VARIANTS:
            self._fill_costs_allpair()
        elif previous is None:
            self._fill_costs_centroid()
        else:
            carried = previous._carry_costs(self, first_changed_position)
            self._fill_costs_centroid(skip=carried)

    # ------------------------------------------------------------------
    # Segment solving helpers
    # ------------------------------------------------------------------
    def _solve(self, gammas: np.ndarray) -> list[TopMResult]:
        """One cascading-analysts batch: a ``ca-solve`` span."""
        with trace.span("ca-solve"):
            return self._solver.solve_batch(gammas)

    def _segment_pairs(self) -> list[tuple[int, int]]:
        """Reduced ``(i, j)`` pairs needing a cost, honouring constraints.

        Pairs spanning exactly one unit object are excluded — their cost is
        0 by definition and their result is the unit's.
        """
        pairs: list[tuple[int, int]] = []
        for i in range(self._n_points - 1):
            for j in range(i + 1, self._n_points):
                span = self._positions[j] - self._positions[i]
                if self._max_length is not None and span > self._max_length:
                    break
                if span > 1:
                    pairs.append((i, j))
        return pairs

    def _solve_segments(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> list[TopMResult]:
        """Solve top-m for segments given by original-position arrays."""
        gammas = self._scorer.gamma_many(starts, stops)
        results = self._solve(gammas.T)
        annotated = []
        for column, result in enumerate(results):
            # Effects are only reported for each segment's m winners, so
            # fetch those instead of materializing the full tau matrix.
            winner_taus = self._scorer.tau(
                int(starts[column]),
                int(stops[column]),
                np.asarray(result.indices, dtype=np.intp),
            )
            result_taus = tuple(int(tau) for tau in winner_taus)
            annotated.append(
                result.with_context(
                    taus=result_taus,
                    source_segment=(int(starts[column]), int(stops[column])),
                )
            )
        return annotated

    # ------------------------------------------------------------------
    # Centroid-structured variants (tse, dist1, dist2, S-variants)
    # ------------------------------------------------------------------
    def _fill_costs_centroid(self, skip: set[tuple[int, int]] | None = None) -> None:
        pairs = self._segment_pairs()
        if skip:
            pairs = [pair for pair in pairs if pair not in skip]
        # Single-object segments cost 0 by definition: the object is its
        # own centroid.
        for i in np.flatnonzero(np.diff(self._positions) == 1).tolist():
            self._cost[i, i + 1] = 0.0
            self._results[(i, i + 1)] = self._unit_results[int(self._positions[i])]

        epsilon = max(self._scorer.cube.n_explanations, 1)
        chunk = int(np.clip(32_000_000 // (8 * epsilon), 64, 8192))
        for offset in range(0, len(pairs), chunk):
            block = pairs[offset : offset + chunk]
            starts = self._positions[np.asarray([i for i, _ in block], dtype=np.intp)]
            stops = self._positions[np.asarray([j for _, j in block], dtype=np.intp)]
            results = self._solve_segments(starts, stops)
            for (i, j), result in zip(block, results):
                self._results[(i, j)] = result
                self._cost[i, j] = self._centroid_cost(i, j, result)

    def _centroid_cost(self, i: int, j: int, centroid: TopMResult) -> float:
        """``sum_x dist(object_x, centroid)`` over the covered unit objects."""
        weights = self._weights
        start_pos = int(self._positions[i])
        stop_pos = int(self._positions[j])
        span = slice(start_pos, stop_pos)
        n_objects = stop_pos - start_pos

        # --- NDCG(object_x, E*(centroid)) per object ----------------------
        if centroid.indices:
            c_idx = np.asarray(centroid.indices, dtype=np.intp)
            c_tau = np.asarray(centroid.taus, dtype=np.int8)
            rel = self._gamma_unit[c_idx][:, span]  # (m_c, L)
            agree = self._tau_unit[c_idx][:, span] == c_tau[:, None]
            numerator = (rel * agree).T @ weights[: c_idx.shape[0]]  # (L,)
        else:
            numerator = np.zeros(n_objects)
        ideal = self._ideal_unit[span]
        centroid_explains_obj = np.ones(n_objects)
        positive = ideal > 0.0
        centroid_explains_obj[positive] = np.minimum(
            numerator[positive] / ideal[positive], 1.0
        )

        # --- NDCG(centroid, E*(object_x)) per object ----------------------
        ideal_centroid = (
            float(np.dot(centroid.gammas, weights[: len(centroid.gammas)]))
            if centroid.gammas
            else 0.0
        )
        if ideal_centroid > 0.0:
            cube = self._scorer.cube
            overall_change = (
                cube.overall_values[stop_pos] - cube.overall_values[start_pos]
            )
            obj_idx = self._unit_idx[span]  # (L, m)
            excluded = cube.excluded_values
            delta = overall_change - (
                excluded[obj_idx, stop_pos] - excluded[obj_idx, start_pos]
            )
            rel = self._scorer.metric.score(delta, overall_change)
            agree = np.sign(delta).astype(np.int8) == self._unit_tau[span]
            masked = rel * agree * self._unit_valid[span]
            numerator_back = masked @ weights
            obj_explains_centroid = np.minimum(numerator_back / ideal_centroid, 1.0)
        else:
            obj_explains_centroid = np.ones(n_objects)

        # combine_ndcg convention: first argument is NDCG(P_i, E*(P_j))
        # with P_i the centroid (Eq. 8).
        return float(
            np.sum(self._combine(obj_explains_centroid, centroid_explains_obj))
        )

    # ------------------------------------------------------------------
    # All-pair variants (Eq. 10)
    # ------------------------------------------------------------------
    def _fill_costs_allpair(self) -> None:
        n_units = self._n_units
        # ndcg_pair[x, y] = NDCG(object_x, E*(object_y)) for all unit pairs.
        rel = self._gamma_unit[self._unit_idx]  # (n_units, m, n_units): [y, r, x]
        agree = self._tau_unit[self._unit_idx] == self._unit_tau[:, :, None]
        masked = rel * agree * self._unit_valid[:, :, None]
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
        for i in range(self._n_points - 1):
            for j in range(i + 1, self._n_points):
                lo = int(self._positions[i])
                hi = int(self._positions[j])
                span = hi - lo
                if self._max_length is not None and span > self._max_length:
                    break
                if span == 1:
                    self._cost[i, j] = 0.0
                    continue
                block = prefix[hi, hi] - prefix[lo, hi] - prefix[hi, lo] + prefix[lo, lo]
                n_pairs = span * (span - 1) / 2.0
                variance = (block / 2.0) / n_pairs
                self._cost[i, j] = span * variance

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
