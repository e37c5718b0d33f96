"""Segment scoring: binds a cube to a difference metric.

:class:`SegmentScorer` is the object every downstream module talks to — the
cascading analysts algorithm pulls whole ``gamma``/``tau`` matrices for
batches of segments (:meth:`SegmentScorer.gamma_tau_many`), the NDCG
distance pulls ``gamma``/``tau`` for a handful of explanation indices, and
the two-relation diff example ranks one segment's scores directly.  All
forms are O(1)-per-candidate lookups into the cube; none of them loop over
candidates in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cube.datacube import ExplanationCube
from repro.diff.metrics import DifferenceMetric, change_effect, get_metric
from repro.exceptions import QueryError
from repro.relation.predicates import Conjunction


@dataclass(frozen=True)
class ScoredExplanation:
    """An explanation with its difference score and change effect."""

    explanation: Conjunction
    gamma: float
    tau: int

    @property
    def effect_symbol(self) -> str:
        """``+``/``-``/``0`` rendering of the change effect (paper tables)."""
        return {1: "+", -1: "-", 0: "0"}[self.tau]

    def __repr__(self) -> str:
        return f"{self.explanation!r}({self.effect_symbol}, gamma={self.gamma:g})"


class SegmentScorer:
    """Difference scores of every cube candidate over arbitrary segments.

    Parameters
    ----------
    cube:
        The explanation cube of the query being explained.
    metric:
        Difference metric name or instance (default ``absolute-change``).
    """

    def __init__(self, cube: ExplanationCube, metric: str | DifferenceMetric = "absolute-change"):
        if isinstance(metric, str):
            metric = get_metric(metric)
        self._cube = cube
        self._metric = metric

    @property
    def cube(self) -> ExplanationCube:
        return self._cube

    @property
    def metric(self) -> DifferenceMetric:
        return self._metric

    @property
    def n_explanations(self) -> int:
        return self._cube.n_explanations

    def _check_segment(self, start: int, stop: int) -> None:
        if not 0 <= start < stop < self._cube.n_times:
            raise QueryError(
                f"invalid segment [{start}, {stop}] for series of length "
                f"{self._cube.n_times}"
            )

    def gamma(self, start: int, stop: int, indices: np.ndarray | None = None) -> np.ndarray:
        """``gamma(E)`` for all (or selected) candidates over ``[p_start, p_stop]``."""
        self._check_segment(start, stop)
        contributions = self._cube.signed_contributions(start, stop, indices)
        return self._metric.score(contributions, self._cube.overall_change(start, stop))

    def tau(self, start: int, stop: int, indices: np.ndarray | None = None) -> np.ndarray:
        """``tau(E)`` change effects over ``[p_start, p_stop]``."""
        self._check_segment(start, stop)
        return change_effect(self._cube.signed_contributions(start, stop, indices))

    def tau_at(
        self, starts: np.ndarray, stops: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """``tau`` of candidate ``indices[s]`` over segment ``s`` alone, for
        a batch: the winners' change effects of many segments in one
        gather, without the ``(epsilon, n_segments)`` tau matrix."""
        starts, stops = self._coerce_segments(starts, stops)
        contributions = self._cube.signed_contributions(starts, stops, indices)
        return change_effect(contributions).astype(np.int8)

    def gamma_tau_at(
        self, starts: np.ndarray, stops: np.ndarray, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``gamma`` and ``tau`` of candidate ``indices[s]`` over segment
        ``s`` alone, for a batch: :meth:`tau_at` with the scores, each
        element computed as :meth:`gamma_tau` computes it."""
        starts, stops = self._coerce_segments(starts, stops)
        contributions = self._cube.signed_contributions(starts, stops, indices)
        overall = self._cube.overall_values
        scores = self._metric.score(contributions, overall[stops] - overall[starts])
        return scores, change_effect(contributions).astype(np.int8)

    def gamma_tau(
        self, start: int, stop: int, indices: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both ``gamma`` and ``tau`` in one cube access."""
        self._check_segment(start, stop)
        contributions = self._cube.signed_contributions(start, stop, indices)
        scores = self._metric.score(contributions, self._cube.overall_change(start, stop))
        return scores, change_effect(contributions)

    def _coerce_segments(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        starts = np.asarray(starts)
        stops = np.asarray(stops)
        if starts.shape != stops.shape or starts.ndim != 1:
            raise QueryError(
                f"starts/stops must be 1-D arrays of equal length, got shapes "
                f"{starts.shape} and {stops.shape}"
            )
        for name, positions in (("starts", starts), ("stops", stops)):
            if positions.size and not np.issubdtype(positions.dtype, np.integer):
                raise QueryError(
                    f"segment {name} must be integer positions, got dtype "
                    f"{positions.dtype}"
                )
        starts = starts.astype(np.intp, copy=False)
        stops = stops.astype(np.intp, copy=False)
        bad = np.flatnonzero(
            ~((0 <= starts) & (starts < stops) & (stops < self._cube.n_times))
        )
        if bad.size:
            offender = int(bad[0])
            raise QueryError(
                f"invalid segment [{int(starts[offender])}, "
                f"{int(stops[offender])}] at batch position {offender} for "
                f"series of length {self._cube.n_times}"
            )
        return starts, stops

    def overall_changes(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """``f(R_t) - f(R_c)`` for a batch of segments (one value each)."""
        starts, stops = self._coerce_segments(starts, stops)
        overall = self._cube.overall_values
        return overall[stops] - overall[starts]

    def _score_many(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        starts, stops = self._coerce_segments(starts, stops)
        contributions = self._cube.signed_contributions_many(starts, stops)
        overall = self._cube.overall_values
        overall_change = (overall[stops] - overall[starts])[None, :]
        return contributions, self._metric.score(contributions, overall_change)

    def gamma_many(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """The ``gamma`` matrix alone for a batch of segments.

        Same ``(epsilon, n_segments)`` layout as :meth:`gamma_tau_many`
        but without materializing the tau matrix — the right call when
        change effects are needed only for a few winning candidates per
        segment (fetch those afterwards with :meth:`tau_at`).
        """
        _, scores = self._score_many(starts, stops)
        return scores

    def gamma_tau_many(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``gamma`` and ``tau`` matrices for a batch of segments.

        The bulk form used by the cascading-analysts module and the
        segment-cost precomputation: segment ``s`` spans
        ``[p_{starts[s]}, p_{stops[s]}]`` and both returned arrays have
        shape ``(epsilon, n_segments)``.  ``tau`` is stored as ``int8``
        (unlike the float signs of :meth:`gamma_tau`) because callers keep
        the whole matrix resident.  One cube gather scores every candidate
        over every segment — no per-candidate or per-segment Python loop.
        """
        contributions, scores = self._score_many(starts, stops)
        return scores, change_effect(contributions).astype(np.int8)

    def scored(self, index: int, start: int, stop: int) -> ScoredExplanation:
        """A single candidate's :class:`ScoredExplanation` over a segment."""
        selector = np.asarray([index])
        contributions = self._cube.signed_contributions(start, stop, selector)
        score = self._metric.score(contributions, self._cube.overall_change(start, stop))
        return ScoredExplanation(
            explanation=self._cube.explanations[index],
            gamma=float(score[0]),
            tau=int(np.sign(contributions[0])),
        )

    def rank_segment(self, start: int, stop: int, top: int | None = None) -> list[ScoredExplanation]:
        """Candidates ranked by ``gamma`` descending (possibly overlapping).

        This is the "top-m explanations" *without* the non-overlap
        constraint — Definition 3.5's motivation notes that such a list can
        double-count records; use :mod:`repro.ca` for the non-overlapping
        version.  Ties break deterministically by candidate position.
        """
        scores, effects = self.gamma_tau(start, stop)
        order = np.argsort(-scores, kind="stable")
        if top is not None:
            order = order[:top]
        return [
            ScoredExplanation(
                explanation=self._cube.explanations[i],
                gamma=float(scores[i]),
                tau=int(effects[i]),
            )
            for i in order
        ]
