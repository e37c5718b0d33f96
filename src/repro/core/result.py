"""Result types returned by the TSExplain engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.core.config import ExplainConfig
from repro.diff.scorer import ScoredExplanation
from repro.relation.timeseries import TimeSeries


@dataclass(frozen=True)
class SegmentExplanation:
    """One segment of the final scheme with its top explanations.

    Attributes
    ----------
    start / stop:
        Positions of the segment endpoints in the explained series.
    start_label / stop_label:
        The corresponding timestamp labels.
    explanations:
        Ranked top-m non-overlapping explanations with scores and change
        effects (the rows of the paper's Tables 3–5).
    variance:
        Within-segment variance ``var(P)`` of this segment.
    """

    start: int
    stop: int
    start_label: Hashable
    stop_label: Hashable
    explanations: tuple[ScoredExplanation, ...]
    variance: float

    @property
    def length(self) -> int:
        """Segment length in objects (``stop - start``)."""
        return self.stop - self.start

    def describe(self) -> str:
        """One-line rendering, e.g. ``3-14 ~ 5-4: state=NY(+), ...``."""
        body = ", ".join(
            f"{scored.explanation!r}({scored.effect_symbol})"
            for scored in self.explanations
        ) or "(no contributing explanation)"
        return f"{self.start_label} ~ {self.stop_label}: {body}"


@dataclass(frozen=True)
class ExplainResult:
    """The full output of one TSExplain query.

    Attributes
    ----------
    series:
        The aggregated (possibly smoothed) time series that was explained.
    segments:
        The K segments with their evolving top explanations.
    k:
        Selected segment count.
    k_was_auto:
        Whether ``k`` came from the elbow method rather than the user.
    k_variance_curve:
        ``{K: total within-segment variance}`` for every K the DP solved —
        the curve the elbow method inspects (left panes of Figures 11–14).
    total_variance:
        Objective value of the chosen scheme (Table 7's quality measure).
    timings:
        Wall-clock seconds per pipeline module: ``precomputation``,
        ``cascading``, ``segmentation``, and ``total`` (Figure 15).  The
        modules are self times from the span tree of the call that
        produced the result (its ``explain`` span; see
        :func:`~repro.core.pipeline.explain_call`) and sum to ``total``,
        the call's wall time.  A cube built before the call, e.g. by a
        registry prepare, is not included.
    epsilon:
        Candidate-explanation count before filtering (Table 6).  For
        windowed session queries this is the *full cube's* candidate
        universe (the OLAP slice semantics — see docs/ARCHITECTURE.md):
        a candidate whose rows all fall outside the window still counts,
        whereas the legacy filter-and-rebuild path would never enumerate
        it.  Top-k explanations are unaffected (zero-contribution
        candidates never win a slot).
    filtered_epsilon:
        Candidate count actually used after the support filter (Table 6);
        for windowed queries the filter runs on the sliced series, so
        per-window insignificance is reflected here.
    config:
        The configuration that produced this result.
    """

    series: TimeSeries
    segments: tuple[SegmentExplanation, ...]
    k: int
    k_was_auto: bool
    k_variance_curve: Mapping[int, float]
    total_variance: float
    timings: Mapping[str, float]
    epsilon: int
    filtered_epsilon: int
    config: ExplainConfig = field(repr=False)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Positions of all segment boundaries, endpoints included."""
        if not self.segments:
            return ()
        return tuple(s.start for s in self.segments) + (self.segments[-1].stop,)

    @property
    def cuts(self) -> tuple[int, ...]:
        """Interior cutting positions (``c_2 .. c_K``)."""
        return self.boundaries[1:-1]

    @property
    def cut_labels(self) -> tuple[Hashable, ...]:
        """Timestamp labels of all boundaries (the x-ticks of Figure 2)."""
        return tuple(self.series.label_at(b) for b in self.boundaries)

    def segment_at(self, position: int) -> SegmentExplanation:
        """The segment containing a series position."""
        for segment in self.segments:
            if segment.start <= position < segment.stop:
                return segment
        if self.segments and position == self.segments[-1].stop:
            return self.segments[-1]
        raise IndexError(f"position {position} outside the explained range")

    def describe(self) -> str:
        """Multi-line human-readable summary of the evolving explanations."""
        lines = [
            f"K = {self.k}{' (auto)' if self.k_was_auto else ''}, "
            f"total variance = {self.total_variance:.4f}",
        ]
        lines.extend(segment.describe() for segment in self.segments)
        return "\n".join(lines)
