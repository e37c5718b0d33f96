"""Latency measurement helpers for the efficiency experiments (§7.5)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.base import Segmenter, attach_explanations
from repro.core.config import ExplainConfig
from repro.core.pipeline import make_solver
from repro.core.session import ExplainSession
from repro.datasets.base import Dataset
from repro.obs.trace import span


@dataclass(frozen=True)
class LatencyReport:
    """Module-level latencies (seconds) of one configuration run."""

    label: str
    precomputation: float
    cascading: float
    segmentation: float
    total: float
    total_variance: float
    k: int

    def row(self) -> str:
        """Fixed-width report row for benchmark output."""
        return (
            f"{self.label:<14s} pre={self.precomputation:7.3f}s "
            f"ca={self.cascading:7.3f}s seg={self.segmentation:7.3f}s "
            f"total={self.total:7.3f}s  K={self.k} var={self.total_variance:.4f}"
        )


def time_tsexplain(
    dataset: Dataset, config: ExplainConfig, label: str
) -> LatencyReport:
    """Run TSExplain once and capture its per-module latency breakdown.

    A fresh session per call keeps the measurement cold: the cube build is
    charged to this run's ``precomputation``, exactly as the paper's
    Figure 15 protocol requires.
    """
    session = ExplainSession(
        dataset.relation,
        dataset.measure,
        dataset.explain_by,
        aggregate=dataset.aggregate,
        config=config,
    )
    result = session.explain()
    timings: Mapping[str, float] = result.timings
    return LatencyReport(
        label=label,
        precomputation=timings["precomputation"],
        cascading=timings["cascading"],
        segmentation=timings["segmentation"],
        total=timings["total"],
        total_variance=result.total_variance,
        k=result.k,
    )


@dataclass(frozen=True)
class BaselineLatency:
    """End-to-end latency of a baseline + explanation module (Figure 16)."""

    label: str
    segmentation: float
    explanation: float

    @property
    def total(self) -> float:
        return self.segmentation + self.explanation

    def row(self) -> str:
        return (
            f"{self.label:<14s} seg={self.segmentation:7.3f}s "
            f"expl={self.explanation:7.3f}s total={self.total:7.3f}s"
        )


def time_baseline(
    dataset: Dataset, segmenter: Segmenter, k: int, config: ExplainConfig | None = None
) -> BaselineLatency:
    """Time a baseline segmentation plus the CA explanation step.

    Each phase is one span; its duration is the reported latency.
    """
    config = config or ExplainConfig()
    session = ExplainSession(
        dataset.relation,
        dataset.measure,
        dataset.explain_by,
        aggregate=dataset.aggregate,
        config=config,
    )
    scorer = session.scorer()
    series = scorer.cube.overall_series()

    with span("baseline-segment") as segmentation:
        boundaries = segmenter.segment(series.values, k)
    solver = make_solver(scorer, config)
    with span("baseline-explain") as explanation:
        attach_explanations(scorer, solver, boundaries)
    return BaselineLatency(
        label=segmenter.name,
        segmentation=segmentation.duration,
        explanation=explanation.duration,
    )
