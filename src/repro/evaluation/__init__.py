"""Evaluation protocols: accuracy metric, ground-truth ranks, latency."""

from repro.evaluation.editdist import cut_displacement, distance_percent
from repro.evaluation.latency import (
    BaselineLatency,
    LatencyReport,
    time_baseline,
    time_tsexplain,
)
from repro.evaluation.rank import (
    DEFAULT_SAMPLES,
    ground_truth_rank,
    relative_metric_ranks,
    variance_design_ranks,
)

__all__ = [
    "BaselineLatency",
    "DEFAULT_SAMPLES",
    "LatencyReport",
    "cut_displacement",
    "distance_percent",
    "ground_truth_rank",
    "relative_metric_ranks",
    "time_baseline",
    "time_tsexplain",
    "variance_design_ranks",
]
