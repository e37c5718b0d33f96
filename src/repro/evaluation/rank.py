"""The ground-truth-rank protocol for comparing variance designs (§4.2.2).

For a dataset with known ground-truth segmentation and a candidate
variance metric: sample many random K-segmentation schemes, score each
with the metric's objective ``sum |P_i| var(P_i)``, and report the rank of
the ground truth among the samples (rank 1 = no sample scores lower).  A
good metric puts the ground truth at or near rank 1 even under noise.

The eight metrics are then ranked *against each other* per dataset by
their ground-truth rank (1 = best), and Figure 6 plots the average of
those ranks per SNR level.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.datasets.synthetic import SyntheticDataset
from repro.diff.scorer import SegmentScorer
from repro.segmentation.bruteforce import random_schemes
from repro.segmentation.variance import SegmentationCosts

#: Paper sample size for the P_K space.
DEFAULT_SAMPLES = 10_000


def ground_truth_rank(
    costs: SegmentationCosts,
    truth_boundaries: Sequence[int],
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> int:
    """Rank of the ground truth among sampled same-K schemes (1 = best)."""
    truth_boundaries = tuple(int(b) for b in truth_boundaries)
    k = len(truth_boundaries) - 1
    rng = np.random.default_rng(seed)
    samples = random_schemes(costs.n_points, k, n_samples, rng)
    truth_cost = costs.total_cost(truth_boundaries)
    better = sum(
        1 for scheme in samples if costs.total_cost(scheme) < truth_cost - 1e-12
    )
    return better + 1


def variance_design_ranks(
    dataset: SyntheticDataset,
    variants: Sequence[str],
    n_samples: int = DEFAULT_SAMPLES,
    m: int = 3,
    seed: int = 0,
) -> dict[str, int]:
    """Ground-truth rank of each variance design on one synthetic dataset.

    All designs share the same CA solver and scorer; only the cost matrix
    changes.
    """
    from repro.cube.datacube import ExplanationCube

    data = dataset.dataset
    cube = ExplanationCube(
        data.relation, data.explain_by, data.measure, aggregate=data.aggregate
    )
    scorer = SegmentScorer(cube)
    solver = CascadingAnalysts(DrillDownTree(cube.explanations), m=m)
    ranks: dict[str, int] = {}
    for variant in variants:
        costs = SegmentationCosts(scorer, solver, m=m, variant=variant)
        ranks[variant] = ground_truth_rank(
            costs, dataset.boundaries, n_samples=n_samples, seed=seed
        )
    return ranks


def relative_metric_ranks(ranks: dict[str, int]) -> dict[str, float]:
    """Rank the metrics against each other (1 = best), averaging ties.

    This is the "rank across all the eight metrics from rank 1 to rank 8
    ascendingly based on their own ground truth rank" step of the paper.
    """
    items = sorted(ranks.items(), key=lambda item: item[1])
    out: dict[str, float] = {}
    position = 0
    while position < len(items):
        tie_end = position
        while (
            tie_end + 1 < len(items)
            and items[tie_end + 1][1] == items[position][1]
        ):
            tie_end += 1
        average_rank = (position + tie_end) / 2.0 + 1.0
        for index in range(position, tie_end + 1):
            out[items[index][0]] = average_rank
        position = tie_end + 1
    return out
