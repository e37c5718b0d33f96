"""Sketching optimization (paper section 5.3.2, ``O2``).

Phase I selects a *sketch* — a small set of promising cutting positions —
by running the normal pipeline under the constraint that every segment
spans at most ``L`` original time steps, asking for ``|S|`` segments; the
resulting boundaries are the sketch points.  Phase II (driven by the
caller) is :meth:`~repro.segmentation.variance.SegmentationCosts.extend`
of phase I's costs onto the sketch: the quadratic/cubic terms shrink from
``n`` to ``|S|``, while every unit object and every phase-I segment cost
between two sketch points is reused rather than recomputed.

Paper defaults: ``L = min(0.05 * n, 20)`` and ``|S| = 3n / L``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.diff.scorer import SegmentScorer
from repro.exceptions import SegmentationError
from repro.segmentation.dp import solve_k_segmentation
from repro.segmentation.variance import SegmentationCosts, TopMSolver


def default_sketch_parameters(n_points: int) -> tuple[int, int]:
    """Paper defaults ``(L, |S|)`` for a series of ``n_points`` points.

    The size is clamped so that the phase-I DP stays feasible:
    ``|S| <= n - 1`` segments must exist, and ``|S| * L`` must cover the
    series.
    """
    if n_points < 3:
        raise SegmentationError("sketching needs at least three points")
    length_cap = max(2, min(int(math.ceil(0.05 * n_points)), 20))
    size = int(math.ceil(3 * n_points / length_cap))
    size = min(size, n_points - 1)
    size = max(size, int(math.ceil((n_points - 1) / length_cap)))
    return length_cap, size


def select_sketch(
    scorer: SegmentScorer,
    solver: TopMSolver,
    m: int = 3,
    variant: str = "tse",
    length_cap: int | None = None,
    size: int | None = None,
) -> tuple[np.ndarray, SegmentationCosts]:
    """Phase I: the sketch positions and the costs they were chosen on.

    Runs K-segmentation with ``K = |S|`` under the max-segment-length
    constraint ``L``.  Returns ``(positions, costs)``: the scheme's
    boundaries as original time positions (sorted, both series endpoints
    included), and the phase-I :class:`SegmentationCosts` that phase II
    regrids onto them.
    """
    n_points = scorer.cube.n_times
    default_length, default_size = default_sketch_parameters(n_points)
    if length_cap is None:
        length_cap = default_length
    if size is None:
        size = default_size
    if size * length_cap < n_points - 1:
        raise SegmentationError(
            f"sketch of {size} segments with length cap {length_cap} cannot "
            f"cover {n_points} points"
        )
    costs = SegmentationCosts(
        scorer,
        solver,
        m=m,
        variant=variant,
        max_length=length_cap,
    )
    schemes = solve_k_segmentation(costs.cost_matrix, k_max=size)
    feasible = [scheme for scheme in schemes if scheme.k == min(size, n_points - 1)]
    if not feasible:
        # The largest feasible K under the constraint still yields a sketch.
        feasible = [schemes[-1]]
    boundaries = np.asarray(feasible[0].boundaries, dtype=np.intp)
    return costs.positions[boundaries], costs
