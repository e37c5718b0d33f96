"""Dynamic program for optimal K-segmentation (paper section 5.1, Eq. 11).

``D(j, k) = min over j' of D(j', k-1) + cost(j', j)`` where ``cost`` is the
precomputed ``|P| * var(P)`` matrix.  The DP fills every ``k`` up to the
requested maximum in one pass, which is exactly what the elbow method of
section 6 needs ("collecting D(n, K) with varying K from 1 to 20 does not
add extra cost").  Each ``k`` is one array pass over every end point;
ties go to the smallest ``j'``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SegmentationError


@dataclass(frozen=True)
class SegmentationScheme:
    """One K-segmentation scheme ``P_K`` with its objective value.

    Attributes
    ----------
    boundaries:
        Reduced point indices ``(c_1, ..., c_{K+1})`` including both
        endpoints; there are ``K`` segments between consecutive entries.
    total_cost:
        ``sum_i |P_i| var(P_i)`` of the scheme.
    """

    boundaries: tuple[int, ...]
    total_cost: float

    @property
    def k(self) -> int:
        """Number of segments."""
        return len(self.boundaries) - 1

    @property
    def cuts(self) -> tuple[int, ...]:
        """Interior cutting positions ``(c_2, ..., c_K)``."""
        return self.boundaries[1:-1]

    def segments(self) -> list[tuple[int, int]]:
        """``(start, stop)`` index pairs of each segment."""
        return list(zip(self.boundaries, self.boundaries[1:]))


def solve_k_segmentation(cost: np.ndarray, k_max: int) -> list[SegmentationScheme]:
    """Optimal schemes for every ``K`` in ``1..k_max``.

    Parameters
    ----------
    cost:
        ``(N, N)`` cost matrix over reduced points; ``cost[i, j]`` is the
        weighted variance of segment ``[i, j]`` and ``inf`` marks
        disallowed segments (e.g. exceeding the sketch length constraint).
        Only the strict upper triangle is read.
    k_max:
        Largest segment count of interest (paper caps at 20).

    Returns
    -------
    list of :class:`SegmentationScheme`
        Entry ``r`` is the optimal scheme with ``K = r + 1`` segments.
        Infeasible ``K`` (larger than ``N - 1``) are omitted.

    Each ``K`` fills its column of the table in one array pass: row ``j``
    of a scratch matrix holds ``D(j', K-1) + cost(j', j)`` for every
    ``j' < j`` (every other entry ``inf``), and its ``argmin`` is the
    first minimum, the ``j'`` a loop over ascending ``j'`` would keep on a
    tie.  An end point is recorded only where its minimum is finite.
    """
    n_points = cost.shape[0]
    if cost.ndim != 2 or cost.shape[1] != n_points:
        raise SegmentationError(f"cost matrix must be square, got {cost.shape}")
    if n_points < 2:
        raise SegmentationError("need at least two points to segment")
    if k_max < 1:
        raise SegmentationError(f"k_max must be >= 1, got {k_max}")
    k_max = min(k_max, n_points - 1)

    # table[j, k] = minimal cost covering [0, j] with k segments.
    table = np.full((n_points, k_max + 1), np.inf)
    parent = np.full((n_points, k_max + 1), -1, dtype=np.intp)
    table[0, 0] = 0.0
    # sums[j, j'] = D(j', k-1) + cost(j', j) for j' < j, else inf: one
    # buffer for every k, written below its diagonal only.
    sums = np.full((n_points, n_points), np.inf)
    ends = np.arange(n_points)
    before = ends[None, :] < ends[:, None]
    for k in range(1, k_max + 1):
        np.add(cost.T, table[:, k - 1], out=sums, where=before)
        # A segment ending at j needs k - 1 segments over [0, j'] first.
        sums[:, : k - 1] = np.inf
        best = np.argmin(sums[k:], axis=1)
        value = sums[ends[k:], best]
        found = np.isfinite(value)
        table[k:, k][found] = value[found]
        parent[k:, k][found] = best[found]

    schemes: list[SegmentationScheme] = []
    for k in range(1, k_max + 1):
        if not np.isfinite(table[n_points - 1, k]):
            continue
        boundaries = [n_points - 1]
        j, level = n_points - 1, k
        while level > 0:
            j = int(parent[j, level])
            boundaries.append(j)
            level -= 1
        boundaries.reverse()
        schemes.append(
            SegmentationScheme(
                boundaries=tuple(boundaries),
                total_cost=float(table[n_points - 1, k]),
            )
        )
    if not schemes:
        raise SegmentationError(
            "no feasible segmentation; the length constraint is too tight"
        )
    return schemes
