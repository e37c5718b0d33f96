"""Guess-and-verify optimization (paper section 5.3.1, ``O1``).

Instead of running the cascading-analysts DP over all ``epsilon``
candidates, guess that the answer lies within the ``m_bar`` highest-scoring
candidates, solve the much smaller DP, and verify optimality with the
sufficient condition of Eq. 12:

    Best[m] >= Best[m'] + sum_{1<=j<=m-m'} gamma(E_{r_{m_bar+j}})   for all 0 <= m' < m

where ``chi = [E_r1, E_r2, ...]`` is the candidate list sorted by gamma
descending.  Any feasible selection splits into explanations ranked within
the guess (score bounded by ``Best[m']``) and ones ranked after ``m_bar``
(bounded by the next ``m - m'`` scores in ``chi``), so passing the condition
proves the guessed answer optimal.  On failure the guess size doubles
(Figure 9) until it covers all candidates.

Batched variant
---------------
TSExplain calls O1 for thousands of segments.  Solving each segment's
30-candidate DP separately forfeits the batch vectorization of
:class:`~repro.ca.cascade.CascadingAnalysts`, so :meth:`solve_batch`
restricts to the *union* of the per-segment top-``m_bar`` prefixes and
solves all segments against that one (still small) DAG in a single batched
DP.  The Eq. 12 check stays sound: the union-restricted ``Best[m']`` upper-
bounds the per-segment restricted one, so passing the (harder) condition
still certifies optimality; failing segments retry with a doubled prefix.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.ca.cascade import CascadingAnalysts, DrillDownTree, TopMBatch, TopMResult
from repro.exceptions import ExplanationError
from repro.relation.predicates import Conjunction

#: Paper's empirical initial guess size when m = 3.
DEFAULT_INITIAL_GUESS = 30

#: When the guessed union covers this fraction of all candidates, fall back
#: to the full solver — the restriction no longer saves anything.
_FULL_FALLBACK_FRACTION = 0.8

#: Restricted drill-down DAGs memoized per solver by candidate subset;
#: neighbouring segment batches usually share their top candidates.
_TREE_CACHE_SIZE = 64


class GuessAndVerify:
    """Top-m solver that restricts the DP to high-score candidate prefixes.

    Parameters
    ----------
    explanations:
        The full candidate list (cube order); gamma vectors passed to
        :meth:`solve` index into it.
    m:
        Explanation quota.
    initial_guess:
        Starting prefix size ``m_bar`` (paper: 30 for m=3).

    A row's total ``best[m]`` is the verified optimum whichever rows share
    its batch.  Among tied optima, its selection and its ``best[m']`` for
    ``m' < m`` may depend on them: the restricted DAG is the union of every
    pending row's prefix, so a row solved alone or in another batch may
    pick another selection of the same total.
    """

    def __init__(
        self,
        explanations: Sequence[Conjunction],
        m: int = 3,
        initial_guess: int = DEFAULT_INITIAL_GUESS,
    ):
        if initial_guess < m:
            raise ExplanationError(
                f"initial guess {initial_guess} must be >= m ({m})"
            )
        self._explanations = tuple(explanations)
        self._m = m
        self._initial_guess = initial_guess
        self._cache: OrderedDict[tuple[int, ...], CascadingAnalysts] = OrderedDict()
        self._full_solver: CascadingAnalysts | None = None
        #: number of guess rounds performed across calls (telemetry/tests)
        self.iterations = 0

    @property
    def m(self) -> int:
        return self._m

    # ------------------------------------------------------------------
    def solve(self, gamma: np.ndarray) -> TopMResult:
        """Verified-optimal top-m result for one gamma vector."""
        return self.solve_batch(np.asarray(gamma, dtype=np.float64)[None, :])[0]

    def solve_batch(self, gammas: np.ndarray) -> TopMBatch:
        """Verified-optimal top-m results for a gamma matrix."""
        gammas = np.asarray(gammas, dtype=np.float64)
        if gammas.ndim != 2 or gammas.shape[1] != len(self._explanations):
            raise ExplanationError(
                f"gamma matrix shape {gammas.shape} does not match "
                f"{len(self._explanations)} candidates"
            )
        m = self._m
        n_segments, n_candidates = gammas.shape
        batch = TopMBatch.zeros(n_segments, m)
        order = np.argsort(-gammas, axis=1, kind="stable")
        pending = np.arange(n_segments)
        guess = min(self._initial_guess, n_candidates)
        while pending.size:
            self.iterations += 1
            if guess < n_candidates:
                union = np.unique(order[pending, :guess])
            else:
                union = np.arange(n_candidates)
            if union.shape[0] >= _FULL_FALLBACK_FRACTION * n_candidates:
                batch.put(pending, self._full().solve_batch(gammas[pending]))
                break
            local = self._restricted_solver(union).solve_batch(gammas[pending][:, union])
            local.indices = np.where(local.valid, union[local.indices], 0)
            # Eq. 12 for every pending row at once: Best[m] must reach
            # Best[m'] plus the next m - m' scores after the guess.
            tail = np.take_along_axis(gammas[pending], order[pending, guess : guess + m], axis=1)
            needed = np.minimum(m - np.arange(m), tail.shape[1])
            tail_sums = np.cumsum(tail, axis=1)[:, needed - 1]
            best_m = local.best[:, m]
            slack = 1e-12 * np.maximum(1.0, np.abs(best_m))
            failed = best_m[:, None] < local.best[:, :m] + tail_sums - slack[:, None]
            verified = ~failed.any(axis=1)
            batch.put(pending[verified], local.take(verified))
            pending = pending[~verified]
            guess = min(2 * guess, n_candidates)
        return batch

    # ------------------------------------------------------------------
    def _full(self) -> CascadingAnalysts:
        """The exact solver over the complete candidate set."""
        if self._full_solver is None:
            self._full_solver = CascadingAnalysts(
                DrillDownTree(self._explanations), self._m
            )
        return self._full_solver

    def _restricted_solver(self, union: np.ndarray) -> CascadingAnalysts:
        key = tuple(int(i) for i in union)
        solver = self._cache.get(key)
        if solver is None:
            tree = DrillDownTree([self._explanations[i] for i in key])
            solver = CascadingAnalysts(tree, self._m)
            self._cache[key] = solver
            if len(self._cache) > _TREE_CACHE_SIZE:
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(key)
        return solver
