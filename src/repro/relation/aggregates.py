"""Decomposable aggregate functions with subtractable state.

The precomputation module of TSExplain (paper section 5.2) relies on the
aggregate ``f`` being *decomposable*: the aggregate of ``R - sigma_E R`` is
derived from the states of ``R`` and ``sigma_E R`` instead of rescanning
rows.  ``SUM``, ``COUNT``, ``AVG`` and ``VAR`` support full subtraction;
``MIN``/``MAX`` are not subtractable and raise
:class:`~repro.exceptions.AggregateError` when the cube needs exclusion.

State layout
------------
Every aggregate represents its state as a float64 array whose first axis has
:attr:`AggregateFunction.n_components` entries, so a *vector* of states over
``n_groups`` group buckets is a ``(n_components, n_groups)`` array.  All
subtractable aggregates here have purely additive states (count, sum, sum of
squares), which is what makes group accumulation a single ``np.add.at``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import AggregateError


class AggregateFunction(abc.ABC):
    """A named aggregate ``f(M, R)`` with decomposable state."""

    #: registry key, e.g. ``"sum"``
    name: str = ""
    #: number of rows in the state array
    n_components: int = 1
    #: whether ``subtract`` is supported (needed by the explanation cube)
    subtractable: bool = True

    def empty_state(self, n_groups: int = 1) -> np.ndarray:
        """State of an empty input for ``n_groups`` buckets."""
        return np.zeros((self.n_components, n_groups), dtype=np.float64)

    @abc.abstractmethod
    def accumulate(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        """Partition ``values`` by ``group_ids`` and return per-group states.

        ``group_ids`` must be integer bucket ids in ``[0, n_groups)``; the
        result has shape ``(n_components, n_groups)``.
        """

    def scatter_into(
        self,
        state: np.ndarray,
        values: np.ndarray,
        index: np.ndarray | tuple[np.ndarray, ...],
    ) -> None:
        """Scatter per-row contributions into an *existing* state, in place.

        ``state`` has shape ``(n_components, ...buckets)`` and ``index``
        addresses the bucket axes (a bare array, or a tuple of index arrays
        for multi-axis buckets).  Rows are applied strictly in order with
        unbuffered ``np.add.at``-style updates — exactly the sequence
        :meth:`accumulate` would produce for the same rows — which is what
        lets :meth:`repro.cube.datacube.ExplanationCube.append` stay
        bit-identical to a one-shot build over the concatenated relation.
        """
        raise AggregateError(  # pragma: no cover - all registry aggregates override
            f"aggregate {self.name!r} does not support in-place scatter"
        )

    def subtract(self, total: np.ndarray, part: np.ndarray) -> np.ndarray:
        """State of ``R - sigma_E R`` from the states of ``R`` and ``sigma_E R``."""
        if not self.subtractable:
            raise AggregateError(
                f"aggregate {self.name!r} is not subtractable; the explanation "
                "cube requires SUM/COUNT/AVG/VAR-style decomposable aggregates"
            )
        return total - part

    @abc.abstractmethod
    def finalize(self, state: np.ndarray) -> np.ndarray:
        """Aggregate values (shape ``(n_groups,)``) from a state array."""

    def compute(self, values: np.ndarray) -> float:
        """Convenience: aggregate a flat value array in one call."""
        values = np.asarray(values, dtype=np.float64)
        group_ids = np.zeros(values.shape[0], dtype=np.intp)
        state = self.accumulate(values, group_ids, 1)
        return float(self.finalize(state)[0])

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


class _AdditiveAggregate(AggregateFunction):
    """Base for aggregates whose state rows are plain per-group sums."""

    def _components(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-row contributions to each state component."""
        raise NotImplementedError

    def accumulate(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        state = self.empty_state(n_groups)
        self.scatter_into(state, values, np.asarray(group_ids, dtype=np.intp))
        return state

    def scatter_into(
        self,
        state: np.ndarray,
        values: np.ndarray,
        index: np.ndarray | tuple[np.ndarray, ...],
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        for row, contribution in enumerate(self._components(values)):
            np.add.at(state[row], index, contribution)


class Sum(_AdditiveAggregate):
    """``SUM(M)``; state = (sum,)."""

    name = "sum"
    n_components = 1

    def _components(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        return (values,)

    def finalize(self, state: np.ndarray) -> np.ndarray:
        return state[0].copy()


class Count(_AdditiveAggregate):
    """``COUNT(M)``; state = (count,).  Values are ignored."""

    name = "count"
    n_components = 1

    def _components(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        return (np.ones_like(values),)

    def finalize(self, state: np.ndarray) -> np.ndarray:
        return state[0].copy()


class Avg(_AdditiveAggregate):
    """``AVG(M)``; state = (count, sum).  Empty groups finalize to 0."""

    name = "avg"
    n_components = 2

    def _components(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        return (np.ones_like(values), values)

    def finalize(self, state: np.ndarray) -> np.ndarray:
        count, total = state[0], state[1]
        out = np.zeros_like(total)
        np.divide(total, count, out=out, where=count > 0)
        return out


class Var(_AdditiveAggregate):
    """Population variance of ``M``; state = (count, sum, sum of squares)."""

    name = "var"
    n_components = 3

    def _components(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        return (np.ones_like(values), values, values * values)

    def finalize(self, state: np.ndarray) -> np.ndarray:
        count, total, total_sq = state[0], state[1], state[2]
        out = np.zeros_like(total)
        mask = count > 0
        mean = np.zeros_like(total)
        np.divide(total, count, out=mean, where=mask)
        np.divide(total_sq, count, out=out, where=mask)
        out -= mean * mean
        # Numerical noise can push a zero variance slightly negative.
        np.maximum(out, 0.0, out=out)
        out[~mask] = 0.0
        return out


class _ExtremeAggregate(AggregateFunction):
    """Base for MIN/MAX: not subtractable."""

    subtractable = False
    _ufunc: np.ufunc
    _identity: float

    def empty_state(self, n_groups: int = 1) -> np.ndarray:
        return np.full((1, n_groups), self._identity, dtype=np.float64)

    def accumulate(
        self, values: np.ndarray, group_ids: np.ndarray, n_groups: int
    ) -> np.ndarray:
        state = self.empty_state(n_groups)
        self.scatter_into(state, values, np.asarray(group_ids, dtype=np.intp))
        return state

    def scatter_into(
        self,
        state: np.ndarray,
        values: np.ndarray,
        index: np.ndarray | tuple[np.ndarray, ...],
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        self._ufunc.at(state[0], index, values)

    def finalize(self, state: np.ndarray) -> np.ndarray:
        out = state[0].copy()
        out[~np.isfinite(out)] = 0.0
        return out


class Min(_ExtremeAggregate):
    """``MIN(M)``; empty groups finalize to 0."""

    name = "min"
    _ufunc = np.minimum
    _identity = np.inf


class Max(_ExtremeAggregate):
    """``MAX(M)``; empty groups finalize to 0."""

    name = "max"
    _ufunc = np.maximum
    _identity = -np.inf


_REGISTRY: dict[str, AggregateFunction] = {
    agg.name: agg for agg in (Sum(), Count(), Avg(), Var(), Min(), Max())
}


def get_aggregate(name: str) -> AggregateFunction:
    """Look up an aggregate function by name (``sum``/``count``/``avg``/...)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise AggregateError(
            f"unknown aggregate {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_aggregates() -> tuple[str, ...]:
    """Names of all registered aggregate functions."""
    return tuple(sorted(_REGISTRY))
