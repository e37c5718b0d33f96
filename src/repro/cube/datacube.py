"""The per-explanation time-series data cube (paper section 5.2, module a).

For every candidate explanation ``E`` the cube materializes the aggregated
time series of the *included* slice ``ts(sigma_E R)`` and of the *excluded*
relation ``ts(R - sigma_E R)``.  The build is columnar: measure values and
factorized dimension codes come straight out of the relation's column
store (:class:`repro.relation.table.Relation`), aggregate states
are scattered into dense ``group x time`` buckets with ``np.add.at``, and
included/excluded series are finalized in per-subset batches — no per-row
or per-candidate Python loop touches the data.  With the cube in memory,
the difference score ``gamma(E)`` of any segment ``[p_j', p_j]`` is an
O(1) lookup — exactly the pre-computation the paper assumes an interactive
OLAP tool maintains.

A built cube is a reusable artifact: :mod:`repro.cube.cache` persists it
to disk keyed by the relation fingerprint and query parameters, so
repeated explains reuse the prepare phase instead of rescanning.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.cube.delta import AppendInfo, CubeAppendState, _grow_time
from repro.cube.explanations import CandidateSet, enumerate_candidates
from repro.exceptions import ExplanationError, QueryError
from repro.relation.aggregates import AggregateFunction, get_aggregate
from repro.relation.predicates import Conjunction
from repro.relation.table import Relation
from repro.relation.timeseries import TimeSeries


class ExplanationCube:
    """Aggregated time series for the overall query and every candidate.

    Parameters
    ----------
    relation:
        Source rows.
    explain_by:
        Explain-by attribute names ``A``.
    measure:
        Measure attribute ``M`` aggregated over time.
    aggregate:
        Aggregate function ``f`` (name or instance); must be subtractable
        (SUM/COUNT/AVG/VAR) because the cube derives ``f(M, R - sigma_E R)``
        by state subtraction.
    time_attr:
        Time attribute ``T``; defaults to the schema's time attribute.
    max_order:
        Order threshold ``beta_max`` for candidates (paper default 3).
    deduplicate:
        Drop containment-redundant conjunctions (see
        :mod:`repro.cube.explanations`).
    appendable:
        Retain the pre-finalize aggregate states (the delta-maintenance
        ledger, see :mod:`repro.cube.delta`) so :meth:`append` can absorb
        new rows in O(delta).  Costs roughly one extra copy of the series
        arrays in memory; ``False`` builds a classic fixed cube.
    """

    def __init__(
        self,
        relation: Relation,
        explain_by: Sequence[str],
        measure: str,
        aggregate: str | AggregateFunction = "sum",
        time_attr: str | None = None,
        max_order: int = 3,
        deduplicate: bool = True,
        appendable: bool = True,
    ):
        if isinstance(aggregate, str):
            aggregate = get_aggregate(aggregate)
        relation.schema.require_measure(measure)
        time_positions, labels = relation.time_positions(time_attr)
        values = relation.column(measure).astype(np.float64)
        n_times = len(labels)

        overall_state = aggregate.accumulate(values, time_positions, n_times)
        candidates = enumerate_candidates(
            relation, explain_by, max_order=max_order, deduplicate=deduplicate
        )
        included, excluded, per_subset_states = _materialize_series(
            candidates,
            values,
            time_positions,
            n_times,
            aggregate,
            overall_state,
        )

        self._aggregate = aggregate
        self._measure = measure
        self._explain_by = tuple(sorted(explain_by))
        self._labels: tuple[Hashable, ...] = labels
        self._overall = aggregate.finalize(overall_state)
        self._explanations = candidates.explanations
        self._supports = candidates.supports
        self._included = included
        self._excluded = excluded
        self._index = {conj: i for i, conj in enumerate(self._explanations)}
        self._append_state: CubeAppendState | None = None
        self._overall_buf = self._overall
        self._included_buf = included
        self._excluded_buf = excluded
        if appendable:
            self._append_state = CubeAppendState.from_build(
                relation,
                candidates,
                aggregate,
                measure,
                self._explain_by,
                time_attr or relation.schema.require_time(),
                max_order,
                deduplicate,
                labels,
                overall_state,
                per_subset_states,
            )

    # ------------------------------------------------------------------
    # Array-level constructor used by restrict(), smoothing and the
    # rollup cache
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        aggregate: AggregateFunction,
        measure: str,
        explain_by: tuple[str, ...],
        labels: tuple[Hashable, ...],
        overall: np.ndarray,
        explanations: tuple[Conjunction, ...],
        supports: np.ndarray,
        included: np.ndarray,
        excluded: np.ndarray,
    ) -> "ExplanationCube":
        """Assemble a cube directly from prebuilt series arrays.

        This bypasses the relation scan entirely; it is how
        :meth:`restrict`, :func:`repro.core.smoothing.smooth_cube` and the
        rollup cache (:mod:`repro.cube.cache`) construct cubes.  The arrays
        are adopted without copying, so callers must not mutate them.
        """
        cube = cls.__new__(cls)
        cube._aggregate = aggregate
        cube._measure = measure
        cube._explain_by = explain_by
        cube._labels = labels
        cube._overall = overall
        cube._explanations = explanations
        cube._supports = supports
        cube._included = included
        cube._excluded = excluded
        cube._index = {conj: i for i, conj in enumerate(explanations)}
        cube._append_state = None
        cube._overall_buf = overall
        cube._included_buf = included
        cube._excluded_buf = excluded
        return cube

    @classmethod
    def from_append_state(cls, state: CubeAppendState) -> "ExplanationCube":
        """Assemble a (re-)finalized appendable cube from a delta ledger.

        Used by the rollup cache to revive appendable cubes from disk and
        by :func:`merge_cubes`; the candidate layout, supports and all
        series arrays are derived from the ledger's states, exactly as a
        fresh build over the equivalent relation would produce them.
        """
        cube = cls.__new__(cls)
        cube._aggregate = state.aggregate
        cube._measure = state.measure
        cube._explain_by = state.explain_by
        cube._append_state = state
        cube._refinalize_full()
        return cube

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_explanations(self) -> int:
        """Candidate count ``epsilon``."""
        return len(self._explanations)

    @property
    def aggregate(self) -> AggregateFunction:
        """The decomposable aggregate ``f`` the cube was built with."""
        return self._aggregate

    @property
    def measure(self) -> str:
        """The measure attribute ``M`` being aggregated."""
        return self._measure

    @property
    def n_times(self) -> int:
        """Time series length ``n``."""
        return len(self._labels)

    @property
    def explanations(self) -> tuple[Conjunction, ...]:
        return self._explanations

    @property
    def explain_by(self) -> tuple[str, ...]:
        return self._explain_by

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return self._labels

    @property
    def supports(self) -> np.ndarray:
        """Row counts per candidate."""
        return self._supports

    @property
    def overall_values(self) -> np.ndarray:
        """Aggregated values of the overall query, indexed by time position."""
        return self._overall

    @property
    def included_values(self) -> np.ndarray:
        """``(epsilon, n)`` matrix of ``f(M, sigma_E R)`` per time position."""
        return self._included

    @property
    def excluded_values(self) -> np.ndarray:
        """``(epsilon, n)`` matrix of ``f(M, R - sigma_E R)`` per time position."""
        return self._excluded

    def overall_series(self) -> TimeSeries:
        """The aggregated time series ``ts(R)`` being explained."""
        return TimeSeries(self._overall, self._labels)

    def series(self, index: int) -> TimeSeries:
        """The aggregated time series of candidate ``index``'s slice."""
        return TimeSeries(self._included[index], self._labels)

    def index_of(self, conjunction: Conjunction) -> int:
        """Position of a candidate conjunction in the cube."""
        try:
            return self._index[conjunction]
        except KeyError:
            raise ExplanationError(f"{conjunction!r} is not a cube candidate") from None

    # ------------------------------------------------------------------
    # Difference-score primitives (consumed by repro.diff)
    # ------------------------------------------------------------------
    def overall_change(self, start: int, stop: int) -> float:
        """``f(M, R_t) - f(M, R_c)`` over segment ``[p_start, p_stop]``."""
        return float(self._overall[stop] - self._overall[start])

    def signed_contributions(
        self, start: int, stop: int, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Signed change attributable to each candidate over a segment.

        ``delta(E) = [f(R_t) - f(R_c)] - [f(R_t - sigma_E R_t) - f(R_c -
        sigma_E R_c)]``; ``|delta|`` is the absolute-change score
        (Definition 3.2) and ``sign(delta)`` the change effect ``tau``
        (Definition 3.3).
        """
        overall_change = self._overall[stop] - self._overall[start]
        if indices is None:
            excluded_change = self._excluded[:, stop] - self._excluded[:, start]
        else:
            excluded_change = self._excluded[indices, stop] - self._excluded[indices, start]
        return overall_change - excluded_change

    def signed_contributions_many(
        self, starts: np.ndarray, stops: np.ndarray
    ) -> np.ndarray:
        """``(epsilon, n_segments)`` matrix of signed contributions.

        Row ``e``, column ``s`` holds ``delta(E_e)`` over the segment
        ``[p_{starts[s]}, p_{stops[s]}]`` — the bulk form used by the
        segmentation pipeline, where thousands of segments are scored at
        once.
        """
        starts = np.asarray(starts, dtype=np.intp)
        stops = np.asarray(stops, dtype=np.intp)
        overall_change = self._overall[stops] - self._overall[starts]
        excluded_change = self._excluded[:, stops] - self._excluded[:, starts]
        return overall_change[None, :] - excluded_change

    # ------------------------------------------------------------------
    def slice_time(self, start_pos: int, stop_pos: int) -> "ExplanationCube":
        """The cube restricted to time positions ``[start_pos, stop_pos]``.

        This is the O(window) primitive behind windowed session queries:
        the overall/included/excluded arrays and labels are sliced along
        the time axis (views, no copy), so serving a window never rescans
        the relation or re-enumerates candidates.  The candidate set is
        the *full* cube's — a candidate with no rows inside the window
        keeps its (zero-valued) series — and ``supports`` remain whole
        -relation row counts; the support filter operates on the sliced
        series, so per-window insignificance is still filtered per query.
        Both endpoints are inclusive and the window must span at least two
        points (a single point has no change to explain).
        """
        if not 0 <= start_pos < stop_pos < self.n_times:
            raise QueryError(
                f"invalid time slice [{start_pos}, {stop_pos}] for series of "
                f"length {self.n_times}"
            )
        window = slice(start_pos, stop_pos + 1)
        return ExplanationCube.from_arrays(
            aggregate=self._aggregate,
            measure=self._measure,
            explain_by=self._explain_by,
            labels=self._labels[window],
            overall=self._overall[window],
            explanations=self._explanations,
            supports=self._supports,
            included=self._included[:, window],
            excluded=self._excluded[:, window],
        )

    def detach(self, source: "ExplanationCube") -> "ExplanationCube":
        """A snapshot of this cube sharing no series memory with ``source``.

        Derived cubes (:meth:`slice_time` windows, :meth:`restrict`'s
        ``overall``) hold views into — or aliases of — their source's
        buffers, and an *appendable* source re-finalizes those buffers in
        place on :meth:`append`.  A consumer that may read concurrently
        with appends (the session's scorer LRU) detaches first, so an
        in-flight read can never observe an append's partial writes.
        Mere array ownership is no aliasing test — right after a build the
        source's published arrays *are* its grow-buffers — so aliasing is
        decided with :func:`numpy.shares_memory` against ``source``
        (typically the live cube; ``self`` works and snapshots fully).
        Arrays not sharing memory are adopted without copying; a cube
        sharing nothing returns itself.
        """
        pairs = (
            (self._overall, source._overall),
            (self._supports, source._supports),
            (self._included, source._included),
            (self._excluded, source._excluded),
        )
        if not any(np.shares_memory(mine, theirs) for mine, theirs in pairs):
            return self

        def owned(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
            return mine.copy() if np.shares_memory(mine, theirs) else mine

        return ExplanationCube.from_arrays(
            aggregate=self._aggregate,
            measure=self._measure,
            explain_by=self._explain_by,
            labels=self._labels,
            overall=owned(self._overall, source._overall),
            explanations=self._explanations,
            supports=owned(self._supports, source._supports),
            included=owned(self._included, source._included),
            excluded=owned(self._excluded, source._excluded),
        )

    def restrict(self, keep: np.ndarray) -> "ExplanationCube":
        """A cube containing only the candidates selected by ``keep``.

        ``keep`` may be a boolean mask or an index array.  Used by the
        support filter (section 7.5.1) and by tests.
        """
        keep = np.asarray(keep)
        if keep.dtype == bool:
            keep = np.flatnonzero(keep)
        explanations = tuple(self._explanations[i] for i in keep)
        return ExplanationCube.from_arrays(
            aggregate=self._aggregate,
            measure=self._measure,
            explain_by=self._explain_by,
            labels=self._labels,
            overall=self._overall,
            explanations=explanations,
            supports=self._supports[keep],
            included=self._included[keep],
            excluded=self._excluded[keep],
        )

    # ------------------------------------------------------------------
    # Delta maintenance (streaming appends; see repro.cube.delta)
    # ------------------------------------------------------------------
    @property
    def appendable(self) -> bool:
        """Whether this cube retains the ledger :meth:`append` needs.

        Only relation-built cubes (and cache entries stored with their
        state) are appendable; derived cubes — :meth:`slice_time`,
        :meth:`restrict`, smoothed copies — are fixed snapshots.
        """
        return self._append_state is not None

    @property
    def append_state(self) -> CubeAppendState | None:
        """The delta-maintenance ledger (``None`` for fixed cubes)."""
        return self._append_state

    def append(self, delta: Relation) -> AppendInfo:
        """Absorb newly arrived rows in O(delta), **in place**.

        Scatters the delta rows' factorized codes into the retained
        aggregate states, extends the time axis with any new labels, and
        re-finalizes only the touched ``(candidate, timestamp)`` cells —
        the result is bit-identical to rebuilding the cube over
        ``base.concat(delta)`` (the property suite asserts this across
        SUM/COUNT/AVG/VAR).  Delta timestamps must be existing labels
        (late-arriving records) or sort strictly after the current last
        label; anything else raises :class:`~repro.exceptions.QueryError`.

        Because the append mutates the published series arrays, cubes
        *derived* from this one (slices, smoothed/filtered copies, bound
        scorers) whose window overlaps
        :attr:`AppendInfo.first_changed_position` become stale; callers
        holding such derivations must drop them —
        :meth:`repro.core.session.ExplainSession.append` does exactly
        that for its scorer LRU.
        """
        if self._append_state is None:
            raise ExplanationError(
                "this cube is not appendable: it is a derived slice/smoothed/"
                "filtered copy or was cache-loaded without its delta ledger; "
                "rebuild from the relation with appendable=True"
            )
        info = self._append_state.apply_delta(delta)
        if info.is_noop:
            return info
        if info.candidates_changed:
            self._refinalize_full()
        else:
            cols = np.asarray(
                list(info.touched_positions)
                + list(range(info.old_n_times, info.n_times)),
                dtype=np.intp,
            )
            self._refinalize_cols(cols)
        return info

    def _refinalize_full(self) -> None:
        """Re-derive candidates and every series cell from the ledger."""
        state = self._append_state
        assert state is not None
        aggregate = state.aggregate
        n = state.n_times
        capacity = state.overall.shape[1]
        overall_state = state.overall[:, :n]
        layouts = state.layouts()
        n_candidates = sum(layout.shape[0] for layout in layouts)

        explanations: list[Conjunction] = []
        supports = np.empty(n_candidates, dtype=np.int64)
        included = np.zeros((n_candidates, capacity), dtype=np.float64)
        excluded = np.zeros((n_candidates, capacity), dtype=np.float64)
        row = 0
        for ledger, layout in zip(state.ledgers, layouts):
            k = layout.shape[0]
            if not k:
                continue
            batch = ledger.state[:, layout, :n]
            included[row : row + k, :n] = aggregate.finalize(batch)
            excluded[row : row + k, :n] = aggregate.finalize(
                aggregate.subtract(overall_state[:, None, :], batch)
            )
            supports[row : row + k] = ledger.counts[layout]
            explanations.extend(ledger.conjunction(int(slot)) for slot in layout)
            row += k

        overall_buf = np.zeros(capacity, dtype=np.float64)
        overall_buf[:n] = aggregate.finalize(overall_state)
        self._labels = tuple(state.labels)
        self._overall_buf = overall_buf
        self._included_buf = included
        self._excluded_buf = excluded
        self._overall = overall_buf[:n]
        self._included = included[:, :n]
        self._excluded = excluded[:, :n]
        self._explanations = tuple(explanations)
        self._supports = supports
        self._index = {conj: i for i, conj in enumerate(self._explanations)}

    def _refinalize_cols(self, cols: np.ndarray) -> None:
        """Re-finalize only the given time columns (layout unchanged)."""
        state = self._append_state
        assert state is not None
        aggregate = state.aggregate
        n = state.n_times
        self._overall_buf = _grow_time(self._overall_buf, n)
        self._included_buf = _grow_time(self._included_buf, n)
        self._excluded_buf = _grow_time(self._excluded_buf, n)

        overall_cols = state.overall[:, cols]
        self._overall_buf[cols] = aggregate.finalize(overall_cols)
        row = 0
        supports_parts: list[np.ndarray] = []
        for ledger in state.ledgers:
            layout = ledger.layout()
            k = layout.shape[0]
            supports_parts.append(ledger.counts[layout])
            if not k:
                continue
            batch = ledger.state[:, layout[:, None], cols[None, :]]
            self._included_buf[row : row + k, cols] = aggregate.finalize(batch)
            self._excluded_buf[row : row + k, cols] = aggregate.finalize(
                aggregate.subtract(overall_cols[:, None, :], batch)
            )
            row += k
        self._labels = tuple(state.labels)
        self._overall = self._overall_buf[:n]
        self._included = self._included_buf[:, :n]
        self._excluded = self._excluded_buf[:, :n]
        self._supports = np.concatenate(supports_parts) if supports_parts else self._supports

    def __repr__(self) -> str:
        return (
            f"ExplanationCube(epsilon={self.n_explanations}, n={self.n_times}, "
            f"explain_by={list(self._explain_by)})"
        )


def _require_appendable(cube: ExplanationCube) -> CubeAppendState:
    """The cube's delta ledger, or a descriptive error when it has none."""
    state = cube.append_state
    if state is None:
        raise ExplanationError(
            "merge_cubes requires appendable cubes (built with "
            "appendable=True, or cache-loaded with their delta ledger)"
        )
    return state


def _check_same_query(left: CubeAppendState, right: CubeAppendState) -> None:
    """Reject merging ledgers whose cube-shaping parameters differ."""
    mismatched = [
        field
        for field, a, b in (
            ("measure", left.measure, right.measure),
            ("aggregate", left.aggregate.name, right.aggregate.name),
            ("explain_by", left.explain_by, right.explain_by),
            ("time_attr", left.time_attr, right.time_attr),
            ("max_order", left.max_order, right.max_order),
            ("deduplicate", left.deduplicate, right.deduplicate),
        )
        if a != b
    ]
    if mismatched:
        raise ExplanationError(
            f"cannot merge cubes built with different {mismatched}"
        )


def merge_cubes(base: ExplanationCube, other: ExplanationCube) -> ExplanationCube:
    """Merge two appendable cubes built over the same query into a new one.

    ``other``'s time labels must each already exist in ``base`` or sort
    strictly after its last label (the streaming append contract); both
    cubes must share measure, aggregate, explain-by set, ``max_order``,
    ``deduplicate`` and schema.  Neither input is mutated.

    The merged states combine with :meth:`AggregateFunction.merge`, so the
    result is bit-identical to a one-shot build over the concatenated
    relations whenever no ``(group, timestamp)`` bucket holds rows on both
    sides (e.g. partitioned-by-time shards); buckets fed by both sides are
    numerically equal up to float-addition reassociation.  For the exact
    row-order-preserving path, use :meth:`ExplanationCube.append` with the
    delta *relation* instead.
    """
    left = _require_appendable(base)
    right = _require_appendable(other)
    _check_same_query(left, right)
    merged = left.clone()
    merged.absorb(right)
    return ExplanationCube.from_append_state(merged)


def _materialize_series(
    candidates: CandidateSet,
    values: np.ndarray,
    time_positions: np.ndarray,
    n_times: int,
    aggregate: AggregateFunction,
    overall_state: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Finalized included/excluded series plus the per-subset states.

    States are accumulated once per attribute *subset* (bucket id =
    ``group_id * n_times + time_position``), so the relation is scanned
    ``O(|subsets|)`` times, not ``O(epsilon)``.  Every subset's candidates
    are then gathered with one fancy-index per subset and finalized as a
    ``(n_components, k, n_times)`` batch.  The raw states are returned as
    well so an appendable cube can retain them as its delta-maintenance
    ledger.
    """
    per_subset_states: list[np.ndarray] = []
    for group_ids in candidates.row_groups:
        n_groups = int(group_ids.max()) + 1 if group_ids.size else 0
        buckets = group_ids * n_times + time_positions
        state = aggregate.accumulate(values, buckets, n_groups * n_times)
        per_subset_states.append(
            state.reshape(aggregate.n_components, n_groups, n_times)
        )

    n_candidates = len(candidates)
    included = np.empty((n_candidates, n_times), dtype=np.float64)
    excluded = np.empty((n_candidates, n_times), dtype=np.float64)
    subset_index = np.asarray(candidates.subset_index, dtype=np.intp)
    local_ids = np.asarray(candidates.local_ids, dtype=np.intp)
    rest_state = overall_state[:, None, :]  # broadcasts over the batch
    # Candidates are emitted grouped by subset in ascending order, so
    # each subset's rows are one contiguous slice.
    bounds = np.searchsorted(
        subset_index, np.arange(len(per_subset_states) + 1, dtype=np.intp)
    )
    for subset_pos, states in enumerate(per_subset_states):
        rows = slice(int(bounds[subset_pos]), int(bounds[subset_pos + 1]))
        if rows.start == rows.stop:
            continue
        batch = states[:, local_ids[rows], :]
        included[rows] = aggregate.finalize(batch)
        excluded[rows] = aggregate.finalize(aggregate.subtract(rest_state, batch))
    return included, excluded, per_subset_states
