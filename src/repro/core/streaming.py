"""Real-time / incremental explanation (paper section 8).

"TSExplain first gives users the segmentation results of existing time
series and meanwhile caches all unit segments' top explanations.  When new
data arrives, it incrementally computes the top explanations for the new
time series, runs the segmentation algorithm based on the existing time
series' cutting points and newly arrived data points, and updates the
segmentation results."

:class:`StreamingExplainer` implements that schedule **incrementally end to
end**.  Each :meth:`update`:

1. scatters only the delta's rows into the session's prepared cube
   (:meth:`~repro.core.session.ExplainSession.append` →
   :meth:`~repro.cube.datacube.ExplanationCube.append`) — O(delta), never
   a whole-relation rescan, and bit-identical to a full rebuild.  (The
   *derived* scorer is still re-applied per update, so a config with the
   support filter or smoothing enabled additionally pays that tier's
   O(epsilon x n) array pass — disable both for the leanest updates);
2. extends the previous update's segment-cost structures over the appended
   suffix (:meth:`~repro.segmentation.variance.SegmentationCosts.extend`):
   unit objects and segment costs strictly before the changed region are
   reused, only the new region is solved;
3. re-runs the K-segmentation DP and elbow selection through the same
   :func:`~repro.core.pipeline.select_scheme` the batch pipeline uses.

Two re-segmentation schedules are available via ``resegment``:

``"pinned"`` (default, the paper's section 8 schedule)
    Cut candidates are the previous boundaries plus every point in the
    newly appended region — old regions may merge with new data but are
    not re-searched at full resolution.
``"full"``
    Cut candidates are every point, exactly like an unsketched batch run.
    Because the appended cube, the extended costs and the shared scheme
    selection are all bit-identical to their from-scratch counterparts,
    with :attr:`~repro.core.config.ExplainConfig.use_sketch` off a
    ``full`` update returns **byte-identical results to** :meth:`refresh`
    **at a fraction of the cost** (``benchmarks/bench_streaming_append.py``
    asserts ≥ 10x on a warm stream).  With sketching on the two may
    differ: an update still searches every point, while :meth:`refresh`
    runs the batch pipeline, which searches a sketch.

:meth:`refresh` remains the executable specification: it discards the
session and re-runs the full batch pipeline over the current relation.
Call it to double-check the incremental state, or after events the
incremental path refuses (it raises
:class:`~repro.exceptions.QueryError` when a delta would back-fill new
timestamps before the stream's end).

With :attr:`~repro.core.config.ExplainConfig.cache_dir` configured, the
stream persists every snapshot under a **chained key**: the base
relation is fingerprinted once (at :meth:`refresh`), and each update
folds only its delta's fingerprint into the previous key
(:func:`~repro.cube.cache.chain_fingerprint`) — so per-update *hashing*
is O(delta), never a whole-relation hash.  The snapshot **write** itself
is still proportional to the cube (an uncompressed write of the series
arrays and the append ledger) and only pays off on replay: leave
``cache_dir`` unset for high-frequency streams that are never replayed,
and pair it with ``cache_max_entries`` on long-running ones to bound the
directory.  The base key and delta sequence are persisted in an
:class:`~repro.cube.cache.AppendLog`; a restarted stream that replays
the same base and deltas *fast-forwards* through the cached snapshots
instead of re-appending.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.pipeline import explain_call, select_scheme
from repro.core.result import ExplainResult
from repro.core.session import ExplainSession
from repro.cube.cache import (
    AppendLog,
    CubeKey,
    RollupCache,
    chain_fingerprint,
    chained_key,
)
from repro.cube.datacube import ExplanationCube
from repro.cube.delta import AppendInfo
from repro.diff.scorer import SegmentScorer
from repro.exceptions import QueryError, SegmentationError
from repro.obs.trace import span
from repro.relation.table import Relation
from repro.segmentation.variance import SegmentationCosts

#: Valid ``resegment`` schedules.
RESEGMENT_MODES = ("pinned", "full")


class StreamingExplainer:
    """Incrementally maintained evolving explanations over growing data.

    Parameters
    ----------
    relation:
        Initial rows (new rows arrive via :meth:`update`).
    measure / explain_by / aggregate / time_attr / config:
        As in :class:`~repro.core.engine.TSExplain`.  ``config.cache_dir``
        enables the chained snapshot cache described in the module
        docstring.
    resegment:
        ``"pinned"`` (paper schedule: previous cuts + new points) or
        ``"full"`` (all points; byte-identical to :meth:`refresh` when
        ``config.use_sketch`` is off).
    """

    def __init__(
        self,
        relation: Relation,
        measure: str,
        explain_by: Sequence[str],
        aggregate: str = "sum",
        time_attr: str | None = None,
        config: ExplainConfig | None = None,
        resegment: str = "pinned",
    ):
        if resegment not in RESEGMENT_MODES:
            raise QueryError(
                f"unknown resegment mode {resegment!r}; use one of {RESEGMENT_MODES}"
            )
        self._relation = relation
        self._measure = measure
        self._explain_by = tuple(explain_by)
        self._aggregate = aggregate
        self._time_attr = time_attr
        self._config = config or ExplainConfig()
        self._resegment = resegment
        self._result: ExplainResult | None = None
        self._session: ExplainSession | None = None
        self._costs: SegmentationCosts | None = None
        self._cache = (
            RollupCache(self._config.cache_dir, max_entries=self._config.cache_max_entries)
            if self._config.cache_dir
            else None
        )
        self._base_key: CubeKey | None = None
        self._chain_fp: str | None = None
        self._log: AppendLog | None = None
        self._updates = 0

    @property
    def result(self) -> ExplainResult | None:
        """The latest explanation, or ``None`` before the first run."""
        return self._result

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def resegment(self) -> str:
        """The re-segmentation schedule (``pinned`` or ``full``)."""
        return self._resegment

    def session(self) -> ExplainSession:
        """The long-lived session holding the stream's prepared cube.

        Unlike the batch engines, the streaming session survives updates:
        :meth:`update` appends into its cube in place and invalidates only
        the derived scorers the append touched, so ad-hoc interactive
        queries between updates reuse the incrementally maintained cube.
        :meth:`refresh` replaces the session wholesale (full rebuild).

        The session keeps one derived scorer.  Each update derives the
        scorer of the grown full window; the previous full window ends
        before the appended day, so the append leaves its scorer valid,
        and a larger LRU would keep every superseded one — a copy of the
        cube per update.
        """
        if self._session is None or self._session.relation is not self._relation:
            self._session = ExplainSession(
                self._relation,
                self._measure,
                self._explain_by,
                aggregate=self._aggregate,
                time_attr=self._time_attr,
                config=self._config,
                scorer_cache_size=1,
            )
        return self._session

    # ------------------------------------------------------------------
    def refresh(self) -> ExplainResult:
        """Full (non-incremental) re-run over the current relation.

        The executable specification of :meth:`update`: the session, its
        cube and the incremental cost structures are discarded and rebuilt
        from the relation by the batch pipeline.  With a cache configured
        this is also the one place the stream pays a whole-relation
        fingerprint — it anchors the chained snapshot keys and resets the
        append log position.
        """
        self._session = None
        self._costs = None
        session = self.session()
        self._result = session.explain()
        if self._cache is not None:
            self._base_key = session.cube_key()
            self._chain_fp = self._base_key.fingerprint
            self._log = AppendLog(self._cache.directory, self._base_key)
            self._updates = 0
        return self._result

    # ------------------------------------------------------------------
    def update(self, new_rows: Relation) -> ExplainResult:
        """Append rows and incrementally update the explanation.

        Delta timestamps must be existing ones (late-arriving records) or
        sort strictly after the stream's last timestamp; a delta that
        would back-fill *new* timestamps into the past raises
        :class:`~repro.exceptions.QueryError` before any state changes.
        Rows within the delta may arrive in any order.

        The call is one ``explain`` span
        (:func:`~repro.core.pipeline.explain_call`), with the delta's
        absorption in a ``cube-append`` span; an empty delta returns the
        previous result untouched.
        """
        if self._result is None:
            self._relation = self._relation.concat(new_rows)
            return self.refresh()
        if new_rows.n_rows == 0:
            # A poll tick with no new rows is a cheap no-op: the cached
            # result stands, the session's scorer LRU and the chained
            # snapshot key are untouched (an empty delta folded into the
            # chain would fork the fingerprint away from a replay that
            # never saw the empty tick), and no pipeline re-run is paid.
            return self._result
        with explain_call() as timings:
            session = self.session()
            with span("cube-append"):
                info = self._apply_delta(session, new_rows)
            self._relation = session.relation

            pipeline = session.pipeline()
            with span("precompute"):
                scorer = pipeline.prepare()
                solver = pipeline.solver(scorer)
            costs = self._grow_costs(scorer, solver, info)
            scheme, k_was_auto, by_k = select_scheme(costs, self._config)
            self._result = pipeline._assemble(
                scorer, costs, scheme, k_was_auto, by_k, timings
            )
        self._costs = costs
        return self._result

    # ------------------------------------------------------------------
    def _apply_delta(self, session: ExplainSession, delta: Relation) -> AppendInfo | None:
        """Append the delta to the session, via the chained cache if set."""
        if self._cache is None or self._base_key is None or self._chain_fp is None:
            return session.append(delta)
        position = self._updates
        delta_fp = delta.fingerprint()
        matched = self._log.align(position, delta_fp) if self._log is not None else False
        next_fp = chain_fingerprint(self._chain_fp, delta_fp)
        key = chained_key(self._base_key, next_fp)
        info: AppendInfo | None = None
        if matched:
            cached = self._cache.load(key)
            if cached is not None and cached.appendable and session.prepared:
                # Fast-forward: this snapshot was already built by an
                # earlier run of the same stream.
                info = _adopt_info(session.cube, cached, delta)
                session.adopt_snapshot(session.relation.concat(delta), cached)
        if info is None:
            info = session.append(delta)
            if info is not None:
                try:
                    self._cache.store(key, session.cube)
                except (TypeError, OSError):
                    # An unpersistable snapshot never fails the stream.
                    pass
        self._chain_fp = next_fp
        self._updates += 1
        return info

    def _grow_costs(
        self,
        scorer: SegmentScorer,
        solver,
        info: AppendInfo | None,
    ) -> SegmentationCosts:
        """Segment costs for the grown series, incrementally when possible."""
        config = self._config
        n_times = scorer.cube.n_times
        positions: np.ndarray | None = None
        if self._resegment == "pinned" and self._result is not None:
            old_n = info.old_n_times if info is not None else n_times
            previous = set(self._result.boundaries)
            previous.discard(max(previous))  # the old right endpoint may shift
            grid = sorted(previous | set(range(max(old_n - 1, 1) - 1, n_times)))
            if grid[0] != 0:
                grid.insert(0, 0)
            positions = np.asarray(grid, dtype=np.intp)
        if info is not None and self._costs is not None and not info.candidates_changed:
            first_changed = info.first_changed_position
            if config.smoothing_window is not None:
                # Smoothing bleeds changed values half a window backwards.
                first_changed = max(first_changed - config.smoothing_window // 2, 0)
            try:
                return self._costs.extend(
                    scorer,
                    solver,
                    cut_positions=positions,
                    first_changed_position=first_changed,
                )
            except SegmentationError:
                # Candidate set or shape mismatch (e.g. the support filter
                # re-selected candidates): fall through to a fresh build.
                pass
        return SegmentationCosts(
            scorer,
            solver,
            m=config.m,
            variant=config.variant,
            cut_positions=positions,
        )


def _adopt_info(
    old_cube: ExplanationCube, cached: ExplanationCube, delta: Relation
) -> AppendInfo:
    """Reconstruct what an in-memory append *would* have reported.

    Used on the fast-forward path, where the appended snapshot comes from
    the cache instead of scattering the delta — the re-segmentation still
    needs to know which positions changed and whether candidates did.
    """
    state = cached.append_state
    time_attr = state.time_attr if state is not None else None
    old_positions = {label: pos for pos, label in enumerate(old_cube.labels)}
    touched = sorted(
        {
            old_positions[label]
            for label in (
                _as_python(value)
                for value in np.unique(delta.column(time_attr))
            )
            if label in old_positions
        }
    )
    old_n = old_cube.n_times
    return AppendInfo(
        n_rows=delta.n_rows,
        old_n_times=old_n,
        n_times=cached.n_times,
        new_labels=tuple(cached.labels[old_n:]),
        touched_positions=tuple(touched),
        first_changed_position=touched[0] if touched else old_n,
        candidates_changed=old_cube.explanations != cached.explanations,
    )


def _as_python(value):
    return value.item() if hasattr(value, "item") else value
