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
stream's session loads or stores its base cube through its one prepare
path (:meth:`~repro.core.session.ExplainSession.prepare`); updates append
in memory and write nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.pipeline import assemble, explain_call, make_solver, select_scheme
from repro.core.result import ExplainResult
from repro.core.session import ExplainSession
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
        makes the session load or store the base cube (module docstring).
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
        from the relation by the batch pipeline.
        """
        self._session = None
        self._costs = None
        self._result = self.session().explain()
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
            # result stands, the session's scorer LRU is untouched, and no
            # re-run is paid.
            return self._result
        config = self._config
        with explain_call() as timings:
            session = self.session()
            with span("cube-append"):
                info = session.append(new_rows)
            self._relation = session.relation

            scorer = session.scorer()
            with span("precompute"):
                solver = make_solver(scorer, config)
            costs = self._grow_costs(scorer, solver, info)
            scheme, k_was_auto, by_k = select_scheme(costs, config)
            epsilon = session.cube.n_explanations
            self._result = assemble(
                scorer, costs, scheme, k_was_auto, by_k, config, epsilon, timings
            )
        self._costs = costs
        return self._result

    # ------------------------------------------------------------------
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
