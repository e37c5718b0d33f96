"""The prepare-once / query-many session API.

The paper's interactivity claim rests on its two-tier split: an expensive
*prepare* phase (build the explanation cube) and a cheap *run* phase (every
difference score is an O(1) array lookup).  :class:`ExplainSession` makes
that split the shape of the public API — bind a relation (or a
:mod:`repro.store` data source) and the cube parameters once, build or
cache-load the cube once, then serve unlimited queries as **O(window)
slices of the prepared arrays**:

    session = ExplainSession(relation, measure="cases", explain_by=["state"])
    session.explain()                                   # whole series
    session.explain("2020-03-01", "2020-07-01")         # spring wave only
    session.diff("2020-03-01", "2020-06-01")            # two-point diff
    session.query().window("2020-03-01", "2020-07-01") \
           .metric("absolute-change").top(5).run()      # fluent run-tier knobs

A windowed query slices the cube's ``overall``/``included``/``excluded``
matrices along the time axis (:meth:`ExplanationCube.slice_time` — views,
no copy), then applies the per-query smoothing, support filter and
difference metric.  Derived scorers are memoized in a per-session LRU keyed
by the window and the run-tier configuration, so repeating an interactive
query costs a dictionary lookup instead of a relation scan.  Each LRU entry
also keeps the segment costs and DP schemes :meth:`ExplainSession.explain`
solved on it (the costs memo, :data:`COSTS_FIELDS`), so a query that
changes only ``k`` solves nothing at all.

:class:`~repro.core.engine.TSExplain` remains as a thin facade delegating
to one lazily-created session, so existing call sites keep working
unchanged.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.core.config import ExplainConfig
from repro.core.pipeline import (
    assemble,
    explain_call,
    make_solver,
    pick_scheme,
    prepare_cube,
    solve,
)
from repro.core.recommend import AttributeScore, recommend_explain_by
from repro.core.result import ExplainResult
from repro.core.smoothing import smooth_cube
from repro.cube.cache import CubeKey, cube_key
from repro.cube.datacube import ExplanationCube
from repro.cube.delta import AppendInfo
from repro.cube.filters import apply_support_filter
from repro.diff.scorer import ScoredExplanation, SegmentScorer
from repro.exceptions import QueryError
from repro.obs.trace import span
from repro.relation.groupby import aggregate_over_time
from repro.relation.table import Relation
from repro.relation.timeseries import TimeSeries
from repro.store.base import DEFAULT_CHUNK_ROWS, DataSource, RelationSource
from repro.store.uri import resolve_source

if TYPE_CHECKING:  # pragma: no cover
    from repro.lattice.router import LatticeRouter, RouteInfo
    from repro.segmentation.dp import SegmentationScheme
    from repro.segmentation.variance import SegmentationCosts
    from repro.store.ingest import IngestReport

#: Derived (sliced/smoothed/filtered) scorers kept per session by default.
DEFAULT_SCORER_CACHE_SIZE = 32

#: :class:`ExplainConfig` fields that determine the raw cube's *bytes*.
#: A per-call config that changes one of these cannot be served from the
#: session's prepared cube at all.
CUBE_FIELDS = ("max_order", "deduplicate")

#: All prepare-tier fields: the cube-shaping ones plus the prepare
#: *mechanics* (cache persistence).  A per-call config that changes any
#: of these is served by a one-off session over the same data with that
#: config, which prepares its own cube — so a one-off ``cache_dir``
#: override still builds and stores on disk.
PREPARE_FIELDS = CUBE_FIELDS + ("cache_dir", "cache_max_entries")

#: :class:`ExplainConfig` fields that select a derived scorer.  Together
#: with the window they form the session's LRU key; everything else
#: (``m``, ``k``, variance variant, O1/O2 flags) binds at solve time and
#: shares the scorer.
SCORER_FIELDS = ("smoothing_window", "use_filter", "filter_ratio", "metric")

#: :class:`ExplainConfig` fields that shape a query's segment costs and
#: its K-segmentation DP.  They key the costs memo hung on each scorer-LRU
#: entry.  ``k`` is not among them: the DP holds the optimal scheme for
#: every K up to ``k_max``, so a query that changes only ``k`` picks
#: another scheme from the memo and solves nothing.
COSTS_FIELDS = (
    "m", "variant", "use_sketch", "sketch_length", "sketch_size",
    "use_guess_verify", "initial_guess", "k_max",
)

#: Costs-memo entries kept live per session, least recently used dropped
#: first.  One entry holds a window's segment costs, top-m results and
#: solver: ~1 MiB on a 61–72-point window of 256 flat candidates.
COSTS_MEMO_SIZE = 4


@dataclass(eq=False)
class _Solved:
    """One costs-memo entry: a query's segment costs and DP schemes
    (:func:`~repro.core.pipeline.solve`), stamped when last used.

    ``lock`` serializes the results assembled from it: assembly may
    solve a segment lazily (``allpair`` variants), which fills the costs'
    result cache and touches the solver's own caches.
    """

    costs: SegmentationCosts
    by_k: dict[int, SegmentationScheme]
    used: int
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass(eq=False)
class _Derived:
    """One scorer-LRU entry: a derived scorer and the costs memo hung on
    it, keyed by :data:`COSTS_FIELDS`.

    Whatever drops the entry (LRU eviction, :meth:`ExplainSession.append`,
    :meth:`ExplainSession.adopt_snapshot`) drops its memo with it.
    """

    scorer: SegmentScorer
    solved: dict[tuple, _Solved] = field(default_factory=dict)


def _finish(
    scorer: SegmentScorer,
    costs: SegmentationCosts,
    by_k: dict[int, SegmentationScheme],
    config: ExplainConfig,
    epsilon: int,
    timings: dict[str, float],
) -> ExplainResult:
    """Pick ``config.k`` among a solve's schemes and assemble its result."""
    with span("finalize"):
        scheme, k_was_auto = pick_scheme(by_k, costs.n_points, config.k)
        return assemble(
            scorer, costs, scheme, k_was_auto, by_k, config, epsilon, timings
        )


class ExplainSession:
    """A prepared TSExplain query serving unlimited run-tier requests.

    Sessions are **thread-safe**: the prepare tier, the scorer LRU, its
    costs memo and streaming appends are serialized on an internal
    reentrant lock, while the solve/segment tiers run lock-free on
    immutable derived scorers — so the serving tier (:mod:`repro.serve`)
    shares one session across a whole query thread pool, and concurrent
    first queries coalesce into a single cube build.

    Parameters
    ----------
    data:
        The base relation ``R``, or a :class:`~repro.store.DataSource` /
        source URI that yields it; the session binds to it (and its cube)
        for its whole lifetime.  A source's relation stays lazy: it is
        read on the first operation that actually needs rows, so a
        cache-served or out-of-core prepared session may never ingest it
        at all (:attr:`relation_loaded`).
    measure:
        Measure attribute ``M`` of the aggregate query (defaults to the
        data's first measure).
    explain_by:
        Explain-by attribute names ``A`` (defaults to every dimension).
    aggregate:
        Aggregate function name (defaults to the source's
        ``default_aggregate``: ``sum`` for a relation).
    time_attr:
        Time attribute ``T``; defaults to the schema's time attribute.
    config:
        Default configuration for every query; keyword overrides may be
        passed instead, as with :class:`~repro.core.engine.TSExplain`.
        ``cache_dir`` makes :meth:`prepare` load the cube from the
        persistent rollup cache when possible.
    chunk_rows:
        Rows per chunk when :meth:`prepare` builds from a chunk-safe
        source (default ``DEFAULT_CHUNK_ROWS``); bounds the relation
        residency of the build.
    scorer_cache_size:
        Derived scorers kept in the per-session LRU (default
        ``DEFAULT_SCORER_CACHE_SIZE``).  Each entry holds the smoothed/
        filtered series arrays of one ``(window, run-config)`` pair —
        a bare (unsmoothed, unfiltered) window slice is a view into the
        prepared cube, but smoothing and the support filter each copy,
        so a derived entry then costs about ``2 * epsilon * window * 8``
        bytes.  For very large cubes (paper scale: epsilon in the
        hundreds of thousands) size this down — one entry is usually
        enough for a stable interactive dashboard query.
    """

    def __init__(
        self,
        data: Relation | DataSource | str,
        measure: str | None = None,
        explain_by: Sequence[str] | None = None,
        aggregate: str | None = None,
        time_attr: str | None = None,
        config: ExplainConfig | None = None,
        chunk_rows: int | None = None,
        scorer_cache_size: int = DEFAULT_SCORER_CACHE_SIZE,
        **config_overrides,
    ):
        if config is not None and config_overrides:
            config = config.updated(**config_overrides)
        elif config is None:
            config = ExplainConfig(**config_overrides)
        if scorer_cache_size < 1:
            raise QueryError(
                f"scorer_cache_size must be >= 1, got {scorer_cache_size}"
            )
        source = resolve_source(data)
        schema = source.schema
        if measure is None:
            measures = schema.measure_names()
            if not measures:
                raise QueryError(f"source {source.uri} binds no measure column")
            measure = measures[0]
        self._source = source
        self._relation: Relation | None = data if isinstance(data, Relation) else None
        self._measure = measure
        self._explain_by = tuple(explain_by) if explain_by else schema.dimension_names()
        self._aggregate = aggregate or source.default_aggregate
        self._time_attr = time_attr or schema.require_time()
        self._chunk_rows = chunk_rows or DEFAULT_CHUNK_ROWS
        self._config = config
        self._cube: ExplanationCube | None = None
        self._series: TimeSeries | None = None
        self._cache_hit: bool | None = None
        self._scorer_cache_size = scorer_cache_size
        self._scorers: OrderedDict[tuple, _Derived] = OrderedDict()
        # Recency stamps of the costs-memo entries (COSTS_MEMO_SIZE).
        self._ticks = itertools.count()
        self._last_result: ExplainResult | None = None
        # Sessions are shared across threads by the serving tier
        # (repro.serve): one reentrant lock serializes every mutation of
        # the prepared cube and the scorer LRU.
        # Only the *derivation* steps hold it — the heavy solve/segment
        # tiers run on immutable scorers outside the lock, so concurrent
        # queries still overlap.  It also gives per-session single-flight
        # semantics: N threads racing the first query trigger exactly one
        # cube build.
        self._lock = threading.RLock()
        self._ingest_report: "IngestReport | None" = None
        self._route_info: "RouteInfo | None" = None

    # ------------------------------------------------------------------
    # Prepared construction
    # ------------------------------------------------------------------
    @classmethod
    def from_source(cls, source: DataSource | str, **kwargs) -> "ExplainSession":
        """A prepared session over a :mod:`repro.store` data source.

        ``source`` is a :class:`~repro.store.DataSource` or a source URI
        (``csv:…`` / ``npz:…`` / ``sqlite:…``); keywords bind the session
        as for the constructor, whose query defaults come from the
        source's binding (first measure, all dimensions, the URI's
        aggregate).  The prepare tier runs immediately (:meth:`prepare`):
        with a ``cache_dir`` a warm entry installs without ingesting a
        single row, and a miss is built **out-of-core** — chunks of
        ``chunk_rows`` rows stream through the append ledger, bit-identical
        to an in-memory build (a source whose chunk order violates the
        append contract gets a one-shot read).

        The relation itself stays lazy: operations that need rows
        (:meth:`recommend`, :meth:`append`) read it on first use — check
        :attr:`relation_loaded`, and :attr:`ingest_report` for what the
        prepare actually did.
        """
        return cls(source, **kwargs).prepare()

    @classmethod
    def from_lattice(
        cls, router: "LatticeRouter", data: Relation | DataSource | str, **kwargs
    ) -> "ExplainSession":
        """A session prepared through a lattice router instead of a build.

        ``data`` and the keywords bind the session as for the constructor;
        the router must be keyed by that data
        (:meth:`~repro.lattice.router.LatticeRouter.for_source`), or a
        :class:`~repro.exceptions.QueryError` is raised.  The session's
        cube request — ``(dims, measure, aggregate)`` plus the config's
        cube-shaping knobs — is routed first: an exact or derived rollup
        installs without touching the data.  Windows need no routing at
        all: a rollup covers the full time axis and every windowed query
        is an O(window) slice of it.  On a lattice miss the session
        prepares as usual (:meth:`prepare`) and the built cube is reported
        back to the router, which promotes shapes that keep missing.
        :attr:`route_info` records the decision.
        """
        from repro.lattice.spec import RollupSpec

        session = cls(data, **kwargs)
        if session.cube_key().fingerprint != router.fingerprint:
            raise QueryError(
                f"the lattice router is keyed by {router.fingerprint!r}, "
                "not by the data this session binds"
            )
        config = session.config
        spec = RollupSpec(
            dims=session.explain_by,
            measure=session.measure,
            aggregate=session.aggregate,
            max_order=config.max_order,
            deduplicate=config.deduplicate,
        )
        cube, info = router.route(spec)
        if cube is not None:
            session.adopt_snapshot(cube)
        else:
            router.record_build(spec, session.prepare().cube)
        session._route_info = info
        return session

    @property
    def route_info(self) -> "RouteInfo | None":
        """How :meth:`from_lattice` routed this session (else ``None``)."""
        return self._route_info

    @property
    def ingest_report(self) -> "IngestReport | None":
        """What :meth:`prepare` did: a cache hit, or how the build read the
        data (``None`` until it ran, and for an adopted or routed cube)."""
        return self._ingest_report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ExplainConfig:
        return self._config

    @property
    def relation(self) -> Relation:
        """The base relation, reading a lazy source's on first access."""
        with self._lock:
            if self._relation is None:
                self._relation = self._source.read()
            return self._relation

    @property
    def relation_loaded(self) -> bool:
        """Whether the base relation is materialized (never triggers IO).

        ``False`` only for sessions over a source whose cube came from the
        rollup cache or the out-of-core build and that have not yet
        needed rows; consumers that merely *report* (the serving tier's
        ``/datasets``) check this instead of forcing an ingest.
        """
        with self._lock:
            return self._relation is not None

    @property
    def measure(self) -> str:
        return self._measure

    @property
    def explain_by(self) -> tuple[str, ...]:
        return self._explain_by

    @property
    def aggregate(self) -> str:
        return self._aggregate

    @property
    def time_attr(self) -> str:
        return self._time_attr

    @property
    def prepared(self) -> bool:
        """Whether the raw cube has been built or cache-loaded yet."""
        return self._cube is not None

    @property
    def cache_hit(self) -> bool | None:
        """Whether :meth:`prepare` served the cube from the rollup cache.

        ``None`` until :meth:`prepare` has run or when no ``cache_dir`` is
        configured; otherwise ``True`` (loaded from disk) or ``False``
        (built from the relation).
        """
        return self._cache_hit

    @property
    def last_result(self) -> ExplainResult | None:
        """The most recent :meth:`explain` result, if any."""
        return self._last_result

    # ------------------------------------------------------------------
    # Prepare tier
    # ------------------------------------------------------------------
    def prepare(self) -> "ExplainSession":
        """Build or cache-load the raw explanation cube (idempotent).

        The one place a session gets its cube.  With a ``cache_dir``
        configured the cube is looked up under :meth:`cube_key` first; on
        a miss it is built by one
        :func:`~repro.store.ingest.scan_cubes_from_source` over the bound
        data (``chunk_rows`` rows at a time through the append ledger, or
        one read for a relation or a chunk-unsafe source) and stored under
        that key.  :attr:`ingest_report` keeps what happened.

        Called implicitly by the first query; call it explicitly to pay
        the expensive tier up front (e.g. before handing the session to an
        interactive loop).  Returns ``self`` for chaining.
        """
        with self._lock:
            if self._cube is not None:
                return self
            cube, report = prepare_cube(
                self._source,
                self._measure,
                self._explain_by,
                self._aggregate,
                self._time_attr,
                self._config,
                self._chunk_rows,
            )
            if self._relation is None:
                # A one-shot read already paid for the relation: keep it
                # rather than reading it again on the first recommend().
                self._relation = report.relation
            self._cube = cube
            self._cache_hit = report.cache_hit if self._config.cache_dir else None
            self._ingest_report = report
        return self

    def cube_key(self) -> CubeKey:
        """The rollup-cache key of this session's cube (no data is read).

        The data component is the bound source's cache fingerprint: a
        relation's content fingerprint, or ``src-`` plus a source's
        fingerprint.  :meth:`prepare` looks the cube up and stores it
        under this key, and the serving tier adopts a memory-mapped entry
        by it.
        """
        return cube_key(
            self._source,
            self._measure,
            self._explain_by,
            aggregate=self._aggregate,
            time_attr=self._time_attr,
            max_order=self._config.max_order,
            deduplicate=self._config.deduplicate,
        )

    @property
    def cube(self) -> ExplanationCube:
        """The raw (unsmoothed, unfiltered) prepared cube."""
        self.prepare()
        assert self._cube is not None
        return self._cube

    def series(self) -> TimeSeries:
        """The aggregated time series being explained (unsmoothed).

        Served from the prepared cube when it exists; otherwise computed
        with a cheap group-by so inspecting the series never forces the
        expensive prepare tier.
        """
        with self._lock:
            if self._cube is not None:
                if self._series is None:
                    self._series = self._cube.overall_series()
                return self._series
            relation = self.relation
        return aggregate_over_time(
            relation, self._measure, self._aggregate, self._time_attr
        )

    # ------------------------------------------------------------------
    # Streaming appends
    # ------------------------------------------------------------------
    def append(self, delta: Relation) -> AppendInfo | None:
        """Absorb newly arrived rows without re-preparing the session.

        When the session's cube is prepared and appendable, the delta is
        scattered into it in O(delta)
        (:meth:`~repro.cube.datacube.ExplanationCube.append`) and only the
        scorer-LRU entries the append actually invalidates are dropped:

        * every entry whose window's right edge reaches into the changed
          region (``stop_pos >= first_changed_position``) — smoothing and
          the support filter are applied *after* slicing, so a window that
          ends strictly before the first changed position is bitwise
          unaffected regardless of those knobs;
        * every entry whose scorer is bound to the live cube object
          (defensive: cached scorers are detached snapshots of the cube's
          buffers, so the in-place append can tear none of them — see
          :meth:`ExplanationCube.detach`);
        * everything, when the append grew the candidate set.

        An unprepared session just grows its relation (the first query
        builds over the full data), and a session whose cube cannot absorb
        deltas (cache-loaded without its ledger) falls back to dropping
        the cube so the next query rebuilds.  Returns the
        :class:`~repro.cube.delta.AppendInfo` when an in-place append
        happened, ``None`` otherwise.
        """
        with self._lock:
            return self._append_locked(delta)

    def _append_locked(self, delta: Relation) -> AppendInfo | None:
        if delta.n_rows == 0:
            # A poll tick with no new rows: touch nothing — no relation
            # concat (O(n) array copies), no cube drop, no scorer-LRU
            # invalidation, and a lazy (source-backed) relation is not
            # forced.  The prepared path still reports a no-op
            # AppendInfo (and validates the delta schema) through the
            # ledger's own empty-delta shortcut.
            if self._cube is not None and self._cube.appendable:
                return self._cube.append(delta)
            return None
        new_relation = self.relation.concat(delta)
        info: AppendInfo | None = None
        if self._cube is not None and self._cube.appendable:
            info = self._cube.append(delta)
            if not info.is_noop:
                self._series = None
                if info.candidates_changed:
                    self._scorers.clear()
                else:
                    first_changed = info.first_changed_position
                    stale = [
                        key
                        for key, derived in self._scorers.items()
                        if key[1] >= first_changed or derived.scorer.cube is self._cube
                    ]
                    for key in stale:
                        del self._scorers[key]
        elif self._cube is not None:
            self._cube = None
            self._scorers.clear()
            self._series = None
            self._cache_hit = None
        self._relation = new_relation
        self._source = RelationSource(new_relation)
        return info

    def adopt_snapshot(self, cube: ExplanationCube) -> None:
        """Install an already-built cube of this session's data.

        A lattice route and the serving tier's cache adopt install a cube
        this way, keeping the data binding and without materializing a
        source's (lazy) relation.  All derived scorers are dropped, and
        :attr:`cache_hit` reads ``True``.
        """
        if (
            cube.measure != self._measure
            or cube.explain_by != tuple(sorted(self._explain_by))
            or cube.aggregate.name != self._aggregate
        ):
            raise QueryError(
                "adopted cube was built for a different query than this session"
            )
        with self._lock:
            self._cube = cube
            self._scorers.clear()
            self._series = None
            self._cache_hit = True

    # ------------------------------------------------------------------
    # Run tier
    # ------------------------------------------------------------------
    def _window_positions(
        self, start: Hashable | None, stop: Hashable | None
    ) -> tuple[int, int]:
        """Resolve window labels to inclusive cube positions."""
        cube = self.cube
        n_times = cube.n_times
        if start is None and stop is None:
            return 0, n_times - 1
        series = self.series()
        start_pos = series.position_of(start) if start is not None else 0
        stop_pos = series.position_of(stop) if stop is not None else n_times - 1
        if start_pos >= stop_pos:
            raise QueryError("window must contain at least two time points")
        return start_pos, stop_pos

    def scorer(
        self,
        start: Hashable | None = None,
        stop: Hashable | None = None,
        config: ExplainConfig | None = None,
    ) -> SegmentScorer:
        """The derived run-tier scorer for a label window.

        Slices the prepared cube to ``[start, stop]`` and applies the
        config's smoothing, support filter and difference metric.  Results
        are memoized in the per-session LRU keyed by the window positions
        and the run-tier fields (``SCORER_FIELDS``), so repeated
        interactive queries share one derivation.  A config whose
        cube-shaping fields (``CUBE_FIELDS``) differ from the session's
        is rejected — the prepared cube cannot represent it; open a new
        session (or go through :meth:`explain`, which serves it from a
        one-off session) instead.
        """
        config = config or self._config
        mismatched = [
            field
            for field in CUBE_FIELDS
            if getattr(config, field) != getattr(self._config, field)
        ]
        if mismatched:
            raise QueryError(
                f"config changes cube-shaping field(s) {mismatched}; this "
                "session's prepared cube cannot serve it — create a new "
                "ExplainSession with that configuration"
            )
        with self._lock:
            start_pos, stop_pos = self._window_positions(start, stop)
            return self._scorer_for(start_pos, stop_pos, config)

    def _scorer_for(
        self, start_pos: int, stop_pos: int, config: ExplainConfig
    ) -> SegmentScorer:
        with self._lock:
            key = (start_pos, stop_pos) + tuple(
                getattr(config, field) for field in SCORER_FIELDS
            )
            cached = self._scorers.get(key)
            if cached is not None:
                self._scorers.move_to_end(key)
                return cached.scorer
            with span("derive-scorer"):
                cube = self.cube
                if (start_pos, stop_pos) != (0, cube.n_times - 1):
                    cube = cube.slice_time(start_pos, stop_pos)
                if config.smoothing_window is not None:
                    cube = smooth_cube(cube, config.smoothing_window)
                if config.use_filter:
                    cube = apply_support_filter(cube, config.filter_ratio)
                if self._cube is not None and self._cube.appendable:
                    # The derived cube may view/alias the live cube's
                    # buffers, which append() re-finalizes in place.
                    # Snapshot it so a solve running outside the lock can
                    # never observe an append's partial writes (append
                    # still drops the LRU entries the delta invalidates).
                    cube = cube.detach(self._cube)
                scorer = SegmentScorer(cube, config.metric)
            self._scorers[key] = _Derived(scorer)
            while len(self._scorers) > self._scorer_cache_size:
                self._scorers.popitem(last=False)
            return scorer

    def explain(
        self,
        start: Hashable | None = None,
        stop: Hashable | None = None,
        config: ExplainConfig | None = None,
    ) -> ExplainResult:
        """Segment and explain the series, optionally over a label window.

        Parameters
        ----------
        start / stop:
            Timestamp labels delimiting the period of interest (both
            inclusive); defaults to the whole series.  Windowed queries
            are O(window) slices of the prepared cube.
        config:
            One-off configuration override for this call (replaces, not
            merges with, the session config — the
            :class:`~repro.core.engine.TSExplain` contract).  One that
            changes a prepare-tier field (``PREPARE_FIELDS``) is served by
            a one-off session over the same data with that config
            (:meth:`_one_off`): a different ``max_order``/``deduplicate``
            cannot be served from this session's cube, and a one-off
            ``cache_dir`` keeps its on-disk store.

        The call is one ``explain`` span
        (:func:`~repro.core.pipeline.explain_call`): a cube build or scorer
        derivation it triggers is charged to its ``precomputation``.

        A query goes through the costs memo of its scorer's LRU entry,
        keyed by ``COSTS_FIELDS``: a repeat that changes only ``k`` builds
        no solver, sketch or DP and only picks its scheme and assembles
        the result.  A miss solves outside the session lock, on the
        immutable derived scorer, so concurrent queries overlap; its entry
        is published only after its own result is assembled.  Hits on one
        entry are serialized on the entry's lock.
        """
        config = config or self._config
        if self._overrides_prepare(config):
            result = self._one_off(config).explain(start, stop)
        else:
            key = tuple(getattr(config, field) for field in COSTS_FIELDS)
            with explain_call() as timings:
                with self._lock:
                    scorer = self.scorer(start, stop, config)
                    epsilon = self.cube.n_explanations
                    # scorer() has just made this scorer's entry the LRU's
                    # newest.
                    derived = next(
                        held
                        for held in reversed(self._scorers.values())
                        if held.scorer is scorer
                    )
                    solved = derived.solved.get(key)
                    if solved is not None:
                        solved.used = next(self._ticks)
                if solved is not None:
                    with solved.lock:
                        result = _finish(
                            scorer, solved.costs, solved.by_k, config, epsilon, timings
                        )
                else:
                    costs, by_k = solve(scorer, config)
                    result = _finish(scorer, costs, by_k, config, epsilon, timings)
                    self._memoize(derived, key, costs, by_k)
        with self._lock:
            self._last_result = result
        return result

    def _overrides_prepare(self, config: ExplainConfig) -> bool:
        """Whether ``config`` changes a prepare-tier field (``PREPARE_FIELDS``)."""
        return any(
            getattr(config, field) != getattr(self._config, field)
            for field in PREPARE_FIELDS
        )

    def _one_off(self, config: ExplainConfig) -> "ExplainSession":
        """A session over this one's data with a prepare-tier override.

        It prepares its own cube through the one cache-or-build path and
        leaves this session's cube and scorer LRU untouched.
        """
        return ExplainSession(
            self._source,
            self._measure,
            self._explain_by,
            aggregate=self._aggregate,
            time_attr=self._time_attr,
            config=config,
            chunk_rows=self._chunk_rows,
        )

    def _memoize(
        self,
        derived: _Derived,
        key: tuple,
        costs: SegmentationCosts,
        by_k: dict[int, SegmentationScheme],
    ) -> None:
        """Publish a costs-memo entry, keeping the ``COSTS_MEMO_SIZE`` most
        recently used entries live."""
        with self._lock:
            derived.solved.setdefault(key, _Solved(costs, by_k, next(self._ticks)))
            live = [
                (entry.used, held.solved, memo_key)
                for held in self._scorers.values()
                for memo_key, entry in held.solved.items()
            ]
            live.sort(key=lambda item: item[0])
            for _, memo, memo_key in live[:-COSTS_MEMO_SIZE]:
                del memo[memo_key]

    def top_explanations(
        self,
        start: Hashable,
        stop: Hashable,
        m: int | None = None,
        config: ExplainConfig | None = None,
    ) -> list[ScoredExplanation]:
        """Classic two-relations diff between two timestamps.

        The control relation is the data at ``start`` and the test
        relation the data at ``stop`` (Example 3.1); returns the top-m
        non-overlapping explanations of their difference — a single
        O(epsilon) gather against the prepared cube.  ``config`` is a
        one-off override for this call (the builder's
        :meth:`ExplainQuery.top_explanations` routes through it, and a
        prepare-tier one is served as in :meth:`explain`); ``m``
        overrides the explanation quota on top of it.
        """
        config = config or self._config
        if m is not None:
            config = config.updated(m=m)
        if self._overrides_prepare(config):
            return self._one_off(config).top_explanations(start, stop)
        scorer = self.scorer(config=config)
        solver = make_solver(scorer, config)
        series = scorer.cube.overall_series()
        start_pos = series.position_of(start)
        stop_pos = series.position_of(stop)
        if start_pos >= stop_pos:
            raise QueryError(f"start {start!r} must precede stop {stop!r}")
        gammas, taus = scorer.gamma_tau(start_pos, stop_pos)
        result = solver.solve_batch(gammas[None, :])[0]
        return [
            ScoredExplanation(
                explanation=scorer.cube.explanations[index],
                gamma=float(gammas[index]),
                tau=int(taus[index]),
            )
            for index in result.indices
        ]

    def diff(
        self,
        start: Hashable,
        stop: Hashable,
        m: int | None = None,
        config: ExplainConfig | None = None,
    ) -> list[ScoredExplanation]:
        """Alias of :meth:`top_explanations` under its OLAP name."""
        return self.top_explanations(start, stop, m=m, config=config)

    def recommend(
        self,
        candidates: Sequence[str] | None = None,
        m: int = 3,
        n_probes: int = 16,
    ) -> list[AttributeScore]:
        """Rank candidate explain-by attributes for this session's query.

        Delegates to :func:`~repro.core.recommend.recommend_explain_by`
        with the session's relation, measure and aggregate; probing builds
        small single-attribute cubes and never touches (or forces) the
        session's own prepared cube.
        """
        return recommend_explain_by(
            self.relation,
            self._measure,
            candidates=candidates,
            aggregate=self._aggregate,
            time_attr=self._time_attr,
            m=m,
            n_probes=n_probes,
        )

    def query(self) -> "ExplainQuery":
        """Start a fluent run-tier query bound to this session."""
        return ExplainQuery(self)

    def __repr__(self) -> str:
        state = "prepared" if self.prepared else "unprepared"
        rows = (
            f"{self._relation.n_rows} rows"
            if self._relation is not None
            else "relation unmaterialized"
        )
        return (
            f"ExplainSession({self._measure} by {list(self._explain_by)}, "
            f"{rows}, {state}, "
            f"{len(self._scorers)} cached scorer(s))"
        )


class ExplainQuery:
    """Fluent builder for one run-tier query against a session.

    Every setter returns the builder, so run-tier knobs chain without
    touching the prepare tier::

        result = (session.query()
                  .window("2020-03-01", "2020-07-01")
                  .metric("absolute-change")
                  .smoothing(7)
                  .top(5)
                  .run())

    :meth:`run` executes :meth:`ExplainSession.explain` with the collected
    overrides; :meth:`top_explanations` runs the two-point diff over the
    window endpoints instead.  Overrides are validated when the config is
    assembled, so a typo'd metric or variant fails before any work runs.
    """

    def __init__(self, session: ExplainSession):
        self._session = session
        self._start: Hashable | None = None
        self._stop: Hashable | None = None
        self._overrides: dict = {}

    # ------------------------------------------------------------------
    # Window and run-tier knobs
    # ------------------------------------------------------------------
    def window(
        self, start: Hashable | None = None, stop: Hashable | None = None
    ) -> "ExplainQuery":
        """Restrict the query to ``[start, stop]`` (inclusive labels)."""
        self._start = start
        self._stop = stop
        return self

    def metric(self, name: str) -> "ExplainQuery":
        """Difference metric for this query (e.g. ``absolute-change``)."""
        self._overrides["metric"] = name
        return self

    def top(self, m: int) -> "ExplainQuery":
        """Number of explanations returned per segment."""
        self._overrides["m"] = m
        return self

    def segments(self, k: int | None) -> "ExplainQuery":
        """Fix the segment count; ``None`` restores the elbow selection."""
        self._overrides["k"] = k
        return self

    def smoothing(self, window: int | None) -> "ExplainQuery":
        """Moving-average window applied before explaining (``None`` off)."""
        self._overrides["smoothing_window"] = window
        return self

    def variant(self, name: str) -> "ExplainQuery":
        """Within-segment variance design (default ``tse``)."""
        self._overrides["variant"] = name
        return self

    def filtered(self, enabled: bool = True, ratio: float | None = None) -> "ExplainQuery":
        """Toggle the support filter, optionally with a custom ratio."""
        self._overrides["use_filter"] = enabled
        if ratio is not None:
            self._overrides["filter_ratio"] = ratio
        return self

    def configured(self, **overrides) -> "ExplainQuery":
        """Arbitrary :class:`ExplainConfig` field overrides."""
        self._overrides.update(overrides)
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_config(self) -> ExplainConfig:
        """The session config with this query's overrides applied."""
        if not self._overrides:
            return self._session.config
        return self._session.config.updated(**self._overrides)

    def run(self) -> ExplainResult:
        """Execute the query and return the evolving explanations."""
        return self._session.explain(self._start, self._stop, config=self.build_config())

    def top_explanations(self) -> list[ScoredExplanation]:
        """Two-point diff between the window's endpoint labels.

        Every collected override (metric, smoothing, filter, ``m``, ...)
        applies, exactly as it would in :meth:`run`.
        """
        if self._start is None or self._stop is None:
            raise QueryError(
                "top_explanations requires an explicit window(start, stop)"
            )
        return self._session.top_explanations(
            self._start, self._stop, config=self.build_config()
        )

    def __repr__(self) -> str:
        knobs = ", ".join(f"{k}={v!r}" for k, v in self._overrides.items())
        return (
            f"ExplainQuery(window=[{self._start!r}, {self._stop!r}]"
            f"{', ' + knobs if knobs else ''})"
        )
