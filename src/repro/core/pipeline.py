"""The three-module TSExplain pipeline (paper Figure 7).

(a) *Precomputation*: build the explanation cube columnar-ly (difference
scores become O(1) lookups) — or load it from the persistent rollup cache
when :attr:`~repro.core.config.ExplainConfig.cache_dir` is set — then
apply smoothing and the support filter.
(b) *Cascading Analysts*: top-m non-overlapping explanations per segment,
optionally through guess-and-verify (O1).
(c) *K-Segmentation*: NDCG-based segment costs, the Eq. 11 dynamic program,
and the elbow selection of K — optionally on a sketch (O2).

Each call that returns a result is one ``explain`` span; its
``timings`` (the latency breakdown of Figure 15) are computed from that
span's subtree by :func:`explain_call`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.ca.cascade import CascadingAnalysts, DrillDownTree
from repro.ca.guess_verify import GuessAndVerify
from repro.core.config import ExplainConfig
from repro.core.result import ExplainResult, SegmentExplanation
from repro.core.smoothing import smooth_cube
from repro.cube.cache import RollupCache, load_or_build
from repro.cube.datacube import ExplanationCube
from repro.cube.filters import apply_support_filter
from repro.diff.scorer import ScoredExplanation, SegmentScorer
from repro.exceptions import SegmentationError
from repro.obs.trace import current_trace, span
from repro.relation.table import Relation
from repro.segmentation.dp import SegmentationScheme, solve_k_segmentation
from repro.segmentation.kselect import elbow_point
from repro.segmentation.sketch import select_sketch
from repro.segmentation.variance import SegmentationCosts, scheme_total_variance


def prepare_cube(
    relation: Relation,
    measure: str,
    explain_by: Sequence[str],
    aggregate: str,
    time_attr: str | None,
    config: ExplainConfig,
) -> tuple[ExplanationCube, bool | None]:
    """Build or cache-load the raw cube a query's prepare tier needs.

    The one place the cache construction and build arguments live —
    :meth:`ExplainPipeline.prepare` and
    :meth:`~repro.core.session.ExplainSession.prepare` both call it, so
    session-served and pipeline-served cubes can never diverge.  Returns
    ``(cube, cache_hit)`` with ``cache_hit=None`` when the config names no
    ``cache_dir``.
    """
    cache = (
        RollupCache(config.cache_dir, max_entries=config.cache_max_entries)
        if config.cache_dir
        else None
    )
    with span("cube-build"):
        cube, hit = load_or_build(
            cache,
            relation,
            explain_by,
            measure,
            aggregate=aggregate,
            time_attr=time_attr,
            max_order=config.max_order,
            deduplicate=config.deduplicate,
        )
    return cube, (hit if cache is not None else None)


#: The Figure 15 module charged with each span's self time.  Every span
#: not named here, the ``explain`` span's own self time included, is
#: segmentation.
FIGURE15_MODULES = {
    "ca-solve": "cascading",
    "cube-build": "precomputation",
    "ingest": "precomputation",
    "derive-scorer": "precomputation",
    "precompute": "precomputation",
    "cube-append": "precomputation",
    "unit-solve": "precomputation",
}


@contextmanager
def explain_call() -> Iterator[dict[str, float]]:
    """One result-producing call: its ``explain`` span and its ``timings``.

    Yields the dict to hand to the result as ``timings``.  When the span
    closes, each span's self time in its subtree is charged to its
    module (:data:`FIGURE15_MODULES`) and ``total`` is set to the span's
    duration, so the three modules sum to the call's own wall time.
    """
    timings = dict.fromkeys(("precomputation", "cascading", "segmentation"), 0.0)
    with span("explain") as call:
        trace = current_trace()
        yield timings
    for name, seconds in trace.self_times(call).items():
        timings[FIGURE15_MODULES.get(name, "segmentation")] += seconds
    timings["total"] = call.duration


def select_scheme(
    costs: SegmentationCosts, config: ExplainConfig
) -> tuple[SegmentationScheme, bool, dict[int, SegmentationScheme]]:
    """Solve the K-segmentation DP and pick K (fixed or elbow).

    Returns ``(scheme, k_was_auto, by_k)``.  The one implementation both
    :meth:`ExplainPipeline.run` and the streaming incremental path use, so
    an incremental update can never pick a different K than a full re-run
    over the same cost matrix.
    """
    k_cap = min(config.k_max, costs.n_points - 1)
    requested_k = config.k
    if requested_k is not None and requested_k > costs.n_points - 1:
        raise SegmentationError(
            f"k={requested_k} infeasible for {costs.n_points} candidate points"
        )
    schemes = solve_k_segmentation(
        costs.cost_matrix, k_max=max(k_cap, requested_k or 1)
    )
    by_k = {scheme.k: scheme for scheme in schemes}
    if requested_k is None:
        ks = sorted(by_k)
        chosen_k = elbow_point(ks, [by_k[k].total_cost for k in ks])
        k_was_auto = True
    else:
        if requested_k not in by_k:
            raise SegmentationError(f"no feasible scheme with k={requested_k}")
        chosen_k = requested_k
        k_was_auto = False
    return by_k[chosen_k], k_was_auto, by_k


class ExplainPipeline:
    """One end-to-end TSExplain run over a relation.

    Parameters
    ----------
    relation:
        Source rows.
    measure:
        Measure attribute ``M``.
    explain_by:
        Explain-by attribute names ``A``.
    aggregate:
        Aggregate function name (default ``sum``).
    time_attr:
        Time attribute ``T``; defaults to the schema's time attribute.
    config:
        Pipeline configuration (default: paper defaults with the support
        filter on).
    """

    def __init__(
        self,
        relation: Relation,
        measure: str,
        explain_by: Sequence[str],
        aggregate: str = "sum",
        time_attr: str | None = None,
        config: ExplainConfig | None = None,
    ):
        self._relation = relation
        self._measure = measure
        self._explain_by = tuple(explain_by)
        self._aggregate = aggregate
        self._time_attr = time_attr
        self._config = config or ExplainConfig()
        self._cube: ExplanationCube | None = None
        self._scorer: SegmentScorer | None = None
        self._epsilon = 0
        self._filtered_epsilon = 0
        self._cache_hit: bool | None = None

    @classmethod
    def from_scorer(
        cls,
        scorer: SegmentScorer,
        config: ExplainConfig | None = None,
        epsilon: int | None = None,
        cache_hit: bool | None = None,
    ) -> "ExplainPipeline":
        """A pipeline whose prepare phase is an already-derived scorer.

        This is how :class:`~repro.core.session.ExplainSession` serves
        run-tier queries: the session slices/smooths/filters its prepared
        cube into ``scorer`` once, and every pipeline seeded from it skips
        module (a) entirely — :meth:`prepare` returns ``scorer`` as-is.

        Parameters
        ----------
        scorer:
            The derived run-tier scorer (already sliced, smoothed and
            support-filtered as the query requires).
        config:
            Run configuration; its prepare-tier fields are ignored because
            the cube already exists.
        epsilon:
            Raw (pre-filter) candidate count to report in the result;
            defaults to the scorer's cube size.
        cache_hit:
            Value for :attr:`cache_hit` (the session's rollup-cache
            outcome), ``None`` when no cache was involved.
        """
        cube = scorer.cube
        pipeline = cls.__new__(cls)
        pipeline._relation = None
        pipeline._measure = cube.measure
        pipeline._explain_by = cube.explain_by
        pipeline._aggregate = cube.aggregate.name
        pipeline._time_attr = None
        pipeline._config = config or ExplainConfig()
        pipeline._cube = cube
        pipeline._scorer = scorer
        pipeline._epsilon = cube.n_explanations if epsilon is None else epsilon
        pipeline._filtered_epsilon = cube.n_explanations
        pipeline._cache_hit = cache_hit
        return pipeline

    @property
    def config(self) -> ExplainConfig:
        return self._config

    @property
    def cache_hit(self) -> bool | None:
        """Whether :meth:`prepare` served the cube from the rollup cache.

        ``None`` until :meth:`prepare` has run or when no ``cache_dir`` is
        configured; otherwise ``True`` (loaded from disk, build skipped)
        or ``False`` (built from the relation, and stored when the entry
        could be persisted — store failures degrade to an uncached build).
        """
        return self._cache_hit

    # ------------------------------------------------------------------
    # Module (a): precomputation
    # ------------------------------------------------------------------
    def prepare(self) -> SegmentScorer:
        """Build or cache-load the cube, then smooth, filter and wrap it.

        Idempotent: repeated calls return the same scorer.  When the
        config names a ``cache_dir``, the raw cube is looked up in the
        :class:`~repro.cube.cache.RollupCache` first (see that module for
        the invalidation contract) and stored there after a fresh build;
        smoothing and the support filter always run on the loaded/built
        cube because they depend on per-query configuration.
        """
        if self._scorer is not None:
            return self._scorer
        config = self._config
        cube, hit = prepare_cube(
            self._relation,
            self._measure,
            self._explain_by,
            self._aggregate,
            self._time_attr,
            config,
        )
        if hit is not None:
            self._cache_hit = hit
        self._epsilon = cube.n_explanations
        if config.smoothing_window is not None:
            cube = smooth_cube(cube, config.smoothing_window)
        if config.use_filter:
            cube = apply_support_filter(cube, config.filter_ratio)
        self._filtered_epsilon = cube.n_explanations
        self._cube = cube
        self._scorer = SegmentScorer(cube, config.metric)
        return self._scorer

    # ------------------------------------------------------------------
    def solver(self, scorer: SegmentScorer | None = None):
        """Module (b) top-m solver bound to this pipeline's configuration.

        Returns plain :class:`~repro.ca.cascade.CascadingAnalysts`, or
        :class:`~repro.ca.guess_verify.GuessAndVerify` when optimization
        O1 is enabled and the candidate set is hierarchical.  ``scorer``
        defaults to :meth:`prepare`'s result; pass one explicitly to bind
        the solver to a restricted or smoothed cube.  This is the public
        entry point callers (engine, streaming, evaluation) should use.
        """
        if scorer is None:
            scorer = self.prepare()
        tree = DrillDownTree(scorer.cube.explanations)
        if self._config.use_guess_verify and not tree.is_flat:
            return GuessAndVerify(
                scorer.cube.explanations,
                m=self._config.m,
                initial_guess=max(self._config.initial_guess, self._config.m),
            )
        return CascadingAnalysts(tree, m=self._config.m)

    # ------------------------------------------------------------------
    # Full run
    # ------------------------------------------------------------------
    def run(self) -> ExplainResult:
        """Execute the pipeline and return the evolving explanations.

        The call is one ``explain`` span (:func:`explain_call`).
        """
        with explain_call() as timings:
            return self._run(timings)

    def _run(self, timings: dict[str, float]) -> ExplainResult:
        """The pipeline's work inside a caller's ``explain`` span."""
        config = self._config
        with span("precompute"):
            scorer = self.prepare()
            solver = self.solver(scorer)

        n_times = scorer.cube.n_times
        if n_times < 2:
            raise SegmentationError("cannot explain a series with fewer than 2 points")

        with span("score"):
            if config.use_sketch and n_times >= 8:
                positions, sketch_costs = select_sketch(
                    scorer,
                    solver,
                    m=config.m,
                    variant=config.variant,
                    length_cap=config.sketch_length,
                    size=config.sketch_size,
                )
                # Phase II: regrid phase I onto the sketch, so unit objects
                # are solved once and phase-I costs between sketch points
                # carry over.
                costs = sketch_costs.extend(scorer, solver, cut_positions=positions)
            else:
                costs = SegmentationCosts(
                    scorer, solver, m=config.m, variant=config.variant
                )

        with span("segment"):
            scheme, k_was_auto, by_k = select_scheme(costs, config)

        with span("finalize"):
            return self._assemble(scorer, costs, scheme, k_was_auto, by_k, timings)

    # ------------------------------------------------------------------
    def _assemble(
        self,
        scorer: SegmentScorer,
        costs: SegmentationCosts,
        scheme: SegmentationScheme,
        k_was_auto: bool,
        by_k: dict[int, SegmentationScheme],
        timings: dict[str, float],
    ) -> ExplainResult:
        series = scorer.cube.overall_series()
        # Every cost entry is measured over full-resolution unit objects on
        # any cut grid (a sketch, the streaming schedule), so these are the
        # Table 7 numbers a full-grid build would report.
        total_variance, per_segment = scheme_total_variance(costs, scheme.boundaries)
        segments = []
        for (left, right), segment_variance in zip(scheme.segments(), per_segment):
            top = costs.segment_result(left, right)
            explanations = tuple(
                ScoredExplanation(
                    explanation=scorer.cube.explanations[index],
                    gamma=gamma,
                    tau=tau,
                )
                for index, gamma, tau in zip(top.indices, top.gammas, top.taus)
            )
            start_pos = int(costs.positions[left])
            stop_pos = int(costs.positions[right])
            segments.append(
                SegmentExplanation(
                    start=start_pos,
                    stop=stop_pos,
                    start_label=series.label_at(start_pos),
                    stop_label=series.label_at(stop_pos),
                    explanations=explanations,
                    variance=segment_variance,
                )
            )
        return ExplainResult(
            series=series,
            segments=tuple(segments),
            k=scheme.k,
            k_was_auto=k_was_auto,
            k_variance_curve={k: s.total_cost for k, s in sorted(by_k.items())},
            total_variance=total_variance,
            timings=timings,
            epsilon=self._epsilon,
            filtered_epsilon=self._filtered_epsilon,
            config=self._config,
        )
