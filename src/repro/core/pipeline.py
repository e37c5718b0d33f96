"""The three-module TSExplain pipeline (paper Figure 7).

(a) *Precomputation*: build the explanation cube columnar-ly (difference
scores become O(1) lookups) — or load it from the persistent rollup cache
when :attr:`~repro.core.config.ExplainConfig.cache_dir` is set — then
apply smoothing and the support filter; a session does both
(:class:`~repro.core.session.ExplainSession`).
(b) *Cascading Analysts*: top-m non-overlapping explanations per segment,
optionally through guess-and-verify (O1).
(c) *K-Segmentation*: NDCG-based segment costs, the Eq. 11 dynamic program,
and the elbow selection of K — optionally on a sketch (O2).

Modules (b) and (c) are three functions over a derived scorer:
:func:`make_solver`, :func:`solve` (everything up to the DP, which no
``k`` depends on) and :func:`assemble` (one scheme's result).  A
session's queries and a stream's updates
(:class:`~repro.core.streaming.StreamingExplainer`) both run them.

Each call that returns a result is one ``explain`` span; its
``timings`` (the latency breakdown of Figure 15) are computed from that
span's subtree by :func:`explain_call`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.ca.cascade import CascadingAnalysts, DrillDownTree, single_attribute
from repro.ca.guess_verify import GuessAndVerify
from repro.core.config import ExplainConfig
from repro.core.result import ExplainResult, SegmentExplanation
from repro.cube.cache import RollupCache
from repro.cube.datacube import ExplanationCube
from repro.diff.scorer import ScoredExplanation, SegmentScorer
from repro.exceptions import SegmentationError
from repro.obs.trace import current_trace, span
from repro.segmentation.dp import SegmentationScheme, solve_k_segmentation
from repro.segmentation.kselect import elbow_point
from repro.segmentation.sketch import select_sketch
from repro.segmentation.variance import SegmentationCosts, scheme_total_variance
from repro.store.base import DataSource
from repro.store.ingest import IngestReport
from repro.store.ingest import load_or_build_from_source as load_or_build


def prepare_cube(
    source: DataSource,
    measure: str,
    explain_by: Sequence[str],
    aggregate: str,
    time_attr: str,
    config: ExplainConfig,
    chunk_rows: int,
) -> tuple[ExplanationCube, IngestReport]:
    """Serve or build the raw cube of :meth:`ExplainSession.prepare
    <repro.core.session.ExplainSession.prepare>`, its one caller.

    With a ``cache_dir`` configured the cube is looked up in the rollup
    cache first and stored there after a build; the build itself is one
    :func:`~repro.store.ingest.scan_cubes_from_source`.  The call is one
    ``cube-build`` span.  It lives here so the cache-or-build call is
    looked up as ``repro.core.pipeline.load_or_build``, the name
    ``perfbench``'s layer tracer times.
    """
    cache = (
        RollupCache(config.cache_dir, max_entries=config.cache_max_entries)
        if config.cache_dir
        else None
    )
    with span("cube-build"):
        return load_or_build(
            cache,
            source,
            explain_by,
            measure,
            aggregate=aggregate,
            time_attr=time_attr,
            max_order=config.max_order,
            deduplicate=config.deduplicate,
            chunk_rows=chunk_rows,
        )


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


def solve_schemes(
    costs: SegmentationCosts, k_max: int
) -> dict[int, SegmentationScheme]:
    """The K-segmentation DP: the optimal scheme for every feasible
    K <= ``min(k_max, N - 1)``, keyed by K.

    One pass fills every K (paper section 6), so nothing here depends on
    which K a query asks for.
    """
    schemes = solve_k_segmentation(
        costs.cost_matrix, k_max=min(k_max, costs.n_points - 1)
    )
    return {scheme.k: scheme for scheme in schemes}


def pick_scheme(
    by_k: dict[int, SegmentationScheme], n_points: int, k: int | None
) -> tuple[SegmentationScheme, bool]:
    """The scheme for ``k`` (``None``: the elbow of the K-variance curve).

    Returns ``(scheme, k_was_auto)``; an infeasible ``k`` raises
    :class:`~repro.exceptions.SegmentationError`.
    """
    if k is None:
        ks = sorted(by_k)
        return by_k[elbow_point(ks, [by_k[x].total_cost for x in ks])], True
    if k > n_points - 1:
        raise SegmentationError(f"k={k} infeasible for {n_points} candidate points")
    if k not in by_k:
        raise SegmentationError(f"no feasible scheme with k={k}")
    return by_k[k], False


def select_scheme(
    costs: SegmentationCosts, config: ExplainConfig
) -> tuple[SegmentationScheme, bool, dict[int, SegmentationScheme]]:
    """Solve the K-segmentation DP and pick K (fixed or elbow).

    Returns ``(scheme, k_was_auto, by_k)``.  A session's query and the
    streaming incremental path both go through :func:`solve_schemes` and
    :func:`pick_scheme`, so an incremental update can never pick a
    different K than a full re-run over the same cost matrix.
    """
    by_k = solve_schemes(costs, config.k_max)
    scheme, k_was_auto = pick_scheme(by_k, costs.n_points, config.k)
    return scheme, k_was_auto, by_k


def make_solver(scorer: SegmentScorer, config: ExplainConfig):
    """Module (b): the top-m solver for ``scorer`` under ``config``.

    Returns plain :class:`~repro.ca.cascade.CascadingAnalysts`, or
    :class:`~repro.ca.guess_verify.GuessAndVerify` when optimization O1 is
    enabled and the candidate set is hierarchical.
    """
    explanations = scorer.cube.explanations
    if config.use_guess_verify and not single_attribute(explanations):
        return GuessAndVerify(
            explanations,
            m=config.m,
            initial_guess=max(config.initial_guess, config.m),
        )
    return CascadingAnalysts(DrillDownTree(explanations), m=config.m)


def solve(
    scorer: SegmentScorer, config: ExplainConfig
) -> tuple[SegmentationCosts, dict[int, SegmentationScheme]]:
    """Modules (b) and (c) up to the DP: the work no ``k`` depends on.

    Returns the query's segment costs (phase II's, on a sketch) and
    :func:`solve_schemes` over them.  :func:`pick_scheme` and
    :func:`assemble` turn the pair into a result for any ``k``; a session
    keeps it to serve re-K queries
    (:class:`~repro.core.session.ExplainSession`).
    """
    with span("precompute"):
        solver = make_solver(scorer, config)

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
            costs = SegmentationCosts(scorer, solver, m=config.m, variant=config.variant)

    with span("segment"):
        by_k = solve_schemes(costs, config.k_max)
    return costs, by_k


def assemble(
    scorer: SegmentScorer,
    costs: SegmentationCosts,
    scheme: SegmentationScheme,
    k_was_auto: bool,
    by_k: dict[int, SegmentationScheme],
    config: ExplainConfig,
    epsilon: int,
    timings: dict[str, float],
) -> ExplainResult:
    """The result of ``scheme``: each segment's top-m explanations.

    ``epsilon`` is the raw (pre-filter) candidate count to report; the
    filtered count is the scorer's cube size.
    """
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
        epsilon=epsilon,
        filtered_epsilon=scorer.cube.n_explanations,
        config=config,
    )
