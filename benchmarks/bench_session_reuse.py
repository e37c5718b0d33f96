"""Session reuse: cold builds vs warm O(window) queries on one session.

The session API's claim is the paper's two-tier split made public: prepare
once (build the cube), then serve every interactive window query as a
slice of the prepared arrays.  Three claims are measured:

1. a **warm** window query on a prepared :class:`ExplainSession` is at
   least 10x faster than a **cold** ``TSExplain(...).explain(start, stop)``
   that has to build the cube first;
2. warm and cold answers carry **byte-identical** top-k explanations
   (``float.hex`` comparison, no tolerance) — and both match the legacy
   filter-the-relation-and-rebuild path the session API replaced;
3. repeating the query hits the per-session scorer LRU (no re-derivation)
   and the costs memo on its entry (no solve: the warm query only picks
   its scheme and assembles the result).
"""

import time

from repro.core.config import ExplainConfig
from repro.core.engine import TSExplain
from repro.core.session import ExplainSession
from repro.datasets.synthetic import generate_synthetic
from support import emit, is_paper_scale


def _top_k_fingerprint(result):
    """Byte-exact rendering of every segment's top explanations."""
    return tuple(
        (
            segment.start_label,
            segment.stop_label,
            tuple(
                (repr(s.explanation), s.gamma.hex(), s.tau)
                for s in segment.explanations
            ),
        )
        for segment in result.segments
    )


def bench_session_reuse(benchmark):
    n_points = 960 if is_paper_scale() else 480
    n_categories = 512 if is_paper_scale() else 256
    synthetic = generate_synthetic(
        seed=11, snr_db=40.0, n_points=n_points, n_categories=n_categories
    )
    dataset = synthetic.dataset
    relation = dataset.relation
    explain_by = list(dataset.explain_by)
    measure = dataset.measure
    config = ExplainConfig(k=3)

    labels = dataset.series().labels
    start, stop = labels[n_points // 3], labels[n_points // 3 + 11]

    # --- cold: a fresh engine per query pays the build every time -------
    cold_results = []
    cold_seconds = []
    for _ in range(3):
        started = time.perf_counter()
        engine = TSExplain(relation, measure, explain_by, config=config)
        cold_results.append(engine.explain(start, stop))
        cold_seconds.append(time.perf_counter() - started)
    cold_best = min(cold_seconds)

    # --- warm: one session, the window is an array slice ----------------
    session = ExplainSession(relation, measure, explain_by, config=config)
    session.prepare()
    session.explain(start, stop)  # populate the scorer LRU and costs memo

    def warm_query():
        return session.explain(start, stop)

    warm_result = benchmark.pedantic(warm_query, rounds=5, iterations=1)
    warm_seconds = []
    for _ in range(3):
        started = time.perf_counter()
        warm_query()
        warm_seconds.append(time.perf_counter() - started)
    warm_best = min(warm_seconds)
    speedup = cold_best / warm_best

    # --- the legacy path: filter the relation, rebuild the cube ---------
    positions, time_labels = relation.time_positions(None)
    first, last = time_labels.index(start), time_labels.index(stop)
    windowed = relation.take((positions >= first) & (positions <= last))
    legacy = ExplainSession(windowed, measure, explain_by, config=config).explain()

    # --- identical answers, byte for byte -------------------------------
    warm_print = _top_k_fingerprint(warm_result)
    assert warm_print == _top_k_fingerprint(cold_results[0])
    assert warm_print == _top_k_fingerprint(legacy)

    lines = [
        f"rows={relation.n_rows} epsilon={session.cube.n_explanations} "
        f"n={n_points} window=[{start}..{stop}]",
        f"cold  (fresh TSExplain, build + query): {cold_best * 1000:8.1f} ms",
        f"warm  (LRU scorer + costs memo):        {warm_best * 1000:8.1f} ms",
        f"speedup (cold -> warm): {speedup:.1f}x",
        f"warm precomputation reported: "
        f"{warm_result.timings['precomputation'] * 1000:.3f} ms",
        "warm vs cold vs legacy-rebuild top-k: byte-identical",
    ]
    emit("session_reuse", "\n".join(lines))
    benchmark.extra_info["session_speedup"] = round(speedup, 1)

    assert speedup >= 10.0
