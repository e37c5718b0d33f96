"""The session's costs memo: a query that changes only ``k`` reuses the
segment costs and DP schemes of its scorer's LRU entry."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import session as session_module
from repro.core.config import ExplainConfig
from repro.core.session import COSTS_MEMO_SIZE, ExplainSession
from repro.exceptions import SegmentationError
from repro.obs.trace import start_trace
from tests.conftest import build_relation

#: Spans only a solve opens; a memo hit opens none of them.
SOLVE_SPANS = {"derive-scorer", "precompute", "unit-solve", "ca-solve"}

KS = (None, 3, 5)


def noisy_relation(n: int = 40, seed: int = 7):
    """Random walks over a 3 x 3 grid of (a, b) cells."""
    rng = np.random.default_rng(seed)
    walks = np.cumsum(rng.normal(0.0, 4.0, size=(9, n)), axis=1) + 100.0
    rows = {"t": [], "a": [], "b": [], "m": []}
    for t in range(n):
        for cell in range(9):
            rows["t"].append(f"t{t:03d}")
            rows["a"].append("xyz"[cell // 3])
            rows["b"].append("pqr"[cell % 3])
            rows["m"].append(float(walks[cell, t]))
    return build_relation(rows, dimensions=["a", "b"], measures=["m"], time="t")


def session_for(explain_by, relation=None, **config) -> ExplainSession:
    return ExplainSession(
        noisy_relation() if relation is None else relation,
        "m",
        list(explain_by),
        config=ExplainConfig.optimized().updated(**config),
    )


def fingerprint(result) -> tuple:
    """Every reported float as ``float.hex``, with the boundaries and
    explanations they belong to."""
    return (
        result.k,
        result.k_was_auto,
        result.epsilon,
        result.filtered_epsilon,
        result.total_variance.hex(),
        tuple((k, cost.hex()) for k, cost in result.k_variance_curve.items()),
        tuple(
            (
                segment.start,
                segment.stop,
                segment.variance.hex(),
                tuple(
                    (repr(scored.explanation), scored.gamma.hex(), scored.tau)
                    for scored in segment.explanations
                ),
            )
            for segment in result.segments
        ),
    )


def traced_explain(session, *window, **overrides):
    """``session.explain`` in a trace: the result and its span names."""
    config = session.config.updated(**overrides)
    with start_trace("test") as trace:
        result = session.explain(*window, config=config)
    return result, {entry.name for entry in trace.spans}


def live_entries(session) -> int:
    return sum(len(derived.solved) for derived in session._scorers.values())


@pytest.mark.parametrize("explain_by", [("a",), ("a", "b")], ids=["flat", "hier"])
def test_re_k_results_equal_a_fresh_sessions(explain_by):
    session = session_for(explain_by)
    session.explain(config=session.config.updated(k=None))
    for k in KS:
        served, names = traced_explain(session, k=k)
        assert not names & SOLVE_SPANS, names
        fresh = session_for(explain_by).explain(
            config=ExplainConfig.optimized(k=k)
        )
        assert fingerprint(served) == fingerprint(fresh)
        assert served.config.k == k


def test_a_hit_solves_nothing_and_charges_no_cascading_time():
    session = session_for(("a", "b"))
    first, names = traced_explain(session, "t005", "t035")
    assert {"derive-scorer", "unit-solve", "ca-solve"} <= names
    assert first.timings["cascading"] > 0.0
    for k in (3, 5, None):
        again, names = traced_explain(session, "t005", "t035", k=k)
        assert names == {"test", "explain", "finalize"}
        assert again.timings["cascading"] == 0.0
        assert again.timings["precomputation"] == 0.0


@pytest.mark.parametrize(
    "override",
    [{"m": 2}, {"variant": "dist1"}, {"use_sketch": False}, {"k_max": 10}],
    ids=["m", "variant", "use_sketch", "k_max"],
)
def test_a_cost_shaping_field_misses(override):
    session = session_for(("a", "b"))
    session.explain()
    served, names = traced_explain(session, **override)
    assert "unit-solve" in names
    fresh = session_for(("a", "b"), **override).explain()
    assert fingerprint(served) == fingerprint(fresh)
    # ...and is memoized in its own right.
    _, names = traced_explain(session, k=3, **override)
    assert not names & SOLVE_SPANS


def test_append_drops_the_entries_whose_windows_reach_the_appended_region():
    relation = noisy_relation(n=41)
    labels = relation.column("t")
    session = session_for(
        ("a", "b"), relation=relation.take(np.asarray([t < "t039" for t in labels]))
    )
    session.explain("t000", "t020")
    session.explain("t010", "t038")
    info = session.append(relation.take(np.asarray([t >= "t039" for t in labels])))
    assert info is not None and info.first_changed_position == 39
    for window in (("t000", "t020"), ("t010", "t038")):
        _, names = traced_explain(session, *window, k=3)
        assert not names & SOLVE_SPANS, window  # ends before t039: kept

    # Late rows for t030 change every window that reaches it.
    info = session.append(relation.take(np.asarray([t == "t030" for t in labels])))
    assert info.first_changed_position == 30
    early, names = traced_explain(session, "t000", "t020", k=3)
    assert not names & SOLVE_SPANS
    overlapping, names = traced_explain(session, "t010", "t038", k=3)
    assert "unit-solve" in names
    fresh = session_for(("a", "b"), relation=session.relation)
    for served, window in ((early, ("t000", "t020")), (overlapping, ("t010", "t038"))):
        expected = fresh.explain(*window, config=fresh.config.updated(k=3))
        assert fingerprint(served) == fingerprint(expected)


def test_adopt_snapshot_drops_every_entry():
    session = session_for(("a", "b"))
    session.explain()
    session.explain("t000", "t020")
    assert live_entries(session) == 2
    session.adopt_snapshot(session.cube)
    assert live_entries(session) == 0
    _, names = traced_explain(session, k=3)
    assert "unit-solve" in names


def test_live_entries_are_capped_least_recently_used_first():
    session = session_for(("a",))
    windows = [(f"t{start:03d}", f"t{start + 20:03d}") for start in range(6)]
    for window in windows:
        session.explain(*window)
    assert live_entries(session) == COSTS_MEMO_SIZE == 4
    _, names = traced_explain(session, *windows[2], k=3)  # a hit refreshes it
    assert not names & SOLVE_SPANS
    session.explain("t010", "t035")  # drops the least recently used: windows[3]
    assert live_entries(session) == COSTS_MEMO_SIZE
    for window, kept in ((windows[2], True), (windows[5], True), (windows[3], False)):
        _, names = traced_explain(session, *window, k=3)
        assert bool(names & SOLVE_SPANS) is not kept, window


def test_scorer_eviction_drops_its_entry():
    session = ExplainSession(
        noisy_relation(),
        "m",
        ["a"],
        config=ExplainConfig.optimized(),
        scorer_cache_size=1,
    )
    session.explain("t000", "t020")
    session.explain("t005", "t025")
    assert live_entries(session) == 1
    _, names = traced_explain(session, "t000", "t020", k=3)
    assert "derive-scorer" in names and "unit-solve" in names


@pytest.mark.parametrize("primed", [True, False], ids=["hits", "racing-misses"])
@pytest.mark.parametrize("variant", ["tse", "allpair"])
def test_threads_sharing_one_entry_get_identical_results(variant, primed, monkeypatch):
    session = session_for(("a", "b"), variant=variant)
    if primed:
        session.explain()  # publishes the entry every thread then hits
    expected = {
        k: fingerprint(
            session_for(("a", "b"), variant=variant).explain(
                config=ExplainConfig.optimized(variant=variant, k=k)
            )
        )
        for k in KS
    }
    # Results assembled from one costs object never overlap in time.
    inside: dict[int, int] = {}
    overlaps: list[int] = []
    guard = threading.Lock()
    assemble = session_module.assemble

    def watched(scorer, costs, *rest):
        with guard:
            inside[id(costs)] = inside.get(id(costs), 0) + 1
            if inside[id(costs)] > 1:
                overlaps.append(id(costs))
        try:
            time.sleep(0.001)
            return assemble(scorer, costs, *rest)
        finally:
            with guard:
                inside[id(costs)] -= 1

    monkeypatch.setattr(session_module, "assemble", watched)
    barrier = threading.Barrier(8)
    results: list = []
    errors: list = []

    def run(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            for round_ in range(6):
                k = KS[(index + round_) % len(KS)]
                config = session.config.updated(k=k)
                results.append((k, fingerprint(session.explain(config=config))))
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(error)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert not overlaps
    assert len(results) == 48
    assert all(print_ == expected[k] for k, print_ in results)
    assert live_entries(session) == 1


def test_an_infeasible_k_still_raises():
    session = session_for(("a",), relation=noisy_relation(n=6), use_sketch=False)
    session.explain()
    with pytest.raises(SegmentationError) as served:
        session.explain(config=session.config.updated(k=8))
    fresh = session_for(("a",), relation=noisy_relation(n=6), use_sketch=False)
    with pytest.raises(SegmentationError) as expected:
        fresh.explain(config=fresh.config.updated(k=8))
    assert str(served.value) == str(expected.value) == (
        "k=8 infeasible for 6 candidate points"
    )
    # The failed query leaves the entry serving.
    _, names = traced_explain(session, k=5)
    assert not names & SOLVE_SPANS
