"""Tests for real-time incremental explanation (section 8)."""

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.streaming import StreamingExplainer
from repro.exceptions import QueryError
from repro.relation.schema import Schema
from repro.relation.table import Relation
from tests.conftest import regime_relation


def rows_for(t_values, cat_fn):
    rows = {"t": [], "cat": [], "sales": []}
    for t in t_values:
        for cat in ("a", "b", "c"):
            rows["t"].append(f"t{t:03d}")
            rows["cat"].append(cat)
            rows["sales"].append(cat_fn(t, cat))
    schema = Schema.build(dimensions=["cat"], measures=["sales"], time="t")
    return Relation(rows, schema)


@pytest.fixture
def explainer():
    return StreamingExplainer(
        regime_relation(),
        measure="sales",
        explain_by=["cat"],
        config=ExplainConfig(use_filter=False, k=2),
    )


def test_refresh_runs_full_pipeline(explainer):
    result = explainer.refresh()
    assert result.cuts == (12,)
    assert explainer.result is result


def test_update_before_refresh_triggers_full_run(explainer):
    new = rows_for(range(24, 27), lambda t, cat: 70.0 if cat == "b" else 10.0)
    result = explainer.update(new)
    assert result is explainer.result
    assert len(result.series) == 27


def test_update_extends_series_and_keeps_old_cut(explainer):
    explainer.refresh()
    # New data continues the 'b' regime: the old cut must survive.
    new = rows_for(
        range(24, 32),
        lambda t, cat: 10.0 + 5.0 * (t - 12) if cat == "b" else (58.0 if cat == "a" else 7.0),
    )
    result = explainer.update(new)
    assert len(result.series) == 32
    assert 12 in result.boundaries


def test_the_stream_session_keeps_one_derived_scorer(explainer):
    explainer.refresh()
    for day in (24, 25, 26):
        explainer.update(
            rows_for([day], lambda t, cat: 10.0 + 5.0 * (t - 12) if cat == "b" else 7.0)
        )
    session = explainer.session()
    assert session.cube.n_times == 27
    # Each update's full-window scorer supersedes the previous one, which
    # ends before the appended day and so survives the append.
    assert len(session._scorers) == 1
    assert [key[:2] for key in session._scorers] == [(0, 26)]


def test_update_detects_new_regime(explainer):
    explainer.refresh()
    # Category c suddenly explodes: a new cut appears in the new region.
    new = rows_for(
        range(24, 36),
        lambda t, cat: 7.0 + 30.0 * (t - 23) if cat == "c" else (58.0 if cat == "a" else 70.0),
    )
    config_k = None  # let the elbow pick
    explainer._config = explainer._config.updated(k=config_k)
    result = explainer.update(new)
    assert any(boundary >= 23 for boundary in result.cuts)
    top_last = result.segments[-1].explanations[0].explanation
    assert repr(top_last) == "cat=c"


def test_out_of_order_timestamps_within_delta(explainer):
    """Rows inside a delta may arrive in any order; result matches sorted."""
    explainer.refresh()
    ts = [27, 24, 26, 25, 24]  # shuffled, with a duplicate day
    delta = rows_for(ts, lambda t, cat: 70.0 if cat == "b" else 10.0)
    shuffled = explainer.update(delta)

    ordered = StreamingExplainer(
        regime_relation(),
        measure="sales",
        explain_by=["cat"],
        config=ExplainConfig(use_filter=False, k=2),
    )
    ordered.refresh()
    ordered_delta = rows_for(sorted(ts), lambda t, cat: 70.0 if cat == "b" else 10.0)
    result = ordered.update(ordered_delta)
    assert len(shuffled.series) == len(result.series) == 28
    # Same rows -> same aggregated series and segmentation.
    np.testing.assert_array_equal(shuffled.series.values, result.series.values)
    assert shuffled.boundaries == result.boundaries


def test_delta_predating_the_stream_raises(explainer):
    """A delta whose (new) timestamps all pre-date the cube is rejected."""
    explainer.refresh()
    before = explainer.relation
    stale = rows_for([-3, -2], lambda t, cat: 5.0)  # t-03 sorts before t000
    with pytest.raises(QueryError, match="precedes"):
        explainer.update(stale)
    # The rejected delta must not have corrupted the stream: relation and
    # results are unchanged and further updates work.
    assert explainer.relation is before
    good = rows_for([24], lambda t, cat: 10.0)
    assert len(explainer.update(good).series) == 25


def test_update_can_change_the_elbow_selected_k():
    """An update that starts a third regime moves the elbow's K."""
    explainer = StreamingExplainer(
        regime_relation(),
        measure="sales",
        explain_by=["cat"],
        config=ExplainConfig(use_filter=False),  # K chosen by the elbow
    )
    first = explainer.refresh()
    assert first.k_was_auto
    # Category c explodes: a regime the old 2-segment split cannot absorb.
    new = rows_for(
        range(24, 40),
        lambda t, cat: 7.0 + 40.0 * (t - 23) if cat == "c" else (58.0 if cat == "a" else 70.0),
    )
    updated = explainer.update(new)
    assert updated.k_was_auto
    assert updated.k > first.k
    assert repr(updated.segments[-1].explanations[0].explanation) == "cat=c"


def test_incremental_matches_full_rerun_on_stable_data(explainer):
    explainer.refresh()
    new = rows_for(
        range(24, 30),
        lambda t, cat: 10.0 + 5.0 * (t - 12) if cat == "b" else (58.0 if cat == "a" else 7.0),
    )
    incremental = explainer.update(new)
    full = StreamingExplainer(
        explainer.relation,
        measure="sales",
        explain_by=["cat"],
        config=ExplainConfig(use_filter=False, k=2),
    ).refresh()
    # The incremental cut must be (nearly) the full rerun's cut.
    assert abs(incremental.cuts[0] - full.cuts[0]) <= 1


def test_empty_delta_update_is_a_noop(explainer):
    """Regression: a poll tick with no new rows returns the cached result
    without re-running the pipeline, copying the relation, or touching
    the prepared session."""
    first = explainer.refresh()
    relation = explainer.relation
    session = explainer.session()
    empty = rows_for([], lambda t, cat: 0.0)
    assert explainer.update(empty) is first
    assert explainer.relation is relation
    assert explainer.session() is session
    # A later real update behaves exactly as if the tick never happened.
    new = rows_for(
        range(24, 28),
        lambda t, cat: 10.0 + 5.0 * (t - 12) if cat == "b" else 10.0,
    )
    after_tick = explainer.update(new)
    replay = StreamingExplainer(
        regime_relation(),
        measure="sales",
        explain_by=["cat"],
        config=ExplainConfig(use_filter=False, k=2),
    )
    replay.refresh()
    no_tick = replay.update(new)
    assert after_tick.cuts == no_tick.cuts
    assert list(after_tick.series.values) == list(no_tick.series.values)


def result_print(result):
    """Byte-exact rendering of everything a result reports."""
    return (
        result.k,
        result.boundaries,
        result.epsilon,
        result.filtered_epsilon,
        result.total_variance.hex(),
        tuple((k, v.hex()) for k, v in result.k_variance_curve.items()),
        tuple(
            (
                segment.variance.hex(),
                tuple(
                    (repr(s.explanation), s.gamma.hex(), s.tau)
                    for s in segment.explanations
                ),
            )
            for segment in result.segments
        ),
    )


def test_a_cached_stream_stores_only_its_base_cube(tmp_path):
    """With a cache_dir the stream's session loads or stores the base cube
    through its prepare; updates, empty ticks included, write nothing and
    return exactly what an uncached stream returns."""
    from repro.cube.cache import RollupCache

    deltas = [
        rows_for(range(24, 26), lambda t, cat: 10.0 + 5.0 * (t - 12) if cat == "b" else 10.0),
        rows_for(range(26, 28), lambda t, cat: 40.0 if cat == "a" else 10.0),
    ]
    empty = rows_for([], lambda t, cat: 0.0)

    def run(directory, with_tick):
        explainer = StreamingExplainer(
            regime_relation(),
            measure="sales",
            explain_by=["cat"],
            config=ExplainConfig(use_filter=False, k=2, cache_dir=directory),
        )
        prints = [result_print(explainer.refresh())]
        for delta in deltas:
            if with_tick:
                explainer.update(empty)
            prints.append(result_print(explainer.update(delta)))
        return prints, explainer.session().cache_hit

    uncached, _ = run(None, False)
    for name, with_tick in (("plain", False), ("ticked", True)):
        directory = str(tmp_path / name)
        assert run(directory, with_tick) == (uncached, False)
        assert len(RollupCache(directory).entries()) == 1
        # A restarted stream loads its base cube from the cache.
        assert run(directory, with_tick) == (uncached, True)
        assert len(RollupCache(directory).entries()) == 1
