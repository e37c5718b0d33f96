"""``ExplainResult.timings`` are computed from the call's ``explain`` span."""

import time

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.core.streaming import StreamingExplainer
from repro.datasets.registry import load_dataset
from repro.obs.trace import start_trace
from repro.serve.registry import default_config_for
from tests.conftest import regime_relation

MODULES = ("precomputation", "cascading", "segmentation")


def traced(call):
    """Run ``call`` in a sampled trace; its result and its one ``explain`` span."""
    with start_trace("test") as trace:
        result = call()
    calls = [entry for entry in trace.spans if entry.name == "explain"]
    assert len(calls) == 1
    return result, calls[0]


def assert_timings_are_the_span(result, call):
    timings = result.timings
    assert set(timings) == set(MODULES) | {"total"}
    assert timings["total"] == call.duration
    assert sum(timings[name] for name in MODULES) == pytest.approx(
        timings["total"], rel=1e-9
    )


def test_session_explain_timings_are_its_explain_span():
    session = ExplainSession(
        regime_relation(), "sales", ["cat"], config=ExplainConfig.optimized()
    )
    for _ in range(2):  # the first call builds the cube, the second does not
        assert_timings_are_the_span(*traced(session.explain))


def test_prepare_override_timings_are_its_one_explain_span(tmp_path):
    session = ExplainSession(regime_relation(), "sales", ["cat"])
    session.prepare()
    override = session.config.updated(cache_dir=str(tmp_path))
    assert_timings_are_the_span(*traced(lambda: session.explain(config=override)))


def test_streaming_update_timings_are_its_explain_span():
    relation = regime_relation(n=30)
    late = np.asarray([label >= "t024" for label in relation.column("t")])
    explainer = StreamingExplainer(
        relation.take(~late), "sales", ["cat"], config=ExplainConfig.optimized()
    )
    explainer.refresh()
    assert_timings_are_the_span(*traced(lambda: explainer.update(relation.take(late))))


def test_total_is_the_callers_wall_clock():
    # Under the serving default, gamma gathers, per-winner tau lookups and
    # result assembly are a third of a covid-total query; a clock that
    # misses any of them reports ``total`` well under the wall time.
    dataset = load_dataset("covid-total")
    session = ExplainSession(
        dataset.relation,
        dataset.measure,
        dataset.explain_by,
        aggregate=dataset.aggregate,
        config=default_config_for(dataset),
    )
    session.prepare()
    started = time.perf_counter()
    result = session.explain()
    wall = time.perf_counter() - started
    assert 0.95 * wall <= result.timings["total"] <= wall
