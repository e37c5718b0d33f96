"""Tests for ASCII charts and explanation reports."""

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.exceptions import QueryError
from repro.relation.timeseries import TimeSeries
from repro.viz.ascii_chart import ascii_chart, sparkline
from repro.viz.report import (
    explanation_table,
    full_report,
    k_variance_table,
    segment_sparklines,
)
from tests.conftest import regime_relation


@pytest.fixture(scope="module")
def result():
    return ExplainSession(
        regime_relation(),
        "sales",
        ["cat"],
        config=ExplainConfig(use_filter=False, k=2),
    ).explain()


def test_ascii_chart_dimensions():
    series = TimeSeries(np.linspace(0, 10, 50), [f"t{i}" for i in range(50)])
    chart = ascii_chart(series, cuts=[25], width=60, height=10)
    lines = chart.split("\n")
    assert len(lines) == 11  # height + footer
    assert "|" in chart  # the cut marker
    assert "t0" in lines[-1] and "t49" in lines[-1]


def test_ascii_chart_validation():
    with pytest.raises(QueryError):
        ascii_chart(TimeSeries([1.0]), width=4, height=2)


def test_ascii_chart_constant_series():
    chart = ascii_chart(TimeSeries([5.0, 5.0, 5.0]))
    assert "*" in chart


def test_sparkline_length_and_range():
    line = sparkline(np.linspace(0, 1, 200), width=40)
    assert len(line) == 40
    assert line[0] == "▁" and line[-1] == "█"
    assert sparkline(np.asarray([])) == ""


def test_explanation_table_contains_effects(result):
    table = explanation_table(result)
    assert "Top-1 Expl" in table
    assert "cat=a +" in table
    assert "cat=b +" in table


def test_k_variance_table_marks_elbow():
    session = ExplainSession(
        regime_relation(), "sales", ["cat"], config=ExplainConfig(use_filter=False)
    )
    auto_result = session.explain()
    table = k_variance_table(auto_result)
    assert "<- elbow" in table


def test_full_report_sections(result):
    report = full_report(result)
    assert "Segment" in report
    assert "total variance" in report


def test_segment_sparklines_one_line_per_segment(result):
    lines = segment_sparklines(result).split("\n")
    assert len(lines) == len(result.segments)
    assert "cat=a" in lines[0]
