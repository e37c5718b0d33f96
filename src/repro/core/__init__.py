"""TSExplain core: engine facade, pipeline, configuration, results."""

from repro.core.config import ExplainConfig
from repro.core.engine import TSExplain
from repro.core.hints import SegmentHint, drill_down, variance_hints
from repro.core.recommend import AttributeScore, recommend_explain_by
from repro.core.result import ExplainResult, SegmentExplanation
from repro.core.seasonal import Decomposition, decompose
from repro.core.session import ExplainQuery, ExplainSession
from repro.core.smoothing import moving_average, smooth_cube, smooth_series
from repro.core.streaming import StreamingExplainer

__all__ = [
    "AttributeScore",
    "Decomposition",
    "ExplainConfig",
    "ExplainQuery",
    "ExplainResult",
    "ExplainSession",
    "SegmentExplanation",
    "SegmentHint",
    "StreamingExplainer",
    "TSExplain",
    "decompose",
    "drill_down",
    "moving_average",
    "recommend_explain_by",
    "smooth_cube",
    "smooth_series",
    "variance_hints",
]
