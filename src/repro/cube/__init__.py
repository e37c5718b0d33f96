"""The per-explanation time-series data cube, the delta ledger it is built
through (candidate enumeration included), and the persistent rollup cache
that makes built cubes reusable artifacts."""

from repro.cube.cache import CacheEntry, CubeKey, RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from repro.cube.delta import AppendInfo
from repro.cube.filters import (
    DEFAULT_FILTER_RATIO,
    apply_support_filter,
    support_filter_mask,
)

__all__ = [
    "AppendInfo",
    "CacheEntry",
    "CubeKey",
    "DEFAULT_FILTER_RATIO",
    "ExplanationCube",
    "RollupCache",
    "apply_support_filter",
    "cube_key",
    "support_filter_mask",
]
