"""Explanation candidates, the per-explanation time-series data cube, and
the persistent rollup cache that makes built cubes reusable artifacts."""

from repro.cube.cache import CacheEntry, CubeKey, RollupCache, cube_key, load_or_build
from repro.cube.datacube import ExplanationCube, merge_cubes
from repro.cube.delta import AppendInfo
from repro.cube.explanations import CandidateSet, enumerate_candidates
from repro.cube.filters import (
    DEFAULT_FILTER_RATIO,
    apply_support_filter,
    support_filter_mask,
)

__all__ = [
    "AppendInfo",
    "CacheEntry",
    "CandidateSet",
    "CubeKey",
    "DEFAULT_FILTER_RATIO",
    "ExplanationCube",
    "RollupCache",
    "apply_support_filter",
    "cube_key",
    "enumerate_candidates",
    "load_or_build",
    "merge_cubes",
    "support_filter_mask",
]
