"""Configuration of a TSExplain query."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.diff.metrics import available_metrics
from repro.exceptions import ConfigError
from repro.segmentation.distance import VARIANTS
from repro.segmentation.kselect import MAX_SEGMENTS


@dataclass(frozen=True)
class ExplainConfig:
    """All knobs of the TSExplain pipeline, with paper defaults.

    Attributes
    ----------
    m:
        Number of explanations returned per segment (paper default 3).
    max_order:
        Explanation order threshold ``beta_max`` (paper default 3).
    metric:
        Difference metric name (paper evaluates ``absolute-change``).
    variant:
        Within-segment variance design (paper's winning design ``tse``).
    k:
        Fixed segment count; ``None`` selects the optimal K with the elbow
        method (section 6).
    k_max:
        Largest K considered by the elbow search (paper caps at 20).
    use_filter:
        Apply the support filter of section 7.5.1 (``w filter``).
    filter_ratio:
        Support-filter ratio (paper default 0.001).
    use_guess_verify:
        Enable optimization O1 (guess-and-verify, section 5.3.1).  Ignored
        for single-attribute queries where top-m selection is already a
        vectorized argsort.
    initial_guess:
        O1's starting prefix size ``m_bar`` (paper: 30 when m=3).
    use_sketch:
        Enable optimization O2 (sketching, section 5.3.2).
    sketch_length:
        Phase-I max segment length ``L``; ``None`` uses the paper default
        ``min(0.05 n, 20)``.
    sketch_size:
        Sketch size ``|S|``; ``None`` uses the paper default ``3n / L``.
    smoothing_window:
        Centered moving-average window applied to all cube series before
        explaining ("for very fuzzy datasets, we apply a moving average",
        section 7.4); ``None`` disables smoothing.
    deduplicate:
        Drop containment-redundant candidate conjunctions.
    cache_dir:
        Directory of the persistent rollup cache
        (:class:`repro.cube.cache.RollupCache`).  When set, the pipeline
        loads the raw explanation cube from disk if an entry matches the
        relation fingerprint and query parameters, and stores freshly
        built cubes for later runs; ``None`` (default) disables caching.
        Smoothing and the support filter are applied after the cached
        cube is loaded, so one entry serves many configurations.
    cache_max_entries:
        Upper bound on the number of entries kept in ``cache_dir``;
        stores beyond it evict the least-recently-used entries.  Set
        this for workloads that produce unboundedly many distinct cubes
        (e.g. streaming, where every snapshot has a fresh fingerprint).
        ``None`` (default) keeps the cache unbounded.
    """

    m: int = 3
    max_order: int = 3
    metric: str = "absolute-change"
    variant: str = "tse"
    k: int | None = None
    k_max: int = MAX_SEGMENTS
    use_filter: bool = True
    filter_ratio: float = 0.001
    use_guess_verify: bool = False
    initial_guess: int = 30
    use_sketch: bool = False
    sketch_length: int | None = None
    sketch_size: int | None = None
    smoothing_window: int | None = None
    deduplicate: bool = True
    cache_dir: str | None = None
    cache_max_entries: int | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if self.max_order < 1:
            raise ConfigError(f"max_order must be >= 1, got {self.max_order}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variance variant {self.variant!r}; use one of {VARIANTS}"
            )
        # get_metric() resolves names case-insensitively; mirror that here
        # so every name the run tier would accept passes validation.
        if self.metric.lower() not in available_metrics():
            raise ConfigError(
                f"unknown difference metric {self.metric!r}; use one of "
                f"{available_metrics()}"
            )
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be >= 1, got {self.k_max}")
        if self.k is not None and self.k > self.k_max:
            raise ConfigError(f"k={self.k} exceeds k_max={self.k_max}")
        if not 0.0 <= self.filter_ratio < 1.0:
            raise ConfigError(f"filter_ratio must be in [0, 1), got {self.filter_ratio}")
        if self.initial_guess < self.m:
            raise ConfigError(
                f"initial_guess ({self.initial_guess}) must be >= m ({self.m})"
            )
        if self.sketch_length is not None and self.sketch_length < 2:
            raise ConfigError(f"sketch_length must be >= 2, got {self.sketch_length}")
        if self.sketch_size is not None and self.sketch_size < 1:
            raise ConfigError(f"sketch_size must be >= 1, got {self.sketch_size}")
        if self.smoothing_window is not None and self.smoothing_window < 1:
            raise ConfigError(
                f"smoothing_window must be >= 1, got {self.smoothing_window}"
            )
        if self.cache_dir is not None and not str(self.cache_dir).strip():
            raise ConfigError("cache_dir must be a non-empty path or None")
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ConfigError(
                f"cache_max_entries must be >= 1, got {self.cache_max_entries}"
            )

    # ------------------------------------------------------------------
    # Presets matching the paper's evaluated configurations (section 7.5)
    # ------------------------------------------------------------------
    @classmethod
    def vanilla(cls, **overrides) -> "ExplainConfig":
        """``VanillaTSExplain``: no filter, no O1, no O2."""
        return cls(use_filter=False, use_guess_verify=False, use_sketch=False, **overrides)

    @classmethod
    def with_filter(cls, **overrides) -> "ExplainConfig":
        """``w filter``: support filter only."""
        return cls(use_filter=True, use_guess_verify=False, use_sketch=False, **overrides)

    @classmethod
    def o1(cls, **overrides) -> "ExplainConfig":
        """``O1``: filter + guess-and-verify."""
        return cls(use_filter=True, use_guess_verify=True, use_sketch=False, **overrides)

    @classmethod
    def o2(cls, **overrides) -> "ExplainConfig":
        """``O2``: filter + sketching."""
        return cls(use_filter=True, use_guess_verify=False, use_sketch=True, **overrides)

    @classmethod
    def optimized(cls, **overrides) -> "ExplainConfig":
        """``O1+O2``: all optimizations (the interactive configuration)."""
        return cls(use_filter=True, use_guess_verify=True, use_sketch=True, **overrides)

    def updated(self, **overrides) -> "ExplainConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
