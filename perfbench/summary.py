"""What a run reports: its outcome, percentiles, spreads and peak RSS."""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

#: A percentile is reported only when at least ten samples lie beyond
#: it, so p90 needs at least 100 ops in a run.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics).

    Raises ``ValueError`` when fewer than ``MIN_SAMPLES_BEYOND`` samples
    would lie above it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    needed = MIN_SAMPLES_BEYOND * 100.0 / (100.0 - q)
    if len(values) < needed:
        raise ValueError(
            f"p{q:g} needs at least {needed:.0f} samples, got {len(values)}"
        )
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set size) of a process, in MiB."""
    text = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
    return int(match.group(1)) / 1024.0


@dataclass
class Outcome:
    """What a run observed; ``problems`` lists every failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    shape: dict = field(default_factory=dict)

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(problem)
