"""Cascading Analysts: top-m non-overlapping explanations (+ guess-and-verify)."""

from repro.ca.bruteforce import cascading_optimum, conflicts, is_non_overlapping
from repro.ca.cascade import CascadingAnalysts, DrillDownTree, TopMBatch, TopMResult
from repro.ca.guess_verify import DEFAULT_INITIAL_GUESS, GuessAndVerify

__all__ = [
    "CascadingAnalysts",
    "DEFAULT_INITIAL_GUESS",
    "DrillDownTree",
    "GuessAndVerify",
    "TopMBatch",
    "TopMResult",
    "cascading_optimum",
    "conflicts",
    "is_non_overlapping",
]
