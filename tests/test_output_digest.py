"""Smoke test of the output-equivalence harness (``benchmarks/output_digest.py``).

The full corpus runs for about a minute; this keeps the script working as
the APIs it drives change, on one dataset, one variant, one variant and
metric pair, one stream and one cube.
"""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "benchmarks" / "output_digest.py"


def test_digest_covers_a_small_slice():
    harness = runpy.run_path(str(SCRIPT))
    sources = [
        harness["dataset_records"]("covid-total", variants=("tse",)),
        harness["metric_records"]("covid-total", combos=(("Stse", "risk-ratio"),)),
        harness["stream_records"]("pinned"),
        harness["cube_records"]([("regime", "var", 3)]),
    ]
    count, sha = harness["digest"](sources)
    # 2 sketch settings x 3 windows x 2 k; 7 extra queries; 2 sketch
    # settings; a base and one result per streamed day; one cube with
    # dedup on and off.
    assert count == 12 + 7 + 2 + 1 + harness["STREAM_DAYS"] + 2
    assert len(sha) == 64
