"""Golden regression tests for the example case-study configurations.

Small frozen top-k outputs for the covid-daily and sp500 example configs
live under ``tests/golden/``; these tests diff the current pipeline output
against them, so a refactor that silently changes *which* explanations are
reported (or their segmentation) fails loudly.

Structure — segment labels, explanation conjunctions, change effects, K,
candidate counts — is compared exactly.  Scores are compared to a 1e-9
relative tolerance: they are pure float64 pipelines, but small BLAS-backed
reductions may reassociate across numpy builds, and the point of these
fixtures is catching changed *explanations*, not changed math libraries.

Regenerate (after an intentional behavior change) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.datasets.registry import load_dataset
from repro.detect.scoring import DetectConfig

GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> (dataset, config factory, window) — the example configurations.
CASES = {
    "covid_daily": (
        "covid-daily",
        lambda dataset: ExplainConfig.optimized(
            smoothing_window=dataset.smoothing_window
        ),
        (None, None),
    ),
    "sp500": (
        "sp500",
        lambda dataset: ExplainConfig.optimized(),
        (None, None),
    ),
    # A windowed slice of the covid spring wave: exercises the O(window)
    # session path the examples drill down through.
    "covid_daily_spring": (
        "covid-daily",
        lambda dataset: ExplainConfig.optimized(
            smoothing_window=dataset.smoothing_window
        ),
        ("2020-03-01", "2020-06-01"),
    ),
}


def _compute(name: str) -> dict:
    dataset_name, config_for, window = CASES[name]
    dataset = load_dataset(dataset_name)
    session = ExplainSession(
        dataset.relation,
        dataset.measure,
        dataset.explain_by,
        aggregate=dataset.aggregate,
        config=config_for(dataset),
    )
    result = session.explain(*window)
    return {
        "dataset": dataset_name,
        "window": list(window),
        "k": result.k,
        "k_was_auto": result.k_was_auto,
        "epsilon": result.epsilon,
        "filtered_epsilon": result.filtered_epsilon,
        "segments": [
            {
                "start": str(segment.start_label),
                "stop": str(segment.stop_label),
                "explanations": [
                    {
                        "explanation": repr(scored.explanation),
                        "gamma": scored.gamma,
                        "tau": scored.tau,
                    }
                    for scored in segment.explanations
                ],
            }
            for segment in result.segments
        ],
    }


#: name -> (dataset, explain_by override, config factory) — example
#: configurations served through the rollup lattice.  The lattice holds
#: each dataset's default lattice (full shape + singles); covid_daily
#: requests the full shape (an **exact** route), sp500 requests a coarser
#: two-attribute shape the router must **derive** from the 3-dim root.
#: Both outputs are frozen: a routing or derivation change that altered a
#: single reported explanation fails here.
LATTICE_CASES = {
    "covid_daily_lattice": (
        "covid-daily",
        None,
        lambda dataset: ExplainConfig.optimized(
            smoothing_window=dataset.smoothing_window
        ),
    ),
    "sp500_lattice": (
        "sp500",
        ("category", "subcategory"),
        lambda dataset: ExplainConfig.optimized(),
    ),
}


def _compute_lattice(name: str) -> dict:
    from repro.lattice import LatticeRouter, build_lattice, default_lattice

    dataset_name, explain_by, config_for = LATTICE_CASES[name]
    dataset = load_dataset(dataset_name)
    config = config_for(dataset)
    cubes, _ = build_lattice(
        dataset.relation,
        default_lattice(
            dataset.explain_by,
            dataset.measure,
            aggregate=dataset.aggregate,
            max_order=config.max_order,
            deduplicate=config.deduplicate,
        ),
    )
    router = LatticeRouter.for_source(dataset.relation)
    router.seed(cubes)
    session = ExplainSession.from_lattice(
        router,
        dataset.relation,
        measure=dataset.measure,
        explain_by=explain_by or dataset.explain_by,
        aggregate=dataset.aggregate,
        config=config,
    )
    result = session.explain()
    info = session.route_info
    return {
        "dataset": dataset_name,
        "explain_by": list(explain_by or dataset.explain_by),
        "route": {
            "decision": info.decision,
            "served_by": info.served_by.describe() if info.served_by else None,
        },
        "k": result.k,
        "k_was_auto": result.k_was_auto,
        "epsilon": result.epsilon,
        "filtered_epsilon": result.filtered_epsilon,
        "segments": [
            {
                "start": str(segment.start_label),
                "stop": str(segment.stop_label),
                "explanations": [
                    {
                        "explanation": repr(scored.explanation),
                        "gamma": scored.gamma,
                        "tau": scored.tau,
                    }
                    for scored in segment.explanations
                ],
            }
            for segment in result.segments
        ],
    }


#: name -> (dataset, DetectConfig factory) — detect-over-example configs.
#: Thresholds are deliberately strict: covid-daily is volatile enough that
#: the defaults flag thousands of cells, and the point of the fixture is a
#: small frozen set of the *worst* ones plus the plan built from them.
DETECT_CASES = {
    "covid_daily_detect": (
        "covid-daily",
        lambda dataset: DetectConfig(
            z_warn=8.0,
            z_alert=12.0,
            z_critical=20.0,
            max_cells=25,
            link_top=2,
        ),
    ),
}


def _compute_detect(name: str) -> dict:
    from repro.detect.session import DetectSession

    dataset_name, config_for = DETECT_CASES[name]
    dataset = load_dataset(dataset_name)
    session = ExplainSession(
        dataset.relation,
        dataset.measure,
        dataset.explain_by,
        aggregate=dataset.aggregate,
        config=ExplainConfig.optimized(smoothing_window=dataset.smoothing_window),
    )
    detector = DetectSession(session, config=config_for(dataset))
    report = detector.scan()
    plan = detector.plan(report, source=dataset_name)
    return {
        "dataset": dataset_name,
        "calendar_mode": detector.baselines.calendar_mode,
        "report": report.to_json(),
        "plan": plan.to_json(),
    }


def _assert_matches(actual, expected, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), path
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{path}: {len(actual)} != {len(expected)} entries"
        )
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), (
            f"{path}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_is_frozen(name):
    payload = _compute(name)
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert path.is_file(), (
        f"missing golden fixture {path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    _assert_matches(payload, expected)


@pytest.mark.parametrize("name", sorted(DETECT_CASES))
def test_detect_golden_output_is_frozen(name):
    payload = _compute_detect(name)
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert path.is_file(), (
        f"missing golden fixture {path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    _assert_matches(payload, expected)


@pytest.mark.parametrize("name", sorted(LATTICE_CASES))
def test_lattice_routed_golden_output_is_frozen(name):
    payload = _compute_lattice(name)
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        pytest.skip(f"regenerated {path}")
    assert path.is_file(), (
        f"missing golden fixture {path}; regenerate with REPRO_REGEN_GOLDEN=1"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    # The route decision is structural: compared exactly, like the rest.
    _assert_matches(payload, expected)
