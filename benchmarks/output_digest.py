"""One SHA-256 over every output of a fixed explain corpus.

Run from the repository root::

    PYTHONPATH=src python benchmarks/output_digest.py

It prints ``results=<count> sha256=<hex>``.  Two checkouts print the same
line exactly when every reported number of the corpus is bit-identical:
each segment's variance, gamma and tau, the boundaries, k, the k-curve,
the total variance and epsilon (floats hashed as ``float.hex``).  Run it
at a parent commit and at a change that claims identical outputs, and
compare the two lines.

The corpus, about 40 s on a 2-vCPU host (`tests/test_output_digest.py`
runs a slice of it):

* covid-total, covid-daily and sp500 (optimized configuration, each with
  its paper smoothing) × variants tse/allpair/dist1/Sdist2 × sketch on
  and off × three ~60-point windows × k auto and k=4;
* per dataset, on the middle window: a vanilla explain, a two-point
  diff, a ``recommend`` ranking, ``m`` 2 and 5, and ``max_order`` 1
  and 2 (the prepare-tier override path);
* pinned and full streams over covid-daily's last 12 days, one day per
  update, starting from the 60 days before them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.core.streaming import StreamingExplainer
from repro.datasets import load_dataset

DATASETS = ("covid-total", "covid-daily", "sp500")
VARIANTS = ("tse", "allpair", "dist1", "Sdist2")
WINDOW_POINTS = 60
STREAM_DAYS = 12


def render_explanations(explanations) -> str:
    return ";".join(
        f"{item.explanation!r}/{item.gamma.hex()}/{item.tau}" for item in explanations
    )


def render_result(result) -> str:
    curve = ",".join(f"{k}:{v.hex()}" for k, v in sorted(result.k_variance_curve.items()))
    segments = "|".join(
        f"{s.start}-{s.stop}:{s.variance.hex()}:{render_explanations(s.explanations)}"
        for s in result.segments
    )
    return (
        f"k={result.k}/{result.k_was_auto} b={result.boundaries} "
        f"tv={result.total_variance.hex()} eps={result.epsilon}/"
        f"{result.filtered_epsilon} curve={curve} seg={segments}"
    )


def windows(labels) -> list[tuple]:
    n = len(labels)
    middle = n // 2 - WINDOW_POINTS // 2
    starts = (0, middle, n - WINDOW_POINTS)
    return [(labels[lo], labels[lo + WINDOW_POINTS - 1]) for lo in starts]


def dataset_records(name: str, variants=VARIANTS):
    data = load_dataset(name)
    config = ExplainConfig.optimized(smoothing_window=data.smoothing_window)
    session = ExplainSession(
        data.relation,
        data.measure,
        data.explain_by,
        aggregate=data.aggregate,
        config=config,
    )
    labels = session.series().labels
    spans = windows(labels)
    for variant in variants:
        for use_sketch in (True, False):
            for start, stop in spans:
                for k in (None, 4):
                    query = config.updated(variant=variant, use_sketch=use_sketch, k=k)
                    key = f"{name} {variant} sketch={use_sketch} {start}..{stop} k={k}"
                    yield key, render_result(session.explain(start, stop, config=query))
    start, stop = spans[1]
    vanilla = ExplainConfig.vanilla(smoothing_window=data.smoothing_window)
    yield f"{name} vanilla", render_result(session.explain(start, stop, config=vanilla))
    yield f"{name} diff", render_explanations(session.top_explanations(start, stop))
    yield f"{name} recommend", ";".join(
        f"{a.attribute}/{a.coverage.hex()}/{a.concentration.hex()}/"
        f"{a.cardinality}/{a.score.hex()}"
        for a in session.recommend()
    )
    for field, value in (("m", 2), ("m", 5), ("max_order", 1), ("max_order", 2)):
        query = config.updated(**{field: value})
        yield f"{name} {field}={value}", render_result(
            session.explain(start, stop, config=query)
        )


def stream_records(resegment: str):
    data = load_dataset("covid-daily")
    positions, labels = data.relation.time_positions()
    n = len(labels)
    base = data.relation.take(
        (positions >= n - STREAM_DAYS - WINDOW_POINTS) & (positions < n - STREAM_DAYS)
    )
    stream = StreamingExplainer(
        base,
        data.measure,
        data.explain_by,
        aggregate=data.aggregate,
        config=ExplainConfig(smoothing_window=data.smoothing_window),
        resegment=resegment,
    )
    yield f"stream {resegment} base", render_result(stream.refresh())
    for day in range(n - STREAM_DAYS, n):
        delta = data.relation.take(np.asarray(positions == day))
        yield f"stream {resegment} {labels[day]}", render_result(stream.update(delta))


def digest(sources) -> tuple[int, str]:
    """``(count, sha256)`` over the ``(key, rendered)`` records of ``sources``."""
    sha = hashlib.sha256()
    count = 0
    for source in sources:
        for key, rendered in source:
            sha.update(f"{key}\n{rendered}\n".encode())
            count += 1
    return count, sha.hexdigest()


def main() -> None:
    sources = [dataset_records(name) for name in DATASETS]
    sources += [stream_records("pinned"), stream_records("full")]
    count, sha = digest(sources)
    print(f"results={count} sha256={sha}")


if __name__ == "__main__":
    main()
