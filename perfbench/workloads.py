"""Seeded inputs of the benchmark's three workloads.

Dataset shapes are fixed; the run seed drives only the request (or
delta) sequence and the split of each (time, category) cell into rows.
The program under test sees the generated inputs and nothing else.

Warm-up requests come from an RNG stream of their own, and the timed
stream never reuses a window the warm-up or an earlier timed request
already asked for — except the designed re-K views of ``dashboard-flat``,
which ask the same window again with only ``k`` changed.  A cycling
request list would let the mix depend on speed and reward a result cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.synthetic import generate_synthetic
from repro.relation.table import Relation

#: p90 needs at least 100 ops, so that ten samples lie beyond it.
MIN_OPS = 100

#: The serve-bench relation: synthetic seed 23, 240 points x 256 values.
SERVE_BENCH_SEED = 23
FLAT_POINTS = 240
FLAT_CATEGORIES = 256
#: Rows per (time, category) cell, so the cold prepare is program work
#: (a 5-chunk out-of-core build) rather than interpreter start.
FLAT_ROWS_PER_CELL = 8
#: Windows longer than 60 points are searched on a sketch (O2 phase II)
#: and re-evaluated at full resolution, so every flat op builds segment
#: costs three times; this band keeps the per-op cost narrow.
FLAT_MIN_WINDOW = 61
FLAT_MAX_WINDOW = 72
#: One view asks a window at k=auto, then k=3, then k=5.
FLAT_VIEW_KS = (None, 3, 5)
#: Views the warm-up asks before the timed phase.
FLAT_WARMUP_VIEWS = 2
#: Timed ops per second of ``--seconds`` (see :func:`timed_ops`): about
#: what the 2-vCPU reference host answers, so a timed phase lasts about
#: ``--seconds`` there.
FLAT_OPS_PER_SECOND = 4

HIER_DATASET = "sp500"
#: A narrow band of short windows: the per-window cost grows steeply with
#: length on the hierarchical CA, and a wide band let the seed's mix of
#: lengths dominate the run-to-run spread of p50.
HIER_MIN_WINDOW = 16
HIER_MAX_WINDOW = 22
#: Requests the warm-up sends before the timed phase.
HIER_WARMUP = 4
HIER_OPS_PER_SECOND = 5

STREAM_CATEGORIES = 256
STREAM_BASE_POINTS = 200
#: Updates per pass, taking the series from 200 to 600 points.
STREAM_UPDATES = 400
STREAM_ROWS_PER_CELL = 2

#: Independent RNG streams derived from one run seed.
_WARMUP_STREAM = 1
_TIMED_STREAM = 2
_SPLIT_STREAM = 3


@dataclass(frozen=True)
class Request:
    """One ``/explain`` request: an inclusive label window and a ``k``."""

    start: str
    stop: str
    length: int
    k: int | None
    #: The previous request asked the same window with another ``k``.
    re_k: bool = False

    def params(self, dataset: str) -> dict[str, str]:
        query = {"dataset": dataset, "start": self.start, "stop": self.stop}
        if self.k is not None:
            query["k"] = str(self.k)
        return query


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _labels(n_points: int) -> list[str]:
    return [f"t{t:04d}" for t in range(n_points)]


class WindowStream:
    """Seeded windows over a fixed label axis, never repeating a window.

    Lengths are drawn in shuffled rounds that use every length of the
    band once, so each run's mix of lengths is nearly the same whatever
    the seed; the start of each window is uniform.  ``exclude`` holds
    windows another stream already used; they are skipped too, so the
    warm-up never derives a timed window in advance.
    """

    def __init__(
        self,
        labels: list[str],
        min_length: int,
        max_length: int,
        seed: int,
        stream: int,
        exclude: frozenset[tuple[int, int]] = frozenset(),
    ):
        if not 2 <= min_length <= max_length <= len(labels):
            raise ValueError(f"bad window band [{min_length}, {max_length}]")
        self._labels = labels
        self._band = np.arange(min_length, max_length + 1)
        self._rng = _rng(seed, stream)
        self._lengths: list[int] = []
        self._used: set[tuple[int, int]] = set(exclude)

    @property
    def used(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._used)

    def next_window(self) -> tuple[int, int]:
        """``(start position, length)`` of a window not asked before."""
        if not self._lengths:
            self._lengths = [int(length) for length in self._rng.permutation(self._band)]
        length = self._lengths.pop()
        starts = len(self._labels) - length + 1
        if sum((start, length) in self._used for start in range(starts)) == starts:
            raise RuntimeError(f"every window of length {length} was used")
        while True:
            start = int(self._rng.integers(0, starts))
            if (start, length) not in self._used:
                self._used.add((start, length))
                return start, length

    def request(self, window: tuple[int, int], k: int | None, re_k: bool) -> Request:
        start, length = window
        return Request(
            start=self._labels[start],
            stop=self._labels[start + length - 1],
            length=length,
            k=k,
            re_k=re_k,
        )


def timed_ops(seconds: float, ops_per_second: int) -> int:
    """Timed ops of a dashboard run: fixed by ``--seconds`` alone, never by
    how fast the run goes, so every run of a seed sends the same requests."""
    return max(MIN_OPS, round(seconds * ops_per_second))


def _views(windows: WindowStream, count: int) -> list[Request]:
    return [
        windows.request(window, k, re_k=index > 0)
        for window in (windows.next_window() for _ in range(count))
        for index, k in enumerate(FLAT_VIEW_KS)
    ]


def flat_requests(seed: int, ops: int) -> tuple[list[Request], list[Request]]:
    """``dashboard-flat``: views of one window at k=auto, 3 and 5.

    Returns the warm-up requests and the first ``ops`` timed requests.
    """
    labels = _labels(FLAT_POINTS)
    warm = WindowStream(labels, FLAT_MIN_WINDOW, FLAT_MAX_WINDOW, seed, _WARMUP_STREAM)
    warmup = _views(warm, FLAT_WARMUP_VIEWS)
    timed = WindowStream(
        labels, FLAT_MIN_WINDOW, FLAT_MAX_WINDOW, seed, _TIMED_STREAM, exclude=warm.used
    )
    return warmup, _views(timed, -(-ops // len(FLAT_VIEW_KS)))[:ops]


def hier_requests(seed: int, labels: list[str], ops: int) -> tuple[list[Request], list[Request]]:
    """``dashboard-hier``: a fresh window over ``labels`` per request, always k=auto.

    Returns the warm-up requests and ``ops`` timed requests.
    """
    warm = WindowStream(labels, HIER_MIN_WINDOW, HIER_MAX_WINDOW, seed, _WARMUP_STREAM)
    warmup = [warm.request(warm.next_window(), None, False) for _ in range(HIER_WARMUP)]
    timed = WindowStream(
        labels, HIER_MIN_WINDOW, HIER_MAX_WINDOW, seed, _TIMED_STREAM, exclude=warm.used
    )
    return warmup, [timed.request(timed.next_window(), None, False) for _ in range(ops)]


def split_rows(relation: Relation, rows_per_cell: int, rng: np.random.Generator) -> Relation:
    """Split every row into ``rows_per_cell`` rows whose measures sum to it.

    Rows stay grouped by time (so chunked and appended builds keep the
    append contract) and are shuffled within each time point.
    """
    schema = relation.schema
    measure = schema.measure_names()[0]
    time_attr = schema.require_time()
    n_rows = relation.n_rows
    weights = rng.uniform(0.5, 1.5, size=(n_rows, rows_per_cell))
    parts = relation.column(measure)[:, None] * (weights / weights.sum(axis=1, keepdims=True))
    positions, _ = relation.time_positions(time_attr)
    repeated_positions = np.repeat(positions, rows_per_cell)
    order = np.lexsort((rng.random(n_rows * rows_per_cell), repeated_positions))
    columns = {
        name: (
            parts.reshape(-1)
            if name == measure
            else np.repeat(relation.column(name), rows_per_cell)
        )[order]
        for name in schema.names
    }
    return Relation(columns, schema)


def flat_relation(seed: int) -> Relation:
    """The serve-bench relation with every cell split into 8 seeded rows.

    Text columns are fixed-width strings, which the npz snapshot stores
    anyway and which fingerprint without a per-cell Python loop.
    """
    synthetic = generate_synthetic(
        seed=SERVE_BENCH_SEED,
        snr_db=40.0,
        n_points=FLAT_POINTS,
        n_categories=FLAT_CATEGORIES,
    )
    relation = split_rows(synthetic.dataset.relation, FLAT_ROWS_PER_CELL, _rng(seed, _SPLIT_STREAM))
    columns = relation.columns()
    return Relation(
        {name: column.astype(str) if column.dtype == object else column
         for name, column in columns.items()},
        relation.schema,
    )


@dataclass(frozen=True)
class StreamInput:
    base: Relation
    deltas: tuple[Relation, ...]
    measure: str
    explain_by: tuple[str, ...]
    time_attr: str


def stream_input(seed: int) -> StreamInput:
    """A 200-point base of a 256-category stream, then one-day deltas."""
    n_points = STREAM_BASE_POINTS + STREAM_UPDATES
    synthetic = generate_synthetic(
        seed=SERVE_BENCH_SEED,
        snr_db=40.0,
        n_points=n_points,
        n_categories=STREAM_CATEGORIES,
    )
    dataset = synthetic.dataset
    relation = split_rows(dataset.relation, STREAM_ROWS_PER_CELL, _rng(seed, _SPLIT_STREAM))
    time_attr = relation.schema.require_time()
    positions, _ = relation.time_positions(time_attr)
    edges = np.searchsorted(positions, np.arange(n_points + 1))
    base = relation.take(np.arange(edges[STREAM_BASE_POINTS]))
    deltas = tuple(
        relation.take(np.arange(edges[day], edges[day + 1]))
        for day in range(STREAM_BASE_POINTS, n_points)
    )
    return StreamInput(
        base=base,
        deltas=deltas,
        measure=dataset.measure,
        explain_by=tuple(dataset.explain_by),
        time_attr=time_attr,
    )


def request_shape(requests: list[Request]) -> dict:
    """Window-length quartiles and the re-K share of the requests sent."""
    lengths = [request.length for request in requests]
    q1, q2, q3 = (float(q) for q in np.percentile(lengths, [25, 50, 75]))
    re_k = sum(request.re_k for request in requests)
    return {
        "requests": len(requests),
        "window_quartiles": [q1, q2, q3],
        "re_k_share": round(re_k / len(requests), 4) if requests else 0.0,
    }
