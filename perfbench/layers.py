"""Timing wrappers around the layers' public functions, for traced runs.

Each :class:`Target` names a function where its callers look it up (a
module attribute, or a method on its class) and the layer it belongs to.
:class:`LayerTracer` replaces it with a wrapper that counts calls and
adds up busy time and self time per layer name.

Self time is busy time minus the busy time of wrapped children.  A
child finds its parent through a context variable rather than a
thread-local stack: ``ServeApp.dispatch`` blocks while a scheduler pool
thread runs the query in a *copy* of the handler's context, so the
query's frames still name ``dispatch`` as their parent — a thread-local
stack would charge the whole query to ``dispatch``.  A parent that does
not wait for a child it handed to another thread is charged only for
the part of the child that finished before it returned.

Totals stay in memory; :meth:`LayerTracer.snapshot` copies them out.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: ``around(call, args, kwargs) -> (result, {counter: amount})``.
Around = Callable[[Callable, tuple, dict], tuple[object, dict[str, float]]]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` is ``name`` or ``Class.name`` in ``module``.

    With ``count_under`` set, the calls made directly under that layer are
    counted too, as the counter ``"<layer><<count_under>"``.
    """

    layer: str
    module: str
    attr: str
    around: Around | None = None
    count_under: str | None = None


def _ca_rows(call, args, kwargs):
    gammas = args[1] if len(args) > 1 else kwargs["gammas"]
    return call(*args, **kwargs), {"ca.rows": len(gammas)}


def _guess_rounds(call, args, kwargs):
    solver = args[0]
    before = solver.iterations
    result = call(*args, **kwargs)
    return result, {"ca.guess_verify.rounds": solver.iterations - before}


def _stored_bytes(call, args, kwargs):
    path = call(*args, **kwargs)
    return path, {"cube.cache.store_bytes": Path(path).stat().st_size}


#: Every wrapped function, looked up where its callers look it up.
TARGETS: tuple[Target, ...] = (
    Target("serve.http.dispatch", "repro.serve.http", "ServeApp.dispatch"),
    Target("serve.jsonio.encode", "repro.serve.http", "result_to_json"),
    Target("core.session.explain", "repro.core.session", "ExplainSession.explain"),
    Target("core.session.scorer", "repro.core.session", "ExplainSession.scorer"),
    Target("core.session.append", "repro.core.session", "ExplainSession.append"),
    Target("core.streaming.update", "repro.core.streaming", "StreamingExplainer.update"),
    Target("core.pipeline.select_scheme", "repro.core.streaming", "select_scheme"),
    Target("segmentation.sketch.phase1", "repro.core.pipeline", "select_sketch"),
    Target("segmentation.variance.scheme_eval", "repro.core.pipeline", "scheme_total_variance"),
    Target("segmentation.dp", "repro.core.pipeline", "solve_k_segmentation"),
    Target("segmentation.dp", "repro.segmentation.sketch", "solve_k_segmentation"),
    Target("segmentation.variance.build", "repro.segmentation.variance", "SegmentationCosts.__init__"),
    Target("segmentation.variance.extend", "repro.segmentation.variance", "SegmentationCosts.extend"),
    Target("ca.cascade", "repro.ca.cascade", "CascadingAnalysts.solve_batch", _ca_rows),
    Target("ca.guess_verify", "repro.ca.guess_verify", "GuessAndVerify.solve_batch", _guess_rounds),
    Target(
        "diff.scorer.construct",
        "repro.diff.scorer",
        "SegmentScorer.__init__",
        count_under="core.session.scorer",
    ),
    Target("diff.scorer.tau", "repro.diff.scorer", "SegmentScorer.tau"),
    Target("diff.scorer.gamma_many", "repro.diff.scorer", "SegmentScorer.gamma_many"),
    Target("diff.scorer.gamma_tau_many", "repro.diff.scorer", "SegmentScorer.gamma_tau_many"),
    Target("cube.datacube.append", "repro.cube.datacube", "ExplanationCube.append"),
    Target("cube.cache.build", "repro.core.pipeline", "load_or_build"),
    Target("cube.cache.store", "repro.cube.cache", "RollupCache.store", _stored_bytes),
    Target("store.ingest.build", "repro.store.ingest", "load_or_build_from_source"),
)


class _Frame:
    __slots__ = ("layer", "parent", "child_seconds")

    def __init__(self, layer: str, parent: "_Frame | None"):
        self.layer = layer
        self.parent = parent
        self.child_seconds = 0.0


class LayerTracer:
    """Call counts, busy time and self time per layer, plus named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._current: contextvars.ContextVar[_Frame | None] = contextvars.ContextVar(
            "perfbench_layer_frame", default=None
        )
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._busy: dict[str, float] = {}
        self._self: dict[str, float] = {}
        self._counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        function: Callable,
        around: Around | None = None,
        count_under: str | None = None,
    ) -> Callable:
        current = self._current
        clock = self._clock
        edge = f"{layer}<{count_under}"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = _Frame(layer, current.get())
            token = current.set(frame)
            counts = None
            started = clock()
            try:
                if around is None:
                    return function(*args, **kwargs)
                result, counts = around(function, args, kwargs)
                return result
            finally:
                elapsed = clock() - started
                current.reset(token)
                parent = frame.parent
                if count_under is not None and parent is not None and parent.layer == count_under:
                    counts = {**(counts or {}), edge: 1}
                self._record(frame, elapsed, counts)

        return wrapper

    def _record(self, frame: _Frame, elapsed: float, counts: dict[str, float] | None) -> None:
        layer = frame.layer
        parent = frame.parent
        with self._lock:
            self._calls[layer] = self._calls.get(layer, 0) + 1
            self._busy[layer] = self._busy.get(layer, 0.0) + elapsed
            self._self[layer] = self._self.get(layer, 0.0) + elapsed - frame.child_seconds
            if parent is not None:
                parent.child_seconds += elapsed
            for name, amount in (counts or {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    def install(self, targets: tuple[Target, ...] = TARGETS) -> "LayerTracer":
        """Patch every target in place; :meth:`uninstall` restores them."""
        for target in targets:
            owner: object = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            self._patches.append((owner, name, original))
            setattr(
                owner, name, self.wrap(target.layer, original, target.around, target.count_under)
            )
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A copy of the totals: ``{"calls", "busy", "self", "counters"}``."""
        with self._lock:
            return {
                "calls": dict(self._calls),
                "busy": dict(self._busy),
                "self": dict(self._self),
                "counters": dict(self._counters),
            }


def difference(after: dict, before: dict) -> dict:
    """Totals accumulated between two snapshots."""
    return {
        kind: {
            name: value - before.get(kind, {}).get(name, 0)
            for name, value in after.get(kind, {}).items()
        }
        for kind in ("calls", "busy", "self", "counters")
    }


def per_op_metrics(totals: dict, ops: int, op_layer: str) -> dict[str, tuple[float, str]]:
    """The per-op layer metrics of the timed phase, as ``{name: (value, unit)}``.

    ``op_layer`` is the frame one op runs in (``core.session.explain`` on
    the dashboards, ``core.streaming.update`` on the stream); its coverage
    is the share of its busy time that wrapped children account for.
    """
    calls, busy, own, counters = (totals[kind] for kind in ("calls", "busy", "self", "counters"))

    def ms(table: dict, *layers: str) -> float:
        return 1000.0 * sum(table.get(layer, 0.0) for layer in layers) / ops

    def per_op(table: dict, name: str) -> float:
        return table.get(name, 0) / ops

    scorer_calls = calls.get("core.session.scorer", 0)
    op_busy = busy.get(op_layer, 0.0)
    return {
        "serve.jsonio.encode_ms": (ms(busy, "serve.jsonio.encode"), "ms"),
        "core.session.explain_ms": (ms(busy, "core.session.explain"), "ms"),
        "core.session.scorer_ms": (ms(busy, "core.session.scorer"), "ms"),
        "core.session.scorer_miss_ratio": (
            counters.get("diff.scorer.construct<core.session.scorer", 0) / scorer_calls
            if scorer_calls
            else 0.0,
            "ratio",
        ),
        "segmentation.sketch.phase1_ms": (ms(busy, "segmentation.sketch.phase1"), "ms"),
        "segmentation.variance.builds": (per_op(calls, "segmentation.variance.build"), "count"),
        "segmentation.variance.self_ms": (ms(own, "segmentation.variance.build"), "ms"),
        "segmentation.variance.scheme_eval_ms": (
            ms(busy, "segmentation.variance.scheme_eval"),
            "ms",
        ),
        "segmentation.variance.extend_ms": (ms(own, "segmentation.variance.extend"), "ms"),
        "segmentation.dp.calls": (per_op(calls, "segmentation.dp"), "count"),
        "segmentation.dp.self_ms": (ms(own, "segmentation.dp"), "ms"),
        "ca.rows": (per_op(counters, "ca.rows"), "count"),
        "ca.cascade.self_ms": (ms(own, "ca.cascade"), "ms"),
        "ca.guess_verify.self_ms": (ms(own, "ca.guess_verify"), "ms"),
        "ca.guess_verify.rounds": (per_op(counters, "ca.guess_verify.rounds"), "count"),
        "diff.scorer.tau_calls": (per_op(calls, "diff.scorer.tau"), "count"),
        "diff.scorer.self_ms": (
            ms(own, "diff.scorer.tau", "diff.scorer.gamma_many", "diff.scorer.gamma_tau_many"),
            "ms",
        ),
        "core.streaming.update_ms": (ms(busy, "core.streaming.update"), "ms"),
        "cube.datacube.append_ms": (ms(own, "cube.datacube.append"), "ms"),
        "core.session.append_ms": (ms(own, "core.session.append"), "ms"),
        "core.pipeline.select_scheme_ms": (ms(own, "core.pipeline.select_scheme"), "ms"),
        "trace.coverage_pct": (
            100.0 * (op_busy - own.get(op_layer, 0.0)) / op_busy if op_busy else 0.0,
            "%",
        ),
    }


def per_run_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """Set-up layer metrics of one run (cube build and cache store)."""
    busy, counters = totals.get("busy", {}), totals.get("counters", {})
    return {
        "store.ingest.build_s": (busy.get("store.ingest.build", 0.0), "s"),
        "cube.cache.build_s": (busy.get("cube.cache.build", 0.0), "s"),
        "cube.cache.store_s": (busy.get("cube.cache.store", 0.0), "s"),
        "cube.cache.store_mb": (counters.get("cube.cache.store_bytes", 0.0) / 2**20, "MiB"),
    }
