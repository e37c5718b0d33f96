"""The stateful detect tier riding on a prepared explain session.

:class:`DetectSession` owns the glue: one
:class:`~repro.core.session.ExplainSession` (the prepared cube and the
explanation machinery), one
:class:`~repro.detect.baselines.TieredBaselines` bound to its cube, and
the counters the serving tier reports.  ``scan`` scores the whole axis;
``append`` feeds a delta through the session's O(delta) cube append,
advances the baselines over exactly the recomputed columns, and scores
only those — the monitoring loop (`repro detect follow`, the `/detect`
endpoint behind a streaming ingest) never rescans history.

Anomalies cross-link back into the explanation machinery: ``plan``
attaches the top explanations of the one-step window ending at each
anomalous timestamp
(:meth:`~repro.core.session.ExplainSession.top_explanations` — an
O(epsilon) gather against the already-prepared cube), so a reviewer
sees *which contributors moved* next to every flagged cell.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.session import ExplainSession
from repro.detect.baselines import TieredBaselines
from repro.detect.scoring import AnomalyReport, CellScore, DetectConfig, score_columns
from repro.detect.suppression import SuppressionPlan, build_plan
from repro.exceptions import ReproError
from repro.obs.metrics import get_registry as _get_metrics
from repro.obs.trace import span
from repro.relation.table import Relation


@dataclass(frozen=True)
class DetectUpdate:
    """What one :meth:`DetectSession.append` did."""

    n_rows: int
    recomputed_columns: int
    report: AnomalyReport

    @property
    def is_noop(self) -> bool:
        return self.n_rows == 0


class DetectSession:
    """Continuous anomaly scoring over one explain session.

    Thread-safe: the serving tier scans from its query pool while a
    streaming ingest appends.  Scans accept a one-off ``config`` whose
    *threshold* fields differ from the session's; the baseline-shaping
    fields (windows, minimum samples) are fixed at construction — they
    are baked into the baseline state.
    """

    def __init__(
        self,
        session: ExplainSession,
        config: DetectConfig | None = None,
    ):
        self._session = session
        self._config = config or DetectConfig()
        session.prepare()
        self._baselines = TieredBaselines(session.cube, self._config)
        self._lock = threading.RLock()
        self._scans = 0
        self._appends = 0
        self._cells_scored = 0
        self._anomalies = 0
        self._last_scan_seconds = 0.0

    @classmethod
    def from_dataset(
        cls,
        name: str,
        config=None,
        detect: DetectConfig | None = None,
    ) -> "DetectSession":
        """A detect session over a bundled dataset (tests, examples)."""
        from repro.core.config import ExplainConfig
        from repro.datasets.registry import load_dataset

        dataset = load_dataset(name)
        session = ExplainSession(
            dataset.relation,
            measure=dataset.measure,
            explain_by=dataset.explain_by,
            aggregate=dataset.aggregate,
            config=config or ExplainConfig.optimized(),
        )
        return cls(session, config=detect)

    # ------------------------------------------------------------------
    @property
    def session(self) -> ExplainSession:
        return self._session

    @property
    def config(self) -> DetectConfig:
        return self._config

    @property
    def baselines(self) -> TieredBaselines:
        return self._baselines

    # ------------------------------------------------------------------
    def scan(
        self,
        config: DetectConfig | None = None,
        columns: Sequence[int] | np.ndarray | None = None,
    ) -> AnomalyReport:
        """Score the given columns (default: the whole time axis)."""
        with self._lock:
            with span("detect-scan") as scan:
                report = score_columns(
                    self._session.cube,
                    self._baselines,
                    config or self._config,
                    columns=columns,
                )
            self._last_scan_seconds = scan.duration
            self._scans += 1
            self._cells_scored += report.cells_scored
            self._anomalies += len(report.cells)
        metrics = _get_metrics()
        metrics.counter(
            "repro_detect_scans_total", "Detect tier scans executed"
        ).inc()
        metrics.counter(
            "repro_detect_cells_scored_total", "Cube cells scored by the detect tier"
        ).inc(report.cells_scored)
        metrics.counter(
            "repro_detect_anomalies_total", "Anomalous cells surfaced by scans"
        ).inc(len(report.cells))
        return report

    def append(self, delta: Relation) -> DetectUpdate:
        """Absorb a delta and score exactly the columns it touched.

        Rides :meth:`ExplainSession.append`: the cube absorbs the delta
        in O(delta) and the returned
        :class:`~repro.cube.delta.AppendInfo` drives
        :meth:`TieredBaselines.advance`.  When the session could not
        append in place (unprepared, or a cube without its ledger) the
        baselines rebuild over the re-prepared cube and the whole axis
        is rescored — correct, just not incremental.
        """
        with self._lock:
            info = self._session.append(delta)
            if info is None:
                self._session.prepare()
                self._baselines = TieredBaselines(self._session.cube, self._config)
                recomputed = np.arange(self._baselines.n_times, dtype=np.intp)
            else:
                recomputed = self._baselines.advance(info)
            self._appends += 1
            if recomputed.size == 0:
                report = AnomalyReport(
                    cells=(),
                    columns_scored=0,
                    columns_abstained=0,
                    cells_scored=0,
                    truncated=0,
                )
                return DetectUpdate(
                    n_rows=delta.n_rows, recomputed_columns=0, report=report
                )
            report = self.scan(columns=recomputed)
            return DetectUpdate(
                n_rows=delta.n_rows,
                recomputed_columns=int(recomputed.size),
                report=report,
            )

    # ------------------------------------------------------------------
    def plan(
        self,
        report: AnomalyReport | None = None,
        link: bool = True,
        source: str = "",
    ) -> SuppressionPlan:
        """Group a report (default: a fresh full scan) into a plan.

        With ``link`` (default), each anomalous timestamp carries the
        top explanations of the window ending there — the reviewer sees
        the same contributors the explain path would surface.
        """
        if report is None:
            report = self.scan()
        links = self._link_explanations(report.cells) if link else {}
        session = self._session
        return build_plan(
            report.cells,
            measure=session.measure,
            time_attr=session.time_attr,
            aggregate=session.aggregate,
            explain_by=session.explain_by,
            source=source,
            links=links,
        )

    def _link_explanations(
        self, cells: Sequence[CellScore]
    ) -> dict[int, tuple[str, ...]]:
        """Top explanations for the one-step window at each anomalous
        position, computed once per distinct timestamp."""
        quota = self._config.link_top
        if quota == 0:
            return {}
        labels = self._session.cube.labels
        links: dict[int, tuple[str, ...]] = {}
        for position in sorted({cell.position for cell in cells}):
            window = _window_for(labels, position)
            if window is None:
                continue
            try:
                scored = self._session.top_explanations(*window, m=quota)
            except ReproError:
                continue
            links[position] = tuple(repr(s.explanation) for s in scored)
        return links

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters for the serving tier's ``/stats`` payload."""
        with self._lock:
            baselines = self._baselines
            served = int(np.count_nonzero(baselines.tier))
            return {
                "scans": self._scans,
                "appends": self._appends,
                "cells_scored": self._cells_scored,
                "anomalies": self._anomalies,
                "columns": baselines.n_times,
                "columns_abstaining": baselines.n_times - served,
                "calendar_mode": baselines.calendar_mode,
                "last_scan_seconds": round(self._last_scan_seconds, 6),
            }

    def __repr__(self) -> str:
        return (
            f"DetectSession({self._session.measure!r}, "
            f"scans={self._scans}, appends={self._appends}, "
            f"anomalies={self._anomalies})"
        )


def _window_for(
    labels: Sequence[Hashable], position: int
) -> tuple[Hashable, Hashable] | None:
    """The one-step window ending at ``position`` (starting there, for
    the first point); ``None`` when the axis has a single point."""
    if len(labels) < 2:
        return None
    if position == 0:
        return labels[0], labels[1]
    return labels[position - 1], labels[position]
