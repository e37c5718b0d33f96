"""The :class:`TSExplain` facade — the library's classic entry point.

Typical use::

    from repro import TSExplain
    from repro.datasets import covid

    relation = covid.load_covid().relation
    engine = TSExplain(relation, measure="total_confirmed_cases",
                       explain_by=["state"])
    result = engine.explain()
    print(result.describe())

Since the session redesign, ``TSExplain`` is a thin backwards-compatible
facade over one lazily-created :class:`~repro.core.session.ExplainSession`:
the first query builds (or cache-loads) the explanation cube, and every
later call — including windowed ``explain(start, stop)`` and
``top_explanations`` — is served as an O(window) slice of the prepared
cube arrays.  New code should use :class:`ExplainSession` directly; it
exposes the same queries plus the fluent :meth:`ExplainSession.query`
builder.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.config import ExplainConfig
from repro.core.result import ExplainResult
from repro.core.session import ExplainSession
from repro.diff.scorer import ScoredExplanation
from repro.relation.table import Relation
from repro.relation.timeseries import TimeSeries


class TSExplain:
    """Explain an aggregated time series by its evolving top contributors.

    Parameters
    ----------
    relation:
        The base relation ``R``.
    measure:
        Measure attribute ``M`` of the aggregate query.
    explain_by:
        Explain-by attribute names ``A`` (user domain knowledge; defaults
        to every dimension attribute when omitted).
    aggregate:
        Aggregate function name (default ``sum``).
    time_attr:
        Time attribute ``T``; defaults to the schema's time attribute.
    config:
        Pipeline configuration; keyword overrides may be passed instead,
        e.g. ``TSExplain(..., k=6, use_sketch=True)``.  Notably,
        ``TSExplain(..., cache_dir="~/.repro-cache")`` enables the
        persistent rollup cache: the first :meth:`explain` builds and
        stores the explanation cube, later calls (including from other
        processes) load it from disk and skip the prepare phase, as long
        as the relation and the cube parameters are unchanged (see
        :mod:`repro.cube.cache` for the invalidation contract).
    """

    def __init__(
        self,
        relation: Relation,
        measure: str,
        explain_by: Sequence[str] | None = None,
        aggregate: str = "sum",
        time_attr: str | None = None,
        config: ExplainConfig | None = None,
        **config_overrides,
    ):
        if config is not None and config_overrides:
            config = config.updated(**config_overrides)
        elif config is None:
            config = ExplainConfig(**config_overrides)
        if explain_by is None:
            explain_by = relation.schema.dimension_names()
        self._relation = relation
        self._measure = measure
        self._explain_by = tuple(explain_by)
        self._aggregate = aggregate
        self._time_attr = time_attr or relation.schema.require_time()
        self._config = config
        self._session: ExplainSession | None = None
        self._last_result: ExplainResult | None = None

    @property
    def config(self) -> ExplainConfig:
        return self._config

    @property
    def relation(self) -> Relation:
        return self._relation

    def session(self) -> ExplainSession:
        """The underlying :class:`ExplainSession` (created on first use).

        All facade queries delegate to it, so the cube prepared by one
        call is reused by every later call on this engine.
        """
        if self._session is None:
            self._session = ExplainSession(
                self._relation,
                self._measure,
                self._explain_by,
                aggregate=self._aggregate,
                time_attr=self._time_attr,
                config=self._config,
            )
        return self._session

    # ------------------------------------------------------------------
    def series(self) -> TimeSeries:
        """The aggregated time series being explained (unsmoothed)."""
        return self.session().series()

    def explain(
        self,
        start: Hashable | None = None,
        stop: Hashable | None = None,
        config: ExplainConfig | None = None,
    ) -> ExplainResult:
        """Run TSExplain, optionally restricted to a label window.

        Parameters
        ----------
        start / stop:
            Timestamp labels delimiting the period of interest (both
            inclusive); defaults to the whole series.  Windowed calls are
            O(window) slices of the session's prepared cube — the
            relation is not rescanned.
        config:
            One-off configuration override for this call.
        """
        result = self.session().explain(start, stop, config=config)
        self._last_result = result
        return result

    def top_explanations(
        self,
        start: Hashable,
        stop: Hashable,
        m: int | None = None,
    ) -> list[ScoredExplanation]:
        """Classic two-relations diff between two timestamps.

        The control relation is the data at ``start`` and the test relation
        the data at ``stop`` (Example 3.1); returns the top-m
        non-overlapping explanations of their difference, served from the
        session's prepared cube.
        """
        return self.session().top_explanations(start, stop, m=m)

    @property
    def last_result(self) -> ExplainResult | None:
        """The most recent :meth:`explain` result, if any."""
        return self._last_result
