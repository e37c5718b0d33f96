"""Many named prepared sessions behind a memory-budget + TTL LRU.

The registry is the serving tier's state: it owns one
:class:`~repro.core.session.ExplainSession` per *dataset* (a named query:
relation + measure + explain-by + config) and answers "give me the
prepared session for ``name``" under three production constraints:

* **bounded memory** — prepared cubes are the dominant resident cost, so
  sessions carry a byte estimate and the least-recently-used ones are
  evicted once the budget is exceeded (the most recent session always
  survives, even over budget: evicting the session a request is about to
  use would thrash);
* **bounded staleness** — entries idle longer than the TTL are dropped
  lazily on access and by :meth:`sweep`, so a long-running server does
  not pin cold tenants forever;
* **single-flight cold builds** — a per-key build lock makes N concurrent
  requests for a cold dataset trigger exactly *one* prepare; the other
  N-1 threads block on the lock and then adopt the winner's session
  (counted as ``coalesced`` in :meth:`stats`).

With a cache directory, a cold prepare first tries to adopt the
dataset's rollup-cache entry memory-mapped
(:meth:`~repro.cube.cache.RollupCache.load` with ``mmap=True``): N
processes serving the same dataset then share one page-cache copy of its
cube.  On a miss the session prepares as usual, and that prepare's cache
store is the file the next process adopts.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.cache import RollupCache
from repro.datasets.base import Dataset
from repro.datasets.registry import available_datasets, load_dataset
from repro.detect.session import DetectSession
from repro.exceptions import QueryError
from repro.lattice.router import LatticeRouter
from repro.obs.metrics import BUILD_BUCKETS, get_registry as get_metrics
from repro.obs.trace import span
from repro.store import DataSource, is_source_uri, resolve_source


def default_config_for(dataset: Dataset) -> ExplainConfig:
    """The serving default for a dataset: optimized + its smoothing.

    Mirrors the CLI's ``repro explain`` defaults exactly, so a query
    served over HTTP and the same query run from the command line return
    identical explanations.
    """
    config = ExplainConfig.optimized()
    window = dataset.smoothing_window
    if window is not None and window > 1:
        config = config.updated(smoothing_window=window)
    return config


@dataclass(frozen=True)
class DatasetSpec:
    """How the registry materializes one named dataset on first use.

    ``loader`` is a zero-argument callable returning a
    :class:`~repro.datasets.base.Dataset`; it runs at most once per cold
    build (under the single-flight lock).  ``config`` overrides the
    serving default (:func:`default_config_for`); ``explain_by`` overrides
    the dataset's own attribute set.  ``source`` names a
    :mod:`repro.store` URI instead of a loader: the session then binds the
    source itself — source-fingerprint cache lookup first (a warm serve
    skips ingestion entirely), chunked out-of-core build on a miss — and
    the relation stays unmaterialized until a request (``/recommend``)
    actually needs rows.
    """

    name: str
    loader: Callable[[], Dataset] | None = None
    config: ExplainConfig | None = None
    explain_by: tuple[str, ...] | None = None
    description: str = ""
    source: str | None = None
    #: Route the cold prepare through the dataset's rollup lattice
    #: (:mod:`repro.lattice`): exact/derived rollups serve without a
    #: build, misses fall back and feed the promotion policy.
    lattice: bool = False

    def __post_init__(self) -> None:
        if (self.loader is None) == (self.source is None):
            raise QueryError(
                f"dataset spec {self.name!r} needs exactly one of loader= or source="
            )

    @classmethod
    def for_name(cls, name: str, **kwargs) -> "DatasetSpec":
        """The spec serving ``name``: a source URI, else a bundled dataset."""
        if is_source_uri(name):
            return cls.from_source(name, **kwargs)
        return cls.bundled(name, **kwargs)

    @classmethod
    def bundled(cls, name: str, **kwargs) -> "DatasetSpec":
        """A spec for one of the bundled datasets (lazy-loaded)."""
        return cls(name=name, loader=lambda: load_dataset(name), **kwargs)

    @classmethod
    def from_dataset(cls, dataset: Dataset, **kwargs) -> "DatasetSpec":
        """A spec wrapping an already-materialized dataset."""
        return cls(name=dataset.name, loader=lambda: dataset, **kwargs)

    @classmethod
    def from_source(cls, uri: str, name: str | None = None, **kwargs) -> "DatasetSpec":
        """A spec serving a data-source URI (``csv:``/``npz:``/``sqlite:``)."""
        return cls(name=name or uri, source=uri, **kwargs)


def session_nbytes(session: ExplainSession) -> int:
    """Resident-size estimate of a prepared session, in bytes.

    Counts the dominant arrays: the finalized series matrices plus the
    delta ledger's aggregate states.  Derived scorer-LRU entries and the
    costs-memo entries hung on them are bounded separately (per session)
    and excluded — the estimate drives relative eviction order, not an
    allocator.  The detect tier's
    baseline state is counted separately (:func:`detector_nbytes`) and
    folded into the entry estimate when a detector is built.
    """
    cube = session.cube
    total = (
        cube.included_values.nbytes
        + cube.excluded_values.nbytes
        + cube.overall_values.nbytes
        + cube.supports.nbytes
    )
    state = cube.append_state
    if state is not None:
        total += state.overall.nbytes
        for ledger in state.ledgers:
            total += ledger.state.nbytes + ledger.counts.nbytes
    return total


def detector_nbytes(detector: DetectSession) -> int:
    """Resident-size estimate of a detect tier, in bytes.

    The :class:`~repro.detect.baselines.TieredBaselines` mean/std
    matrices are ``(n_candidates, n_times)`` float64 — they can rival
    the cube itself, so leaving them out of the entry estimate would
    make the memory budget trigger eviction late.
    """
    baselines = detector.baselines
    return (
        baselines.mean.nbytes
        + baselines.std.nbytes
        + baselines.tier.nbytes
        + baselines.samples.nbytes
    )


@dataclass
class _Entry:
    """One resident session plus its LRU bookkeeping."""

    session: ExplainSession
    nbytes: int
    created: float
    last_used: float
    build_seconds: float
    queries: int = 0


@dataclass
class RegistryStats:
    """Counters the registry exposes through ``/stats``."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0
    expirations: int = 0
    build_seconds: float = 0.0
    adopt_hits: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "build_seconds": self.build_seconds,
            "adopt_hits": self.adopt_hits,
        }


class SessionRegistry:
    """Named prepared sessions behind a memory-budget + TTL LRU.

    Parameters
    ----------
    specs:
        Initial :class:`DatasetSpec`s; more can be added with
        :meth:`register`.
    memory_budget_bytes:
        Soft cap on the summed session estimates; ``None`` (default) is
        unbounded.  The most recently used session always survives.
    ttl_seconds:
        Idle time after which a session is dropped; ``None`` disables.
    cache_dir:
        Persistent rollup-cache directory shared by every dataset.  A
        cold prepare of a non-lattice spec first adopts the dataset's
        entry there read-only and memory-mapped — N worker processes
        opening the same entry share one resident copy through the page
        cache, and the warm start skips the build (``adopt_hits`` in
        :meth:`stats`).  On a miss the session builds and stores into it.
    clock:
        Injectable monotonic clock (tests pin TTL behaviour with it).
    """

    def __init__(
        self,
        specs: Sequence[DatasetSpec] = (),
        memory_budget_bytes: int | None = None,
        ttl_seconds: float | None = None,
        cache_dir: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._specs: dict[str, DatasetSpec] = {}
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self._build_locks: dict[str, threading.Lock] = {}
        self._memory_budget = memory_budget_bytes
        self._ttl = ttl_seconds
        self._cache = RollupCache(cache_dir) if cache_dir else None
        self._cache_dir = cache_dir
        self._clock = clock
        self._stats = RegistryStats()
        metrics = get_metrics()
        self._metric_lookups = metrics.counter(
            "repro_registry_lookups_total",
            "Session lookups by outcome (hit / miss / coalesced)",
            labels=("outcome",),
        )
        self._metric_evictions = metrics.counter(
            "repro_registry_evictions_total",
            "Sessions dropped by the LRU (budget) or the TTL (expired)",
            labels=("reason",),
        )
        self._metric_build_seconds = metrics.histogram(
            "repro_registry_build_seconds",
            "Cold session prepare latency",
            buckets=BUILD_BUCKETS,
        )
        # One lattice router per data fingerprint, shared by every spec
        # over the same data (created lazily by the first lattice spec).
        self._routers: dict[str, LatticeRouter] = {}
        # One detect tier per dataset, built lazily on the first /detect
        # and dropped whenever its underlying session is (the baselines
        # are derived state — rebuilt from the fresh cube on demand).
        self._detectors: dict[str, DetectSession] = {}
        for spec in specs:
            self.register(spec)

    @classmethod
    def with_bundled_datasets(cls, names: Sequence[str] | None = None, **kwargs) -> "SessionRegistry":
        """A registry pre-populated with (a subset of) the bundled datasets."""
        names = tuple(names) if names is not None else available_datasets()
        return cls(specs=[DatasetSpec.bundled(name) for name in names], **kwargs)

    # ------------------------------------------------------------------
    # Spec management
    # ------------------------------------------------------------------
    def register(self, spec: DatasetSpec) -> None:
        """Add (or replace) a dataset spec; a resident session is dropped."""
        with self._lock:
            self._specs[spec.name] = spec
            self._entries.pop(spec.name, None)
            self._detectors.pop(spec.name, None)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._specs))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._specs

    # ------------------------------------------------------------------
    # The hot path
    # ------------------------------------------------------------------
    def session(self, name: str) -> ExplainSession:
        """The prepared session for ``name`` (single-flight on cold keys)."""
        with self._lock:
            spec = self._spec_for(name)
            entry = self._live_entry(name)
            if entry is not None:
                self._stats.hits += 1
                self._metric_lookups.inc(outcome="hit")
                entry.queries += 1
                return entry.session
            self._stats.misses += 1
            self._metric_lookups.inc(outcome="miss")
            build_lock = self._build_locks.setdefault(name, threading.Lock())
        # Build outside the registry lock so other datasets stay servable;
        # the per-key lock is what coalesces concurrent cold requests.
        waited = not build_lock.acquire(blocking=False)
        if waited:
            build_lock.acquire()
        try:
            with self._lock:
                entry = self._live_entry(name)
                if entry is not None:
                    # A racer built it while we waited on the key lock.
                    if waited:
                        self._stats.coalesced += 1
                        self._metric_lookups.inc(outcome="coalesced")
                    entry.queries += 1
                    return entry.session
            with span("prepare") as prepare:
                session = self._prepare(spec)
            build_seconds = prepare.duration
            self._metric_build_seconds.observe(build_seconds)
            with self._lock:
                # register() may have replaced the spec while we built;
                # serve this request from the stale session but never
                # cache it — the next request prepares the new spec.
                if self._specs.get(name) is spec:
                    self._admit(name, session, build_seconds)
            return session
        finally:
            build_lock.release()

    def touch(self, name: str) -> None:
        """Refresh ``name``'s LRU position without counting a query."""
        with self._lock:
            self._live_entry(name)

    def detect_session(self, name: str) -> DetectSession:
        """The detect tier over ``name``'s prepared session (lazy, cached).

        Keyed on the *session object*: when the LRU evicted and rebuilt
        the dataset's session, the cached detector is stale and a fresh
        one (baselines rebuilt over the new cube) replaces it.
        """
        session = self.session(name)
        with self._lock:
            detector = self._detectors.get(name)
            if detector is not None and detector.session is session:
                return detector
        # Baseline construction scans the whole cube; build it outside
        # the registry lock so other datasets stay servable meanwhile.
        detector = DetectSession(session)
        with self._lock:
            current = self._detectors.get(name)
            if current is not None and current.session is session:
                return current  # a racer built it first; adopt theirs
            self._detectors[name] = detector
            # The baselines just became resident state of this dataset:
            # fold them into the entry's byte estimate so the memory
            # budget sees them, and re-check the budget right away.
            entry = self._entries.get(name)
            if entry is not None and entry.session is session:
                entry.nbytes = session_nbytes(session) + detector_nbytes(detector)
                self._enforce_budget()
            return detector

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------
    def evict(self, name: str) -> bool:
        """Drop a resident session (the spec stays registered)."""
        with self._lock:
            self._detectors.pop(name, None)
            return self._entries.pop(name, None) is not None

    def clear(self) -> None:
        """Drop every resident session."""
        with self._lock:
            self._entries.clear()
            self._detectors.clear()

    def sweep(self) -> int:
        """Drop every TTL-expired session; returns how many were dropped."""
        if self._ttl is None:
            return 0
        with self._lock:
            now = self._clock()
            expired = [
                name
                for name, entry in self._entries.items()
                if now - entry.last_used > self._ttl
            ]
            for name in expired:
                del self._entries[name]
                self._detectors.pop(name, None)
            self._stats.expirations += len(expired)
            if expired:
                self._metric_evictions.inc(len(expired), reason="expired")
            return len(expired)

    def memory_bytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._entries.values())

    def describe(self) -> list[dict]:
        """One JSON-shaped record per registered dataset (``/datasets``)."""
        with self._lock:
            now = self._clock()
            rows = []
            for name in sorted(self._specs):
                spec = self._specs[name]
                row: dict = {
                    "name": name,
                    "description": spec.description,
                    "loaded": name in self._entries,
                }
                entry = self._entries.get(name)
                if entry is not None:
                    cube = entry.session.cube
                    row.update(
                        # Reporting must never force a lazy (source-backed)
                        # session to ingest its relation.
                        rows=(
                            entry.session.relation.n_rows
                            if entry.session.relation_loaded
                            else None
                        ),
                        epsilon=cube.n_explanations,
                        n_times=cube.n_times,
                        memory_bytes=entry.nbytes,
                        queries=entry.queries,
                        idle_seconds=round(now - entry.last_used, 3),
                        build_seconds=round(entry.build_seconds, 6),
                    )
                rows.append(row)
            return rows

    def stats(self) -> dict:
        """Registry counters plus the resident-session roster (``/stats``)."""
        with self._lock:
            payload = self._stats.as_dict()
            payload.update(
                datasets=len(self._specs),
                resident_sessions=len(self._entries),
                memory_bytes=sum(e.nbytes for e in self._entries.values()),
                memory_budget_bytes=self._memory_budget,
                ttl_seconds=self._ttl,
                cache_dir=self._cache_dir,
                lattice=self.lattice_stats(),
                detect=self.detect_stats(),
            )
            return payload

    def detect_stats(self) -> dict:
        """Aggregated detect-tier counters (the ``/stats`` detect key)."""
        with self._lock:
            detectors = list(self._detectors.values())
        totals = {
            "sessions": len(detectors),
            "scans": 0,
            "appends": 0,
            "cells_scored": 0,
            "anomalies": 0,
        }
        for detector in detectors:
            stats = detector.stats()
            for key in ("scans", "appends", "cells_scored", "anomalies"):
                totals[key] += stats[key]
        return totals

    def lattice_stats(self) -> dict:
        """Aggregated lattice-router counters (the ``/stats`` lattice key)."""
        with self._lock:
            routers = list(self._routers.values())
        totals = {
            "routers": len(routers),
            "rollups": 0,
            "resident_cubes": 0,
            "exact_hits": 0,
            "derived_hits": 0,
            "lattice_miss": 0,
            "derivations": 0,
            "promotions": 0,
        }
        for router in routers:
            for key, value in router.stats().items():
                totals[key] += value
        return totals

    # ------------------------------------------------------------------
    # Internals (registry lock held unless noted)
    # ------------------------------------------------------------------
    def _spec_for(self, name: str) -> DatasetSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise QueryError(
                f"unknown dataset {name!r}; registered: {sorted(self._specs)}"
            ) from None

    def _live_entry(self, name: str) -> _Entry | None:
        """The entry for ``name`` if resident and fresh; touches its LRU slot."""
        entry = self._entries.get(name)
        if entry is None:
            return None
        now = self._clock()
        if self._ttl is not None and now - entry.last_used > self._ttl:
            del self._entries[name]
            self._stats.expirations += 1
            self._metric_evictions.inc(reason="expired")
            return None
        entry.last_used = now
        self._entries.move_to_end(name)
        return entry

    def _prepare(self, spec: DatasetSpec) -> ExplainSession:
        """Bind and prepare a session (runs under the key lock only).

        A lattice spec routes through the data's shared router.  Otherwise,
        with a cache directory, the cold prepare first adopts the entry
        under the session's :meth:`~ExplainSession.cube_key`
        memory-mapped, and builds (storing into the cache) only on a
        miss.  A source's relation stays lazy: a warm serve never parses
        it.
        """
        if spec.source is not None:
            data = resolve_source(spec.source)
            binding = {"explain_by": spec.explain_by}
            config = spec.config if spec.config is not None else ExplainConfig.optimized()
        else:
            dataset = spec.loader()
            data = dataset.relation
            binding = {
                "measure": dataset.measure,
                "explain_by": spec.explain_by or dataset.explain_by,
                "aggregate": dataset.aggregate,
            }
            config = spec.config if spec.config is not None else default_config_for(dataset)
        if self._cache_dir and not config.cache_dir:
            config = config.updated(cache_dir=self._cache_dir)
        if spec.lattice:
            router = self._router_for(resolve_source(data))
            return ExplainSession.from_lattice(router, data, config=config, **binding)
        session = ExplainSession(data, config=config, **binding)
        if self._cache is None or not self._adopt(session):
            session.prepare()
        return session

    def _adopt(self, session: ExplainSession) -> bool:
        """Install the memory-mapped cache entry of the session's cube, if any.

        The adopted cube is a fixed snapshot whose series matrices are
        mapped read-only — every process opening the same entry shares
        one page-cache copy, and the warm start skips the build entirely.
        A lazy (source-backed) session stays lazy.  ``False`` on a miss.
        """
        with span("cache-adopt"):
            cube = RollupCache(session.config.cache_dir).load(
                session.cube_key(), mmap=True
            )
        if cube is None:
            return False
        session.adopt_snapshot(cube)
        with self._lock:
            self._stats.adopt_hits += 1
        return True

    def _router_for(self, source: DataSource) -> LatticeRouter:
        """The shared lattice router of one data fingerprint (lazy).

        Creation loads and validates the persisted manifest — a corrupt
        document or fingerprint mismatch propagates loudly to the request
        that needed the lattice, per the routing contract.
        """
        fingerprint = source.cache_fingerprint()
        with self._lock:
            router = self._routers.get(fingerprint)
            if router is None:
                router = LatticeRouter(
                    fingerprint, source.schema.require_time(), cache=self._cache
                )
                self._routers[fingerprint] = router
            return router

    def _admit(self, name: str, session: ExplainSession, build_seconds: float) -> None:
        now = self._clock()
        self._entries[name] = _Entry(
            session=session,
            nbytes=session_nbytes(session),
            created=now,
            last_used=now,
            build_seconds=build_seconds,
            queries=1,
        )
        self._entries.move_to_end(name)
        self._stats.build_seconds += build_seconds
        self._enforce_budget()

    def _enforce_budget(self) -> None:
        """Evict LRU entries (and their detectors) past the memory budget.

        The most recently used entry always survives, even alone over
        budget — evicting the session a request is about to use would
        thrash.  An evicted dataset's cached detector goes with it:
        keeping baselines for a session the LRU just dropped would leak
        exactly the bytes the budget is trying to bound.
        """
        if self._memory_budget is None:
            return
        while (
            len(self._entries) > 1
            and sum(e.nbytes for e in self._entries.values()) > self._memory_budget
        ):
            evicted, _ = self._entries.popitem(last=False)
            self._detectors.pop(evicted, None)
            self._stats.evictions += 1
            self._metric_evictions.inc(reason="budget")
