"""The query router: answer each cube request from the prepared lattice.

Routing decision, per requested :class:`~repro.lattice.spec.RollupSpec`
(checked in this order):

1. **exact** — the manifest lists the spec itself: serve the resident
   cube, or load its cache entry.  A listed-but-unloadable rollup raises
   :class:`~repro.exceptions.QueryError` loudly — the lattice claimed to
   hold it, so silently rebuilding would hide cache corruption.
2. **derived** — some listed rollup covers the request
   (:func:`~repro.lattice.derive.can_derive`): derive from the *finest
   matching-or-coarser* source — the cheapest covering rollup by
   (dims, components, order) — install the result as a new lattice member
   and persist it, so the derivation is paid once.
3. **miss** — nothing covers the request: return ``None`` and count a
   ``lattice_miss``; the caller falls back to the ordinary build path and
   reports the built cube back via :meth:`LatticeRouter.record_build`,
   which **promotes** shapes requested often enough (``promote_after``)
   into the lattice — ad-hoc shapes that turn out popular stop paying
   rebuilds.

The router is thread-safe (one lock around the manifest, the resident
cubes and the counters); the expensive work it guards — one derivation —
is exactly what the registry's single-flight test pins to once under
concurrent cold requests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.cube.cache import RollupCache
from repro.cube.datacube import ExplanationCube
from repro.exceptions import QueryError
from repro.lattice.derive import aggregate_components, can_derive, derive_rollup
from repro.lattice.manifest import LatticeManifest
from repro.lattice.spec import RollupSpec, rollup_key
from repro.obs.metrics import get_registry as _get_metrics
from repro.obs.trace import span


def _routes_counter():
    return _get_metrics().counter(
        "repro_lattice_routes_total",
        "Lattice routing decisions (exact / derived / miss)",
        labels=("decision",),
    )


@dataclass(frozen=True)
class RouteInfo:
    """How one request was answered: the decision and the serving rollup."""

    decision: str  # "exact" | "derived" | "miss"
    requested: RollupSpec
    served_by: RollupSpec | None = None


def _derivation_cost(spec: RollupSpec) -> tuple:
    """Sort key: prefer the finest matching-or-coarser source (ascending)."""
    return (
        len(spec.dims),
        len(aggregate_components(spec.aggregate)),
        spec.effective_order,
        spec.dims,
        spec.aggregate,
    )


class LatticeRouter:
    """Route cube requests for **one data fingerprint** through its lattice.

    Parameters
    ----------
    fingerprint:
        The data fingerprint every rollup is keyed by (relation
        fingerprint, or ``src-…`` for data sources).
    time_attr:
        The time attribute the rollups were built over.
    cache:
        Rollup cache backing the lattice; ``None`` keeps the lattice
        purely in-memory (rollups seeded or promoted this process).
    manifest:
        Pre-validated manifest; when omitted it is loaded from the cache
        — raising :class:`~repro.exceptions.QueryError` on a corrupt
        document or a fingerprint mismatch, per the lattice's loud-failure
        contract — or starts empty without a cache.
    promote_after:
        Misses of one spec before :meth:`record_build` promotes its built
        cube into the lattice (default 2: the second rebuild of a shape
        proves it popular).
    """

    def __init__(
        self,
        fingerprint: str,
        time_attr: str,
        cache: RollupCache | None = None,
        manifest: LatticeManifest | None = None,
        promote_after: int = 2,
    ):
        if promote_after < 1:
            raise QueryError(f"promote_after must be >= 1, got {promote_after}")
        self._fingerprint = fingerprint
        self._time_attr = time_attr
        self._cache = cache
        self._promote_after = promote_after
        self._lock = threading.RLock()
        self._cubes: dict[RollupSpec, ExplanationCube] = {}
        self._miss_counts: dict[RollupSpec, int] = {}
        self._exact_hits = 0
        self._derived_hits = 0
        self._lattice_miss = 0
        self._derivations = 0
        self._promotions = 0
        if manifest is None:
            payload = (
                cache.load_manifest_payload(fingerprint)
                if cache is not None
                else None
            )
            if payload is not None:
                manifest = LatticeManifest.from_payload(
                    payload, expected_fingerprint=fingerprint
                )
            else:
                manifest = LatticeManifest(
                    fingerprint=fingerprint, time_attr=time_attr
                )
        elif manifest.fingerprint != fingerprint:
            raise QueryError(
                f"lattice manifest fingerprint {manifest.fingerprint!r} does "
                f"not match the router's fingerprint {fingerprint!r}"
            )
        self._manifest = manifest

    # ------------------------------------------------------------------
    @classmethod
    def for_source(
        cls, source, cache: RollupCache | None = None, time_attr: str | None = None, **kwargs
    ) -> "LatticeRouter":
        """A router keyed by the data's cache fingerprint.

        ``source`` is a :class:`~repro.store.DataSource`, a source URI or a
        relation; the router is keyed by
        :meth:`~repro.store.DataSource.cache_fingerprint` (a relation's
        content fingerprint, or a source's cheap ``src-…`` one), the
        fingerprint :func:`~repro.lattice.build.build_lattice` keys the
        lattice by.
        """
        from repro.store.uri import resolve_source

        source = resolve_source(source)
        return cls(
            source.cache_fingerprint(),
            time_attr or source.schema.require_time(),
            cache=cache,
            **kwargs,
        )

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    @property
    def time_attr(self) -> str:
        return self._time_attr

    @property
    def manifest(self) -> LatticeManifest:
        with self._lock:
            return self._manifest

    def seed(self, cubes: "dict[RollupSpec, ExplanationCube]", origin: str = "built") -> None:
        """Install already-built rollups (e.g. a :func:`build_lattice` result).

        Memory-resident only — persisting is the builder's job; seeding
        merely tells the router these cubes are answerable.
        """
        with self._lock:
            for spec, cube in cubes.items():
                self._cubes[spec] = cube
                self._manifest = self._manifest.with_entry(spec, origin)

    # ------------------------------------------------------------------
    def route(
        self, spec: RollupSpec
    ) -> tuple[ExplanationCube | None, RouteInfo]:
        """Answer one cube request from the lattice; ``None`` on a miss."""
        with span("lattice-route"), self._lock:
            if spec in self._manifest:
                cube = self._load(spec)
                self._exact_hits += 1
                _routes_counter().inc(decision="exact")
                return cube, RouteInfo("exact", spec, spec)
            candidates = [
                entry.spec
                for entry in self._manifest.entries
                if can_derive(entry.spec, spec)
            ]
            if candidates:
                source = min(candidates, key=_derivation_cost)
                cube = derive_rollup(self._load(source), spec)
                self._derivations += 1
                self._derived_hits += 1
                _routes_counter().inc(decision="derived")
                self._install(spec, cube, "derived")
                return cube, RouteInfo("derived", spec, source)
            self._lattice_miss += 1
            _routes_counter().inc(decision="miss")
            self._miss_counts[spec] = self._miss_counts.get(spec, 0) + 1
            return None, RouteInfo("miss", spec)

    def record_build(self, spec: RollupSpec, cube: ExplanationCube) -> bool:
        """Feed a fallback-built cube back; returns whether it was promoted.

        Promotion requires the shape to have missed ``promote_after``
        times (popularity, not one-off curiosity) and the cube to carry
        its ledger (a ledger-less cube could not serve derivations).
        """
        with self._lock:
            if spec in self._manifest:
                return False
            if self._miss_counts.get(spec, 0) < self._promote_after:
                return False
            if not cube.appendable:
                return False
            self._install(spec, cube, "promoted")
            self._promotions += 1
            return True

    def stats(self) -> dict:
        """Routing counters (aggregated into the serving tier's /stats)."""
        with self._lock:
            return {
                "rollups": len(self._manifest.entries),
                "resident_cubes": len(self._cubes),
                "exact_hits": self._exact_hits,
                "derived_hits": self._derived_hits,
                "lattice_miss": self._lattice_miss,
                "derivations": self._derivations,
                "promotions": self._promotions,
            }

    # ------------------------------------------------------------------
    # Internals (lock held)
    # ------------------------------------------------------------------
    def _load(self, spec: RollupSpec) -> ExplanationCube:
        """A manifest-listed rollup — resident, cache-loaded, or a loud error."""
        cube = self._cubes.get(spec)
        if cube is not None:
            return cube
        if self._cache is not None:
            cube = self._cache.load(
                rollup_key(self._fingerprint, spec, self._time_attr)
            )
            if cube is not None:
                self._cubes[spec] = cube
                return cube
        raise QueryError(
            f"lattice manifest lists rollup {spec.describe()} but its cache "
            "entry is missing or unreadable; rebuild the lattice with "
            "'repro lattice build' (or clear the cache)"
        )

    def _install(self, spec: RollupSpec, cube: ExplanationCube, origin: str) -> None:
        self._cubes[spec] = cube
        self._manifest = self._manifest.with_entry(spec, origin)
        if self._cache is not None:
            try:
                self._cache.store(
                    rollup_key(self._fingerprint, spec, self._time_attr), cube
                )
                self._cache.store_manifest_payload(
                    self._fingerprint, self._manifest.to_payload()
                )
            except (TypeError, OSError):
                # An unpersistable rollup still serves from memory; the
                # on-disk manifest must not list what is not on disk, so
                # skip the manifest write too.
                pass
