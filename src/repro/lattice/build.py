"""Plan and build a rollup lattice in a single pass over the data.

Two stages:

1. :func:`plan_roots` collapses the requested specs to the minimal set of
   **root** cubes that truly need a source scan — a spec becomes a root
   only when no finer root already covers it
   (:func:`repro.lattice.derive.can_derive`).  With the default lattice
   (full dims + singles, one aggregate) that is a single root.
2. :func:`build_lattice` builds every root from **one scan** of
   :func:`repro.store.ingest.scan_cubes_from_source` — chunked for
   chunk-safe sources (bounded residency), one read for an in-memory
   relation — then derives every non-root from its root's ledger without
   touching the data again.

With a rollup cache, every cube is stored under its ordinary
:class:`~repro.cube.cache.CubeKey` (fingerprint + spec) and the
:class:`~repro.lattice.manifest.LatticeManifest` is persisted next to the
entries, so a later :class:`~repro.lattice.router.LatticeRouter` — in
another process — can answer from the prepared lattice cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cube.cache import RollupCache
from repro.cube.datacube import ExplanationCube
from repro.exceptions import QueryError
from repro.lattice.derive import aggregate_components, can_derive, derive_rollup
from repro.lattice.manifest import LatticeManifest
from repro.lattice.spec import RollupSpec, rollup_key
from repro.obs.trace import span
from repro.relation.table import Relation
from repro.store.base import DEFAULT_CHUNK_ROWS, DataSource
from repro.store.ingest import scan_cubes_from_source
from repro.store.uri import resolve_source


def _coverage(spec: RollupSpec) -> tuple:
    """Sort key: how much of the lattice a spec can answer (descending)."""
    return (
        -len(spec.dims),
        -len(aggregate_components(spec.aggregate)),
        -spec.effective_order,
        spec.dims,
        spec.aggregate,
    )


def plan_roots(
    specs: Sequence[RollupSpec],
) -> tuple[list[RollupSpec], dict[RollupSpec, RollupSpec]]:
    """Split specs into scan roots and derivation assignments.

    Returns ``(roots, derived_from)`` where every requested spec is either
    in ``roots`` (it needs its own build during the scan) or a key of
    ``derived_from`` (it re-aggregates from the mapped root's ledger).
    Greedy from the widest spec down: a spec joins the roots only when no
    existing root covers it, so the common case — one full cube plus its
    drill-down shapes — scans once.
    """
    unique: list[RollupSpec] = []
    for spec in specs:
        if spec not in unique:
            unique.append(spec)
    roots: list[RollupSpec] = []
    derived_from: dict[RollupSpec, RollupSpec] = {}
    for spec in sorted(unique, key=_coverage):
        root = next((r for r in roots if can_derive(r, spec)), None)
        if root is None:
            roots.append(spec)
        else:
            derived_from[spec] = root
    return roots, derived_from


@dataclass(frozen=True)
class LatticeBuildReport:
    """What one :func:`build_lattice` call actually did.

    ``built``/``derived`` partition the requested specs by how each cube
    came to exist; ``chunks``/``rows``/``out_of_core`` describe the single
    scan (shared across all roots); ``build_seconds`` is the duration of
    the ``lattice-build`` span around the scan and the derivations;
    ``stored`` counts the cache entries (plus manifest) persisted.
    """

    fingerprint: str
    time_attr: str
    built: tuple[RollupSpec, ...]
    derived: tuple[RollupSpec, ...]
    chunks: int
    rows: int
    out_of_core: bool
    build_seconds: float
    stored: int = 0


def build_lattice(
    data: Relation | DataSource | str,
    specs: Sequence[RollupSpec],
    cache: RollupCache | None = None,
    time_attr: str | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> tuple[dict[RollupSpec, ExplanationCube], LatticeBuildReport]:
    """Materialize a rollup lattice; returns ``(cubes by spec, report)``.

    ``data`` is a relation, a :class:`~repro.store.DataSource`, or a
    source URI.  Roots are built in one scan (chunk-safe sources stream
    through the append ledger with bounded residency), non-roots derive
    from their root's ledger, and — with a ``cache`` — every cube plus the
    lattice manifest is persisted under the data's cache fingerprint
    (:meth:`~repro.store.DataSource.cache_fingerprint`, the key a session
    over the same data uses, so a lattice rollup and a session build of
    the same shape share one cache entry).
    """
    source = resolve_source(data)
    if not specs:
        raise QueryError("build_lattice needs at least one rollup spec")
    time_attr = time_attr or source.schema.require_time()
    fingerprint = source.cache_fingerprint()
    roots, derived_from = plan_roots(specs)

    with span("lattice-build") as build:
        root_cubes, scan = scan_cubes_from_source(
            source,
            [
                {
                    "explain_by": root.dims,
                    "measure": root.measure,
                    "aggregate": root.aggregate,
                    "max_order": root.max_order,
                    "deduplicate": root.deduplicate,
                }
                for root in roots
            ],
            time_attr=time_attr,
            chunk_rows=chunk_rows,
        )
        cubes: dict[RollupSpec, ExplanationCube] = dict(zip(roots, root_cubes))
        for spec, root in derived_from.items():
            cubes[spec] = derive_rollup(cubes[root], spec)

    stored = 0
    if cache is not None:
        manifest = _existing_manifest(cache, fingerprint, time_attr)
        for spec, cube in cubes.items():
            try:
                cache.store(rollup_key(fingerprint, spec, time_attr), cube)
                stored += 1
            except (TypeError, OSError):
                # Unstorable labels or an unwritable directory degrade to
                # an unpersisted rollup — and it must then stay out of the
                # manifest, or the router would list an unloadable cube.
                continue
            manifest = manifest.with_entry(
                spec, "derived" if spec in derived_from else "built"
            )
        if cache.store_manifest_payload(fingerprint, manifest.to_payload()):
            stored += 1

    return cubes, LatticeBuildReport(
        fingerprint=fingerprint,
        time_attr=time_attr,
        built=tuple(roots),
        derived=tuple(derived_from),
        chunks=scan.chunks,
        rows=scan.rows,
        out_of_core=scan.out_of_core,
        build_seconds=build.duration,
        stored=stored,
    )


def _existing_manifest(
    cache: RollupCache, fingerprint: str, time_attr: str
) -> LatticeManifest:
    """The manifest to extend: the persisted one, or a fresh empty one.

    A rebuild *overwrites* a corrupt or mismatched document rather than
    failing — build is the recovery path the router's loud errors point
    operators at.
    """
    try:
        payload = cache.load_manifest_payload(fingerprint)
        if payload is not None:
            manifest = LatticeManifest.from_payload(
                payload, expected_fingerprint=fingerprint
            )
            if manifest.time_attr == time_attr:
                return manifest
    except QueryError:
        pass
    return LatticeManifest(fingerprint=fingerprint, time_attr=time_attr)
