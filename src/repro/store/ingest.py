"""Out-of-core ingestion: source-keyed caching and the chunked cube build.

This is where the storage layer meets the prepare tier.  Two ideas:

**Source-keyed rollup caching.**  The classic cache key embeds
``Relation.fingerprint()`` — which requires the relation, i.e. a full
ingest.  :func:`source_cube_key` instead keys by the *source* fingerprint
(``src-…`` namespace: cheap, no materialization), so a warm serve checks
the cache **before** parsing anything and, on a hit, skips ingestion
entirely.  Cold builds store under the same source key; both keyings are
valid simultaneously and never collide (relation fingerprints are bare
hex digests).

**Chunked out-of-core builds.**  :func:`load_or_build_from_source` feeds
:meth:`DataSource.iter_chunks` through the append ledger
(:mod:`repro.cube.delta`): the first chunk builds an appendable cube, every
later chunk is ``cube.append(chunk)``.  Appends replay the exact unbuffered
``np.add.at`` sequence a one-shot build over the concatenated rows would
execute, so the chunked cube is **bit-identical** to the in-memory build —
while peak relation residency stays bounded by one chunk.  The append
contract requires chunk-ordered time labels (a new label must sort after
every label in earlier chunks); a source that violates it degrades to a
one-shot in-memory build — same bytes, unbounded residency, never an
error (``IngestReport.out_of_core`` records which path ran).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.cube.cache import CubeKey, RollupCache, cube_key_for_fingerprint
from repro.cube.datacube import ExplanationCube
from repro.datasets.base import Dataset
from repro.exceptions import BackfillError, QueryError
from repro.obs.trace import span
from repro.relation.aggregates import AggregateFunction
from repro.relation.table import Relation
from repro.store.base import DEFAULT_CHUNK_ROWS, DataSource

#: Namespace prefix keeping source fingerprints apart from relation ones.
SOURCE_KEY_PREFIX = "src-"


def _check_preaggregate(source: DataSource, aggregate: str | AggregateFunction) -> None:
    """Reject a non-sum aggregate over a pre-aggregated source.

    ``SqliteSource`` validates its *default* aggregate at construction,
    but the aggregate actually binds here (and in
    :func:`dataset_from_source`) where callers may override it —
    averaging SUM-pre-reduced group rows would be silently wrong.
    """
    if not getattr(source, "preaggregate", False):
        return
    name = aggregate if isinstance(aggregate, str) else aggregate.name
    if name != "sum":
        raise QueryError(
            f"source {source.uri} pre-aggregates with SUM; aggregate "
            f"{name!r} cannot be computed from pre-reduced rows"
        )


@dataclass(frozen=True)
class IngestReport:
    """What one :func:`load_or_build_from_source` call actually did.

    Attributes
    ----------
    cache_hit:
        The cube came from the rollup cache — no bytes were ingested.
    out_of_core:
        The cube was built chunk-by-chunk through the append ledger
        (``False`` for cache hits, one-shot builds and the fallback).
    chunks / rows:
        Chunks ingested and total rows scattered (0 on a cache hit).
    peak_chunk_rows:
        Largest single chunk materialized — the relation-residency bound
        of an out-of-core build.
    build_seconds:
        Wall-clock spent ingesting + building (0 on a cache hit).
    relation:
        The materialized relation when the one-shot path ran (it was
        paid for — callers like :meth:`ExplainSession.from_source` adopt
        it instead of re-ingesting later); ``None`` for cache hits and
        out-of-core builds, which never hold the full relation.
    """

    cache_hit: bool
    out_of_core: bool
    chunks: int = 0
    rows: int = 0
    peak_chunk_rows: int = 0
    build_seconds: float = 0.0
    relation: "Relation | None" = field(default=None, repr=False, compare=False)


def source_cube_key(
    source: DataSource,
    measure: str,
    explain_by: Sequence[str],
    aggregate: str | AggregateFunction = "sum",
    time_attr: str | None = None,
    max_order: int = 3,
    deduplicate: bool = True,
) -> CubeKey:
    """The rollup-cache key a cube built from ``source`` resolves to.

    Derived without materializing the relation: the data component is the
    source fingerprint under the ``src-`` namespace.
    """
    return cube_key_for_fingerprint(
        f"{SOURCE_KEY_PREFIX}{source.fingerprint()}",
        measure,
        explain_by,
        aggregate=aggregate,
        time_attr=time_attr or source.schema.require_time(),
        max_order=max_order,
        deduplicate=deduplicate,
    )


def scan_cubes_from_source(
    source: DataSource,
    queries: Sequence[dict],
    time_attr: str | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    out_of_core: bool = True,
) -> tuple[list[ExplanationCube], IngestReport]:
    """Build N cubes from **one scan** over the source.

    The multi-rollup workhorse behind :func:`repro.lattice.build_lattice`:
    instead of paying N ingestion passes for N cube shapes, every chunk is
    materialized once and scattered into all N append ledgers before the
    next chunk is read — so peak relation residency stays one chunk while
    the scan cost is paid once, and each resulting cube is bit-identical
    to its own independent build (appends replay the exact unbuffered
    ``np.add.at`` sequence of a one-shot build).

    ``queries`` holds one dict per cube with the build parameters:
    ``explain_by``, ``measure``, and optionally ``aggregate``,
    ``max_order``, ``deduplicate``.  A source whose chunk order violates
    the append contract (or ``out_of_core=False``) falls back to a single
    one-shot read feeding all N builds — still one scan, unbounded
    residency — and the report's ``relation`` hands the materialized rows
    to callers that can reuse them.  This is also the single-cube build
    of :func:`load_or_build_from_source` (N = 1).
    """
    if not queries:
        raise QueryError("scan_cubes_from_source needs at least one query")
    for query in queries:
        _check_preaggregate(source, query.get("aggregate", "sum"))

    def make_cube(query: dict, relation: Relation) -> ExplanationCube:
        return ExplanationCube(
            relation,
            query["explain_by"],
            query["measure"],
            aggregate=query.get("aggregate", "sum"),
            time_attr=time_attr,
            max_order=query.get("max_order", 3),
            deduplicate=query.get("deduplicate", True),
            appendable=True,
        )

    started = time.perf_counter()
    chunked = False
    chunks = rows = peak = 0
    cubes: list[ExplanationCube] | None = None
    if out_of_core and getattr(source, "chunk_safe", True) is False:
        # The source knows its row order violates the append contract
        # (npz snapshots record it at convert time): skip the doomed
        # chunked attempt instead of paying for it and then re-reading.
        out_of_core = False
    if out_of_core:
        try:
            cubes = []
            for chunk in source.iter_chunks(chunk_rows):
                if chunk.n_rows == 0:
                    continue
                chunks += 1
                rows += chunk.n_rows
                peak = max(peak, chunk.n_rows)
                if not cubes:
                    cubes = [make_cube(query, chunk) for query in queries]
                else:
                    for cube in cubes:
                        cube.append(chunk)
            if not cubes:
                raise QueryError(f"source {source.uri} yielded no rows")
            chunked = True
        except BackfillError:
            # An unordered source: a new label back-filled across a chunk
            # boundary.  Degrade to the shared one-shot read below — same
            # results, unbounded residency.  Only this specific error
            # means "chunk order unsafe"; a misconfiguration (bad
            # aggregate, invalid binding) propagates instead of paying a
            # pointless full re-ingest to hit the same error again.
            cubes = None
            chunks = rows = peak = 0
    relation: Relation | None = None
    if cubes is None:
        relation = source.read()
        if relation.n_rows == 0:
            raise QueryError(f"source {source.uri} yielded no rows")
        chunks, rows, peak = 1, relation.n_rows, relation.n_rows
        cubes = [make_cube(query, relation) for query in queries]
    report = IngestReport(
        cache_hit=False,
        out_of_core=chunked,
        chunks=chunks,
        rows=rows,
        peak_chunk_rows=peak,
        build_seconds=time.perf_counter() - started,
        relation=relation,
    )
    return cubes, report


def load_or_build_from_source(
    cache: RollupCache | None,
    source: DataSource,
    explain_by: Sequence[str],
    measure: str,
    aggregate: str | AggregateFunction = "sum",
    time_attr: str | None = None,
    max_order: int = 3,
    deduplicate: bool = True,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    out_of_core: bool = True,
) -> tuple[ExplanationCube, IngestReport]:
    """Serve a cube for a data source, ingesting only on a cache miss.

    The source-keyed sibling of :func:`repro.cube.cache.load_or_build`:
    with a cache, the key is derived from the cheap source fingerprint
    and a hit returns the stored cube without reading a single row.  On a
    miss the cube is built out-of-core (chunked through the append
    ledger, bit-identical to one-shot; degrades to a one-shot in-memory
    build when the source's chunk order violates the append contract) or
    one-shot when ``out_of_core=False``, then stored under the source
    key.
    """
    _check_preaggregate(source, aggregate)
    key = None
    if cache is not None:
        key = source_cube_key(
            source,
            measure,
            explain_by,
            aggregate=aggregate,
            time_attr=time_attr,
            max_order=max_order,
            deduplicate=deduplicate,
        )
        cached = cache.load(key)
        if cached is not None:
            return cached, IngestReport(cache_hit=True, out_of_core=False)

    with span("ingest"):
        (cube,), report = scan_cubes_from_source(
            source,
            [
                {
                    "explain_by": explain_by,
                    "measure": measure,
                    "aggregate": aggregate,
                    "max_order": max_order,
                    "deduplicate": deduplicate,
                }
            ],
            time_attr=time_attr,
            chunk_rows=chunk_rows,
            out_of_core=out_of_core,
        )
    if cache is not None and key is not None:
        try:
            cache.store(key, cube)
        except (TypeError, OSError):
            # Unstorable labels or an unwritable cache directory degrade
            # to an uncached build, exactly like load_or_build.
            pass
    return cube, report


def dataset_from_source(
    source: DataSource,
    name: str | None = None,
    aggregate: str | None = None,
    measure: str | None = None,
    explain_by: Sequence[str] | None = None,
) -> Dataset:
    """Materialize a :class:`~repro.datasets.base.Dataset` from a source.

    The dataset's query defaults come from the source binding: the first
    measure column, every dimension as explain-by, and the source URI's
    ``aggregate`` parameter.  This is the bridge the dataset registry and
    the CLI use for ``--source`` runs (one-shot materialization; the
    out-of-core path lives in
    :meth:`repro.core.session.ExplainSession.from_source`).
    """
    _check_preaggregate(source, aggregate or source.default_aggregate)
    schema = source.schema
    measures = schema.measure_names()
    if measure is None:
        if not measures:
            raise QueryError(f"source {source.uri} binds no measure column")
        measure = measures[0]
    relation = source.read()
    return Dataset(
        name=name or source.uri,
        relation=relation,
        measure=measure,
        explain_by=tuple(explain_by) if explain_by else schema.dimension_names(),
        aggregate=aggregate or source.default_aggregate,
        description=f"{source.scheme} source ({relation.n_rows} rows)",
    )


def convert(source: DataSource, dest_uri: str) -> tuple[str, int]:
    """Materialize a source and persist it under another backend.

    ``dest_uri`` follows the same grammar (``npz:out.npz``,
    ``sqlite:out.db?table=t``, ``csv:out.csv`` or a bare path with a
    recognized extension); returns ``(destination path, rows written)``.
    Rows are written in source order, so a chunk-safe source stays
    chunk-safe — and converting *to* npz records chunk safety in the
    snapshot header.
    """
    from repro.store.uri import parse_source_uri

    scheme, path, params = parse_source_uri(dest_uri)
    allowed = {"table"} if scheme == "sqlite" else set()
    unknown = set(params) - allowed
    if unknown:
        # Same strictness as resolve_source: a typo'd parameter must not
        # be dropped silently.
        raise QueryError(
            f"destination URI {dest_uri!r} has unsupported parameter(s) "
            f"{sorted(unknown)}"
            + (f"; allowed: {sorted(allowed)}" if allowed else "")
        )
    relation = source.read()
    if scheme == "npz":
        from repro.store.npz_source import write_npz

        write_npz(relation, path)
    elif scheme == "sqlite":
        from repro.store.sqlite_source import write_sqlite

        table = params.get("table")
        if not table:
            raise QueryError(
                f"sqlite destination {dest_uri!r} needs a table= parameter"
            )
        write_sqlite(relation, path, table)
    elif scheme == "csv":
        from repro.relation.csvio import write_csv

        write_csv(relation, path)
    else:  # pragma: no cover - parse_source_uri already rejects
        raise QueryError(f"unsupported destination scheme {scheme!r}")
    return path, relation.n_rows
