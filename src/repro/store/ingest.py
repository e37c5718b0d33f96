"""Ingestion: the one cache-or-build path and the chunked cube build.

This is where the storage layer meets the prepare tier.  Two ideas:

**Source-keyed rollup caching.**  A cube's cache key embeds
:meth:`DataSource.cache_fingerprint` — a relation's content fingerprint,
or for every other source its cheap *source* fingerprint under the
``src-`` namespace (no materialization) — so a warm serve checks the
cache **before** parsing anything and, on a hit, skips ingestion
entirely.  :func:`load_or_build_from_source` is the one cache-or-build
call: every prepared session (:meth:`ExplainSession.prepare
<repro.core.session.ExplainSession.prepare>`) gets its cube from it.

**Chunked out-of-core builds.**  :func:`scan_cubes_from_source` feeds
:meth:`DataSource.iter_chunks` through the append ledger
(:mod:`repro.cube.delta`): the first chunk builds an appendable cube, every
later chunk is ``cube.append(chunk)``.  Appends replay the exact unbuffered
``np.add.at`` sequence a one-shot build over the concatenated rows would
execute, so the chunked cube is **bit-identical** to the in-memory build —
while peak relation residency stays bounded by one chunk.  The append
contract requires chunk-ordered time labels (a new label must sort after
every label in earlier chunks); a source that violates it, or that is
known not to keep it (``chunk_safe`` is ``False``, e.g. an in-memory
relation), gets a one-shot read instead — same bytes, unbounded
residency, never an error (``IngestReport.out_of_core`` records which
path ran).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cube.cache import RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from repro.datasets.base import Dataset
from repro.exceptions import AggregateError, BackfillError, QueryError
from repro.obs.trace import span
from repro.relation.aggregates import AggregateFunction, get_aggregate
from repro.relation.table import Relation
from repro.store.base import DEFAULT_CHUNK_ROWS, DataSource


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
    """What one :func:`scan_cubes_from_source` or
    :func:`load_or_build_from_source` call actually did.

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
        Duration of the scan's ``ingest`` span: reading plus building
        (0 on a cache hit).
    relation:
        The materialized relation when the one-shot path ran (it was
        paid for — :meth:`ExplainSession.prepare` adopts it instead of
        re-ingesting later); ``None`` for cache hits and
        out-of-core builds, which never hold the full relation.
    """

    cache_hit: bool
    out_of_core: bool
    chunks: int = 0
    rows: int = 0
    peak_chunk_rows: int = 0
    build_seconds: float = 0.0
    relation: "Relation | None" = field(default=None, repr=False, compare=False)


def scan_cubes_from_source(
    source: DataSource,
    queries: Sequence[dict],
    time_attr: str | None = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> tuple[list[ExplanationCube], IngestReport]:
    """Build N cubes from **one scan** over the source.

    The one cube build: a session's cube (N = 1, through
    :func:`load_or_build_from_source`) and the roots of
    :func:`repro.lattice.build_lattice` both come from here.  Instead of
    paying N ingestion passes for N cube shapes, every chunk is
    materialized once and scattered into all N append ledgers before the
    next chunk is read — so peak relation residency stays one chunk while
    the scan cost is paid once, and each resulting cube is bit-identical
    to its own independent build (appends replay the exact unbuffered
    ``np.add.at`` sequence of a one-shot build).

    ``queries`` holds one dict per cube with the build parameters:
    ``explain_by``, ``measure``, and optionally ``aggregate``,
    ``max_order``, ``deduplicate``.  A source whose chunk order violates
    the append contract falls back to a single one-shot read feeding all
    N builds — still one scan, unbounded residency — and the report's
    ``relation`` hands the materialized rows to callers that can reuse
    them.  The scan is one ``ingest`` span, whose duration is the
    report's ``build_seconds``.
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
        )

    chunked = False
    chunks = rows = peak = 0
    cubes: list[ExplanationCube] | None = None
    relation: Relation | None = None
    with span("ingest") as ingest:
        # A source that knows its row order violates the append contract
        # (npz snapshots record it at convert time) skips the doomed
        # chunked attempt instead of paying for it and then re-reading.
        if getattr(source, "chunk_safe", True) is not False:
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
                # An unordered source: a new label back-filled across a
                # chunk boundary.  Degrade to the shared one-shot read
                # below — same results, unbounded residency.  Only this
                # specific error means "chunk order unsafe"; a
                # misconfiguration (bad aggregate, invalid binding)
                # propagates instead of paying a pointless full re-ingest
                # to hit the same error again.
                cubes = None
                chunks = rows = peak = 0
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
        build_seconds=ingest.duration,
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
) -> tuple[ExplanationCube, IngestReport]:
    """Serve a cube for a data source, building it only on a cache miss.

    With a cache, the key (:func:`~repro.cube.cache.cube_key`) is derived
    from the source's cheap cache fingerprint and a hit returns the stored
    cube without reading a single row.  On a miss the cube is built by
    :func:`scan_cubes_from_source` (chunked through the append ledger,
    or one-shot for a source that cannot be chunked) and stored under
    that key.

    Two classes of query quietly skip the cache rather than failing or
    mis-serving: a custom :class:`AggregateFunction` instance that is not
    the registry's own (the key stores only the aggregate *name*, so it
    could collide with or shadow a registered one), and a cube whose
    labels or values are not JSON scalars, or a cache directory that is
    not writable (the store fails).  Both still build and return a correct
    cube — it just is not persisted.
    """
    _check_preaggregate(source, aggregate)
    if cache is not None and not _registered(aggregate):
        cache = None
    key = None
    if cache is not None:
        key = cube_key(
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
    )
    if cache is not None and key is not None:
        try:
            cache.store(key, cube)
        except (TypeError, OSError):
            # A cache problem is never a reason to fail the build.
            pass
    return cube, report


def _registered(aggregate: str | AggregateFunction) -> bool:
    """Whether the cache key's aggregate *name* identifies ``aggregate``."""
    if isinstance(aggregate, str):
        return True
    try:
        return get_aggregate(aggregate.name) is aggregate
    except AggregateError:
        return False


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
