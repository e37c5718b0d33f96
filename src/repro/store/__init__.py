"""repro.store — pluggable data sources with out-of-core ingestion.

The storage layer behind every entry point: a :class:`DataSource`
abstracts *where rows come from* (schema discovery, cheap content
fingerprinting, one-shot reads, chunked reads), three stdlib-only
backends implement it (CSV, the npz columnar snapshot, SQLite with
pushdown) and :class:`RelationSource` binds an in-memory relation, URI
strings name them (``csv:…`` / ``npz:…`` / ``sqlite:…``), and
:mod:`repro.store.ingest` turns any source into a prepared explanation
cube — out-of-core, chunk-by-chunk through the append ledger, keyed into
the rollup cache by the source fingerprint so warm serves skip ingestion
entirely.

See ``docs/ARCHITECTURE.md`` (storage layer section) for the protocol
and the URI grammar.
"""

from repro.store.base import (
    DEFAULT_CHUNK_ROWS,
    DataSource,
    RelationSource,
    compose_fingerprint,
    file_digest,
)
from repro.store.csv_source import CsvSource
from repro.store.ingest import (
    IngestReport,
    convert,
    dataset_from_source,
    load_or_build_from_source,
    scan_cubes_from_source,
)
from repro.store.npz_source import NpzSource, write_npz
from repro.store.sqlite_source import SqliteSource, write_sqlite
from repro.store.uri import (
    EXTENSION_SCHEMES,
    SOURCE_SCHEMES,
    is_source_uri,
    parse_source_uri,
    resolve_source,
    split_list,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "EXTENSION_SCHEMES",
    "SOURCE_SCHEMES",
    "CsvSource",
    "DataSource",
    "IngestReport",
    "NpzSource",
    "RelationSource",
    "SqliteSource",
    "compose_fingerprint",
    "convert",
    "dataset_from_source",
    "file_digest",
    "is_source_uri",
    "load_or_build_from_source",
    "parse_source_uri",
    "resolve_source",
    "scan_cubes_from_source",
    "split_list",
    "write_npz",
    "write_sqlite",
]
