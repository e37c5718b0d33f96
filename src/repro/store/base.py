"""The :class:`DataSource` protocol: pluggable ingestion backends.

Every path into the system used to funnel through ``read_csv`` — a
materialize-everything parse of one file format.  A ``DataSource``
abstracts the ingestion side of the prepare tier behind four operations:

* **schema discovery** — :meth:`DataSource.column_names` lists what the
  underlying store holds, :attr:`DataSource.schema` is the bound
  (dimensions, measures, time) role assignment the relation will carry;
* **cheap fingerprinting** — :meth:`DataSource.fingerprint` identifies the
  source *content + binding* without materializing the relation (a
  streaming byte hash, or a digest stored at convert time), so the rollup
  cache (:mod:`repro.cube.cache`) can be keyed before any parsing happens
  and a warm serve skips ingestion entirely;
* **one-shot reads** — :meth:`DataSource.read` materializes the whole
  relation (column-batched, no per-row Python loop);
* **chunked reads** — :meth:`DataSource.iter_chunks` yields the same rows
  as bounded-size relations in the same order, which is what the
  out-of-core cube build (:mod:`repro.store.ingest`) feeds through the
  append ledger so peak relation residency stays bounded by the chunk
  size.

Three stdlib-only backends implement it: :class:`~repro.store.CsvSource`,
:class:`~repro.store.NpzSource` (a columnar snapshot written by
``repro store convert``, memory-mapped on load) and
:class:`~repro.store.SqliteSource` (column/predicate/GROUP-BY pushdown).
:class:`RelationSource` binds an in-memory relation the same way, so a
session or a lattice prepares from any data through one path.
"""

from __future__ import annotations

import abc
import hashlib
from pathlib import Path
from typing import Iterator, Sequence

from repro.exceptions import SchemaError
from repro.relation.schema import Schema
from repro.relation.table import Relation

#: Default number of rows per chunk for out-of-core ingestion.
DEFAULT_CHUNK_ROWS = 100_000

#: Namespace prefix keeping source fingerprints apart from relation ones
#: in rollup-cache keys (relation fingerprints are bare hex digests).
SOURCE_KEY_PREFIX = "src-"


def file_digest(path: str | Path) -> str:
    """Streaming SHA-256 of a file's raw bytes (1 MiB reads).

    O(bytes) with O(1) memory — no parsing, no materialization.  This is
    the conservative content identity the file-backed sources build their
    fingerprints from: any byte change invalidates, and a byte change
    without a logical change merely costs a cache miss, never a stale
    cube.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def compose_fingerprint(parts: Sequence[str]) -> str:
    """Hash a sequence of identity components into one hex digest.

    Each part is length-framed before hashing (the
    :func:`~repro.cube.cache.chain_fingerprint` discipline), so no two
    distinct part sequences can collide by concatenation.
    """
    digest = hashlib.sha256()
    for part in parts:
        encoded = part.encode("utf-8", errors="backslashreplace")
        digest.update(len(encoded).to_bytes(8, "little"))
        digest.update(encoded)
    return digest.hexdigest()


class DataSource(abc.ABC):
    """One ingestible table plus its (dimensions, measures, time) binding.

    Concrete sources are constructed with the storage location and the
    role binding; IO happens lazily in the discovery/read methods.  The
    same source object always yields the same rows in the same order from
    :meth:`read` and :meth:`iter_chunks` — the out-of-core build's
    byte-identity guarantee rests on that.
    """

    #: URI scheme this backend answers to (``csv`` / ``npz`` / ``sqlite``).
    scheme: str = ""

    #: Aggregate suggested by the source URI (``aggregate=`` parameter);
    #: consumers constructing a :class:`~repro.datasets.base.Dataset` from
    #: the source use it as the default.  Not part of the fingerprint —
    #: the :class:`~repro.cube.cache.CubeKey` carries the aggregate
    #: separately.
    default_aggregate: str = "sum"

    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def uri(self) -> str:
        """Canonical URI this source resolves from (``scheme:path?…``)."""

    @property
    @abc.abstractmethod
    def schema(self) -> Schema:
        """The bound relation schema (dimension/measure/time roles)."""

    @abc.abstractmethod
    def column_names(self) -> tuple[str, ...]:
        """Every column the underlying store holds (schema discovery)."""

    @abc.abstractmethod
    def fingerprint(self) -> str:
        """Content identity of (source bytes, role binding, pushdown).

        Cheap: never materializes the relation.  Two sources with equal
        fingerprints yield equal relations, so the rollup cache may serve
        a cube built from one for the other.
        """

    @abc.abstractmethod
    def read(self) -> Relation:
        """Materialize the full relation."""

    @abc.abstractmethod
    def iter_chunks(self, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """The same rows as :meth:`read`, in order, ``chunk_rows`` at a time.

        Every yielded relation carries the full bound schema; only the
        last chunk may be shorter.  Peak residency of the consumer is
        bounded by one chunk (plus whatever the consumer accumulates).
        """

    def count_rows(self) -> int | None:
        """Row count if the backend knows it cheaply, else ``None``."""
        return None

    def cache_fingerprint(self) -> str:
        """The data component of rollup-cache keys for cubes built from here.

        The source fingerprint under the ``src-`` namespace, so a warm
        serve finds its cube before parsing anything.
        """
        return f"{SOURCE_KEY_PREFIX}{self.fingerprint()}"

    # ------------------------------------------------------------------
    def _check_columns(self, available: Sequence[str]) -> None:
        """Validate the bound schema against discovered column names."""
        missing = set(self.schema.names) - set(available)
        if missing:
            raise SchemaError(
                f"source {self.uri} lacks columns {sorted(missing)}; "
                f"available: {sorted(available)}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.uri!r})"


class RelationSource(DataSource):
    """An in-memory relation as a one-chunk source.

    Cubes built from it are keyed by the relation's content fingerprint,
    the key every relation-backed cube has always had.  The relation is
    already resident, so a chunked build could not bound anything: it is
    read whole (``chunk_safe`` is ``False``, and its row order is never
    checked against the append contract).
    """

    scheme = "relation"
    chunk_safe = False

    def __init__(self, relation: Relation):
        self._relation = relation

    @property
    def uri(self) -> str:
        return f"relation:{self._relation.n_rows}-rows"

    @property
    def schema(self) -> Schema:
        return self._relation.schema

    def column_names(self) -> tuple[str, ...]:
        return self._relation.schema.names

    def fingerprint(self) -> str:
        return self._relation.fingerprint()

    def cache_fingerprint(self) -> str:
        return self._relation.fingerprint()

    def read(self) -> Relation:
        return self._relation

    def iter_chunks(self, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        yield self._relation
