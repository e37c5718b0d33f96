"""The ``.npz`` columnar snapshot format and its memory-mapped source.

``repro store convert`` writes a relation as an *uncompressed* ``.npz``
archive: one array member per column plus a JSON header (column roles, row
count, a content digest, and whether the row order is chunk-safe).  The
snapshot canonicalizes cells to the CSV dtype policy — dimension and time
cells become text, measures float64 — so a CSV → npz conversion
round-trips to an identical :meth:`~repro.relation.table.Relation.fingerprint`.

Loading is designed to avoid materialization twice over:

* the **fingerprint** is read straight from the JSON header (the content
  digest was computed at convert time), so keying the rollup cache costs
  one small read — no column bytes are touched;
* the **columns** are memory-mapped in place: the archive is written
  uncompressed (``np.savez``), so each member's array payload is a
  contiguous byte range of the zip file and can be ``np.memmap``-ed
  directly.  Float measure columns stay mapped all the way into the
  relation; text columns are decoded per chunk.  Anything unexpected
  (compressed members, exotic npy versions) falls back to a plain
  ``np.load`` — slower, never wrong.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import SchemaError
from repro.relation.schema import AttributeKind, Schema
from repro.relation.table import Relation
from repro.store.base import DEFAULT_CHUNK_ROWS, DataSource, compose_fingerprint

#: Bump when the snapshot layout changes; older files then fail loudly.
NPZ_FORMAT = 1

#: Sanity tag distinguishing store snapshots from arbitrary npz files.
NPZ_KIND = "repro.store/npz"


def _canonical_text_cells(values: np.ndarray) -> list[str]:
    """Column cells canonicalized to text (the CSV dtype policy)."""
    cells = [v if isinstance(v, str) else str(v) for v in values.tolist()]
    for cell in cells:
        if cell.endswith("\x00"):
            # Fixed-width U storage zero-pads, so a trailing NUL would be
            # silently stripped on load; refuse to write a lossy snapshot.
            raise SchemaError(
                "cannot snapshot a text cell with a trailing NUL character"
            )
    return cells


def _chunk_safe(relation: Relation) -> bool:
    """Whether any prefix-chunking of the rows satisfies the append contract.

    A chunked cube build appends one chunk after another; a *new* time
    label must always sort after every label seen in earlier chunks.
    That holds for every possible chunk boundary iff the first
    occurrences of the distinct labels appear in label-sorted order.
    """
    time_attr = relation.schema.time_name()
    if time_attr is None or relation.n_rows == 0:
        return True
    codes, _ = relation.time_positions(time_attr)
    first_occurrence = np.unique(codes, return_index=True)[1]
    return bool(np.all(np.diff(first_occurrence) > 0))


def write_npz(relation: Relation, path: str | Path) -> dict:
    """Persist a relation as a columnar snapshot; returns the header.

    Members are stored uncompressed so :class:`NpzSource` can memory-map
    them.  The header's ``content_digest`` is the relation's fingerprint
    — computed here, once, so later fingerprint queries never touch the
    column bytes.
    """
    path = Path(path)
    schema = relation.schema
    arrays: dict[str, np.ndarray] = {}
    for position, name in enumerate(schema.names):
        column = relation.column(name)
        if schema.attribute(name).is_measure:
            arrays[f"c{position}"] = np.asarray(column, dtype=np.float64)
        else:
            cells = _canonical_text_cells(column)
            arrays[f"c{position}"] = (
                np.asarray(cells) if cells else np.empty(0, dtype="<U1")
            )
    header = {
        "format": NPZ_FORMAT,
        "kind": NPZ_KIND,
        "columns": [[a.name, a.kind.value] for a in schema],
        "n_rows": relation.n_rows,
        "content_digest": relation.fingerprint(),
        "chunk_safe": _chunk_safe(relation),
    }
    header_bytes = json.dumps(header).encode("utf-8")
    with open(path, "wb") as handle:
        np.savez(handle, header=np.frombuffer(header_bytes, dtype=np.uint8), **arrays)
    return header


def _read_header(path: Path) -> dict:
    try:
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
    except Exception as error:
        raise SchemaError(f"{path} is not a readable store snapshot: {error}") from None
    if header.get("kind") != NPZ_KIND or header.get("format") != NPZ_FORMAT:
        raise SchemaError(
            f"{path} is not a repro.store npz snapshot (kind/format mismatch)"
        )
    return header


def mmap_member(path: Path, member: str) -> np.ndarray:
    """Memory-map one uncompressed npy member of a zip archive.

    Any C-order array maps, whatever its rank — column snapshots are 1-D,
    the rollup cache (:mod:`repro.cube.cache`) maps its ``(epsilon, n)``
    series matrices through the same helper.  Raises
    ``ValueError`` for anything the fast path cannot represent
    (compressed member, Fortran order, object dtype, 0-d scalar, unknown
    npy version); the caller falls back to ``np.load``.
    """
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(f"{member}.npy")
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError("member is compressed")
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise ValueError("bad local file header")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValueError(f"unsupported npy version {version}")
        if fortran or dtype.hasobject or len(shape) == 0:
            raise ValueError("member layout not mappable")
        offset = handle.tell()
    return np.memmap(path, dtype=dtype, mode="r", shape=shape, offset=offset)


class NpzSource(DataSource):
    """A columnar snapshot file, memory-mapped on load.

    The role binding defaults to what the snapshot recorded; explicit
    ``dimensions``/``measures``/``time`` arguments re-bind a subset of the
    stored columns (e.g. to explain by fewer attributes).  Each role is
    overridden independently — ``dimensions=["region"]`` alone keeps the
    snapshot's measure and time columns.
    """

    scheme = "npz"

    def __init__(
        self,
        path: str | Path,
        dimensions: Sequence[str] = (),
        measures: Sequence[str] = (),
        time: str | None = None,
        default_aggregate: str = "sum",
        mmap: bool = True,
    ):
        self._path = Path(path)
        self._mmap = mmap
        self._header: dict | None = None
        self._arrays: dict[str, np.ndarray] | None = None
        self._override = (tuple(dimensions), tuple(measures), time)
        self._schema: Schema | None = None
        self.default_aggregate = default_aggregate

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def uri(self) -> str:
        return f"npz:{self._path}"

    def _load_header(self) -> dict:
        if self._header is None:
            self._header = _read_header(self._path)
        return self._header

    @property
    def stored_schema(self) -> Schema:
        """The role assignment recorded in the snapshot header."""
        header = self._load_header()
        from repro.relation.schema import Attribute

        return Schema(
            Attribute(name, AttributeKind(kind)) for name, kind in header["columns"]
        )

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            dimensions, measures, time = self._override
            stored = self.stored_schema
            if not dimensions and not measures and time is None:
                self._schema = stored
            else:
                # Merge per role: an unset override keeps the snapshot's
                # recorded binding, so e.g. dimensions=["region"] alone
                # still knows the measure and time columns.
                self._schema = Schema.build(
                    dimensions=dimensions or stored.dimension_names(),
                    measures=measures or stored.measure_names(),
                    time=time or stored.time_name(),
                )
                self._check_columns(self.column_names())
        return self._schema

    def column_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._load_header()["columns"])

    def count_rows(self) -> int | None:
        return int(self._load_header()["n_rows"])

    @property
    def chunk_safe(self) -> bool:
        """Whether the stored row order satisfies the append contract."""
        return bool(self._load_header().get("chunk_safe", False))

    def fingerprint(self) -> str:
        """Header-only: the content digest was computed at convert time."""
        return compose_fingerprint(
            (self.scheme, repr(self.schema), self._load_header()["content_digest"])
        )

    # ------------------------------------------------------------------
    def _stored_arrays(self) -> dict[str, np.ndarray]:
        """The raw stored column arrays, memory-mapped when possible."""
        if self._arrays is not None:
            return self._arrays
        header = self._load_header()
        names = [name for name, _ in header["columns"]]
        arrays: dict[str, np.ndarray] = {}
        fallback: "np.lib.npyio.NpzFile | None" = None
        try:
            for position, name in enumerate(names):
                member = f"c{position}"
                if self._mmap:
                    try:
                        arrays[name] = mmap_member(self._path, member)
                        continue
                    except (ValueError, KeyError, OSError):
                        pass
                if fallback is None:
                    fallback = np.load(self._path, allow_pickle=False)
                arrays[name] = np.asarray(fallback[member])
        finally:
            if fallback is not None:
                fallback.close()
        self._arrays = arrays
        return arrays

    def _columns_for(
        self, arrays: dict[str, np.ndarray], window: slice
    ) -> dict[str, np.ndarray]:
        """Bound-schema columns for a row window, CSV dtype policy applied."""
        columns: dict[str, np.ndarray] = {}
        for name in self.schema.names:
            stored = arrays[name][window]
            if self.schema.attribute(name).is_measure:
                try:
                    columns[name] = np.asarray(stored, dtype=np.float64)
                except (TypeError, ValueError):
                    raise SchemaError(
                        f"snapshot column {name!r} is not numeric but is bound "
                        "as a measure"
                    ) from None
            elif stored.dtype.kind == "U":
                # Text cells become Python str objects (the CSV policy),
                # so fingerprints match a CSV load of the same table.
                # astype boxes each U cell as str in one C pass — no
                # per-cell Python loop in the per-chunk ingest path.
                columns[name] = stored.astype(object)
            else:
                # Non-text storage bound as a dimension (rare re-bind of
                # a numeric column): canonicalize cells to str.
                columns[name] = np.asarray(
                    [str(v) for v in stored.tolist()], dtype=object
                )
        return columns

    def read(self) -> Relation:
        arrays = self._stored_arrays()
        self._check_columns(tuple(arrays))
        return Relation(self._columns_for(arrays, slice(None)), self.schema)

    def iter_chunks(self, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        if chunk_rows < 1:
            raise SchemaError(f"chunk_rows must be >= 1, got {chunk_rows}")
        arrays = self._stored_arrays()
        self._check_columns(tuple(arrays))
        n_rows = int(self._load_header()["n_rows"])
        for start in range(0, n_rows, chunk_rows):
            window = slice(start, min(start + chunk_rows, n_rows))
            yield Relation(self._columns_for(arrays, window), self.schema)
        if n_rows == 0:
            yield Relation(self._columns_for(arrays, slice(None)), self.schema)
