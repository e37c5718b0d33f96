"""Persistent rollup cache for built explanation cubes.

Building the explanation cube is the *prepare* phase of TSExplain's
two-tier design: expensive once, then every difference score is an O(1)
lookup.  This module makes that prepare phase a reusable on-disk artifact,
in the spirit of two-tier OLAP rollup stores (prepare once, query in
milliseconds): a built :class:`~repro.cube.datacube.ExplanationCube` is
serialized under a key derived from the relation fingerprint and the query
parameters, and any later explain over the same data and parameters loads
the rollup instead of rescanning the relation.

Cache invalidation contract
---------------------------
A cached cube is served only when **all** components of its
:class:`CubeKey` match:

* ``fingerprint`` — SHA-256 of the relation's schema and cell contents
  (:meth:`repro.relation.table.Relation.fingerprint`), or for a data
  source its cheap source fingerprint under ``src-``
  (:meth:`repro.store.DataSource.cache_fingerprint`), so any data change
  invalidates the entry;
* ``measure``, ``explain_by`` (order-insensitive), ``aggregate``,
  ``time_attr``, ``max_order`` and ``deduplicate`` — the parameters that
  shape the cube itself.

Everything applied *after* the raw cube — smoothing, the support filter,
the difference metric, ``k``/``m`` — is deliberately **not** part of the
key: the cache stores the raw rollup and the pipeline re-applies those
cheap per-query transforms on load, so one cached build serves many
configurations.  A corrupted, truncated or otherwise unreadable entry is
treated as a miss and the cube is rebuilt (and re-stored) from the
data; stores are atomic (write to a temp file, then rename), so a
crashed writer can never leave a half-written entry that poisons later
runs.

On-disk format
--------------
Each entry is one **uncompressed** ``.npz`` archive (``np.savez``): the
four series arrays plus a JSON header (key, labels, explanation items,
counts) encoded as a ``uint8`` member.  Deliberately **no pickle** —
entries are loaded with ``allow_pickle=False``, so a crafted file in a
shared cache directory can corrupt at most itself, never execute code in
the reader.  JSON confines labels and explanation values to
str/int/float/bool/None; that is what relations produce
(``.item()``-converted scalars), and anything else fails the store
loudly rather than silently widening the format.

An *appendable* cube also persists its delta-maintenance ledger
(:mod:`repro.cube.delta`): the per-subset aggregate states, group
counts/values and parent maps, plus the overall state.  Such an entry
revives as an appendable cube — a restarted stream can load a snapshot
and keep appending to it.

Because no member is compressed, every member is a contiguous byte
range of the file.  :meth:`RollupCache.load` with ``mmap=True`` opens
the series matrices with the zip-offset ``np.memmap`` technique of
:mod:`repro.store.npz_source`: the returned cube is a *fixed* snapshot
whose arrays live once in the page cache, shared read-only by every
process that opens the same entry — how N serve workers share one
resident copy per dataset.  Format 3 is this layout; entries of older
formats (format 2 was the same payload ``np.savez_compressed``-ed) read
as misses and are rebuilt.

Streams
-------
A stream (:class:`~repro.core.streaming.StreamingExplainer`) reaches the
cache only through its session's prepare, which loads or stores the base
cube under the key above; its updates append in memory and store nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cube.datacube import ExplanationCube
from repro.cube.delta import CubeAppendState, SubsetLedger
from repro.exceptions import QueryError
from repro.obs.metrics import get_registry as _get_metrics
from repro.relation.aggregates import AggregateFunction, get_aggregate
from repro.relation.predicates import Conjunction
from repro.relation.schema import Attribute, AttributeKind, Schema

if TYPE_CHECKING:  # pragma: no cover
    from repro.relation.table import Relation
    from repro.store.base import DataSource


def _requests_counter(name: str, help: str):
    """A labeled ``{outcome}`` counter on the *current* default metrics
    registry (resolved per call so tests that swap the registry with
    ``set_registry`` observe cache traffic in their own instance)."""
    return _get_metrics().counter(name, help, labels=("outcome",))


#: Bump when the on-disk payload layout changes; older entries then read
#: as misses and are rebuilt.
CACHE_FORMAT = 3

#: Filename suffix of cache entries.
CACHE_SUFFIX = ".cube.npz"

#: Filename suffix of lattice manifests (one per data fingerprint).
MANIFEST_SUFFIX = ".lattice.json"


@dataclass(frozen=True)
class CubeKey:
    """Everything that determines the bytes of a raw explanation cube."""

    fingerprint: str
    measure: str
    explain_by: tuple[str, ...]
    aggregate: str
    time_attr: str
    max_order: int
    deduplicate: bool

    def digest(self) -> str:
        """Filename-safe hex digest of the full key."""
        return hashlib.sha256(repr(asdict(self)).encode("utf-8")).hexdigest()


def cube_key_for_fingerprint(
    fingerprint: str,
    measure: str,
    explain_by: Sequence[str],
    aggregate: str | AggregateFunction = "sum",
    time_attr: str = "",
    max_order: int = 3,
    deduplicate: bool = True,
) -> CubeKey:
    """A :class:`CubeKey` with the data component supplied directly.

    Normalizes the query parameters exactly like :func:`cube_key` (the
    aggregate resolves to its registry name, ``explain_by`` is sorted)
    but takes the fingerprint as a string: the lattice keys its rollups
    this way.
    """
    if isinstance(aggregate, str):
        aggregate = get_aggregate(aggregate)
    return CubeKey(
        fingerprint=fingerprint,
        measure=measure,
        explain_by=tuple(sorted(explain_by)),
        aggregate=aggregate.name,
        time_attr=time_attr,
        max_order=max_order,
        deduplicate=deduplicate,
    )


def cube_key(
    data: Relation | DataSource | str,
    measure: str,
    explain_by: Sequence[str],
    aggregate: str | AggregateFunction = "sum",
    time_attr: str | None = None,
    max_order: int = 3,
    deduplicate: bool = True,
) -> CubeKey:
    """The cache key a cube built from ``data`` resolves to.

    ``data`` is a relation, a :class:`~repro.store.DataSource` or a source
    URI.  The data component is its
    :meth:`~repro.store.DataSource.cache_fingerprint`: a relation's content
    fingerprint, or a source's cheap fingerprint under ``src-``, so a
    source's key is derived without materializing it.  Mirrors
    :class:`~repro.cube.datacube.ExplanationCube`'s parameter
    normalization: the aggregate is resolved to its registry name, the
    time attribute to the schema's time attribute, and ``explain_by`` is
    sorted (the cube sorts it too, so attribute order never splits the
    cache).
    """
    # Imported here: repro.store's package init imports this module.
    from repro.store.uri import resolve_source

    source = resolve_source(data)
    return cube_key_for_fingerprint(
        source.cache_fingerprint(),
        measure,
        explain_by,
        aggregate=aggregate,
        time_attr=time_attr or source.schema.require_time(),
        max_order=max_order,
        deduplicate=deduplicate,
    )


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one on-disk cache entry (``repro cache inspect``)."""

    path: Path
    size_bytes: int
    valid: bool
    key: CubeKey | None = None
    n_explanations: int = 0
    n_times: int = 0

    def row(self) -> str:
        """One human-readable line for CLI listings."""
        name = self.path.name
        if not self.valid or self.key is None:
            return f"{name}  CORRUPT ({self.size_bytes} bytes)"
        return (
            f"{name[:16]}…  measure={self.key.measure} "
            f"explain_by={list(self.key.explain_by)} agg={self.key.aggregate} "
            f"max_order={self.key.max_order} epsilon={self.n_explanations} "
            f"n={self.n_times} ({self.size_bytes} bytes)"
        )


class RollupCache:
    """A directory of serialized explanation cubes keyed by :class:`CubeKey`.

    Parameters
    ----------
    directory:
        Cache root; ``~`` is expanded.  The directory is created (with
        parents) lazily by the first :meth:`store`, so read-only
        operations (``load``/``entries``/``clear``) never leave stray
        directories behind a mistyped path.  Safe to share between
        queries and datasets — entries are content-addressed by the key
        digest.
    max_entries:
        When set, :meth:`store` evicts the least-recently-used entries
        (by file access/modification time) once the directory holds more
        than this many — the bound that keeps e.g. a long-running
        streaming workload, whose every snapshot has a fresh fingerprint,
        from growing the cache without limit.  ``None`` (default) means
        unbounded.
    """

    def __init__(self, directory: str | Path, max_entries: int | None = None):
        self._directory = Path(directory).expanduser()
        self._max_entries = max_entries

    @property
    def directory(self) -> Path:
        return self._directory

    def path_for(self, key: CubeKey) -> Path:
        """The file path the given key is stored under."""
        return self._directory / f"{key.digest()}{CACHE_SUFFIX}"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: CubeKey, mmap: bool = False) -> ExplanationCube | None:
        """The cached cube for ``key``, or ``None`` on miss/corruption.

        Entries stored with their delta ledger (appendable cubes) revive
        as appendable cubes; ledger-less entries load as fixed cubes.
        ``mmap=True`` is the serving path: the cube comes back *fixed*,
        its series arrays memory-mapped read-only from the entry, so
        every process opening it shares one page-cache copy; a member
        that cannot be mapped falls back to a private copy.
        """
        cube = self._load(key, mmap)
        _requests_counter("repro_rollup_cache_requests_total", "Rollup cache operations by outcome (hit / miss / store)").inc(
            outcome="hit" if cube is not None else "miss"
        )
        return cube

    def _load(self, key: CubeKey, mmap: bool) -> ExplanationCube | None:
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                header = _read_header(data)
                if header["format"] != CACHE_FORMAT or header["key"] != _key_dict(key):
                    return None
                if header.get("appendable") and not mmap:
                    cube = ExplanationCube.from_append_state(
                        _load_append_state(header, data)
                    )
                else:
                    explanations = tuple(
                        Conjunction.from_items(
                            (name, value) for name, value in items
                        )
                        for items in header["explanations"]
                    )
                    series = {
                        name: _series_member(path, data, name, mmap)
                        for name in ("overall", "supports", "included", "excluded")
                    }
                    cube = ExplanationCube.from_arrays(
                        aggregate=get_aggregate(header["aggregate"]),
                        measure=header["measure"],
                        explain_by=tuple(header["explain_by"]),
                        labels=tuple(header["labels"]),
                        overall=series["overall"],
                        explanations=explanations,
                        supports=series["supports"],
                        included=series["included"],
                        excluded=series["excluded"],
                    )
            # Mark the entry as recently used so LRU eviction keeps hot
            # entries alive.
            try:
                os.utime(path)
            except OSError:
                pass
            return cube
        except FileNotFoundError:
            return None
        except Exception:
            # Unreadable entries (truncated writes, foreign files, format
            # drift) are misses, not errors: the caller rebuilds from the
            # relation and overwrites the entry.
            return None

    def store(self, key: CubeKey, cube: ExplanationCube) -> Path:
        """Atomically persist a built cube under ``key``; returns the path.

        An appendable cube's delta ledger (aggregate states, group
        values, counts, parent maps) is stored alongside the series
        arrays, so the entry revives as an appendable cube.  Raises
        ``TypeError`` if the cube's labels, explanation values or group
        values are not JSON scalars (str/int/float/bool/None) — relations
        only produce such scalars, so this fires for hand-built cubes
        only.
        """
        header = {
            "format": CACHE_FORMAT,
            "key": _key_dict(key),
            "aggregate": cube.aggregate.name,
            "measure": cube.measure,
            "explain_by": list(cube.explain_by),
            "labels": list(cube.labels),
            "explanations": [
                [[name, value] for name, value in conj.items]
                for conj in cube.explanations
            ],
            "n_explanations": cube.n_explanations,
            "n_times": cube.n_times,
        }
        # C-contiguous series members are what load(mmap=True) can map.
        arrays: dict[str, np.ndarray] = {
            "overall": np.ascontiguousarray(cube.overall_values, dtype=np.float64),
            "supports": np.ascontiguousarray(cube.supports, dtype=np.int64),
            "included": np.ascontiguousarray(cube.included_values, dtype=np.float64),
            "excluded": np.ascontiguousarray(cube.excluded_values, dtype=np.float64),
        }
        state = cube.append_state
        if state is not None:
            n = state.n_times
            header["appendable"] = True
            header["state"] = {
                "time_attr": state.time_attr,
                "max_order": state.max_order,
                "deduplicate": state.deduplicate,
                "schema": [
                    [attribute.name, attribute.kind.value]
                    for attribute in state.schema
                ],
                "subsets": [list(ledger.attrs) for ledger in state.ledgers],
                "values": [
                    [[_python_value(value) for value in column] for column in ledger.values]
                    for ledger in state.ledgers
                ],
            }
            arrays["overall_state"] = state.overall[:, :n]
            for i, ledger in enumerate(state.ledgers):
                arrays[f"state{i}"] = ledger.state[:, :, :n]
                arrays[f"counts{i}"] = ledger.counts
                arrays[f"parents{i}"] = (
                    np.stack(ledger.parents)
                    if ledger.parents
                    else np.empty((0, ledger.n_slots), dtype=np.intp)
                )
        header_bytes = json.dumps(header, allow_nan=True).encode("utf-8")
        path = self.path_for(key)
        # Writes are crash- and racer-safe: the payload lands in a unique
        # temp file first and is published with an atomic rename, so a
        # concurrent reader only ever sees a complete entry (or none).  A
        # concurrent ``clear()``/external cleanup can still remove the
        # directory (or the temp file) between our mkdir and the rename —
        # that surfaces as FileNotFoundError, so re-create the directory
        # and retry the whole write once before giving up.
        last_error: FileNotFoundError | None = None
        for _ in range(2):
            self._directory.mkdir(parents=True, exist_ok=True)
            try:
                handle, tmp_name = tempfile.mkstemp(
                    dir=self._directory, suffix=f"{CACHE_SUFFIX}.tmp"
                )
            except FileNotFoundError as error:
                last_error = error
                continue
            try:
                with os.fdopen(handle, "wb") as tmp:
                    np.savez(
                        tmp,
                        header=np.frombuffer(header_bytes, dtype=np.uint8),
                        **arrays,
                    )
                os.replace(tmp_name, path)
            except FileNotFoundError as error:
                last_error = error
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                continue
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self._evict()
            _requests_counter(
                "repro_rollup_cache_requests_total", "Rollup cache operations by outcome (hit / miss / store)"
            ).inc(outcome="store")
            return path
        assert last_error is not None
        raise last_error

    def _glob(self, pattern: str) -> list[Path]:
        """Directory listing that tolerates the directory vanishing.

        ``Path.glob`` checks ``is_dir`` and then scans; a concurrent
        ``clear()``/``rmtree`` in another process can remove the
        directory between the two, surfacing ``FileNotFoundError`` from
        the scan.  A vanished directory simply has no entries.
        """
        try:
            return list(self._directory.glob(pattern))
        except OSError:
            return []

    def _evict(self) -> None:
        """Drop the oldest entries beyond ``max_entries`` (newest survive)."""
        if self._max_entries is None:
            return
        paths = self._glob(f"*{CACHE_SUFFIX}")
        if len(paths) <= self._max_entries:
            return
        def age(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0
        paths.sort(key=age)
        for path in paths[: len(paths) - self._max_entries]:
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Lattice manifests (repro.lattice)
    # ------------------------------------------------------------------
    def manifest_path_for(self, fingerprint: str) -> Path:
        """Where the lattice manifest of one data fingerprint lives."""
        digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
        return self._directory / f"{digest}{MANIFEST_SUFFIX}"

    def load_manifest_payload(self, fingerprint: str) -> dict | None:
        """The raw manifest JSON for a fingerprint, or ``None`` if absent.

        Unlike cube entries, a *present but unreadable* manifest raises
        :class:`~repro.exceptions.QueryError` instead of reading as a
        miss: the manifest tells the lattice router which rollups are
        answerable, and silently forgetting them would quietly rebuild
        what the operator believes is prepared.  Semantic validation
        (format version, fingerprint match) is the caller's job
        (:meth:`repro.lattice.manifest.LatticeManifest.from_payload`).
        """
        path = self.manifest_path_for(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as error:
            raise QueryError(
                f"lattice manifest {path} is unreadable: {error}"
            ) from error
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise QueryError(
                f"lattice manifest {path} is corrupt: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise QueryError(f"lattice manifest {path} is corrupt: not an object")
        return payload

    def store_manifest_payload(self, fingerprint: str, payload: dict) -> bool:
        """Atomically persist a manifest document; ``False`` if unwritable.

        The same temp-file + rename discipline as cube entries and append
        logs: a crashed writer can never leave a torn manifest, and a
        torn manifest would be a loud routing failure (see
        :meth:`load_manifest_payload`) rather than a silent one.
        """
        path = self.manifest_path_for(fingerprint)
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=self._directory, suffix=f"{MANIFEST_SUFFIX}.tmp"
            )
            with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                json.dump(payload, tmp)
            os.replace(tmp_name, path)
            return True
        except OSError:
            # An unwritable cache directory degrades to an in-memory
            # lattice, exactly like an unpersistable cube store.
            return False

    # ------------------------------------------------------------------
    # Maintenance (``repro cache inspect`` / ``repro cache clear``)
    # ------------------------------------------------------------------
    def entries(self) -> list[CacheEntry]:
        """Metadata for every entry in the cache directory (sorted by name).

        Only each entry's JSON header is read — the series arrays stay
        on disk, so inspecting a multi-gigabyte cache is cheap.
        """
        rows: list[CacheEntry] = []
        if not self._directory.is_dir():
            return rows
        for path in sorted(self._glob(f"*{CACHE_SUFFIX}")):
            try:
                size = path.stat().st_size
            except OSError:
                # Deleted by a concurrent clear()/eviction between the
                # glob and the stat — nothing left to report.
                continue
            try:
                with np.load(path, allow_pickle=False) as data:
                    header = _read_header(data)
                if header["format"] != CACHE_FORMAT:
                    raise ValueError("format mismatch")
                key_fields = dict(header["key"])
                key_fields["explain_by"] = tuple(key_fields["explain_by"])
                rows.append(
                    CacheEntry(
                        path=path,
                        size_bytes=size,
                        valid=True,
                        key=CubeKey(**key_fields),
                        n_explanations=int(header["n_explanations"]),
                        n_times=int(header["n_times"]),
                    )
                )
            except FileNotFoundError:
                # Deleted by a concurrent clear()/eviction after the stat;
                # a vanished entry is not a corrupt one.
                continue
            except Exception:
                rows.append(CacheEntry(path=path, size_bytes=size, valid=False))
        return rows

    def clear(self) -> int:
        """Delete every cache entry, lattice manifest, and any orphaned temp
        file left by a crashed writer; returns the number of files
        removed."""
        removed = 0
        if not self._directory.is_dir():
            return removed
        for pattern in (
            f"*{CACHE_SUFFIX}",
            f"*{CACHE_SUFFIX}.tmp",
            f"*{MANIFEST_SUFFIX}",
            f"*{MANIFEST_SUFFIX}.tmp",
        ):
            for path in self._glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def _key_dict(key: CubeKey) -> dict:
    """JSON-shaped rendering of a key (tuples become lists)."""
    rendered = asdict(key)
    rendered["explain_by"] = list(rendered["explain_by"])
    return rendered


def _python_value(value: object) -> object:
    return value.item() if hasattr(value, "item") else value


def _series_member(
    path: Path, data: "np.lib.npyio.NpzFile", name: str, mmap: bool
) -> np.ndarray:
    """One series array of an entry: mapped in place when ``mmap`` is set
    and the member allows it, else a private copy."""
    if mmap:
        # Imported here: repro.store's package init imports this module.
        from repro.store.npz_source import mmap_member

        try:
            return mmap_member(path, name)
        except (ValueError, KeyError, OSError):
            pass
    return np.asarray(data[name])


def _load_append_state(header: dict, data: "np.lib.npyio.NpzFile") -> CubeAppendState:
    """Reconstruct a cube's delta ledger from an appendable entry."""
    meta = header["state"]
    schema = Schema(
        Attribute(name, AttributeKind(kind)) for name, kind in meta["schema"]
    )
    ledgers = []
    for i, (attrs, values) in enumerate(zip(meta["subsets"], meta["values"])):
        parents = np.asarray(data[f"parents{i}"], dtype=np.intp)
        ledgers.append(
            SubsetLedger(
                attrs=tuple(attrs),
                state=np.asarray(data[f"state{i}"], dtype=np.float64),
                counts=np.asarray(data[f"counts{i}"], dtype=np.int64),
                values=values,
                parents=[parents[d] for d in range(parents.shape[0])],
                redundant=np.zeros(len(values[0]) if values else 0, dtype=bool),
            )
        )
    state = CubeAppendState(
        schema=schema,
        measure=header["measure"],
        explain_by=tuple(header["explain_by"]),
        time_attr=meta["time_attr"],
        max_order=int(meta["max_order"]),
        deduplicate=bool(meta["deduplicate"]),
        aggregate=get_aggregate(header["aggregate"]),
        labels=header["labels"],
        overall=np.asarray(data["overall_state"], dtype=np.float64),
        ledgers=ledgers,
    )
    # Redundancy is derived, not stored: replay the dedup rule over the
    # loaded counts/parent maps.
    state._recompute_redundancy()
    return state


def _read_header(data: "np.lib.npyio.NpzFile") -> dict:
    """Decode the JSON header member of an entry archive."""
    return json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
