"""Source URI grammar and resolution.

Every entry point that used to take a CSV path now takes a *source URI*::

    csv:sales.csv?time=day&dimensions=region,channel&measure=revenue
    npz:sales.npz
    sqlite:sales.db?table=sales&time=day&dimensions=region&measure=revenue
    sqlite:sales.db?table=sales&...&where=region='EU'&preaggregate=1&order=time

Grammar
-------
``scheme ':' path [ '?' key '=' value ('&' key '=' value)* ]`` with

* ``scheme`` one of ``csv`` / ``npz`` / ``sqlite``; a bare path without a
  known scheme resolves by file extension (``.csv``, ``.npz``,
  ``.db``/``.sqlite``/``.sqlite3``);
* shared parameters ``time``, ``dimensions`` (comma-separated, alias
  ``dims``), ``measure`` (comma-separated, alias ``measures``) and
  ``aggregate`` binding the relation roles — npz snapshots carry their
  roles in the file, so all are optional there;
* sqlite-only parameters ``table`` (required), ``where`` (verbatim
  predicate pushdown), ``order=time`` (engine-side time sort, making any
  table chunk-safe) and ``preaggregate=0|1`` (GROUP-BY pushdown).

Keys and values are percent-decoded, so values may contain ``&``/``=``/
spaces when escaped (``%26``/``%3D``/``%20``).  Unlike HTML form parsing,
``+`` is **literal** — a ``where=cat='a+b'`` pushdown must reach SQLite
verbatim.  Explicit keyword arguments to :func:`resolve_source` override
URI parameters — the CLI's ``--time``/``--dimensions``/``--measure``
flags ride through them.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence
from urllib.parse import unquote

from repro.exceptions import QueryError
from repro.relation.table import Relation
from repro.store.base import DataSource, RelationSource
from repro.store.csv_source import CsvSource
from repro.store.npz_source import NpzSource
from repro.store.sqlite_source import SqliteSource

#: Recognized URI schemes.
SOURCE_SCHEMES = ("csv", "npz", "sqlite")

#: File extensions resolved to a scheme when the URI names none.
EXTENSION_SCHEMES = {
    ".csv": "csv",
    ".npz": "npz",
    ".db": "sqlite",
    ".sqlite": "sqlite",
    ".sqlite3": "sqlite",
}

_SCHEME_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*):")

_SHARED_PARAMS = {"time", "dimensions", "dims", "measure", "measures", "aggregate"}
_SQLITE_PARAMS = {"table", "where", "order", "preaggregate"}


def is_source_uri(text: str) -> bool:
    """Whether ``text`` names a data source rather than a bundled dataset.

    True for an explicit ``csv:``/``npz:``/``sqlite:`` scheme and for
    bare paths with a recognized extension; bundled dataset names
    (``covid-total`` …) contain neither.
    """
    match = _SCHEME_RE.match(text)
    if match:
        return match.group(1).lower() in SOURCE_SCHEMES
    return Path(text.partition("?")[0]).suffix.lower() in EXTENSION_SCHEMES


def parse_source_uri(uri: str) -> tuple[str, str, dict[str, str]]:
    """Split a source URI into ``(scheme, path, params)``."""
    match = _SCHEME_RE.match(uri)
    rest = uri
    scheme = None
    if match and match.group(1).lower() in SOURCE_SCHEMES:
        scheme = match.group(1).lower()
        rest = uri[match.end() :]
    path, _, query = rest.partition("?")
    if scheme is None:
        scheme = EXTENSION_SCHEMES.get(Path(path).suffix.lower())
        if scheme is None:
            raise QueryError(
                f"cannot resolve source {uri!r}: no {'/'.join(SOURCE_SCHEMES)} "
                "scheme and no recognized file extension"
            )
    if not path:
        raise QueryError(f"source URI {uri!r} names no path")
    # Hand-rolled instead of parse_qsl: form decoding turns '+' into a
    # space, which would silently rewrite a verbatim where= pushdown.
    params: dict[str, str] = {}
    if query:
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[unquote(key)] = unquote(value)
    return scheme, path, params


def split_list(value: str | None) -> tuple[str, ...]:
    """Split a comma-separated list, stripping blanks (shared CLI/URI helper)."""
    if not value:
        return ()
    return tuple(part.strip() for part in value.split(",") if part.strip())


def resolve_source(
    uri: str | DataSource | Relation,
    dimensions: Sequence[str] = (),
    measures: Sequence[str] = (),
    time: str | None = None,
    require_binding: bool = True,
) -> DataSource:
    """Resolve a source URI, or bind an in-memory relation as a source.

    A ready source object passes through, and a relation becomes a
    :class:`~repro.store.base.RelationSource`: every entry point that takes
    data accepts all three forms through this one function.

    Explicit ``dimensions``/``measures``/``time`` arguments take
    precedence over the URI's own parameters.  Unknown parameters raise
    :class:`~repro.exceptions.QueryError` — a typo'd pushdown must not
    silently read the whole table.  ``require_binding=False`` allows a
    csv/sqlite source with no time/measure binding — discovery-only
    consumers (``repro store inspect``) use it to look at a file whose
    schema the user does not know yet; such a source can list columns,
    count rows and fingerprint, but reading it yields no columns.
    """
    if isinstance(uri, DataSource):
        return uri
    if isinstance(uri, Relation):
        return RelationSource(uri)
    scheme, path, params = parse_source_uri(uri)
    allowed = _SHARED_PARAMS | (_SQLITE_PARAMS if scheme == "sqlite" else set())
    unknown = set(params) - allowed
    if unknown:
        raise QueryError(
            f"source URI {uri!r} has unsupported parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    dimensions = tuple(dimensions) or split_list(
        params.get("dimensions") or params.get("dims")
    )
    measures = tuple(measures) or split_list(
        params.get("measure") or params.get("measures")
    )
    time = time or params.get("time")
    aggregate = params.get("aggregate", "sum")

    if scheme == "npz":
        return NpzSource(
            path,
            dimensions=dimensions,
            measures=measures,
            time=time,
            default_aggregate=aggregate,
        )

    if require_binding and (time is None or not measures):
        raise QueryError(
            f"{scheme} source {uri!r} needs a time column and at least one "
            "measure (URI parameters time=/measure=/dimensions=, or the "
            "--time/--measure/--dimensions flags)"
        )
    if scheme == "csv":
        return CsvSource(
            path,
            dimensions=dimensions,
            measures=measures,
            time=time,
            default_aggregate=aggregate,
        )
    table = params.get("table")
    if not table:
        raise QueryError(f"sqlite source {uri!r} needs a table= parameter")
    order = params.get("order", "")
    if order not in ("", "time"):
        raise QueryError(
            f"sqlite source {uri!r}: order= supports only 'time', got {order!r}"
        )
    preaggregate = params.get("preaggregate", "0").lower() in ("1", "true", "yes", "on")
    return SqliteSource(
        path,
        table,
        dimensions=dimensions,
        measures=measures,
        time=time,
        where=params.get("where"),
        order_by_time=order == "time",
        preaggregate=preaggregate,
        default_aggregate=aggregate,
    )
