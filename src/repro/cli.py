"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``explain``
    Run TSExplain on a bundled dataset, a CSV file, or any
    :mod:`repro.store` source URI (``--source csv:…|npz:…|sqlite:…``) and
    print the evolving explanations.  ``--out-of-core`` builds the cube
    chunk-by-chunk from the source, so the full relation is never
    resident.  With ``--follow`` the CSV is tailed like
    ``tail -f``: newly appended rows are parsed incrementally (O(delta)
    per poll, byte-offset tailing — no re-read of the whole file) and fed
    to a :class:`~repro.core.streaming.StreamingExplainer`, which appends
    them into its prepared cube and re-segments incrementally.  Quoted
    fields containing raw newlines are not supported in followed files.
``diff``
    Classic two-relations diff between two timestamps.
``recommend``
    Rank candidate explain-by attributes for a query.
``detect``
    Streaming anomaly detection over the prepared cube
    (:mod:`repro.detect`): tiered day-of-week rolling baselines score
    every ``(candidate, timestamp)`` cell.  ``scan`` reports the
    anomalies, ``plan`` groups them into a reviewable JSON suppression
    plan cross-linked to the top explanations, ``apply`` executes a
    reviewed plan (suppress / correct / ignore) and can re-explain the
    corrected data, and ``follow`` tails a CSV like ``explain --follow``
    but scores each delta incrementally — only the touched baseline
    columns are rescored.
``datasets``
    List the bundled datasets.
``cache``
    Manage the persistent rollup cache: ``build`` the cube for a query
    ahead of time, ``inspect`` the stored entries, ``clear`` them.
    Prewarmed entries are keyed on the *full* relation and serve every
    ``explain`` over it — including windowed ``--start/--stop`` runs,
    which slice the prepared cube instead of rebuilding one.
``store``
    Inspect a data source (schema discovery, row count, chunk safety,
    cheap content fingerprint) or ``convert`` it between backends —
    e.g. CSV to the memory-mapped ``npz`` columnar snapshot, or into a
    SQLite table for pushdown queries.
``lattice``
    Prepare a rollup *lattice* ahead of time: one scan over the data
    ``build``s every root rollup, coarser rollups derive from the roots'
    ledgers without rescanning, and the manifest is persisted in the
    rollup cache.  ``inspect`` lists the lattices a cache directory
    holds.  ``explain --lattice`` and ``serve --lattice`` then route
    each prepare through the lattice instead of building from scratch.
``serve``
    Start the concurrent JSON-over-HTTP serving tier
    (:mod:`repro.serve`): many datasets behind a memory-budget + TTL
    session LRU, single-flight cold builds, and a query thread pool that
    dedupes identical in-flight requests.  ``--profile-hz`` runs a
    continuous sampling profiler feeding per-phase self-time into
    ``/metrics``; ``--profile-slow`` auto-captures a profile for every
    request that crosses ``--slow-query-ms``.
``obs``
    Aggregate the serve tier's exported observability files
    (``<cache-dir>/obs``): ``top`` ranks profile hotspots and per-phase
    self-time, ``flame`` merges captured profiles into one collapsed-
    stack file (flamegraph.pl-compatible), ``traces`` summarizes
    exported span trees per endpoint and lists the slowest requests
    with their phase breakdown.
``bench``
    The perf-regression gate: ``bench check`` compares the newest
    record of every ``benchmarks/BENCH_*.json`` trajectory against the
    rolling median of its prior runs and exits non-zero naming each
    metric outside tolerance (:mod:`repro.obs.bench`).

Examples
--------
::

    python -m repro explain --dataset covid-total
    python -m repro explain --csv sales.csv --time day \\
        --dimensions region,channel --measure revenue --k 4
    python -m repro diff --dataset covid-total \\
        --start 2020-03-01 --stop 2020-06-01
    python -m repro recommend --dataset liquor
    python -m repro cache build --dataset sp500 --cache-dir ./cube-cache
    python -m repro explain --dataset sp500 --cache-dir ./cube-cache
    python -m repro cache inspect --cache-dir ./cube-cache
    python -m repro cache clear --cache-dir ./cube-cache
    python -m repro explain --csv live.csv --time day \\
        --dimensions region --measure revenue --follow --poll-interval 2
    python -m repro store convert \\
        'csv:sales.csv?time=day&dims=region,channel&measure=revenue' \\
        npz:sales.npz
    python -m repro store inspect npz:sales.npz
    python -m repro explain --source npz:sales.npz --out-of-core \\
        --chunk-rows 100000 --cache-dir ./cube-cache
    python -m repro explain \\
        --source "sqlite:sales.db?table=sales&time=day&dims=region&measure=revenue&where=region='EU'"
    python -m repro lattice build --dataset sp500 --cache-dir ./cube-cache
    python -m repro lattice inspect --cache-dir ./cube-cache
    python -m repro explain --dataset sp500 --explain-by category \\
        --cache-dir ./cube-cache --lattice
    python -m repro serve --datasets covid-total,npz:sales.npz --port 8765 \\
        --cache-dir ./cube-cache --lattice
    curl 'http://127.0.0.1:8765/explain?dataset=covid-total'
    python -m repro detect scan --dataset covid-daily --top 10
    python -m repro detect plan --dataset covid-daily --out plan.json
    python -m repro detect apply --dataset covid-daily --plan plan.json \\
        --write-csv corrected.csv --explain
    python -m repro detect follow --csv live.csv --time day \\
        --dimensions region --measure revenue --poll-interval 2
    python -m repro serve --cache-dir ./cube-cache --slow-query-ms 250 \\
        --profile-slow --profile-hz 19
    curl 'http://127.0.0.1:8765/debug/profile?seconds=2' > profile.collapsed
    python -m repro obs top --obs-dir ./cube-cache/obs
    python -m repro obs flame --obs-dir ./cube-cache/obs --out flame.collapsed
    python -m repro obs traces --obs-dir ./cube-cache/obs --n 5
    python -m repro bench check --results-dir benchmarks
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import json as _json
import os
import sys
import tempfile
import time as _time
from typing import Sequence

from repro import __version__
from repro.core.config import ExplainConfig
from repro.core.pipeline import ExplainPipeline
from repro.core.session import ExplainSession
from repro.core.streaming import StreamingExplainer
from repro.cube.cache import RollupCache, cube_key
from repro.datasets.base import Dataset
from repro.datasets.registry import available_datasets, load_dataset
from repro.exceptions import ReproError, SchemaError
from repro.relation.csvio import coerce_csv_columns, read_csv, write_csv
from repro.relation.schema import Schema
from repro.relation.table import Relation
from repro.store import (
    SOURCE_SCHEMES,
    convert,
    dataset_from_source,
    is_source_uri,
    resolve_source,
    split_list,
)
from repro.viz.report import explanation_table, full_report, segment_sparklines


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_argument_group("data source (pick one)")
    source.add_argument("--dataset", help="bundled dataset name")
    source.add_argument("--csv", help="path to a CSV file")
    source.add_argument(
        "--source",
        help="data-source URI: csv:path, npz:path or sqlite:path?table=t "
        "(see docs/ARCHITECTURE.md for the grammar and pushdown params)",
    )
    source.add_argument("--time", help="time column (CSV/URI sources)")
    source.add_argument(
        "--dimensions",
        help="comma-separated dimension columns (CSV/URI sources)",
    )
    source.add_argument("--measure", help="measure column")
    source.add_argument(
        "--explain-by",
        help="comma-separated explain-by attributes (default: all dimensions)",
    )
    source.add_argument("--aggregate", default=None, help="aggregate function (default sum)")


def _split_names(text: str | None) -> list[str]:
    return list(split_list(text))


def _split_dataset_names(entries: "Sequence[str] | None") -> list[str]:
    """Flatten repeated ``serve --datasets`` values into dataset names.

    A flag value that is itself one valid entry — a bundled dataset name
    or a source URI — is taken whole, commas and all; repeating the flag
    once per dataset is therefore always unambiguous.  Any other value
    is treated as a comma-separated list.  Source URIs can contain
    commas inside query parameters (``...&dims=region,channel&...``), so
    within a list a fragment that does not start a new entry is rejoined
    onto the previous one; that heuristic can mis-split when such a
    fragment *looks like* an entry (a dimension value named like a
    bundled dataset, or ending in ``.csv``) — use one flag per dataset,
    or percent-encode the comma as ``%2C``, when it bites.
    """
    known = set(available_datasets())

    def single_entry(value: str) -> bool:
        if value in known:
            return True
        if not is_source_uri(value):
            return False
        # A comma-bearing value only counts as ONE entry when it names an
        # explicit scheme — extension inference would otherwise swallow a
        # whole list ending in e.g. `.db?...`.
        return "," not in value or value.partition(":")[0] in SOURCE_SCHEMES

    names: list[str] = []
    for value in entries or ():
        value = value.strip()
        if not value:
            continue
        if single_entry(value):
            names.append(value)
            continue
        start = len(names)
        for fragment in _split_names(value):
            if (
                len(names) > start
                and fragment not in known
                and not is_source_uri(fragment)
            ):
                names[-1] = f"{names[-1]},{fragment}"
            else:
                names.append(fragment)
    return names


def _resolve_cli_source(args: argparse.Namespace):
    """Resolve ``--source`` with the role flags layered over URI params."""
    return resolve_source(
        args.source,
        dimensions=_split_names(args.dimensions),
        measures=[args.measure] if args.measure else (),
        time=args.time,
    )


def _require_one_source(args: argparse.Namespace) -> None:
    picked = [flag for flag in (args.dataset, args.csv, args.source) if flag]
    if len(picked) != 1:
        raise ReproError("specify exactly one of --dataset, --csv or --source")


def _load_source(args: argparse.Namespace) -> Dataset:
    _require_one_source(args)
    if args.dataset:
        dataset = load_dataset(args.dataset)
        if args.measure:
            dataset = Dataset(
                name=dataset.name,
                relation=dataset.relation,
                measure=args.measure,
                explain_by=dataset.explain_by,
                aggregate=args.aggregate or dataset.aggregate,
                description=dataset.description,
                smoothing_window=dataset.smoothing_window,
                extras=dataset.extras,
            )
        return dataset
    if args.source:
        return dataset_from_source(_resolve_cli_source(args), aggregate=args.aggregate)
    if not (args.time and args.dimensions and args.measure):
        raise ReproError("--csv requires --time, --dimensions and --measure")
    dimensions = _split_names(args.dimensions)
    relation = read_csv(
        args.csv, dimensions=dimensions, measures=[args.measure], time=args.time
    )
    return Dataset(
        name=args.csv,
        relation=relation,
        measure=args.measure,
        explain_by=tuple(dimensions),
        aggregate=args.aggregate or "sum",
    )


def _explain_by(args: argparse.Namespace, dataset: Dataset) -> tuple[str, ...]:
    if args.explain_by:
        return tuple(name.strip() for name in args.explain_by.split(",") if name.strip())
    return dataset.explain_by


def _build_config(args: argparse.Namespace, dataset: Dataset | None = None) -> ExplainConfig:
    if args.vanilla:
        config = ExplainConfig.vanilla()
    else:
        config = ExplainConfig.optimized()
    overrides: dict = {}
    if args.k is not None:
        overrides["k"] = args.k
    if args.m is not None:
        overrides["m"] = args.m
    if args.metric is not None:
        overrides["metric"] = args.metric
    if args.variant is not None:
        overrides["variant"] = args.variant
    smoothing = args.smoothing
    if smoothing is None and dataset is not None:
        smoothing = dataset.smoothing_window
    if smoothing is not None and smoothing > 1:
        overrides["smoothing_window"] = smoothing
    if getattr(args, "cache_dir", None):
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "max_order", None) is not None:
        overrides["max_order"] = args.max_order
    return config.updated(**overrides) if overrides else config


def _session(args: argparse.Namespace, dataset: Dataset, config: ExplainConfig) -> ExplainSession:
    return ExplainSession(
        dataset.relation,
        measure=dataset.measure,
        explain_by=_explain_by(args, dataset),
        aggregate=dataset.aggregate,
        config=config,
    )


def _print_result(args: argparse.Namespace, result) -> None:
    if args.report == "table":
        print(explanation_table(result))
    elif args.report == "sparklines":
        print(segment_sparklines(result))
    else:
        print(full_report(result))
    print(
        f"\nK={result.k}{' (auto)' if result.k_was_auto else ''}  "
        f"epsilon={result.epsilon} (filtered {result.filtered_epsilon})  "
        f"latency={result.timings['total']:.2f}s"
    )


def _command_explain(args: argparse.Namespace) -> int:
    # Validated up front so the --follow/--out-of-core branches cannot
    # silently ignore a conflicting --dataset/--csv flag.
    _require_one_source(args)
    if args.follow:
        if args.lattice:
            raise ReproError("--lattice does not combine with --follow")
        return _follow_explain(args)
    if args.lattice:
        return _lattice_explain(args)
    if args.out_of_core:
        return _out_of_core_explain(args)
    dataset = _load_source(args)
    config = _build_config(args, dataset)
    session = _session(args, dataset, config)
    result = session.query().window(args.start, args.stop).run()
    _print_result(args, result)
    return 0


def _out_of_core_explain(args: argparse.Namespace) -> int:
    """``explain --source URI --out-of-core``: bounded-memory ingestion.

    The cube streams out of the source chunk-by-chunk (or straight out of
    the source-keyed rollup cache when ``--cache-dir`` holds a warm
    entry); the relation is never materialized whole.
    """
    if not args.source:
        raise ReproError("--out-of-core requires --source")
    source = _resolve_cli_source(args)
    session = ExplainSession.from_source(
        source,
        explain_by=_split_names(args.explain_by) or None,
        aggregate=args.aggregate,
        config=_build_config(args),
        chunk_rows=args.chunk_rows,
    )
    result = session.query().window(args.start, args.stop).run()
    _print_result(args, result)
    report = session.ingest_report
    if report is not None:
        if report.cache_hit:
            print("ingest: served from the rollup cache (source untouched)")
        else:
            print(
                f"ingest: {report.rows} rows in {report.chunks} chunk(s), "
                f"peak chunk {report.peak_chunk_rows} rows, "
                f"{'out-of-core' if report.out_of_core else 'one-shot fallback'}"
            )
    return 0


def _lattice_explain(args: argparse.Namespace) -> int:
    """``explain --lattice``: route the prepare through the rollup lattice.

    The requested shape is answered from the finest matching-or-coarser
    prepared rollup (exact cache entry, or a derivation over its ledger);
    only a true lattice miss pays the classic build, and the router
    counts it so repeatedly-missed shapes get promoted.
    """
    # Imported lazily: plain explain runs never pay the lattice import.
    from repro.lattice import LatticeRouter

    if not args.cache_dir:
        raise ReproError(
            "--lattice needs --cache-dir: the lattice lives in the rollup "
            "cache (prepare it with 'repro lattice build')"
        )
    cache = RollupCache(args.cache_dir)
    if args.source:
        source = _resolve_cli_source(args)
        router = LatticeRouter.for_source(source, cache=cache)
        session = ExplainSession.from_lattice(
            router,
            source=source,
            explain_by=_split_names(args.explain_by) or None,
            aggregate=args.aggregate,
            config=_build_config(args),
            chunk_rows=args.chunk_rows,
        )
    else:
        dataset = _load_source(args)
        router = LatticeRouter.for_relation(dataset.relation, cache=cache)
        session = ExplainSession.from_lattice(
            router,
            relation=dataset.relation,
            measure=dataset.measure,
            explain_by=_explain_by(args, dataset),
            aggregate=dataset.aggregate,
            config=_build_config(args, dataset),
        )
    result = session.query().window(args.start, args.stop).run()
    _print_result(args, result)
    info = session.route_info
    if info is not None:
        origin = f" from {info.served_by.describe()}" if info.served_by else ""
        print(f"lattice: {info.decision}{origin}")
    return 0


# ----------------------------------------------------------------------
# explain --follow: tail a growing CSV into a StreamingExplainer
# ----------------------------------------------------------------------
def _complete_lines(path: str, offset: int) -> tuple[bytes, int]:
    """New complete lines appended to ``path`` since byte ``offset``.

    Only whole lines are consumed — a torn trailing line (a writer caught
    mid-append) stays in the file for the next poll.  Returns the chunk
    and the advanced offset.
    """
    try:
        size = os.path.getsize(path)
    except OSError as error:
        raise ReproError(f"cannot stat followed CSV {path}: {error}") from None
    if size < offset:
        raise ReproError(
            f"followed CSV {path} shrank from {offset} to {size} bytes; "
            "--follow only supports append-only files"
        )
    if size == offset:
        return b"", offset
    with open(path, "rb") as handle:
        handle.seek(offset)
        chunk = handle.read()
    complete, newline, _ = chunk.rpartition(b"\n")
    if not newline:
        return b"", offset
    return complete + b"\n", offset + len(complete) + 1


def _rows_to_relation(
    chunk: bytes,
    fieldnames: list[str],
    dimensions: list[str],
    measure: str,
    time_attr: str,
) -> Relation:
    """Parse tailed CSV lines into a relation (read_csv's dtype policy)."""
    schema = Schema.build(dimensions=dimensions, measures=[measure], time=time_attr)
    index = {name: fieldnames.index(name) for name in schema.names}
    raw: dict[str, list[str]] = {name: [] for name in schema.names}
    for row in _csv.reader(io.StringIO(chunk.decode("utf-8"))):
        if not row:
            continue
        if len(row) != len(fieldnames):
            raise ReproError(
                f"malformed CSV line with {len(row)} fields (header has "
                f"{len(fieldnames)})"
            )
        for name in schema.names:
            raw[name].append(row[index[name]])
    return Relation(coerce_csv_columns(raw, schema), schema)


def _tail_bootstrap(
    args: argparse.Namespace, dimensions: list[str]
) -> tuple[list[str], Relation, int]:
    """Wait for a followed CSV's header and first two timestamps.

    tail -f semantics: a just-created file may not have its header (or
    enough rows to segment) yet — wait for the producer, don't error.
    Returns ``(fieldnames, initial_relation, byte_offset)``.
    """
    path = args.csv
    waiting_announced = False
    header_chunk, offset = _complete_lines(path, 0)
    while not header_chunk:
        if not waiting_announced:
            print(f"waiting for {path} to grow a header line...", file=sys.stderr)
            waiting_announced = True
        _time.sleep(args.poll_interval)
        header_chunk, offset = _complete_lines(path, 0)
    lines = header_chunk.split(b"\n", 1)
    fieldnames = next(_csv.reader([lines[0].decode("utf-8")]))
    missing = set(dimensions + [args.measure, args.time]) - set(fieldnames)
    if missing:
        raise SchemaError(f"CSV {path} lacks columns {sorted(missing)}")
    duplicated = [
        name
        for name in dimensions + [args.measure, args.time]
        if fieldnames.count(name) > 1
    ]
    if duplicated:
        raise SchemaError(
            f"CSV {path} header repeats needed column(s) {duplicated}"
        )
    initial = _rows_to_relation(
        lines[1] if len(lines) > 1 else b"",
        fieldnames,
        dimensions,
        args.measure,
        args.time,
    )
    waiting_announced = False
    while len(set(initial.column(args.time))) < 2:
        # A single timestamp has no change to explain yet.
        if not waiting_announced:
            print(
                f"waiting for {path} to span two timestamps...", file=sys.stderr
            )
            waiting_announced = True
        _time.sleep(args.poll_interval)
        chunk, offset = _complete_lines(path, offset)
        if chunk:
            initial = initial.concat(
                _rows_to_relation(chunk, fieldnames, dimensions, args.measure, args.time)
            )
    return fieldnames, initial, offset


def _require_followable(args: argparse.Namespace) -> list[str]:
    if not args.csv:
        raise ReproError("--follow requires --csv (bundled datasets are static)")
    if not (args.time and args.dimensions and args.measure):
        raise ReproError("--csv requires --time, --dimensions and --measure")
    return _split_names(args.dimensions)


def _follow_explain(args: argparse.Namespace) -> int:
    dimensions = _require_followable(args)
    path = args.csv
    fieldnames, initial, offset = _tail_bootstrap(args, dimensions)
    dataset = Dataset(
        name=path,
        relation=initial,
        measure=args.measure,
        explain_by=tuple(dimensions),
        aggregate=args.aggregate or "sum",
    )
    config = _build_config(args, dataset)
    explainer = StreamingExplainer(
        initial,
        measure=dataset.measure,
        explain_by=_explain_by(args, dataset),
        aggregate=dataset.aggregate,
        time_attr=args.time,
        config=config,
    )
    result = explainer.refresh()
    print(f"== {path}: initial explanation ({len(result.series)} points) ==")
    _print_result(args, result)

    updates = 0
    while args.max_updates is None or updates < args.max_updates:
        _time.sleep(args.poll_interval)
        chunk, offset = _complete_lines(path, offset)
        if not chunk:
            continue
        delta = _rows_to_relation(
            chunk, fieldnames, dimensions, args.measure, args.time
        )
        if delta.n_rows == 0:
            continue
        result = explainer.update(delta)
        updates += 1
        print(
            f"\n== update {updates}: +{delta.n_rows} rows, "
            f"{len(result.series)} points =="
        )
        _print_result(args, result)
    return 0


def _command_diff(args: argparse.Namespace) -> int:
    dataset = _load_source(args)
    session = _session(args, dataset, ExplainConfig(m=args.m or 3))
    for scored in session.diff(args.start, args.stop):
        print(f"{scored.explanation!r} ({scored.effect_symbol}) gamma={scored.gamma:g}")
    return 0


def _command_recommend(args: argparse.Namespace) -> int:
    dataset = _load_source(args)
    # explain_by stays at the dataset default: recommendation ranks *all*
    # dimensions, so users learn which explain_by to bind a session to.
    session = ExplainSession(
        dataset.relation,
        measure=dataset.measure,
        explain_by=dataset.explain_by,
        aggregate=dataset.aggregate,
    )
    for score in session.recommend(m=args.m or 3):
        print(score.row())
    return 0


# ----------------------------------------------------------------------
# detect: tiered-baseline anomaly scanning and suppression plans
# ----------------------------------------------------------------------
def _detect_config(args: argparse.Namespace) -> "DetectConfig":
    from repro.detect import DetectConfig

    overrides: dict = {}
    if args.z_warn is not None:
        overrides["z_warn"] = args.z_warn
    if args.z_alert is not None:
        overrides["z_alert"] = args.z_alert
    if args.z_critical is not None:
        overrides["z_critical"] = args.z_critical
    if args.min_volume is not None:
        overrides["min_volume"] = args.min_volume
    if args.min_deviation is not None:
        overrides["min_deviation"] = args.min_deviation
    if args.direction is not None:
        overrides["direction"] = args.direction
    if args.top is not None:
        overrides["max_cells"] = args.top
    return DetectConfig().override(**overrides)


def _detect_explain_config(args: argparse.Namespace) -> ExplainConfig:
    overrides: dict = {}
    if getattr(args, "cache_dir", None):
        overrides["cache_dir"] = args.cache_dir
    if getattr(args, "max_order", None) is not None:
        overrides["max_order"] = args.max_order
    return ExplainConfig.optimized(**overrides)


def _print_detect_report(report) -> None:
    for cell in report.cells:
        print(f"  {cell.describe()}")
    counts = report.counts()
    truncated = f" (+{report.truncated} over the --top cap)" if report.truncated else ""
    print(
        f"{len(report.cells)} anomalous cell(s){truncated}: "
        f"{counts['critical']} critical, {counts['alert']} alert, "
        f"{counts['warn']} warn — {report.cells_scored} cells over "
        f"{report.columns_scored} column(s) scored, "
        f"{report.columns_abstained} column(s) abstained"
    )


def _detect_session(
    args: argparse.Namespace,
    dataset: Dataset,
    time_attr: str | None = None,
) -> "DetectSession":
    from repro.detect import DetectSession

    session = ExplainSession(
        dataset.relation,
        measure=dataset.measure,
        explain_by=_explain_by(args, dataset),
        aggregate=dataset.aggregate,
        time_attr=time_attr,
        config=_detect_explain_config(args),
    )
    return DetectSession(session, config=_detect_config(args))


def _command_detect(args: argparse.Namespace) -> int:
    if args.action == "apply":
        return _detect_apply(args)
    if args.action == "follow":
        return _detect_follow(args)
    # scan / plan share the one-shot path; plan additionally reviews.
    dataset = _load_source(args)
    detect = _detect_session(args, dataset)
    report = detect.scan()
    print(f"== {dataset.name}: baseline scan ==")
    _print_detect_report(report)
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(
            _json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote scan report to {args.json}")
    if args.action == "plan" or args.out:
        plan = detect.plan(report, link=not args.no_link, source=dataset.name)
        if args.out:
            plan.save(args.out)
            print(
                f"wrote suppression plan ({len(plan.entries)} entr"
                f"{'y' if len(plan.entries) == 1 else 'ies'}) to {args.out}"
            )
        else:
            print(plan.describe())
    return 0


def _detect_follow(args: argparse.Namespace) -> int:
    """``detect follow``: tail a CSV and score each delta incrementally."""
    dimensions = _require_followable(args)
    path = args.csv
    fieldnames, initial, offset = _tail_bootstrap(args, dimensions)
    dataset = Dataset(
        name=path,
        relation=initial,
        measure=args.measure,
        explain_by=tuple(dimensions),
        aggregate=args.aggregate or "sum",
    )
    detect = _detect_session(args, dataset, time_attr=args.time)
    report = detect.scan()
    print(
        f"== {path}: initial scan "
        f"({detect.baselines.n_times} points) =="
    )
    _print_detect_report(report)

    updates = 0
    while args.max_updates is None or updates < args.max_updates:
        _time.sleep(args.poll_interval)
        chunk, offset = _complete_lines(path, offset)
        if not chunk:
            continue
        delta = _rows_to_relation(
            chunk, fieldnames, dimensions, args.measure, args.time
        )
        if delta.n_rows == 0:
            continue
        update = detect.append(delta)
        updates += 1
        print(
            f"\n== update {updates}: +{delta.n_rows} rows, "
            f"{update.recomputed_columns} column(s) rescored =="
        )
        _print_detect_report(update.report)
    if args.out:
        # The exit plan reviews the full axis, so anomalies from every
        # update (and the initial scan) land in one reviewable artifact.
        plan = detect.plan(link=not args.no_link, source=path)
        plan.save(args.out)
        print(
            f"wrote suppression plan ({len(plan.entries)} entr"
            f"{'y' if len(plan.entries) == 1 else 'ies'}) to {args.out}"
        )
    return 0


def _detect_apply(args: argparse.Namespace) -> int:
    """``detect apply``: execute a reviewed plan, explain the corrected data."""
    from repro.detect import SuppressionPlan, apply_plan

    if not args.plan:
        raise ReproError("detect apply requires --plan <plan.json>")
    plan = SuppressionPlan.load(args.plan)
    dataset = _load_source(args)
    applied = apply_plan(plan, dataset.relation)
    print(applied.describe())
    for missed in applied.missed_entries:
        print(f"  no rows matched: {missed}", file=sys.stderr)
    if args.write_csv:
        write_csv(applied.corrected, args.write_csv)
        print(
            f"wrote corrected relation ({applied.corrected.n_rows} rows) "
            f"to {args.write_csv}"
        )
    if args.explain:
        session = ExplainSession(
            applied.corrected,
            measure=plan.measure,
            explain_by=plan.explain_by or _explain_by(args, dataset),
            aggregate=plan.aggregate,
            config=_detect_explain_config(args),
        )
        result = session.explain()
        print("\n== corrected relation, explained ==")
        print(explanation_table(result))
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    cache = RollupCache(args.cache_dir)
    if args.action == "inspect":
        entries = cache.entries()
        if not entries:
            print(f"cache at {cache.directory} is empty")
            return 0
        total = 0
        for entry in entries:
            total += entry.size_bytes
            print(entry.row())
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, {total} bytes")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached cube(s) from {cache.directory}")
        return 0
    # action == "build": warm the cache for a query without running the
    # segmentation — exactly the prepare phase the next explain will skip.
    dataset = _load_source(args)
    # Vanilla config: the stored artifact is the *raw* cube, so the
    # reported epsilon matches what later (filtered or not) runs reuse.
    # max_order is only overridden when given, so build and explain share
    # the ExplainConfig default and prewarmed entries keep matching.
    overrides = {"cache_dir": args.cache_dir}
    if args.max_order is not None:
        overrides["max_order"] = args.max_order
    config = ExplainConfig.vanilla(**overrides)
    explain_by = _explain_by(args, dataset)
    pipeline = ExplainPipeline(
        dataset.relation,
        dataset.measure,
        explain_by,
        aggregate=dataset.aggregate,
        config=config,
    )
    scorer = pipeline.prepare()
    stats = f"epsilon={scorer.cube.n_explanations} n={scorer.cube.n_times}"
    if pipeline.cache_hit:
        print(f"reused existing entry: {stats} under {cache.directory}")
        return 0
    # prepare() degrades store failures to an uncached build; a prewarm
    # command must not report success unless the entry really landed.
    # Re-deriving the key here is safe because the CLI only ever passes
    # registry aggregate names (strings), so load_or_build's off-registry
    # bypass can never make this lookup disagree with the pipeline's.
    key = cube_key(
        dataset.relation,
        dataset.measure,
        explain_by,
        aggregate=dataset.aggregate,
        max_order=config.max_order,
        deduplicate=config.deduplicate,
    )
    if cache.load(key) is not None:  # round-trips, not merely exists
        print(f"built and stored: {stats} under {cache.directory}")
        return 0
    print(
        f"built but NOT stored: {stats} — cache directory {cache.directory} "
        "is not writable or the query's labels are not cacheable",
        file=sys.stderr,
    )
    return 1


def _command_lattice(args: argparse.Namespace) -> int:
    from repro.lattice import build_lattice, default_lattice, parse_rollup_spec

    cache = RollupCache(args.cache_dir)
    if args.action == "inspect":
        return _lattice_inspect(cache)
    # action == "build": plan roots, scan once, derive the rest, persist.
    _require_one_source(args)
    if args.source:
        data = _resolve_cli_source(args)
        schema = data.schema
        measures = schema.measure_names()
        if not measures:
            raise ReproError(f"source {data.uri} binds no measure column")
        measure = measures[0]
        aggregate = args.aggregate or data.default_aggregate
        dims = _split_names(args.explain_by) or schema.dimension_names()
    else:
        dataset = _load_source(args)
        data = dataset.relation
        measure = dataset.measure
        aggregate = args.aggregate or dataset.aggregate
        dims = _explain_by(args, dataset)
    max_order = args.max_order if args.max_order is not None else 3
    if args.rollups:
        specs = [
            parse_rollup_spec(entry, measure, aggregate=aggregate, max_order=max_order)
            for entry in args.rollups.split(";")
            if entry.strip()
        ]
        if not specs:
            raise ReproError("--rollups named no rollup shapes")
    else:
        specs = default_lattice(dims, measure, aggregate=aggregate, max_order=max_order)
    kwargs = {}
    if args.chunk_rows is not None:
        kwargs["chunk_rows"] = args.chunk_rows
    cubes, report = build_lattice(data, specs, cache=cache, **kwargs)
    print(
        f"lattice {report.fingerprint}: {len(cubes)} rollup(s) — "
        f"{len(report.built)} built in one scan of {report.rows} rows "
        f"({report.chunks} chunk(s), "
        f"{'out-of-core' if report.out_of_core else 'in-memory'}), "
        f"{len(report.derived)} derived from the roots, "
        f"{report.build_seconds:.2f}s"
    )
    for spec in report.built:
        print(f"  built    {spec.describe()} (max_order={spec.max_order})")
    for spec in report.derived:
        print(f"  derived  {spec.describe()} (max_order={spec.max_order})")
    # stored counts cubes + the manifest; anything short of that means
    # the cache could not persist the full lattice — fail loudly, a
    # prewarm that silently did not land would defeat its purpose.
    if report.stored < len(cubes) + 1:
        print(
            f"stored only {report.stored}/{len(cubes) + 1} artifact(s) under "
            f"{cache.directory} — directory unwritable or labels uncacheable",
            file=sys.stderr,
        )
        return 1
    print(f"stored {len(cubes)} rollup(s) + manifest under {cache.directory}")
    return 0


def _lattice_inspect(cache: RollupCache) -> int:
    """List every lattice manifest a cache directory holds."""
    import json as _json
    from pathlib import Path

    from repro.cube.cache import MANIFEST_SUFFIX
    from repro.lattice import LatticeManifest

    paths = sorted(Path(cache.directory).glob(f"*{MANIFEST_SUFFIX}"))
    if not paths:
        print(f"no lattice manifests under {cache.directory}")
        return 0
    corrupt = 0
    for path in paths:
        try:
            manifest = LatticeManifest.from_payload(
                _json.loads(path.read_text(encoding="utf-8"))
            )
        except (OSError, ValueError, ReproError) as error:
            corrupt += 1
            print(f"{path.name}: unreadable ({error})", file=sys.stderr)
            continue
        print(f"lattice {manifest.fingerprint} (time={manifest.time_attr}):")
        for entry in manifest.entries:
            spec = entry.spec
            print(
                f"  {spec.describe():<40s} max_order={spec.max_order} "
                f"[{entry.origin}]"
            )
    print(
        f"{len(paths) - corrupt} manifest(s)"
        + (f", {corrupt} unreadable" if corrupt else "")
    )
    return 1 if corrupt else 0


def _command_store(args: argparse.Namespace) -> int:
    source = resolve_source(
        args.source_uri,
        dimensions=_split_names(args.dimensions),
        measures=[args.measure] if args.measure else (),
        time=args.time,
        # inspect is schema *discovery*: it must work on a file whose
        # roles the user does not know yet.
        require_binding=args.action != "inspect",
    )
    if args.action == "convert":
        if not args.dest:
            raise ReproError("store convert needs a destination URI")
        path, rows = convert(source, args.dest)
        print(f"wrote {rows} rows from {source.uri} to {path}")
        return 0
    # action == "inspect": schema discovery + cheap identity, no
    # materialization beyond what the backend needs for counting.
    print(f"uri:         {source.uri}")
    print(f"scheme:      {source.scheme}")
    available = source.column_names()
    bound = {name: source.schema.attribute(name).kind.value for name in source.schema.names}
    print(
        "columns:     "
        + ", ".join(
            f"{name}:{bound[name]}" if name in bound else f"{name}:(unbound)"
            for name in available
        )
    )
    rows = source.count_rows()
    print(f"rows:        {rows if rows is not None else 'unknown (lazy scan)'}")
    chunk_safe = getattr(source, "chunk_safe", None)
    if chunk_safe is not None:
        print(f"chunk-safe:  {'yes' if chunk_safe else 'no (out-of-core degrades to one-shot)'}")
    print(f"fingerprint: {source.fingerprint()}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so plain explain/diff runs never pay the serving
    # tier's import (thread pools, http.server).
    from repro.serve.http import make_app

    names = None
    if args.datasets:
        names = _split_dataset_names(args.datasets)
        known = set(available_datasets())
        unknown = []
        for name in names:
            if name in known:
                continue
            if is_source_uri(name):
                # Resolve eagerly (cheap, no IO): a malformed URI must
                # fail at startup, not 400 every request after binding.
                resolve_source(name)
                continue
            unknown.append(name)
        if unknown:
            raise ReproError(
                f"unknown dataset(s) {unknown}; available: {sorted(known)} "
                "(or csv:/npz:/sqlite: source URIs)"
            )
    options = dict(
        datasets=names,
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        memory_budget_bytes=(
            int(args.memory_budget_mb * 1024 * 1024)
            if args.memory_budget_mb is not None
            else None
        ),
        ttl_seconds=args.ttl,
        query_workers=args.query_workers,
        max_requests=args.max_requests,
        max_inflight=args.max_inflight,
        lattice=args.lattice,
        verbose=args.verbose,
        access_log=args.access_log,
        slow_query_ms=args.slow_query_ms,
        trace_sample=args.trace_sample,
        profile_hz=args.profile_hz,
        profile_slow=args.profile_slow,
    )
    workers = args.workers
    if workers > 1:
        from repro.serve.http import reuseport_available

        if not reuseport_available():
            print(
                f"SO_REUSEPORT unavailable on this platform; "
                f"ignoring --workers {workers} and serving single-process",
                file=sys.stderr,
                flush=True,
            )
            workers = 1
        elif not options["cache_dir"]:
            # Workers share memory only through the mmap-ed cache entries,
            # and those need a directory to live in.
            options["cache_dir"] = tempfile.mkdtemp(prefix="repro-serve-")
            print(
                f"--workers needs a cache dir for the shared cube files; "
                f"using {options['cache_dir']}",
                file=sys.stderr,
                flush=True,
            )
    if workers > 1:
        from repro.serve.multiproc import WorkerPool

        pool = WorkerPool(options, workers=workers).start()
        # The port line is machine-read by smoke tests (--port 0 binds an
        # ephemeral port), so print and flush it before blocking.
        print(f"repro serve listening on {pool.url}", flush=True)
        print(
            f"endpoints: {pool.url}/explain?dataset=NAME  /diff  /recommend  "
            "/detect  /datasets  /stats  /healthz  /metrics  /debug/profile",
            flush=True,
        )
        print(f"workers: {len(pool.pids)} (pids {', '.join(map(str, pool.pids))})", flush=True)
        try:
            pool.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            pool.shutdown()
        print("serve workers stopped")
        return 0
    app = make_app(**options)
    # The port line is machine-read by smoke tests (--port 0 binds an
    # ephemeral port), so print and flush it before blocking.
    print(f"repro serve listening on {app.url}", flush=True)
    print(
        f"endpoints: {app.url}/explain?dataset=NAME  /diff  /recommend  "
        "/detect  /datasets  /stats  /healthz  /metrics  /debug/profile",
        flush=True,
    )
    try:
        app.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        app.shutdown()
    print(f"served {app.requests_served} request(s)")
    return 0


# ----------------------------------------------------------------------
# obs: aggregate exported profiles and span trees
# ----------------------------------------------------------------------
def _obs_profile_files(args: argparse.Namespace) -> list:
    """Profile inputs: explicit paths plus every capture in --obs-dir.

    Recognizes both storage formats: ``slowprof-*.jsonl`` (and their
    rotated ``.1`` predecessors) written by ``--profile-slow``, and
    collapsed-stack text files saved from ``/debug/profile``.
    """
    from pathlib import Path

    paths = [Path(p) for p in args.paths]
    if args.obs_dir:
        base = Path(args.obs_dir).expanduser()
        paths.extend(sorted(base.glob("slowprof-*.jsonl")))
        paths.extend(sorted(base.glob("slowprof-*.jsonl.1")))
    return paths


def _obs_load_reports(paths) -> list:
    from repro.obs.profile import ProfileReport, SlowProfileWriter, parse_collapsed

    reports = []
    for path in paths:
        if ".jsonl" in path.name:
            for entry in SlowProfileWriter.read(path):
                reports.append(ProfileReport.from_json(entry))
        else:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as error:
                raise ReproError(f"cannot read profile {path}: {error}") from None
            reports.append(parse_collapsed(text))
    return [report for report in reports if report.samples]


def _obs_trace_files(args: argparse.Namespace) -> list:
    from pathlib import Path

    paths = [Path(p) for p in args.paths]
    if args.obs_dir:
        base = Path(args.obs_dir).expanduser()
        paths.extend(sorted(base.glob("traces-*.jsonl")))
        paths.extend(sorted(base.glob("traces-*.jsonl.1")))
    return paths


def _percentile(values: list, fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _obs_traces(args: argparse.Namespace) -> int:
    """``obs traces``: per-endpoint latency summary + slowest span trees."""
    from repro.obs.trace import JsonLinesExporter

    traces: list[dict] = []
    for path in _obs_trace_files(args):
        traces.extend(JsonLinesExporter.read(path))
    if not traces:
        print("no exported traces found (need --obs-dir or trace files)", file=sys.stderr)
        return 1
    by_name: dict[str, list[float]] = {}
    for trace in traces:
        by_name.setdefault(trace.get("name", "?"), []).append(
            float(trace.get("duration_ms") or 0.0)
        )
    print(f"{'endpoint':<20s} {'count':>6s} {'p50_ms':>9s} {'p95_ms':>9s} {'max_ms':>9s}")
    for name, latencies in sorted(by_name.items(), key=lambda kv: -len(kv[1])):
        print(
            f"{name:<20s} {len(latencies):>6d} "
            f"{_percentile(latencies, 0.50):>9.1f} "
            f"{_percentile(latencies, 0.95):>9.1f} "
            f"{max(latencies):>9.1f}"
        )
    slowest = sorted(
        traces, key=lambda t: -(float(t.get("duration_ms") or 0.0))
    )[: args.n]
    print(f"\nslowest {len(slowest)} request(s):")
    for trace in slowest:
        phases: dict[str, float] = {}
        for span_row in trace.get("spans", ()):
            if span_row.get("parent") is None:  # the root is the request
                continue
            duration = span_row.get("duration_ms")
            if duration is not None:
                name = span_row.get("name", "?")
                phases[name] = phases.get(name, 0.0) + float(duration)
        breakdown = ", ".join(
            f"{name} {duration:.1f}ms"
            for name, duration in sorted(phases.items(), key=lambda kv: -kv[1])[:4]
        )
        print(
            f"  {trace.get('trace_id', '?'):<18s} {trace.get('name', '?'):<14s} "
            f"{float(trace.get('duration_ms') or 0.0):>8.1f}ms  {breakdown}"
        )
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    # Imported lazily like the serve tier: plain explain runs never pay it.
    if args.action == "traces":
        return _obs_traces(args)
    from pathlib import Path

    from repro.obs.profile import ProfileReport

    reports = _obs_load_reports(_obs_profile_files(args))
    if not reports:
        print(
            "no profile samples found (need --obs-dir with slowprof files, "
            "or saved /debug/profile captures)",
            file=sys.stderr,
        )
        return 1
    merged = ProfileReport.merge(reports)
    if args.action == "flame":
        text = merged.collapsed()
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(
                f"wrote {len(merged.stacks)} collapsed stack(s) "
                f"({merged.samples} samples from {len(reports)} capture(s)) "
                f"to {args.out}"
            )
        else:
            print(text, end="")
        return 0
    # action == "top": phase self-time, then leaf-frame hotspots.
    print(
        f"{merged.samples} samples over {merged.duration_seconds:.1f}s "
        f"({len(reports)} capture(s))"
    )
    print(f"\n{'phase':<24s} {'samples':>8s} {'self_s':>8s}")
    for phase, seconds in merged.phase_self_seconds().items():
        print(f"{phase:<24s} {merged.phase_samples[phase]:>8d} {seconds:>8.2f}")
    print(f"\n{'hotspot (leaf frame)':<56s} {'samples':>8s} {'self_s':>8s}")
    for frame, samples, seconds in merged.top(args.n):
        print(f"{frame:<56s} {samples:>8d} {seconds:>8.2f}")
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    """``bench check``: gate the newest bench records against history."""
    from pathlib import Path

    from repro.obs import bench as bench_gate

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        results_dir = args.results_dir or "benchmarks"
        paths = bench_gate.discover_bench_files(results_dir)
        if not paths:
            print(f"no BENCH_*.json files under {results_dir}", file=sys.stderr)
            return 2
    checks = bench_gate.check_files(
        paths,
        tolerance=args.tolerance,
        window=args.window,
        min_history=args.min_history,
        min_latency_ms=args.min_latency_ms,
    )
    failed = False
    for check in checks:
        print(check.summary())
        for regression in check.regressions:
            failed = True
            print(f"  REGRESSION {regression.message()}")
    if failed:
        print("bench check FAILED: newest record regressed vs its trajectory",
              file=sys.stderr)
        return 1
    print(f"bench check OK ({len(checks)} trajectory file(s))")
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    for name in available_datasets():
        dataset = load_dataset(name) if name != "liquor" else load_dataset(name, n_products=50)
        print(f"{name:<14s} {dataset.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TSExplain: explain aggregated time series by their evolving contributors",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    explain = commands.add_parser("explain", help="segment and explain a KPI")
    _add_source_arguments(explain)
    explain.add_argument("--k", type=int, help="fixed segment count (default: elbow)")
    explain.add_argument("--m", type=int, help="explanations per segment (default 3)")
    explain.add_argument("--metric", help="difference metric (default absolute-change)")
    explain.add_argument("--variant", help="variance design (default tse)")
    explain.add_argument("--smoothing", type=int, help="moving-average window")
    explain.add_argument("--vanilla", action="store_true", help="disable all optimizations")
    explain.add_argument("--start", help="first timestamp label of the window")
    explain.add_argument("--stop", help="last timestamp label of the window")
    explain.add_argument(
        "--report",
        choices=("full", "table", "sparklines"),
        default="table",
        help="output style",
    )
    explain.add_argument(
        "--cache-dir",
        help="rollup-cache directory; reuses a previously built cube when possible",
    )
    explain.add_argument(
        "--max-order",
        type=int,
        help="candidate order threshold beta_max (default 3); must match any "
        "`cache build --max-order` prewarm for the cache to hit",
    )
    explain.add_argument(
        "--lattice",
        action="store_true",
        help="answer the prepare from the rollup lattice in --cache-dir "
        "(exact or derived rollup; see 'repro lattice build')",
    )
    storage = explain.add_argument_group("out-of-core ingestion (--source only)")
    storage.add_argument(
        "--out-of-core",
        action="store_true",
        help="build the cube chunk-by-chunk from the source (peak relation "
        "residency bounded by --chunk-rows; byte-identical to in-memory)",
    )
    storage.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="rows per ingestion chunk (default 100000)",
    )
    follow = explain.add_argument_group("streaming (--csv sources only)")
    follow.add_argument(
        "--follow",
        action="store_true",
        help="tail the CSV for appended rows and update the explanation "
        "incrementally (O(delta) per update)",
    )
    follow.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between polls of the followed CSV (default 1.0)",
    )
    follow.add_argument(
        "--max-updates",
        type=int,
        default=None,
        help="stop following after this many updates (default: run until "
        "interrupted)",
    )
    explain.set_defaults(handler=_command_explain)

    diff = commands.add_parser("diff", help="two-point diff between timestamps")
    _add_source_arguments(diff)
    diff.add_argument("--start", required=True, help="control timestamp label")
    diff.add_argument("--stop", required=True, help="test timestamp label")
    diff.add_argument("--m", type=int, help="number of explanations (default 3)")
    diff.set_defaults(handler=_command_diff)

    recommend = commands.add_parser("recommend", help="rank explain-by attributes")
    _add_source_arguments(recommend)
    recommend.add_argument("--m", type=int, help="probe quota (default 3)")
    recommend.set_defaults(handler=_command_recommend)

    detect = commands.add_parser(
        "detect",
        help="tiered-baseline anomaly detection and suppression plans",
    )
    detect.add_argument(
        "action",
        choices=("scan", "follow", "plan", "apply"),
        help="scan: score every cube cell against its rolling baseline; "
        "follow: tail a CSV and score each delta incrementally; "
        "plan: scan and emit a reviewable suppression plan; "
        "apply: execute a reviewed plan against the data",
    )
    _add_source_arguments(detect)
    thresholds = detect.add_argument_group("detector thresholds")
    thresholds.add_argument(
        "--z-warn", type=float, help="warn threshold on |z| (default 2.5)"
    )
    thresholds.add_argument(
        "--z-alert", type=float, help="alert threshold on |z| (default 3.5)"
    )
    thresholds.add_argument(
        "--z-critical", type=float, help="critical threshold on |z| (default 6.0)"
    )
    thresholds.add_argument(
        "--min-volume",
        type=float,
        help="skip cells where both |baseline| and |value| are below this",
    )
    thresholds.add_argument(
        "--min-deviation",
        type=float,
        help="skip cells whose |value - baseline| is below this",
    )
    thresholds.add_argument(
        "--direction",
        choices=("both", "spike", "drop"),
        help="restrict to spikes (above baseline) or drops (default both)",
    )
    thresholds.add_argument(
        "--top",
        type=int,
        help="report at most this many cells, most severe first (default 200)",
    )
    detect.add_argument(
        "--cache-dir",
        help="rollup-cache directory for the underlying explain session",
    )
    detect.add_argument(
        "--max-order", type=int, help="candidate order threshold (default 3)"
    )
    detect.add_argument(
        "--json", help="also write the scan report as JSON to this path"
    )
    detect.add_argument(
        "--out", help="write the suppression plan as JSON to this path"
    )
    detect.add_argument(
        "--no-link",
        action="store_true",
        help="skip cross-linking plan entries to their top explanations",
    )
    applying = detect.add_argument_group("apply")
    applying.add_argument("--plan", help="suppression-plan JSON to apply")
    applying.add_argument(
        "--write-csv", help="write the corrected relation as CSV to this path"
    )
    applying.add_argument(
        "--explain",
        action="store_true",
        help="re-explain the corrected relation after applying the plan",
    )
    following = detect.add_argument_group("streaming (follow, --csv sources only)")
    following.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between polls of the followed CSV (default 1.0)",
    )
    following.add_argument(
        "--max-updates",
        type=int,
        default=None,
        help="stop following after this many updates (default: run until "
        "interrupted)",
    )
    detect.set_defaults(handler=_command_detect)

    cache = commands.add_parser("cache", help="manage the persistent rollup cache")
    cache.add_argument(
        "action",
        choices=("build", "inspect", "clear"),
        help="build: precompute a query's cube; inspect: list entries; clear: delete them",
    )
    cache.add_argument("--cache-dir", required=True, help="cache directory")
    cache.add_argument(
        "--max-order", type=int, help="candidate order threshold for build (default 3)"
    )
    _add_source_arguments(cache)
    cache.set_defaults(handler=_command_cache)

    lattice = commands.add_parser(
        "lattice", help="build and inspect rollup lattices for the query router"
    )
    lattice.add_argument(
        "action",
        choices=("build", "inspect"),
        help="build: one scan feeds every root rollup, the rest derive from "
        "their ledgers; inspect: list the lattice manifests in a cache dir",
    )
    lattice.add_argument(
        "--cache-dir", required=True, help="rollup-cache directory the lattice lives in"
    )
    _add_source_arguments(lattice)
    lattice.add_argument(
        "--rollups",
        help="semicolon-separated rollup shapes 'dims@agg', e.g. "
        "'region,channel@sum;region@avg' (default: the full explain-by set "
        "plus each single dimension)",
    )
    lattice.add_argument(
        "--max-order", type=int, help="candidate order threshold (default 3)"
    )
    lattice.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="rows per ingestion chunk for --source builds (default 100000)",
    )
    lattice.set_defaults(handler=_command_lattice)

    datasets = commands.add_parser("datasets", help="list bundled datasets")
    datasets.set_defaults(handler=_command_datasets)

    store = commands.add_parser(
        "store", help="inspect and convert pluggable data sources"
    )
    store.add_argument(
        "action",
        choices=("convert", "inspect"),
        help="convert: rewrite a source under another backend; "
        "inspect: schema, row count, chunk safety, fingerprint",
    )
    store.add_argument(
        "source_uri", help="source URI (csv:/npz:/sqlite:, or a bare path)"
    )
    store.add_argument(
        "dest",
        nargs="?",
        help="destination URI for convert (npz:out.npz, sqlite:out.db?table=t, csv:out.csv)",
    )
    store.add_argument("--time", help="time column (csv/sqlite sources)")
    store.add_argument("--dimensions", help="comma-separated dimension columns")
    store.add_argument("--measure", help="measure column")
    store.set_defaults(handler=_command_store)

    serve = commands.add_parser(
        "serve", help="start the concurrent JSON-over-HTTP serving tier"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--datasets",
        action="append",
        help="dataset names and/or source URIs to serve, comma-separated; "
        "repeat the flag for entries whose URIs contain ambiguous commas "
        "(default: all bundled datasets)",
    )
    serve.add_argument(
        "--cache-dir",
        help="persistent rollup-cache directory shared by all served datasets",
    )
    serve.add_argument(
        "--memory-budget-mb",
        type=float,
        help="evict least-recently-used sessions beyond this many MiB",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        help="drop sessions idle for more than this many seconds",
    )
    serve.add_argument(
        "--query-workers",
        type=int,
        default=8,
        help="query thread-pool size (default 8)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        help="shut down after serving this many requests (smoke tests); "
        "with --workers, each worker counts its own requests",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        help="admission control: refuse requests beyond this many in flight "
        "(per worker) with 503 + Retry-After instead of queueing",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fork this many SO_REUSEPORT serve processes sharing one "
        "mmap-ed cube file per dataset (default 1; needs --cache-dir, "
        "a temp dir is used if unset; falls back to single-process where "
        "SO_REUSEPORT is unavailable)",
    )
    serve.add_argument(
        "--lattice",
        action="store_true",
        help="route every cold prepare through the dataset's rollup lattice "
        "(prepare with 'repro lattice build' into the same --cache-dir)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    serve.add_argument(
        "--no-access-log",
        dest="access_log",
        action="store_false",
        help="disable the structured JSON access log (one line per request "
        "with latency and trace id; enabled by default)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help="log requests slower than this many milliseconds to the "
        "slow-query log (JSON lines with trace ids, under <cache-dir>/obs "
        "when a cache dir is set, else stderr; default off)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="fraction of requests whose phase-span tree is exported "
        "(default 1.0; every response still carries an "
        "X-Repro-Trace-Id header)",
    )
    serve.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        help="run a continuous sampling profiler at this rate, feeding "
        "per-phase self-time into the repro_profile_phase_self_seconds_total "
        "metric (default off; ~19 Hz is a good always-on rate)",
    )
    serve.add_argument(
        "--profile-slow",
        action="store_true",
        help="auto-capture a short sampling profile whenever a request "
        "crosses --slow-query-ms, appended to slowprof-<worker>.jsonl "
        "next to the slow-query log keyed by trace id (needs "
        "--slow-query-ms and a cache/obs dir)",
    )
    serve.set_defaults(handler=_command_serve, access_log=True)

    obs = commands.add_parser(
        "obs", help="aggregate exported profiles and trace span trees"
    )
    obs.add_argument(
        "action",
        choices=("top", "flame", "traces"),
        help="top: phase self-time + hotspot table from captured profiles; "
        "flame: merge captures into one collapsed-stack file "
        "(flamegraph.pl-compatible); traces: per-endpoint latency summary "
        "and the slowest requests' phase breakdown",
    )
    obs.add_argument(
        "paths",
        nargs="*",
        help="explicit input files: slowprof-*.jsonl captures, saved "
        "/debug/profile collapsed text (top/flame), or traces-*.jsonl "
        "exports (traces)",
    )
    obs.add_argument(
        "--obs-dir",
        help="observability directory to scan (<cache-dir>/obs of a serve "
        "run); adds its slowprof/traces files to any explicit paths",
    )
    obs.add_argument(
        "--n", type=int, default=20, help="rows to print (default 20)"
    )
    obs.add_argument(
        "--out", help="obs flame: write the merged collapsed stacks here"
    )
    obs.set_defaults(handler=_command_obs)

    bench = commands.add_parser(
        "bench", help="benchmark-trajectory tooling (perf-regression gate)"
    )
    bench.add_argument(
        "action",
        choices=("check",),
        help="check: compare each BENCH_*.json file's newest record against "
        "the rolling median of its prior runs; non-zero exit on regression",
    )
    bench.add_argument(
        "paths", nargs="*", help="explicit BENCH_*.json files to gate"
    )
    bench.add_argument(
        "--results-dir",
        help="directory holding BENCH_*.json trajectories (default benchmarks/)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="fail when a metric is more than this many times worse than "
        "its rolling median (default 3.0 — generous, because records come "
        "from different machines)",
    )
    bench.add_argument(
        "--window",
        type=int,
        default=5,
        help="prior records per (bench, scale) group in the rolling median "
        "(default 5)",
    )
    bench.add_argument(
        "--min-history",
        type=int,
        default=1,
        help="prior records required before gating (default 1; fewer passes "
        "with a note)",
    )
    bench.add_argument(
        "--min-latency-ms",
        type=float,
        default=1.0,
        help="skip latency metrics whose baseline is below this (sub-ms "
        "numbers are timer jitter; default 1.0)",
    )
    bench.set_defaults(handler=_command_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
