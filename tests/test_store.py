"""Tests for the storage layer: repro.store sources, ingestion, wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.cache import RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from repro.datasets.registry import load_dataset
from repro.exceptions import QueryError, ReproError, SchemaError
from repro.relation.csvio import read_csv, write_csv
from repro.relation.schema import Schema
from repro.relation.table import Relation
from repro.serve.registry import DatasetSpec, SessionRegistry
from repro.store import (
    CsvSource,
    NpzSource,
    SqliteSource,
    convert,
    dataset_from_source,
    is_source_uri,
    load_or_build_from_source,
    parse_source_uri,
    resolve_source,
    write_npz,
    write_sqlite,
)
from tests.conftest import build_relation, regime_relation, two_attr_relation


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "kpi.csv"
    write_csv(regime_relation(), path)
    return str(path)


@pytest.fixture
def canonical(csv_path):
    """The regime relation in the CSV dtype policy (object text columns)."""
    return read_csv(csv_path, dimensions=["cat"], measures=["sales"], time="t")


def top_k_fingerprint(result):
    """Byte-exact rendering of every segment's top explanations."""
    return tuple(
        (
            segment.start,
            segment.stop,
            tuple(
                (repr(s.explanation), s.gamma.hex(), s.tau)
                for s in segment.explanations
            ),
        )
        for segment in result.segments
    )


# ----------------------------------------------------------------------
# URI grammar
# ----------------------------------------------------------------------
class TestUriGrammar:
    def test_explicit_schemes(self):
        assert parse_source_uri("csv:a.csv")[:2] == ("csv", "a.csv")
        assert parse_source_uri("npz:/x/y.npz")[:2] == ("npz", "/x/y.npz")
        scheme, path, params = parse_source_uri("sqlite:db.db?table=t&where=a%3D1")
        assert (scheme, path) == ("sqlite", "db.db")
        assert params == {"table": "t", "where": "a=1"}

    def test_extension_inference(self):
        assert parse_source_uri("plain.csv")[0] == "csv"
        assert parse_source_uri("snap.npz")[0] == "npz"
        for extension in (".db", ".sqlite", ".sqlite3"):
            assert parse_source_uri(f"x{extension}")[0] == "sqlite"

    def test_unresolvable_raises(self):
        with pytest.raises(QueryError):
            parse_source_uri("mystery.parquet")
        with pytest.raises(QueryError):
            parse_source_uri("csv:")

    def test_is_source_uri(self):
        assert is_source_uri("csv:x.txt")
        assert is_source_uri("table.csv")
        assert is_source_uri("sqlite:db?table=t")
        assert not is_source_uri("covid-total")
        assert not is_source_uri("liquor")

    def test_unknown_parameter_rejected(self, csv_path):
        with pytest.raises(QueryError, match="unsupported parameter"):
            resolve_source(f"csv:{csv_path}?time=t&measure=sales&tabel=x")

    def test_csv_requires_roles(self, csv_path):
        with pytest.raises(QueryError, match="time column"):
            resolve_source(f"csv:{csv_path}")

    def test_sqlite_requires_table(self):
        with pytest.raises(QueryError, match="table="):
            resolve_source("sqlite:x.db?time=t&measure=m")

    def test_sqlite_order_validated(self):
        with pytest.raises(QueryError, match="order="):
            resolve_source("sqlite:x.db?table=t&time=t&measure=m&order=rows")

    def test_explicit_arguments_override_params(self, csv_path):
        source = resolve_source(
            f"csv:{csv_path}?time=bogus&measure=nope", time="t", measures=["sales"]
        )
        assert source.schema.require_time() == "t"
        assert source.schema.measure_names() == ("sales",)

    def test_passthrough_source_object(self, csv_path):
        source = CsvSource(csv_path, measures=["sales"], time="t")
        assert resolve_source(source) is source


# ----------------------------------------------------------------------
# CsvSource
# ----------------------------------------------------------------------
class TestCsvSource:
    def test_read_matches_read_csv(self, csv_path, canonical):
        source = CsvSource(csv_path, dimensions=["cat"], measures=["sales"], time="t")
        assert source.read().fingerprint() == canonical.fingerprint()

    def test_iter_chunks_concat_equals_read(self, csv_path, canonical):
        source = CsvSource(csv_path, dimensions=["cat"], measures=["sales"], time="t")
        chunks = list(source.iter_chunks(chunk_rows=7))
        assert all(chunk.n_rows <= 7 for chunk in chunks)
        assert chunks[0].n_rows == 7
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert merged.fingerprint() == canonical.fingerprint()

    def test_column_discovery_and_missing_column(self, csv_path):
        source = CsvSource(csv_path, measures=["sales"], time="t")
        assert source.column_names() == ("t", "cat", "sales")
        bad = CsvSource(csv_path, dimensions=["zz"], measures=["sales"], time="t")
        with pytest.raises(SchemaError, match="zz"):
            bad.read()
        with pytest.raises(SchemaError, match="zz"):
            list(bad.iter_chunks(8))

    def test_fingerprint_tracks_content_and_binding(self, tmp_path, csv_path):
        source = CsvSource(csv_path, dimensions=["cat"], measures=["sales"], time="t")
        first = source.fingerprint()
        assert first == source.fingerprint()
        rebound = CsvSource(csv_path, measures=["sales"], time="t")
        assert rebound.fingerprint() != first
        with open(csv_path, "a", encoding="utf-8") as handle:
            handle.write("t999,a,1.0\n")
        assert source.fingerprint() != first

    def test_bad_chunk_rows(self, csv_path):
        source = CsvSource(csv_path, measures=["sales"], time="t")
        with pytest.raises(SchemaError):
            list(source.iter_chunks(0))


# ----------------------------------------------------------------------
# NpzSource + the snapshot format
# ----------------------------------------------------------------------
class TestNpzSource:
    def test_round_trip_preserves_fingerprint(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        header = write_npz(canonical, path)
        assert header["n_rows"] == canonical.n_rows
        assert header["chunk_safe"] is True
        source = NpzSource(path)
        assert source.schema == canonical.schema
        assert source.count_rows() == canonical.n_rows
        assert source.read().fingerprint() == canonical.fingerprint()

    def test_fingerprint_is_header_only(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        source = NpzSource(path)
        # Identical content written elsewhere shares the fingerprint.
        other_path = tmp_path / "other.npz"
        write_npz(canonical, other_path)
        assert NpzSource(other_path).fingerprint() == source.fingerprint()

    def test_measure_column_is_memory_mapped(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        column = NpzSource(path).read().column("sales")
        base = column
        while not isinstance(base, np.memmap) and getattr(base, "base", None) is not None:
            base = base.base
        assert isinstance(base, np.memmap)

    def test_mmap_fallback_matches(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        mapped = NpzSource(path, mmap=True).read()
        copied = NpzSource(path, mmap=False).read()
        assert mapped.fingerprint() == copied.fingerprint()

    def test_iter_chunks_bounded_and_equal(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        chunks = list(NpzSource(path).iter_chunks(10))
        assert all(chunk.n_rows <= 10 for chunk in chunks)
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert merged.fingerprint() == canonical.fingerprint()

    def test_rebinding_a_subset_of_columns(self, tmp_path):
        relation = read_write_two_attr(tmp_path)
        path = tmp_path / "two.npz"
        write_npz(relation, path)
        source = NpzSource(path, dimensions=["a"], measures=["m"], time="t")
        assert source.schema.names == ("t", "a", "m")
        loaded = source.read()
        assert loaded.schema.dimension_names() == ("a",)
        np.testing.assert_array_equal(loaded.column("m"), relation.column("m"))

    def test_partial_override_keeps_stored_roles(self, tmp_path):
        relation = read_write_two_attr(tmp_path)
        path = tmp_path / "two.npz"
        write_npz(relation, path)
        # Only dimensions overridden: measure and time come from the
        # snapshot header, so the single-flag re-bind stays servable.
        source = NpzSource(path, dimensions=["a"])
        assert source.schema.dimension_names() == ("a",)
        assert source.schema.measure_names() == ("m",)
        assert source.schema.require_time() == "t"
        session = ExplainSession.from_source(source)
        assert session.explain_by == ("a",)

    def test_chunk_safe_false_for_backfilled_order(self, tmp_path):
        relation = build_relation(
            {"t": ["d2", "d1", "d2"], "c": ["x", "y", "z"], "m": [1.0, 2.0, 3.0]},
            dimensions=["c"],
            measures=["m"],
            time="t",
        )
        path = tmp_path / "unsorted.npz"
        header = write_npz(relation, path)
        assert header["chunk_safe"] is False
        assert NpzSource(path).chunk_safe is False

    def test_trailing_nul_rejected(self, tmp_path):
        relation = build_relation(
            {
                "t": np.asarray(["d1", "d2"], dtype=object),
                # An explicit object column: a plain list would be inferred
                # as a U array, which strips the trailing NUL on its own.
                "c": np.asarray(["ok", "bad\x00"], dtype=object),
                "m": [1.0, 2.0],
            },
            dimensions=["c"],
            measures=["m"],
            time="t",
        )
        with pytest.raises(SchemaError, match="NUL"):
            write_npz(relation, tmp_path / "nul.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, whatever=np.arange(3))
        with pytest.raises(SchemaError):
            NpzSource(path).schema


def read_write_two_attr(tmp_path) -> Relation:
    """The two-attribute relation canonicalized through the CSV policy."""
    path = tmp_path / "two.csv"
    write_csv(two_attr_relation(), path)
    return read_csv(path, dimensions=["a", "b"], measures=["m"], time="t")


# ----------------------------------------------------------------------
# SqliteSource + pushdown
# ----------------------------------------------------------------------
class TestSqliteSource:
    @pytest.fixture
    def db_path(self, tmp_path, canonical):
        path = tmp_path / "kpi.db"
        write_sqlite(canonical, path, "kpi")
        return str(path)

    def test_round_trip_preserves_fingerprint(self, db_path, canonical):
        source = SqliteSource(
            db_path, "kpi", dimensions=["cat"], measures=["sales"], time="t"
        )
        assert source.column_names() == ("t", "cat", "sales")
        assert source.count_rows() == canonical.n_rows
        assert source.read().fingerprint() == canonical.fingerprint()

    def test_iter_chunks_equal_read(self, db_path, canonical):
        source = SqliteSource(
            db_path, "kpi", dimensions=["cat"], measures=["sales"], time="t"
        )
        chunks = list(source.iter_chunks(chunk_rows=11))
        assert all(chunk.n_rows <= 11 for chunk in chunks)
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert merged.fingerprint() == canonical.fingerprint()

    def test_where_pushdown(self, db_path):
        source = SqliteSource(
            db_path,
            "kpi",
            dimensions=["cat"],
            measures=["sales"],
            time="t",
            where="cat='a'",
        )
        relation = source.read()
        assert set(relation.column("cat")) == {"a"}
        assert source.count_rows() == relation.n_rows

    def test_preaggregate_pushdown_matches_sum_series(self, tmp_path, canonical):
        # Duplicate every row so the GROUP BY genuinely reduces.
        doubled = canonical.concat(canonical)
        path = tmp_path / "dup.db"
        write_sqlite(doubled, path, "kpi")
        raw = SqliteSource(
            path, "kpi", dimensions=["cat"], measures=["sales"], time="t"
        )
        pushed = SqliteSource(
            path,
            "kpi",
            dimensions=["cat"],
            measures=["sales"],
            time="t",
            preaggregate=True,
            order_by_time=True,
        )
        reduced = pushed.read()
        assert reduced.n_rows == canonical.n_rows  # one row per (t, cat)
        raw_cube = ExplanationCube(raw.read(), ["cat"], "sales")
        pushed_cube = ExplanationCube(reduced, ["cat"], "sales")
        np.testing.assert_allclose(raw_cube.overall_values, pushed_cube.overall_values)
        np.testing.assert_allclose(
            raw_cube.included_values, pushed_cube.included_values
        )
        # Supports deliberately differ: distinct groups, not raw rows.
        assert pushed_cube.supports.sum() < raw_cube.supports.sum()

    def test_preaggregate_gating(self, db_path):
        with pytest.raises(QueryError, match="sum"):
            SqliteSource(
                db_path,
                "kpi",
                measures=["sales"],
                time="t",
                preaggregate=True,
                default_aggregate="avg",
            )

    def test_missing_table_and_db(self, db_path, tmp_path):
        with pytest.raises(SchemaError, match="no table"):
            SqliteSource(db_path, "nope", measures=["sales"], time="t").column_names()
        with pytest.raises(SchemaError, match="no such SQLite"):
            SqliteSource(
                tmp_path / "ghost.db", "kpi", measures=["sales"], time="t"
            ).read()

    def test_order_by_time_is_chunk_safe(self, tmp_path):
        shuffled = build_relation(
            {
                "t": ["d3", "d1", "d2", "d1", "d3"],
                "c": ["x", "y", "x", "y", "x"],
                "m": [1.0, 2.0, 3.0, 4.0, 5.0],
            },
            dimensions=["c"],
            measures=["m"],
            time="t",
        )
        path = tmp_path / "shuffled.db"
        write_sqlite(shuffled, path, "kpi")
        source = SqliteSource(
            path,
            "kpi",
            dimensions=["c"],
            measures=["m"],
            time="t",
            order_by_time=True,
        )
        times = source.read().column("t")
        assert list(times) == sorted(times)


# ----------------------------------------------------------------------
# Out-of-core ingestion + source-keyed caching
# ----------------------------------------------------------------------
class _ExplodingReads(NpzSource):
    """A source that forbids ingestion — proves cache hits skip it."""

    def read(self):  # pragma: no cover - failing is the assertion
        raise AssertionError("cache hit must not ingest")

    def iter_chunks(self, chunk_rows=None):  # pragma: no cover
        raise AssertionError("cache hit must not ingest")


class TestIngest:
    def test_chunked_build_is_byte_identical(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        source = NpzSource(path)
        one_shot = ExplanationCube(source.read(), ["cat"], "sales")
        cube, report = load_or_build_from_source(
            None, source, ["cat"], "sales", chunk_rows=9
        )
        assert report.out_of_core and not report.cache_hit
        assert report.chunks == 8 and report.peak_chunk_rows == 9
        assert report.rows == canonical.n_rows
        assert cube.explanations == one_shot.explanations
        np.testing.assert_array_equal(cube.included_values, one_shot.included_values)
        np.testing.assert_array_equal(cube.excluded_values, one_shot.excluded_values)
        np.testing.assert_array_equal(cube.overall_values, one_shot.overall_values)
        np.testing.assert_array_equal(cube.supports, one_shot.supports)

    def test_unsafe_chunk_order_degrades_to_one_shot(self, tmp_path):
        relation = build_relation(
            {
                "t": ["d2", "d2", "d1", "d3"],
                "c": ["x", "y", "x", "y"],
                "m": [1.0, 2.0, 3.0, 4.0],
            },
            dimensions=["c"],
            measures=["m"],
            time="t",
        )
        path = tmp_path / "unsafe.npz"
        write_npz(relation, path)
        source = NpzSource(path)
        reference = ExplanationCube(source.read(), ["c"], "m")
        cube, report = load_or_build_from_source(None, source, ["c"], "m", chunk_rows=2)
        assert not report.out_of_core  # fell back
        assert report.rows == 4
        np.testing.assert_array_equal(cube.included_values, reference.included_values)

    def test_known_unsafe_source_skips_chunked_attempt(self, tmp_path):
        relation = build_relation(
            {"t": ["d2", "d1"], "c": ["x", "y"], "m": [1.0, 2.0]},
            dimensions=["c"],
            measures=["m"],
            time="t",
        )
        path = tmp_path / "unsafe.npz"
        write_npz(relation, path)

        class _CountingChunks(NpzSource):
            calls = 0

            def iter_chunks(self, chunk_rows=None):
                type(self).calls += 1
                return super().iter_chunks(chunk_rows)

        source = _CountingChunks(path)
        assert source.chunk_safe is False
        _, report = load_or_build_from_source(None, source, ["c"], "m", chunk_rows=1)
        assert not report.out_of_core
        assert _CountingChunks.calls == 0  # the doomed attempt never ran

    def test_cache_hit_skips_ingestion_entirely(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        cache = RollupCache(tmp_path / "cache")
        cube, cold = load_or_build_from_source(
            cache, NpzSource(path), ["cat"], "sales", chunk_rows=16
        )
        assert not cold.cache_hit
        warm_cube, warm = load_or_build_from_source(
            cache, _ExplodingReads(path), ["cat"], "sales"
        )
        assert warm.cache_hit and warm.rows == 0
        np.testing.assert_array_equal(
            warm_cube.included_values, cube.included_values
        )
        assert warm_cube.appendable  # the ledger rode along

    def test_source_key_distinct_from_relation_key(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        key = cube_key(NpzSource(path), "sales", ["cat"])
        assert key.fingerprint.startswith("src-")
        assert key.explain_by == ("cat",)
        again = cube_key(NpzSource(path), "sales", ["cat"])
        assert key == again

    def test_empty_source_raises(self, tmp_path):
        empty = Relation.empty(
            Schema.build(dimensions=["c"], measures=["m"], time="t")
        )
        path = tmp_path / "empty.npz"
        write_npz(empty, path)
        with pytest.raises(QueryError, match="no rows"):
            load_or_build_from_source(None, NpzSource(path), ["c"], "m")

    def test_convert_between_all_backends(self, tmp_path, csv_path, canonical):
        uri = f"csv:{csv_path}?time=t&dims=cat&measure=sales"
        npz_path, rows = convert(resolve_source(uri), f"npz:{tmp_path / 's.npz'}")
        assert rows == canonical.n_rows
        db_uri = f"sqlite:{tmp_path / 's.db'}?table=kpi"
        convert(NpzSource(npz_path), db_uri)
        back_csv = f"csv:{tmp_path / 'back.csv'}"
        convert(
            resolve_source(f"{db_uri}&time=t&dims=cat&measure=sales"), back_csv
        )
        final = read_csv(
            tmp_path / "back.csv", dimensions=["cat"], measures=["sales"], time="t"
        )
        assert final.fingerprint() == canonical.fingerprint()

    def test_convert_to_sqlite_requires_table(self, tmp_path, csv_path):
        source = resolve_source(f"csv:{csv_path}?time=t&dims=cat&measure=sales")
        with pytest.raises(QueryError, match="table="):
            convert(source, f"sqlite:{tmp_path / 'x.db'}")

    def test_convert_rejects_unknown_dest_params(self, tmp_path, csv_path):
        source = resolve_source(f"csv:{csv_path}?time=t&dims=cat&measure=sales")
        with pytest.raises(QueryError, match="tabel"):
            convert(source, f"sqlite:{tmp_path / 'x.db'}?tabel=kpi")
        with pytest.raises(QueryError, match="compress"):
            convert(source, f"npz:{tmp_path / 'x.npz'}?compress=1")


# ----------------------------------------------------------------------
# Session + dataset + serving wiring
# ----------------------------------------------------------------------
class TestSessionFromSource:
    def test_explain_matches_in_memory_session(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        source_session = ExplainSession.from_source(f"npz:{path}", chunk_rows=10)
        memory_session = ExplainSession(
            canonical, measure="sales", explain_by=["cat"]
        )
        assert top_k_fingerprint(source_session.explain()) == top_k_fingerprint(
            memory_session.explain()
        )
        assert source_session.ingest_report.out_of_core

    def test_relation_stays_lazy_until_needed(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        session = ExplainSession.from_source(f"npz:{path}")
        assert not session.relation_loaded
        session.explain()
        session.diff("t000", "t023")
        assert not session.relation_loaded
        assert session.relation.n_rows == canonical.n_rows
        assert session.relation_loaded

    def test_warm_cache_session_never_reads_source(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        cache_dir = str(tmp_path / "cache")
        cold = ExplainSession.from_source(f"npz:{path}", cache_dir=cache_dir)
        warm = ExplainSession.from_source(
            _ExplodingReads(path), cache_dir=cache_dir
        )
        assert warm.cache_hit is True
        assert warm.ingest_report.cache_hit
        assert top_k_fingerprint(warm.explain()) == top_k_fingerprint(cold.explain())

    def test_append_after_from_source(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        session = ExplainSession.from_source(f"npz:{path}")
        delta = build_relation(
            {"t": ["t900", "t900"], "cat": ["a", "b"], "sales": [5.0, 6.0]},
            dimensions=["cat"],
            measures=["sales"],
            time="t",
        )
        info = session.append(delta)
        assert info is not None and info.n_times == canonical.n_rows // 3 + 1
        assert session.relation.n_rows == canonical.n_rows + 2

    def test_dataset_from_source_defaults(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        dataset = dataset_from_source(NpzSource(path))
        assert dataset.measure == "sales"
        assert dataset.explain_by == ("cat",)
        assert dataset.relation.n_rows == canonical.n_rows
        assert dataset.aggregate == "sum"

    def test_load_dataset_accepts_uri(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        dataset = load_dataset(f"npz:{path}")
        assert dataset.measure == "sales"
        with pytest.raises(QueryError, match="unknown dataset"):
            load_dataset("not-a-dataset")

    def test_registry_serves_source_spec_from_cache(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)
        cache_dir = str(tmp_path / "cache")
        first = SessionRegistry(
            specs=[DatasetSpec.from_source(f"npz:{path}", name="kpi")],
            cache_dir=cache_dir,
        )
        cold = first.session("kpi")
        assert cold.cache_hit is False
        second = SessionRegistry(
            specs=[DatasetSpec.from_source(f"npz:{path}", name="kpi")],
            cache_dir=cache_dir,
        )
        warm = second.session("kpi")
        assert warm.cache_hit is True
        assert not warm.relation_loaded
        rows = [r for r in second.describe() if r["name"] == "kpi"]
        assert rows[0]["loaded"] and rows[0]["rows"] is None  # never ingested
        assert top_k_fingerprint(warm.explain()) == top_k_fingerprint(cold.explain())

    def test_registry_source_spec_honors_explain_by(self, tmp_path):
        relation = read_write_two_attr(tmp_path)
        path = tmp_path / "two.npz"
        write_npz(relation, path)
        registry = SessionRegistry(
            specs=[
                DatasetSpec.from_source(f"npz:{path}", name="two", explain_by=("a",))
            ]
        )
        session = registry.session("two")
        assert session.explain_by == ("a",)


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_store_convert_and_inspect(self, capsys, tmp_path, csv_path):
        npz = str(tmp_path / "kpi.npz")
        code, out, _ = run_cli(
            capsys,
            "store",
            "convert",
            f"csv:{csv_path}?time=t&dims=cat&measure=sales",
            f"npz:{npz}",
        )
        assert code == 0 and "wrote 72 rows" in out
        code, out, _ = run_cli(capsys, "store", "inspect", f"npz:{npz}")
        assert code == 0
        assert "t:time" in out and "cat:dimension" in out and "sales:measure" in out
        assert "rows:        72" in out
        assert "chunk-safe:  yes" in out
        assert "fingerprint: " in out

    def test_store_convert_missing_dest(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys, "store", "convert", f"csv:{csv_path}?time=t&measure=sales"
        )
        assert code == 2 and "destination" in err

    def test_explain_source_uri(self, capsys, tmp_path, csv_path):
        npz = str(tmp_path / "kpi.npz")
        run_cli(
            capsys,
            "store",
            "convert",
            f"csv:{csv_path}?time=t&dims=cat&measure=sales",
            f"npz:{npz}",
        )
        code, out, _ = run_cli(capsys, "explain", "--source", f"npz:{npz}", "--k", "2")
        assert code == 0 and "cat=a" in out and "cat=b" in out

    def test_explain_out_of_core_matches_csv_run(self, capsys, tmp_path, csv_path):
        npz = str(tmp_path / "kpi.npz")
        run_cli(
            capsys,
            "store",
            "convert",
            f"csv:{csv_path}?time=t&dims=cat&measure=sales",
            f"npz:{npz}",
        )
        code, chunked_out, _ = run_cli(
            capsys,
            "explain",
            "--source", f"npz:{npz}",
            "--out-of-core",
            "--chunk-rows", "10",
            "--k", "2",
        )
        assert code == 0
        assert "out-of-core" in chunked_out
        code, plain_out, _ = run_cli(
            capsys,
            "explain",
            "--csv", csv_path,
            "--time", "t",
            "--dimensions", "cat",
            "--measure", "sales",
            "--k", "2",
        )
        assert code == 0
        # Identical explanation table (the ingest and latency lines are
        # run-specific).
        assert plain_out.split("\nK=")[0] in chunked_out

    def test_out_of_core_requires_source(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys,
            "explain",
            "--csv", csv_path,
            "--time", "t",
            "--dimensions", "cat",
            "--measure", "sales",
            "--out-of-core",
        )
        assert code == 2 and "--out-of-core requires --source" in err

    def test_explain_rejects_multiple_sources(self, capsys, csv_path):
        code, _, err = run_cli(
            capsys,
            "explain",
            "--csv", csv_path,
            "--source", f"csv:{csv_path}?time=t&measure=sales",
        )
        assert code == 2 and "exactly one" in err

    def test_diff_and_recommend_source(self, capsys, tmp_path, csv_path):
        npz = str(tmp_path / "kpi.npz")
        run_cli(
            capsys,
            "store",
            "convert",
            f"csv:{csv_path}?time=t&dims=cat&measure=sales",
            f"npz:{npz}",
        )
        code, out, _ = run_cli(
            capsys, "diff", "--source", f"npz:{npz}", "--start", "t000", "--stop", "t023"
        )
        assert code == 0 and "cat=" in out
        code, out, _ = run_cli(capsys, "recommend", "--source", f"npz:{npz}")
        assert code == 0 and "cat" in out

    def test_cache_hit_line_on_warm_out_of_core(self, capsys, tmp_path, csv_path):
        npz = str(tmp_path / "kpi.npz")
        cache = str(tmp_path / "cache")
        run_cli(
            capsys,
            "store",
            "convert",
            f"csv:{csv_path}?time=t&dims=cat&measure=sales",
            f"npz:{npz}",
        )
        args = (
            "explain", "--source", f"npz:{npz}",
            "--out-of-core", "--cache-dir", cache, "--k", "2",
        )
        code, cold_out, _ = run_cli(capsys, *args)
        assert code == 0 and "out-of-core" in cold_out
        code, warm_out, _ = run_cli(capsys, *args)
        assert code == 0 and "served from the rollup cache" in warm_out


class TestReviewRegressions:
    """Regressions for review findings: URI lists, discovery, laziness."""

    def test_dataset_list_split_keeps_uri_commas(self):
        from repro.cli import _split_dataset_names

        uri = "sqlite:s.db?table=t&time=day&dims=region,channel&measure=rev"
        assert _split_dataset_names([f"covid-total,{uri},sp500"]) == [
            "covid-total",
            uri,
            "sp500",
        ]
        assert _split_dataset_names(["liquor , covid-daily"]) == [
            "liquor",
            "covid-daily",
        ]

    def test_inspect_discovers_unbound_csv(self, capsys, csv_path):
        code, out, _ = run_cli(capsys, "store", "inspect", f"csv:{csv_path}")
        assert code == 0
        assert "t:(unbound)" in out and "sales:(unbound)" in out

    def test_chunked_ragged_error_names_file_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "t,c,m\n" + "".join(f"d{i},x,1.0\n" for i in range(10)) + "d10,y\n"
        )
        source = CsvSource(path, dimensions=["c"], measures=["m"], time="t")
        with pytest.raises(SchemaError, match="row 12"):
            list(source.iter_chunks(chunk_rows=4))

    def test_one_shot_fallback_adopts_relation(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        # Rows in reverse time order make the snapshot chunk-unsafe, so the
        # build falls back to one read of the whole relation.
        write_npz(canonical.take(np.arange(canonical.n_rows)[::-1]), path)
        session = ExplainSession.from_source(f"npz:{path}")
        # The one-shot path materialized the relation; it must be adopted,
        # not thrown away and re-ingested on the first recommend().
        assert session.relation_loaded
        assert session.relation.n_rows == canonical.n_rows
        assert session.ingest_report.relation is session.relation

    def test_wal_sidecar_changes_fingerprint(self, tmp_path, canonical):
        import sqlite3

        path = tmp_path / "wal.db"
        write_sqlite(canonical, path, "kpi")
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.commit()
        source = SqliteSource(
            path, "kpi", dimensions=["cat"], measures=["sales"], time="t"
        )
        before_rows = source.read().n_rows
        before = source.fingerprint()
        # Commit a row that lives in the -wal sidecar, main file unchanged.
        connection.execute(
            'INSERT INTO "kpi" VALUES (?, ?, ?)', ("t999", "a", 1.0)
        )
        connection.commit()
        assert source.read().n_rows == before_rows + 1
        assert source.fingerprint() != before, "WAL rows must invalidate"
        connection.close()

    def test_preaggregate_rejects_aggregate_override(self, tmp_path, canonical):
        path = tmp_path / "pre.db"
        write_sqlite(canonical, path, "kpi")
        uri = (
            f"sqlite:{path}?table=kpi&time=t&dims=cat&measure=sales&preaggregate=1"
        )
        with pytest.raises(QueryError, match="pre-aggregates"):
            ExplainSession.from_source(uri, aggregate="avg")
        with pytest.raises(QueryError, match="pre-aggregates"):
            dataset_from_source(resolve_source(uri), aggregate="avg")
        # sum stays allowed.
        assert ExplainSession.from_source(uri).aggregate == "sum"

    def test_out_of_core_rejects_conflicting_flags(self, capsys, tmp_path, csv_path):
        npz = str(tmp_path / "kpi.npz")
        run_cli(
            capsys,
            "store",
            "convert",
            f"csv:{csv_path}?time=t&dims=cat&measure=sales",
            f"npz:{npz}",
        )
        code, _, err = run_cli(
            capsys,
            "explain",
            "--dataset", "covid-total",
            "--source", f"npz:{npz}",
            "--out-of-core",
        )
        assert code == 2 and "exactly one" in err

    def test_repeated_datasets_flag_is_unambiguous(self):
        from repro.cli import _split_dataset_names

        ambiguous = "sqlite:s.db?table=k&time=t&measure=v&dims=cat,covid-total"
        # A flag value that is itself a single source URI is taken whole —
        # even when a query-parameter fragment looks like a dataset name.
        assert _split_dataset_names([ambiguous]) == [ambiguous]
        assert _split_dataset_names([ambiguous, "sp500"]) == [ambiguous, "sp500"]
        # Only a value that is not a single entry gets list-split.
        assert _split_dataset_names([f"covid-total,{ambiguous}"]) == [
            "covid-total",
            "sqlite:s.db?table=k&time=t&measure=v&dims=cat",
            "covid-total",
        ]

    def test_where_plus_is_literal(self, tmp_path):
        relation = build_relation(
            {
                "t": ["d1", "d2", "d1", "d2"],
                "cat": ["a+b", "a+b", "a b", "a b"],
                "v": [1.0, 3.0, 2.0, 4.0],
            },
            dimensions=["cat"],
            measures=["v"],
            time="t",
        )
        path = tmp_path / "plus.db"
        write_sqlite(relation, path, "k")
        source = resolve_source(
            f"sqlite:{path}?table=k&time=t&dims=cat&measure=v&where=cat%3D'a+b'"
        )
        loaded = source.read()
        # '+' must reach SQLite verbatim, not decode to a space.
        assert set(loaded.column("cat")) == {"a+b"}
        assert loaded.column("v").tolist() == [1.0, 3.0]

    def test_bad_aggregate_does_not_trigger_full_reingest(self, tmp_path, canonical):
        path = tmp_path / "snap.npz"
        write_npz(canonical, path)

        class _NoRead(NpzSource):
            def read(self):  # pragma: no cover - failing is the assertion
                raise AssertionError("misconfiguration must not fall back")

        with pytest.raises(ReproError, match="bogus"):
            load_or_build_from_source(
                None, _NoRead(path), ["cat"], "sales", aggregate="bogus"
            )
