"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.relation.csvio import write_csv
from tests.conftest import regime_relation


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "kpi.csv"
    write_csv(regime_relation(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_explain_csv(capsys, csv_path):
    code, out, _ = run_cli(
        capsys,
        "explain",
        "--csv", csv_path,
        "--time", "t",
        "--dimensions", "cat",
        "--measure", "sales",
        "--k", "2",
        "--vanilla",
    )
    assert code == 0
    assert "cat=a" in out and "cat=b" in out
    assert "K=2" in out


def test_explain_report_styles(capsys, csv_path):
    for report in ("full", "table", "sparklines"):
        code, out, _ = run_cli(
            capsys,
            "explain",
            "--csv", csv_path,
            "--time", "t",
            "--dimensions", "cat",
            "--measure", "sales",
            "--k", "2",
            "--vanilla",
            "--report", report,
        )
        assert code == 0
        assert out.strip()


def test_explain_window(capsys, csv_path):
    code, out, _ = run_cli(
        capsys,
        "explain",
        "--csv", csv_path,
        "--time", "t",
        "--dimensions", "cat",
        "--measure", "sales",
        "--k", "2",
        "--vanilla",
        "--start", "t006",
        "--stop", "t018",
    )
    assert code == 0
    assert "t006" in out


def test_diff_command(capsys, csv_path):
    code, out, _ = run_cli(
        capsys,
        "diff",
        "--csv", csv_path,
        "--time", "t",
        "--dimensions", "cat",
        "--measure", "sales",
        "--start", "t000",
        "--stop", "t011",
    )
    assert code == 0
    assert out.splitlines()[0].startswith("cat=a")


def test_recommend_command(capsys, csv_path):
    code, out, _ = run_cli(
        capsys,
        "recommend",
        "--csv", csv_path,
        "--time", "t",
        "--dimensions", "cat",
        "--measure", "sales",
    )
    assert code == 0
    assert "cat" in out and "coverage=" in out


def test_datasets_command(capsys):
    code, out, _ = run_cli(capsys, "datasets")
    assert code == 0
    for name in ("covid-total", "sp500", "liquor"):
        assert name in out


def test_source_validation_errors(capsys, csv_path):
    # Neither --dataset nor --csv.
    code, _, err = run_cli(capsys, "explain", "--measure", "sales")
    assert code == 2
    assert "error" in err
    # CSV without required column arguments.
    code, _, err = run_cli(capsys, "explain", "--csv", csv_path)
    assert code == 2


def test_explain_dataset_source(capsys):
    code, out, _ = run_cli(
        capsys, "explain", "--dataset", "covid-deaths", "--k", "2"
    )
    assert code == 0
    assert "vaccinated=NO" in out


def test_cache_build_inspect_clear(capsys, csv_path, tmp_path):
    cache_dir = str(tmp_path / "rollups")
    source = (
        "--csv", csv_path,
        "--time", "t",
        "--dimensions", "cat",
        "--measure", "sales",
    )
    code, out, _ = run_cli(capsys, "cache", "build", "--cache-dir", cache_dir, *source)
    assert code == 0
    assert "built and stored" in out
    code, out, _ = run_cli(capsys, "cache", "build", "--cache-dir", cache_dir, *source)
    assert code == 0
    assert "reused existing entry" in out
    code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", cache_dir)
    assert code == 0
    assert "measure=sales" in out and "1 entry" in out
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache_dir)
    assert code == 0
    assert "removed 1" in out
    code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", cache_dir)
    assert code == 0
    assert "empty" in out


def test_cache_build_requires_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cache", "build", "--cache-dir", str(tmp_path))
    assert code == 2
    assert "error" in err


def test_explain_with_cache_dir(capsys, csv_path, tmp_path):
    cache_dir = str(tmp_path / "rollups")
    argv = (
        "explain",
        "--csv", csv_path,
        "--time", "t",
        "--dimensions", "cat",
        "--measure", "sales",
        "--k", "2",
        "--cache-dir", cache_dir,
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    # The warm run reads the cube from the cache; everything but the
    # latency line must match the cold run verbatim.
    strip = lambda text: [
        line for line in text.splitlines() if "latency=" not in line
    ]
    assert strip(first) == strip(second)


def test_explain_max_order_matches_prewarm(capsys, tmp_path):
    """cache build --max-order N prewarm is served by explain --max-order N."""
    cache_dir = str(tmp_path / "rollups")
    from tests.conftest import two_attr_relation

    path = str(tmp_path / "kpi2.csv")
    write_csv(two_attr_relation(), path)
    source = ("--csv", path, "--time", "t", "--dimensions", "a,b", "--measure", "m")
    code, out, _ = run_cli(
        capsys, "cache", "build", "--cache-dir", cache_dir, "--max-order", "1", *source
    )
    assert code == 0 and "built and stored" in out
    code, _, _ = run_cli(
        capsys, "explain", *source, "--k", "2", "--max-order", "1",
        "--cache-dir", cache_dir,
    )
    assert code == 0
    from repro.cube.cache import RollupCache

    # The explain hit the prewarmed entry instead of adding a second one.
    assert len(RollupCache(cache_dir).entries()) == 1


def test_cache_build_reports_store_failure(capsys, csv_path, tmp_path, monkeypatch):
    """A prewarm that could not persist must not claim success."""
    from repro.cube.cache import RollupCache

    def broken_store(self, key, cube):
        raise OSError("disk full")

    monkeypatch.setattr(RollupCache, "store", broken_store)
    code, out, err = run_cli(
        capsys,
        "cache", "build",
        "--cache-dir", str(tmp_path / "r"),
        "--csv", csv_path,
        "--time", "t",
        "--dimensions", "cat",
        "--measure", "sales",
    )
    assert code == 1
    assert "NOT stored" in err
    assert "built and stored" not in out


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.strip() == f"repro {__version__}"


def test_serve_parser_accepts_options():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "serve",
            "--port", "0",
            "--datasets", "covid-total,sp500",
            "--memory-budget-mb", "256",
            "--ttl", "300",
            "--query-workers", "4",
            "--max-requests", "10",
        ]
    )
    assert args.port == 0 and args.query_workers == 4
    assert args.handler.__name__ == "_command_serve"


def test_serve_rejects_unknown_dataset(capsys):
    code = main(["serve", "--datasets", "no-such-dataset", "--port", "0"])
    assert code == 2
    assert "unknown dataset" in capsys.readouterr().err


def test_serve_rejects_malformed_source_uri(capsys):
    code = main([
        "serve", "--datasets", "csv:kpi.csv?tme=t&measure=v", "--port", "0",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "tme" in err  # fails at startup, not per request
