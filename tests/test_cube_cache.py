"""Tests for the persistent rollup cache (repro.cube.cache)."""

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.engine import TSExplain
from repro.core.session import ExplainSession
from repro.cube.cache import CACHE_SUFFIX, RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from repro.exceptions import ConfigError
from repro.relation.schema import AttributeKind
from repro.store import RelationSource, load_or_build_from_source
from tests.conftest import fixed_cube, regime_relation, two_attr_relation


@pytest.fixture
def cache(tmp_path):
    return RollupCache(tmp_path / "rollups")


def _load_or_build(cache, relation, explain_by, measure, **kwargs):
    """The cache-or-build path over a relation: ``(cube, cache_hit)``."""
    cube, report = load_or_build_from_source(
        cache, RelationSource(relation), explain_by, measure, **kwargs
    )
    return cube, report.cache_hit


def _cubes_equal(left: ExplanationCube, right: ExplanationCube) -> bool:
    return (
        left.explanations == right.explanations
        and left.labels == right.labels
        and left.explain_by == right.explain_by
        and left.aggregate.name == right.aggregate.name
        and left.measure == right.measure
        and left.supports.tobytes() == right.supports.tobytes()
        and left.overall_values.tobytes() == right.overall_values.tobytes()
        and left.included_values.tobytes() == right.included_values.tobytes()
        and left.excluded_values.tobytes() == right.excluded_values.tobytes()
    )


# ----------------------------------------------------------------------
# Relation fingerprint
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_instances():
    assert regime_relation().fingerprint() == regime_relation().fingerprint()


def test_fingerprint_changes_with_data():
    base = regime_relation()
    changed = regime_relation(n=24, switch=11)
    assert base.fingerprint() != changed.fingerprint()


def test_fingerprint_changes_with_extra_rows():
    base = regime_relation()
    grown = base.concat(base.head(1))
    assert base.fingerprint() != grown.fingerprint()


# ----------------------------------------------------------------------
# Load / store round trip
# ----------------------------------------------------------------------
def test_store_then_load_round_trips(cache):
    relation = two_attr_relation()
    cube = ExplanationCube(relation, ["a", "b"], "m")
    key = cube_key(relation, "m", ["a", "b"])
    path = cache.store(key, cube)
    assert path.exists()
    loaded = cache.load(key)
    assert loaded is not None
    assert _cubes_equal(cube, loaded)


def test_miss_on_empty_cache(cache):
    key = cube_key(regime_relation(), "sales", ["cat"])
    assert cache.load(key) is None


def test_miss_after_relation_change(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    changed = regime_relation(n=24, switch=10)
    assert cache.load(cube_key(changed, "sales", ["cat"])) is None


def test_miss_on_different_parameters(cache):
    relation = two_attr_relation()
    cube = ExplanationCube(relation, ["a", "b"], "m")
    cache.store(cube_key(relation, "m", ["a", "b"]), cube)
    assert cache.load(cube_key(relation, "m", ["a"])) is None
    assert cache.load(cube_key(relation, "m", ["a", "b"], max_order=1)) is None
    assert cache.load(cube_key(relation, "m", ["a", "b"], aggregate="avg")) is None


def test_explain_by_order_does_not_split_cache(cache):
    relation = two_attr_relation()
    cube = ExplanationCube(relation, ["a", "b"], "m")
    cache.store(cube_key(relation, "m", ["a", "b"]), cube)
    assert cache.load(cube_key(relation, "m", ["b", "a"])) is not None


def test_corrupted_entry_is_a_miss_and_rebuilds(cache):
    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    cube, hit = _load_or_build(cache, relation, ["cat"], "sales")
    assert not hit
    path = cache.path_for(key)
    path.write_bytes(b"this is not a pickle")
    assert cache.load(key) is None
    rebuilt, hit = _load_or_build(cache, relation, ["cat"], "sales")
    assert not hit
    assert _cubes_equal(cube, rebuilt)
    # The rebuild overwrote the poisoned entry, so the next call hits.
    _, hit = _load_or_build(cache, relation, ["cat"], "sales")
    assert hit


def test_entries_and_clear(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    (cache.directory / f"junk{CACHE_SUFFIX}").write_bytes(b"garbage")
    entries = cache.entries()
    assert len(entries) == 2
    valid = [entry for entry in entries if entry.valid]
    corrupt = [entry for entry in entries if not entry.valid]
    assert len(valid) == 1 and len(corrupt) == 1
    assert valid[0].n_explanations == cube.n_explanations
    assert valid[0].n_times == cube.n_times
    assert "CORRUPT" in corrupt[0].row()
    assert cache.clear() == 2
    assert cache.entries() == []


def test_round_trip_is_byte_identical(cache):
    relation = two_attr_relation()
    built = ExplanationCube(relation, ["a", "b"], "m")
    key = cube_key(relation, "m", ["a", "b"])
    path = cache.store(key, built)
    assert path == cache.path_for(key)
    assert path.name.endswith(CACHE_SUFFIX)
    for mmap in (False, True):
        reopened = cache.load(key, mmap=mmap)
        assert reopened is not None
        assert _cubes_equal(built, reopened)


def test_entries_are_stored_uncompressed(cache):
    import zipfile

    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    path = cache.store(key, ExplanationCube(relation, ["a", "b"], "m"))
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {
            zipfile.ZIP_STORED
        }


def test_mmap_load_maps_the_series(cache):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    cache.store(key, ExplanationCube(relation, ["a", "b"], "m"))
    reopened = cache.load(key, mmap=True)
    # N processes opening the entry share one page-cache copy instead of
    # N private heap copies; the mapped view is a fixed snapshot.
    assert isinstance(reopened.included_values, np.memmap)
    assert isinstance(reopened.excluded_values, np.memmap)
    assert not reopened.appendable


def test_mmap_load_falls_back_to_private_copies(cache, monkeypatch):
    import repro.store.npz_source as npz_source

    relation = two_attr_relation()
    built = ExplanationCube(relation, ["a", "b"], "m")
    key = cube_key(relation, "m", ["a", "b"])
    cache.store(key, built)

    def unmappable(path, member):
        raise ValueError("member layout not mappable")

    monkeypatch.setattr(npz_source, "mmap_member", unmappable)
    reopened = cache.load(key, mmap=True)
    assert reopened is not None and not reopened.appendable
    assert not isinstance(reopened.included_values, np.memmap)
    assert _cubes_equal(built, reopened)


def test_load_without_mmap_returns_private_arrays(cache):
    relation = two_attr_relation()
    built = fixed_cube(ExplanationCube(relation, ["a", "b"], "m"))
    key = cube_key(relation, "m", ["a", "b"])
    cache.store(key, built)
    reopened = cache.load(key)
    assert not isinstance(reopened.included_values, np.memmap)
    assert _cubes_equal(built, reopened)


def test_fixed_cube_entry_has_no_appendable_state(cache):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    cache.store(key, fixed_cube(ExplanationCube(relation, ["a", "b"], "m")))
    for mmap in (False, True):
        reopened = cache.load(key, mmap=mmap)
        assert reopened is not None and not reopened.appendable


def test_missing_and_wrong_key_are_mmap_misses(cache):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    assert cache.load(key, mmap=True) is None
    cache.store(key, ExplanationCube(relation, ["a", "b"], "m"))
    assert cache.load(cube_key(relation, "m", ["a"]), mmap=True) is None


def test_corrupted_entry_is_an_mmap_miss(cache):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    path = cache.store(key, ExplanationCube(relation, ["a", "b"], "m"))
    path.write_bytes(b"\x00" * 64)
    assert cache.load(key, mmap=True) is None


def test_appendable_revival_matches_rebuild(cache):
    base = regime_relation(n=24)  # 3 rows per time point, ordered by time
    head = base.head(16 * 3)
    tail = base.take(np.arange(base.n_rows) >= 16 * 3)
    key = cube_key(head, "sales", ["cat"])
    cache.store(key, ExplanationCube(head, ["cat"], "sales"))

    revived = cache.load(key)
    assert revived is not None and revived.appendable
    revived.append(tail)
    full = ExplanationCube(base, ["cat"], "sales")
    assert revived.included_values.tobytes() == full.included_values.tobytes()
    assert revived.excluded_values.tobytes() == full.excluded_values.tobytes()

    # A memory-mapped load of the same entry is a fixed snapshot.
    mapped = cache.load(key, mmap=True)
    assert mapped is not None and not mapped.appendable


def test_store_leaves_no_temp_files(cache):
    relation = two_attr_relation()
    built = ExplanationCube(relation, ["a", "b"], "m")
    key = cube_key(relation, "m", ["a", "b"])
    cache.store(key, built)
    cache.store(key, built)  # overwrite is atomic too
    leftovers = [p for p in cache.directory.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []
    assert cache.load(key, mmap=True) is not None


def test_clear_makes_mmap_loads_miss(cache):
    relation = two_attr_relation()
    key = cube_key(relation, "m", ["a", "b"])
    cache.store(key, ExplanationCube(relation, ["a", "b"], "m"))
    assert cache.load(key, mmap=True) is not None
    assert cache.clear() == 1
    assert cache.load(key, mmap=True) is None
    assert cache.entries() == []


def _write_format2_entry(cache: RollupCache, key, cube: ExplanationCube):
    """Hand-write ``cube`` in the format-2 layout: the same header and
    series members as today, ``np.savez_compressed``-ed."""
    import json
    from dataclasses import asdict

    key_fields = asdict(key)
    key_fields["explain_by"] = list(key_fields["explain_by"])
    header = {
        "format": 2,
        "key": key_fields,
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
    cache.directory.mkdir(parents=True, exist_ok=True)
    path = cache.path_for(key)
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        overall=cube.overall_values,
        supports=cube.supports,
        included=cube.included_values,
        excluded=cube.excluded_values,
    )
    return path


def test_format2_entries_read_as_misses_and_are_overwritten(cache, capsys):
    from repro.cli import main

    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    path = _write_format2_entry(
        cache, key, fixed_cube(ExplanationCube(relation, ["cat"], "sales"))
    )
    assert main(["cache", "inspect", "--cache-dir", str(cache.directory)]) == 0
    assert "CORRUPT" in capsys.readouterr().out
    assert cache.load(key) is None
    assert cache.load(key, mmap=True) is None

    cube, hit = _load_or_build(cache, relation, ["cat"], "sales")
    assert not hit
    assert cache.path_for(key) == path
    mapped = cache.load(key, mmap=True)
    assert mapped is not None and isinstance(mapped.included_values, np.memmap)
    assert _cubes_equal(cube, mapped)
    assert main(["cache", "inspect", "--cache-dir", str(cache.directory)]) == 0
    out = capsys.readouterr().out
    assert "CORRUPT" not in out and "measure=sales" in out


# ----------------------------------------------------------------------
# Pipeline / facade integration
# ----------------------------------------------------------------------
def test_pipeline_cache_hit_second_run(tmp_path):
    relation = regime_relation()
    config = ExplainConfig(cache_dir=str(tmp_path))
    first = ExplainSession(relation, "sales", ("cat",), config=config)
    first.prepare()
    assert first.cache_hit is False
    second = ExplainSession(relation, "sales", ("cat",), config=config)
    second.prepare()
    assert second.cache_hit is True


def test_pipeline_without_cache_reports_none():
    session = ExplainSession(regime_relation(), "sales", ("cat",))
    session.prepare()
    assert session.cache_hit is None


def test_cached_and_fresh_results_identical(tmp_path):
    relation = two_attr_relation()
    fresh = TSExplain(relation, "m", ["a", "b"], k=2).explain()
    cold = TSExplain(relation, "m", ["a", "b"], k=2, cache_dir=str(tmp_path)).explain()
    warm = TSExplain(relation, "m", ["a", "b"], k=2, cache_dir=str(tmp_path)).explain()
    for result in (cold, warm):
        assert result.boundaries == fresh.boundaries
        for ours, theirs in zip(result.segments, fresh.segments):
            assert ours.explanations == theirs.explanations
            assert ours.variance == theirs.variance


def test_cached_cube_serves_other_configs(tmp_path):
    """Smoothing/filter/metric are outside the key: one entry, many configs."""
    relation = regime_relation()
    base = ExplainConfig(cache_dir=str(tmp_path))
    ExplainSession(relation, "sales", ("cat",), config=base).scorer()
    smoothed = ExplainSession(
        relation,
        "sales",
        ("cat",),
        config=base.updated(smoothing_window=3, use_filter=False),
    )
    smoothed.scorer()
    assert smoothed.cache_hit is True


def test_config_rejects_blank_cache_dir():
    with pytest.raises(ConfigError):
        ExplainConfig(cache_dir="   ")


def test_measure_rename_invalidates():
    """Same cell bytes under a renamed measure must not share an entry."""
    relation = regime_relation()
    renamed = relation.project(["t", "cat", "sales"])
    assert relation.fingerprint() == renamed.fingerprint()
    other = (
        relation.project(["t", "cat"])
        .with_column("volume", relation.column("sales"), AttributeKind.MEASURE)
    )
    assert relation.fingerprint() != other.fingerprint()


def test_cache_dir_tilde_is_expanded(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = RollupCache("~/rollups")
    assert cache.directory == tmp_path / "rollups"
    # Read-only operations neither require nor create the directory...
    assert cache.entries() == [] and cache.clear() == 0
    assert not cache.directory.exists()
    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    assert cache.load(key) is None
    assert not cache.directory.exists()
    # ...the first store creates it.
    cache.store(key, ExplanationCube(relation, ["cat"], "sales"))
    assert cache.directory.is_dir()
    assert cache.load(key) is not None


def test_clear_removes_orphaned_temp_files(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    # A writer killed between mkstemp and os.replace leaves a .tmp file.
    (cache.directory / f"orphan{CACHE_SUFFIX}.tmp").write_bytes(b"partial")
    assert cache.clear() == 2
    assert list(cache.directory.iterdir()) == []


def test_entries_do_not_load_series_arrays(cache, monkeypatch):
    """inspect must stay metadata-only: loading a series array is a bug."""
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    cache.store(cube_key(relation, "sales", ["cat"]), cube)
    import numpy.lib.npyio as npyio

    original = npyio.NpzFile.__getitem__

    def guarded(self, name):
        assert name == "header", f"entries() touched array member {name!r}"
        return original(self, name)

    monkeypatch.setattr(npyio.NpzFile, "__getitem__", guarded)
    entries = cache.entries()
    assert len(entries) == 1 and entries[0].valid


def test_store_rejects_non_json_values(cache):
    relation = regime_relation()
    cube = ExplanationCube(relation, ["cat"], "sales")
    weird = ExplanationCube.from_arrays(
        aggregate=cube.aggregate,
        measure=cube.measure,
        explain_by=cube.explain_by,
        labels=tuple(str(label).encode() for label in cube.labels),  # bytes: not JSON
        overall=cube.overall_values,
        explanations=cube.explanations,
        supports=cube.supports,
        included=cube.included_values,
        excluded=cube.excluded_values,
    )
    with pytest.raises(TypeError):
        cache.store(cube_key(relation, "sales", ["cat"]), weird)


def test_non_json_labels_degrade_to_uncached(cache):
    """datetime-style labels must not crash a cache-enabled explain."""
    import datetime

    from repro.relation.schema import Schema
    from repro.relation.table import Relation

    days = [datetime.date(2024, 1, d + 1) for d in range(6)]
    columns = {
        "t": np.asarray([d for d in days for _ in ("a", "b")], dtype=object),
        "cat": np.asarray(["a", "b"] * len(days), dtype=object),
        "sales": np.asarray(
            [float(i) for i, _ in enumerate(days) for _ in ("a", "b")]
        ),
    }
    schema = Schema.build(dimensions=["cat"], measures=["sales"], time="t")
    relation = Relation(columns, schema)
    cube, hit = _load_or_build(cache, relation, ["cat"], "sales")
    assert not hit
    assert cube.labels == tuple(days)
    assert cache.entries() == []  # nothing persisted, nothing crashed
    # And a second call is still a (correct) miss, never a crash.
    again, hit = _load_or_build(cache, relation, ["cat"], "sales")
    assert not hit and _cubes_equal(cube, again)


def test_custom_aggregate_bypasses_cache(cache):
    from repro.relation.aggregates import Sum

    class TrimmedSum(Sum):
        name = "sum"  # deliberately shadows the registry name

    relation = regime_relation()
    cube, hit = _load_or_build(cache, relation, ["cat"], "sales", aggregate=TrimmedSum())
    assert not hit
    assert cache.entries() == []  # never stored under the shadowed name
    # A genuine registry aggregate still caches normally afterwards.
    _load_or_build(cache, relation, ["cat"], "sales", aggregate="sum")
    _, hit = _load_or_build(cache, relation, ["cat"], "sales", aggregate="sum")
    assert hit


def test_fingerprint_distinguishes_cell_types():
    from tests.conftest import build_relation

    as_str = build_relation(
        {"t": ["t0", "t1"], "cat": np.asarray(["1", "2"], dtype=object), "m": [1.0, 2.0]},
        dimensions=["cat"], measures=["m"], time="t",
    )
    as_int = build_relation(
        {"t": ["t0", "t1"], "cat": np.asarray([1, 2], dtype=object), "m": [1.0, 2.0]},
        dimensions=["cat"], measures=["m"], time="t",
    )
    assert as_str.fingerprint() != as_int.fingerprint()


def test_max_entries_evicts_oldest(tmp_path):
    import os

    cache = RollupCache(tmp_path, max_entries=2)
    paths = []
    for switch in (8, 10, 12):
        relation = regime_relation(switch=switch)
        cube = ExplanationCube(relation, ["cat"], "sales")
        key = cube_key(relation, "sales", ["cat"])
        path = cache.store(key, cube)
        paths.append(path)
        os.utime(path, (switch, switch))  # deterministic ordering
    assert not paths[0].exists()  # oldest evicted
    assert paths[1].exists() and paths[2].exists()
    assert len(cache.entries()) == 2


def test_fingerprint_framing_resists_separator_injection():
    """Cell contents containing framing bytes must not collide."""
    from tests.conftest import build_relation

    def rel(values):
        return build_relation(
            {"t": ["t0", "t1"], "cat": np.asarray(values, dtype=object), "m": [1.0, 2.0]},
            dimensions=["cat"], measures=["m"], time="t",
        )

    left = rel(["a\x1fstr\x1eb", "c"])
    right = rel(["a", "b\x1fstr\x1ec"])
    assert left.fingerprint() != right.fingerprint()
    shifted = rel(["ab", "c"])
    also_shifted = rel(["a", "bc"])
    assert shifted.fingerprint() != also_shifted.fingerprint()


def test_eviction_spares_recently_loaded_entries(tmp_path):
    """Eviction is LRU: a hit refreshes the entry, store order alone does not."""
    import os

    cache = RollupCache(tmp_path, max_entries=2)
    keys = []
    for index, switch in enumerate((8, 10)):
        relation = regime_relation(switch=switch)
        key = cube_key(relation, "sales", ["cat"])
        path = cache.store(key, ExplanationCube(relation, ["cat"], "sales"))
        os.utime(path, (index + 1, index + 1))
        keys.append(key)
    assert cache.load(keys[0]) is not None  # refreshes mtime of the older entry
    relation = regime_relation(switch=12)
    cache.store(cube_key(relation, "sales", ["cat"]),
                ExplanationCube(relation, ["cat"], "sales"))
    assert cache.load(keys[0]) is not None  # hot entry survived
    assert cache.load(keys[1]) is None      # cold entry was evicted


def test_fingerprint_handles_bytes_columns():
    """S-dtype columns hash raw bytes: no decode crash, no str collision."""
    from tests.conftest import build_relation

    def rel(values):
        return build_relation(
            {"t": ["t0", "t1"], "cat": np.asarray(values), "m": [1.0, 2.0]},
            dimensions=["cat"], measures=["m"], time="t",
        )

    non_ascii = rel([b"caf\xc3\xa9", b"x"])
    assert non_ascii.fingerprint() == rel([b"caf\xc3\xa9", b"x"]).fingerprint()
    assert rel([b"ab", b"c"]).fingerprint() != rel(["ab", "c"]).fingerprint()


def test_unwritable_cache_dir_degrades_to_uncached(tmp_path):
    import os
    import sys

    if os.geteuid() == 0:  # root bypasses permission bits
        pytest.skip("permission test requires a non-root uid")
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(0o500)
    try:
        cache = RollupCache(locked)
        relation = regime_relation()
        cube, hit = _load_or_build(cache, relation, ["cat"], "sales")
        assert not hit and cube.n_explanations > 0
    finally:
        locked.chmod(0o700)


# ----------------------------------------------------------------------
# Cross-process racers: store/load/clear from two processes at once
# ----------------------------------------------------------------------
_RACER_SCRIPT = """
import sys, shutil, traceback
sys.path.insert(0, {src!r})
from repro.cube.cache import RollupCache, cube_key
from repro.cube.datacube import ExplanationCube
from repro.relation.schema import Schema
from repro.relation.table import Relation

directory = {directory!r}
role = {role!r}

def relation(shift):
    rows = {{"t": [], "cat": [], "m": []}}
    for t in range(6):
        for cat in ("a", "b"):
            rows["t"].append(f"t{{t}}")
            rows["cat"].append(cat)
            rows["m"].append(float(t * 2 + shift + (1 if cat == "a" else 0)))
    schema = Schema.build(dimensions=["cat"], measures=["m"], time="t")
    return Relation(rows, schema)

try:
    cache = RollupCache(directory, max_entries=2)
    pairs = []
    for shift in range(3):
        rel = relation(shift)
        pairs.append(
            (cube_key(rel, "m", ["cat"]), ExplanationCube(rel, ["cat"], "m"))
        )
    for round_ in range(40):
        key, cube = pairs[round_ % len(pairs)]
        cache.store(key, cube)  # also exercises LRU eviction (max_entries=2)
        loaded = cache.load(key)
        # A racer may clear between store and load; both outcomes are
        # legal, but a loaded cube must be complete and correct.
        if loaded is not None:
            assert loaded.explanations == cube.explanations
            assert loaded.included_values.tobytes() == cube.included_values.tobytes()
        cache.entries()
        if role == "destroyer" and round_ % 5 == 4:
            cache.clear()
        if role == "destroyer" and round_ % 11 == 10:
            # Harsher than clear(): remove the directory itself, which
            # store() must survive by re-creating it and retrying.
            shutil.rmtree(directory, ignore_errors=True)
except Exception:
    traceback.print_exc()
    sys.exit(1)
sys.exit(0)
"""


def test_two_process_store_clear_race(tmp_path):
    """Two processes hammering store/load/clear/rmtree never corrupt or crash.

    Regression test for the cross-process hardening: stores are atomic
    (temp file + rename) and retry once when a concurrent clear() — or an
    outright directory removal — yanks the cache out from under them;
    loads and entries() treat vanished files as misses, never as errors.
    """
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    directory = str(tmp_path / "shared-cache")
    processes = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                _RACER_SCRIPT.format(src=src, directory=directory, role=role),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for role in ("storer", "destroyer")
    ]
    outputs = [process.communicate(timeout=120) for process in processes]
    for process, (out, err) in zip(processes, outputs):
        assert process.returncode == 0, f"racer failed:\n{out}\n{err}"
    # The cache is still fully usable afterwards.
    cache = RollupCache(directory)
    relation = regime_relation()
    key = cube_key(relation, "sales", ["cat"])
    cache.store(key, ExplanationCube(relation, ["cat"], "sales"))
    assert cache.load(key) is not None
