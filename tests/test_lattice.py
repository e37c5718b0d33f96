"""Unit, negative-path and concurrency tests for the rollup-lattice tier.

The metamorphic equivalence harness (routed == direct, derived == scratch,
single-scan == N independent builds, over random relations) lives in
``tests/test_properties.py``; this module pins the tier's contracts:

- spec parsing / validation and the greedy root planner;
- derivability rules and the derive error paths;
- manifest round-trips and the **loud-failure** contract (a corrupt
  manifest or a fingerprint mismatch raises
  :class:`~repro.exceptions.QueryError` — never a silent rebuild);
- router decisions (exact / derived / miss), the ``lattice_miss``
  counters and the promotion policy;
- the single-scan multi-cube ingestion entry point;
- session + registry integration, including the single-flight guarantee
  that N concurrent cold requests trigger exactly one derivation;
- the ``repro lattice build|inspect`` CLI and ``explain --lattice``.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.cache import MANIFEST_SUFFIX, RollupCache
from repro.cube.datacube import ExplanationCube
from repro.datasets.base import Dataset
from repro.exceptions import ExplanationError, QueryError
from repro.lattice import (
    LatticeManifest,
    LatticeRouter,
    RollupSpec,
    build_lattice,
    can_derive,
    covering_aggregate,
    default_lattice,
    derive_rollup,
    parse_rollup_spec,
    plan_roots,
    rollup_key,
    spec_of_cube,
)
from repro.relation.csvio import write_csv
from repro.serve.registry import DatasetSpec, SessionRegistry
from tests.conftest import fixed_cube, two_attr_relation


def spec(dims=("a", "b"), measure="m", aggregate="sum", max_order=3, **kw):
    return RollupSpec(dims=tuple(dims), measure=measure, aggregate=aggregate, max_order=max_order, **kw)


def assert_cubes_identical(left, right):
    assert left.labels == right.labels
    assert left.explanations == right.explanations
    assert left.supports.tobytes() == right.supports.tobytes()
    assert left.overall_values.tobytes() == right.overall_values.tobytes()
    assert left.included_values.tobytes() == right.included_values.tobytes()
    assert left.excluded_values.tobytes() == right.excluded_values.tobytes()


# ----------------------------------------------------------------------
# Specs and planning
# ----------------------------------------------------------------------
class TestRollupSpec:
    def test_dims_are_normalized_to_sorted_order(self):
        assert spec(dims=("b", "a")).dims == ("a", "b")
        assert spec(dims=("b", "a")) == spec(dims=("a", "b"))

    def test_empty_dims_rejected(self):
        with pytest.raises(QueryError, match="at least one dimension"):
            spec(dims=())

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(Exception):
            spec(aggregate="median-of-medians")

    def test_bad_max_order_rejected(self):
        with pytest.raises(QueryError, match="max_order"):
            spec(max_order=0)

    def test_effective_order_clamps_to_dims(self):
        assert spec(dims=("a",), max_order=3).effective_order == 1
        assert spec(dims=("a", "b"), max_order=1).effective_order == 1

    def test_describe(self):
        assert spec(aggregate="var").describe() == "a,b@var"

    def test_parse_round_trip(self):
        parsed = parse_rollup_spec("b, a @ var", "m", max_order=2)
        assert parsed == spec(aggregate="var", max_order=2)
        assert parse_rollup_spec("a,b", "m", aggregate="avg").aggregate == "avg"

    def test_parse_rejects_empty_dims(self):
        with pytest.raises(QueryError, match="no dimensions"):
            parse_rollup_spec("@sum", "m")

    def test_default_lattice_is_full_shape_plus_singles(self):
        specs = default_lattice(("b", "a"), "m", aggregate="avg")
        assert specs[0].dims == ("a", "b")
        assert {s.dims for s in specs} == {("a", "b"), ("a",), ("b",)}
        # A single-dimension query collapses to one spec, not a duplicate.
        assert len(default_lattice(("a",), "m")) == 1

    def test_rollup_key_matches_classic_cache_key(self):
        from repro.cube.cache import cube_key

        relation = two_attr_relation()
        classic = cube_key(relation, "m", ("a", "b"), aggregate="sum", max_order=3, deduplicate=True)
        assert rollup_key(relation.fingerprint(), spec(), "t") == classic


class TestPlanning:
    def test_default_lattice_has_one_root(self):
        roots, derived_from = plan_roots(default_lattice(("a", "b"), "m", aggregate="var"))
        assert roots == [spec(aggregate="var")]
        assert set(derived_from) == {spec(dims=("a",), aggregate="var"), spec(dims=("b",), aggregate="var")}
        assert all(root == spec(aggregate="var") for root in derived_from.values())

    def test_wider_aggregate_covers_narrower(self):
        roots, derived_from = plan_roots([spec(aggregate="sum"), spec(aggregate="var")])
        assert roots == [spec(aggregate="var")]
        assert derived_from[spec(aggregate="sum")] == spec(aggregate="var")

    def test_disjoint_dims_need_two_roots(self):
        roots, _ = plan_roots([spec(dims=("a",)), spec(dims=("b",))])
        assert len(roots) == 2

    def test_duplicates_collapse(self):
        roots, derived_from = plan_roots([spec(), spec(), spec()])
        assert roots == [spec()] and not derived_from

    def test_covering_aggregate(self):
        assert covering_aggregate(["sum"]) == "sum"
        assert covering_aggregate(["sum", "count"]) == "avg"
        assert covering_aggregate(["avg", "sum"]) == "avg"
        assert covering_aggregate(["var", "sum"]) == "var"
        with pytest.raises(QueryError):
            covering_aggregate(["sum", "made-up"])


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
class TestDerive:
    def test_can_derive_rules(self):
        fine = spec(aggregate="var")
        assert can_derive(fine, spec(dims=("a",), aggregate="sum"))
        assert can_derive(fine, fine)
        # dims must be a subset of the source's
        assert not can_derive(spec(dims=("a",)), spec(dims=("a", "b")))
        # components must be covered: sum holds no counts
        assert not can_derive(spec(aggregate="sum"), spec(aggregate="count"))
        assert not can_derive(spec(aggregate="avg"), spec(aggregate="var"))
        # measure and deduplicate must match exactly
        assert not can_derive(fine, spec(measure="other", aggregate="sum"))
        assert not can_derive(fine, spec(aggregate="sum", deduplicate=False))
        # a coarser source cannot serve a deeper conjunction order
        assert not can_derive(spec(max_order=1), spec(max_order=2))
        # ... but raw max_order above the dim count is clamped, not compared
        assert can_derive(spec(max_order=2), spec(max_order=5))

    def test_derive_requires_ledger(self):
        relation = two_attr_relation()
        cube = fixed_cube(ExplanationCube(relation, ("a", "b"), "m"))
        with pytest.raises(ExplanationError, match="ledger|append"):
            derive_rollup(cube, spec(dims=("a",)))

    def test_derive_rejects_uncoverable_target(self):
        relation = two_attr_relation()
        cube = ExplanationCube(relation, ("a", "b"), "m")
        with pytest.raises(QueryError):
            derive_rollup(cube, spec(aggregate="count"))

    def test_derived_cube_matches_scratch_build(self):
        relation = two_attr_relation()
        fine = ExplanationCube(relation, ("a", "b"), "m", aggregate="var")
        assert spec_of_cube(fine) == spec(aggregate="var")
        for target in (spec(dims=("a",), aggregate="avg"), spec(aggregate="sum")):
            derived = derive_rollup(fine, target)
            scratch = ExplanationCube(
                relation, target.dims, "m", aggregate=target.aggregate, max_order=target.max_order
            )
            assert_cubes_identical(derived, scratch)

    def test_derived_cube_keeps_its_own_ledger(self):
        """A derived rollup can itself serve further derivations."""
        relation = two_attr_relation()
        fine = ExplanationCube(relation, ("a", "b"), "m", aggregate="var")
        mid = derive_rollup(fine, spec(aggregate="avg"))
        assert mid.appendable
        coarse = derive_rollup(mid, spec(dims=("a",), aggregate="sum"))
        scratch = ExplanationCube(relation, ("a",), "m", aggregate="sum")
        assert_cubes_identical(coarse, scratch)


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self):
        manifest = (
            LatticeManifest(fingerprint="fp", time_attr="t")
            .with_entry(spec(aggregate="var"), "built")
            .with_entry(spec(dims=("a",)), "derived")
        )
        loaded = LatticeManifest.from_payload(manifest.to_payload(), expected_fingerprint="fp")
        assert loaded == manifest
        assert spec(dims=("a",)) in loaded
        assert loaded.get(spec(dims=("a",))).origin == "derived"

    def test_with_entry_replaces_same_spec(self):
        manifest = LatticeManifest(fingerprint="fp", time_attr="t").with_entry(spec(), "built")
        manifest = manifest.with_entry(spec(), "promoted")
        assert len(manifest.entries) == 1
        assert manifest.entries[0].origin == "promoted"

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {},
            {"format": 999, "fingerprint": "fp", "time_attr": "t", "rollups": []},
            {"format": 1, "fingerprint": "fp", "time_attr": "t", "rollups": [{"dims": []}]},
            {"format": 1, "fingerprint": "fp", "time_attr": "t", "rollups": "nope"},
        ],
    )
    def test_malformed_payloads_raise_query_error(self, payload):
        with pytest.raises(QueryError):
            LatticeManifest.from_payload(payload, expected_fingerprint="fp")

    def test_fingerprint_mismatch_raises(self):
        payload = LatticeManifest(fingerprint="other", time_attr="t").to_payload()
        with pytest.raises(QueryError, match="fingerprint"):
            LatticeManifest.from_payload(payload, expected_fingerprint="fp")


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
class TestBuildLattice:
    def test_single_scan_builds_roots_and_derives_the_rest(self, tmp_path):
        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        specs = default_lattice(("a", "b"), "m", aggregate="var")
        cubes, report = build_lattice(relation, specs, cache=cache)
        assert set(cubes) == set(specs)
        assert report.built == (spec(aggregate="var"),)
        assert set(report.derived) == {
            spec(dims=("a",), aggregate="var"),
            spec(dims=("b",), aggregate="var"),
        }
        assert report.rows == relation.n_rows
        # 3 cubes + 1 manifest persisted
        assert report.stored == 4
        for one in specs:
            assert cache.load(rollup_key(report.fingerprint, one, "t")) is not None

    def test_empty_specs_rejected(self):
        with pytest.raises(QueryError):
            build_lattice(two_attr_relation(), [])

    def test_empty_relation_rejected(self):
        relation = two_attr_relation().take(np.arange(0))
        with pytest.raises(QueryError):
            build_lattice(relation, [spec()])

    def test_rebuild_merges_with_existing_manifest(self, tmp_path):
        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        build_lattice(relation, [spec(aggregate="var")], cache=cache)
        build_lattice(relation, [spec(aggregate="avg")], cache=cache)
        router = LatticeRouter.for_source(relation, cache=cache)
        assert {entry.spec for entry in router.manifest.entries} == {
            spec(aggregate="var"),
            spec(aggregate="avg"),
        }

    def test_rebuild_overwrites_a_corrupt_manifest(self, tmp_path):
        """build is the recovery path: it must not choke on corruption."""
        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        cache.manifest_path_for(relation.fingerprint()).write_text("{not json")
        build_lattice(relation, [spec()], cache=cache)
        router = LatticeRouter.for_source(relation, cache=cache)
        cube, info = router.route(spec())
        assert info.decision == "exact" and cube is not None


# ----------------------------------------------------------------------
# Router: decisions, loud failures, promotion
# ----------------------------------------------------------------------
class TestRouter:
    def _built(self, tmp_path, specs=None, aggregate="var"):
        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        specs = specs or default_lattice(("a", "b"), "m", aggregate=aggregate)
        build_lattice(relation, specs, cache=cache)
        return relation, cache

    def test_exact_and_derived_and_miss(self, tmp_path):
        relation, cache = self._built(tmp_path)
        router = LatticeRouter.for_source(relation, cache=cache)
        cube, info = router.route(spec(aggregate="var"))
        assert info.decision == "exact" and cube is not None
        cube, info = router.route(spec(dims=("a",), aggregate="sum"))
        assert info.decision == "derived"
        assert info.served_by == spec(dims=("a",), aggregate="var")
        assert_cubes_identical(
            cube, ExplanationCube(relation, ("a",), "m", aggregate="sum")
        )
        missing = spec(deduplicate=False)
        cube, info = router.route(missing)
        assert cube is None and info.decision == "miss"
        stats = router.stats()
        assert stats["exact_hits"] == 1
        assert stats["derived_hits"] == 1 and stats["derivations"] == 1
        assert stats["lattice_miss"] == 1

    def test_derivation_is_persisted_for_the_next_process(self, tmp_path):
        relation, cache = self._built(tmp_path)
        router = LatticeRouter.for_source(relation, cache=cache)
        router.route(spec(aggregate="sum"))
        fresh = LatticeRouter.for_source(relation, cache=cache)
        cube, info = fresh.route(spec(aggregate="sum"))
        assert info.decision == "exact" and cube is not None
        assert fresh.manifest.get(spec(aggregate="sum")).origin == "derived"

    def test_corrupt_manifest_raises_not_silent_rebuild(self, tmp_path):
        relation, cache = self._built(tmp_path)
        cache.manifest_path_for(relation.fingerprint()).write_text("{not json")
        with pytest.raises(QueryError):
            LatticeRouter.for_source(relation, cache=cache)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        relation, cache = self._built(tmp_path)
        fingerprint = relation.fingerprint()
        payload = cache.load_manifest_payload(fingerprint)
        payload["fingerprint"] = "someone-elses-data"
        cache.store_manifest_payload(fingerprint, payload)
        with pytest.raises(QueryError, match="fingerprint"):
            LatticeRouter.for_source(relation, cache=cache)
        with pytest.raises(QueryError, match="fingerprint"):
            LatticeRouter(
                "fp-a", "t", manifest=LatticeManifest(fingerprint="fp-b", time_attr="t")
            )

    def test_listed_but_unloadable_rollup_raises(self, tmp_path):
        relation, cache = self._built(tmp_path)
        fingerprint = relation.fingerprint()
        cache.path_for(rollup_key(fingerprint, spec(aggregate="var"), "t")).unlink()
        router = LatticeRouter.for_source(relation, cache=cache)
        with pytest.raises(QueryError, match="rebuild the lattice"):
            router.route(spec(aggregate="var"))

    def test_promotion_after_repeated_misses(self):
        relation = two_attr_relation()
        router = LatticeRouter.for_source(relation, promote_after=2)
        shape = spec(aggregate="sum")
        built = ExplanationCube(relation, ("a", "b"), "m")
        assert router.route(shape)[1].decision == "miss"
        assert not router.record_build(shape, built)  # 1 miss < promote_after
        assert router.route(shape)[1].decision == "miss"
        assert router.record_build(shape, built)  # popular now
        cube, info = router.route(shape)
        assert info.decision == "exact" and cube is built
        stats = router.stats()
        assert stats["promotions"] == 1 and stats["lattice_miss"] == 2
        # Promoted shapes serve derivations like any lattice member.
        assert router.route(spec(dims=("a",)))[1].decision == "derived"

    def test_ledgerless_cubes_are_not_promoted(self):
        relation = two_attr_relation()
        router = LatticeRouter.for_source(relation, promote_after=1)
        shape = spec(aggregate="sum")
        router.route(shape)
        assert not router.record_build(
            shape, fixed_cube(ExplanationCube(relation, ("a", "b"), "m"))
        )

    def test_promote_after_validation(self):
        with pytest.raises(QueryError):
            LatticeRouter("fp", "t", promote_after=0)


# ----------------------------------------------------------------------
# Single-scan multi-cube ingestion
# ----------------------------------------------------------------------
class TestScanCubesFromSource:
    def test_one_scan_matches_independent_builds(self, tmp_path):
        from repro.store import NpzSource, scan_cubes_from_source, write_npz

        relation = two_attr_relation()
        write_npz(relation, tmp_path / "r.npz")
        source = NpzSource(tmp_path / "r.npz")
        queries = [
            {"explain_by": ("a", "b"), "measure": "m", "aggregate": "var"},
            {"explain_by": ("a",), "measure": "m", "aggregate": "sum", "max_order": 2},
        ]
        cubes, report = scan_cubes_from_source(source, queries, chunk_rows=13)
        assert report.out_of_core and report.chunks > 1
        assert report.rows == relation.n_rows
        assert_cubes_identical(
            cubes[0], ExplanationCube(relation, ("a", "b"), "m", aggregate="var")
        )
        assert_cubes_identical(
            cubes[1], ExplanationCube(relation, ("a",), "m", aggregate="sum", max_order=2)
        )

    def test_empty_query_list_rejected(self, tmp_path):
        from repro.store import NpzSource, scan_cubes_from_source, write_npz

        write_npz(two_attr_relation(), tmp_path / "r.npz")
        with pytest.raises(QueryError):
            scan_cubes_from_source(NpzSource(tmp_path / "r.npz"), [])


# ----------------------------------------------------------------------
# Session integration
# ----------------------------------------------------------------------
class TestSessionFromLattice:
    def test_requires_exactly_one_data_binding(self):
        relation = two_attr_relation()
        router = LatticeRouter.for_source(relation)
        # The one binding must be the data the router is keyed by ...
        with pytest.raises(QueryError):
            ExplainSession.from_lattice(router, relation.head(5))
        # ... and must resolve to a bound source.
        with pytest.raises(QueryError):
            ExplainSession.from_lattice(router, "csv:x.csv")

    def test_exact_route_prepares_without_building(self, tmp_path):
        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        build_lattice(relation, default_lattice(("a", "b"), "m"), cache=cache)
        router = LatticeRouter.for_source(relation, cache=cache)
        session = ExplainSession.from_lattice(
            router, relation, measure="m", explain_by=("a", "b")
        )
        assert session.prepared
        assert session.route_info.decision == "exact"
        result = session.query().run()
        direct = ExplainSession(relation, measure="m", explain_by=("a", "b")).query().run()
        assert result.k == direct.k and result.boundaries == direct.boundaries

    def test_miss_falls_back_and_feeds_promotion(self):
        relation = two_attr_relation()
        router = LatticeRouter.for_source(relation)  # empty lattice
        decisions = []
        for _ in range(3):
            session = ExplainSession.from_lattice(
                router, relation, measure="m", explain_by=("a", "b")
            )
            assert session.prepared
            decisions.append(session.route_info.decision)
        # miss, miss (promoted on record_build), exact from then on
        assert decisions == ["miss", "miss", "exact"]
        assert router.stats()["promotions"] == 1


# ----------------------------------------------------------------------
# Registry integration + the single-flight derivation guarantee
# ----------------------------------------------------------------------
def lattice_dataset(relation):
    return Dataset(
        name="regime",
        relation=relation,
        measure="m",
        explain_by=("a", "b"),
        aggregate="sum",
    )


class TestRegistryLattice:
    def test_lattice_spec_routes_and_counts(self, tmp_path):
        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        config = ExplainConfig.optimized()
        build_lattice(
            relation,
            [spec(aggregate="var", max_order=config.max_order)],
            cache=cache,
        )
        registry = SessionRegistry(
            [DatasetSpec.from_dataset(lattice_dataset(relation), config=config, lattice=True)],
            cache_dir=str(tmp_path),
        )
        session = registry.session("regime")
        assert session.route_info.decision == "derived"
        stats = registry.stats()
        assert stats["lattice"]["derived_hits"] == 1
        assert stats["lattice"]["routers"] == 1

    def test_concurrent_cold_requests_trigger_exactly_one_derivation(self, tmp_path):
        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        config = ExplainConfig.optimized()
        build_lattice(
            relation,
            [spec(aggregate="var", max_order=config.max_order)],
            cache=cache,
        )
        release = threading.Event()
        loads = []

        def slow_loader():
            loads.append(1)
            release.wait(timeout=10.0)
            return lattice_dataset(relation)

        registry = SessionRegistry(
            [DatasetSpec(name="regime", loader=slow_loader, config=config, lattice=True)],
            cache_dir=str(tmp_path),
        )
        sessions: list = []
        threads = [
            threading.Thread(target=lambda: sessions.append(registry.session("regime")))
            for _ in range(6)
        ]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(timeout=15.0)
        assert len(sessions) == 6
        assert all(session is sessions[0] for session in sessions)
        assert len(loads) == 1, "cold lattice prepares must coalesce"
        lattice_stats = registry.lattice_stats()
        assert lattice_stats["derivations"] == 1, (
            "N concurrent requests for one un-prepared shape must pay "
            "exactly one derivation"
        )
        assert lattice_stats["derived_hits"] == 1

    def test_stats_endpoint_exposes_lattice_counters(self, tmp_path):
        import urllib.request

        from repro.serve.http import make_app

        relation = two_attr_relation()
        cache = RollupCache(tmp_path)
        build_lattice(
            relation,
            default_lattice(("a", "b"), "m", max_order=ExplainConfig.optimized().max_order),
            cache=cache,
        )
        app = make_app(
            datasets=[], port=0, cache_dir=str(tmp_path), lattice=True, access_log=False
        )
        app.registry.register(
            DatasetSpec.from_dataset(lattice_dataset(relation), lattice=True)
        )
        app.start()
        try:
            with urllib.request.urlopen(f"{app.url}/explain?dataset=regime") as response:
                assert json.loads(response.read())["k"] >= 1
            with urllib.request.urlopen(f"{app.url}/stats") as response:
                stats = json.loads(response.read())
            with urllib.request.urlopen(f"{app.url}/metrics") as response:
                exposition = response.read().decode("utf-8")
        finally:
            app.shutdown()
        lattice = stats["registry"]["lattice"]
        assert lattice["exact_hits"] + lattice["derived_hits"] >= 1
        # The routing decision also lands on the Prometheus surface.
        from repro.obs.metrics import parse_exposition

        samples = parse_exposition(exposition)
        routed = sum(
            value
            for (name, labels), value in samples.items()
            if name == "repro_lattice_routes_total"
            and dict(labels)["decision"] in ("exact", "derived")
        )
        assert routed >= 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def csv_query(tmp_path):
    """A small CSV plus the flags every lattice CLI invocation needs."""
    relation = two_attr_relation()
    path = tmp_path / "r.csv"
    write_csv(relation, path)
    flags = [
        "--csv", str(path),
        "--time", "t",
        "--dimensions", "a,b",
        "--measure", "m",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    return relation, flags


class TestLatticeCli:
    def test_build_then_inspect_then_routed_explain(self, csv_query, capsys):
        from repro.cli import main

        relation, flags = csv_query
        assert main(["lattice", "build", *flags]) == 0
        out = capsys.readouterr().out
        assert "1 built in one scan" in out and "stored 3 rollup(s) + manifest" in out

        assert main(["lattice", "inspect", "--cache-dir", flags[-1]]) == 0
        out = capsys.readouterr().out
        assert "a,b@sum" in out and "[built]" in out

        assert main(["explain", *flags, "--lattice"]) == 0
        out = capsys.readouterr().out
        assert "lattice: exact from a,b@sum" in out

        assert main(["explain", *flags, "--lattice", "--explain-by", "a", "--aggregate", "sum"]) == 0
        out = capsys.readouterr().out
        assert "lattice: exact from a@sum" in out

    def test_explicit_rollups_flag(self, csv_query, capsys):
        from repro.cli import main

        _, flags = csv_query
        assert main(["lattice", "build", *flags, "--rollups", "a,b@var;a@avg"]) == 0
        out = capsys.readouterr().out
        assert "a,b@var" in out and "a@avg" in out and "derived" in out

    def test_explain_lattice_requires_cache_dir(self, csv_query, capsys):
        from repro.cli import main

        _, flags = csv_query
        no_cache = flags[:-2]  # strip --cache-dir
        assert main(["explain", *no_cache, "--lattice"]) == 2
        assert "--lattice needs --cache-dir" in capsys.readouterr().err

    def test_inspect_reports_corrupt_manifests(self, csv_query, capsys):
        from repro.cli import main

        _, flags = csv_query
        cache_dir = flags[-1]
        assert main(["lattice", "build", *flags]) == 0
        capsys.readouterr()
        next(RollupCache(cache_dir).directory.glob(f"*{MANIFEST_SUFFIX}")).write_text("{nope")
        assert main(["lattice", "inspect", "--cache-dir", cache_dir]) == 1
        captured = capsys.readouterr()
        assert "unreadable" in captured.err

    def test_serve_parser_accepts_lattice_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--lattice", "--max-requests", "1"])
        assert args.lattice is True
        args = build_parser().parse_args(["explain", "--dataset", "sp500", "--lattice"])
        assert args.lattice is True
