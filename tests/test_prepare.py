"""The one prepare path: every session's cube comes from one cache-or-build.

A relation binds as a one-chunk :class:`~repro.store.RelationSource`, a
file as its own source, and :meth:`ExplainSession.prepare` keys, looks up,
builds (one :func:`~repro.store.scan_cubes_from_source`) and stores the
cube for both.  These tests pin what that unification must not change:
the cache keys, and the bytes of the cube and of every explanation.
"""

from __future__ import annotations

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.cache import CubeKey, RollupCache, cube_key
from repro.lattice import LatticeRouter, RollupSpec, build_lattice
from repro.obs.trace import start_trace
from repro.store import NpzSource, RelationSource, scan_cubes_from_source, write_npz
from tests.conftest import regime_relation, two_attr_relation

#: ``CubeKey.digest()`` of the regime relation's ``sales by cat`` cube,
#: keyed by the relation and by its npz snapshot, as computed before the
#: relation and source paths were merged.  Cache entries written then must
#: still be hits.
RELATION_KEY_DIGEST = "40e820844c878a337e472aad51a932ede4c053e067f212858321606c0229545e"
SNAPSHOT_KEY_DIGEST = "a2a248566cd402f84a2592fda3e13e8ed31bd1f5a4f1262f31e5e8b5fbd58396"


def _expected_key(fingerprint: str, measure: str, explain_by) -> CubeKey:
    config = ExplainConfig()
    return CubeKey(
        fingerprint=fingerprint,
        measure=measure,
        explain_by=tuple(sorted(explain_by)),
        aggregate="sum",
        time_attr="t",
        max_order=config.max_order,
        deduplicate=config.deduplicate,
    )


class TestKeys:
    def test_relation_session_keys_by_the_relation_fingerprint(self):
        relation = regime_relation()
        key = ExplainSession(relation, "sales", ["cat"]).cube_key()
        assert key == _expected_key(relation.fingerprint(), "sales", ["cat"])
        assert key == cube_key(relation, "sales", ["cat"])
        assert key.digest() == RELATION_KEY_DIGEST

    def test_source_session_keys_by_the_source_fingerprint(self, tmp_path):
        relation = regime_relation()
        write_npz(relation, tmp_path / "r.npz")
        source = NpzSource(tmp_path / "r.npz")
        key = ExplainSession(source).cube_key()
        assert key == _expected_key("src-" + source.fingerprint(), "sales", ["cat"])
        assert key.digest() == SNAPSHOT_KEY_DIGEST

    def test_a_stored_relation_cube_is_a_hit_for_the_next_session(self, tmp_path):
        relation = regime_relation()
        cache_dir = str(tmp_path / "cache")
        cold = ExplainSession(relation, "sales", ["cat"], cache_dir=cache_dir).prepare()
        assert cold.cache_hit is False
        assert RollupCache(cache_dir).load(cold.cube_key()) is not None
        warm = ExplainSession(relation, "sales", ["cat"], cache_dir=cache_dir).prepare()
        assert warm.cache_hit is True and warm.ingest_report.cache_hit


def _explain_hex(result) -> tuple:
    """Every number of a result that a prepare path could perturb, exactly."""
    return (
        result.boundaries,
        result.k,
        result.total_variance.hex(),
        tuple((k, value.hex()) for k, value in sorted(result.k_variance_curve.items())),
        tuple(
            (
                segment.variance.hex(),
                tuple(
                    (repr(s.explanation), s.gamma.hex(), s.tau)
                    for s in segment.explanations
                ),
            )
            for segment in result.segments
        ),
    )


def _cube_bytes(cube) -> tuple:
    return (
        tuple(str(label) for label in cube.labels),
        tuple(repr(conj) for conj in cube.explanations),
        cube.supports.tobytes(),
        cube.overall_values.tobytes(),
        cube.included_values.tobytes(),
        cube.excluded_values.tobytes(),
    )


def test_relation_chunked_source_and_lattice_route_agree_byte_for_byte(tmp_path):
    relation = two_attr_relation()
    write_npz(relation, tmp_path / "r.npz")
    config = ExplainConfig(use_filter=False)
    binding = dict(measure="m", explain_by=("a", "b"), config=config)

    direct = ExplainSession(relation, **binding)
    chunked = ExplainSession(NpzSource(tmp_path / "r.npz"), chunk_rows=7, **binding)
    # A var root answers the sum request by derivation from its ledger.
    cubes, _ = build_lattice(
        relation,
        [RollupSpec(dims=("a", "b"), measure="m", aggregate="var", max_order=config.max_order)],
    )
    router = LatticeRouter.for_source(relation)
    router.seed(cubes)
    routed = ExplainSession.from_lattice(router, relation, **binding)

    chunked.prepare()
    assert chunked.ingest_report.out_of_core and chunked.ingest_report.chunks > 1
    assert routed.route_info.decision == "derived"
    reference = _cube_bytes(direct.cube)
    assert _cube_bytes(chunked.cube) == reference
    assert _cube_bytes(routed.cube) == reference
    expected = _explain_hex(direct.explain())
    assert _explain_hex(chunked.explain()) == expected
    assert _explain_hex(routed.explain()) == expected


class TestBuildClock:
    def test_ingest_build_seconds_is_the_ingest_span(self):
        with start_trace("probe", sampled=False) as trace:
            _, report = scan_cubes_from_source(
                RelationSource(regime_relation()),
                [{"explain_by": ["cat"], "measure": "sales"}],
            )
        (ingest,) = [s for s in trace.spans if s.name == "ingest"]
        assert report.build_seconds == ingest.duration > 0

    def test_lattice_build_seconds_is_the_lattice_build_span(self):
        with start_trace("probe", sampled=False) as trace:
            _, report = build_lattice(
                two_attr_relation(),
                [RollupSpec(dims=("a", "b"), measure="m"), RollupSpec(dims=("a",), measure="m")],
            )
        (build,) = [s for s in trace.spans if s.name == "lattice-build"]
        assert report.build_seconds == build.duration > 0
        # The scan inside it is one ingest span, charged to the build.
        (ingest,) = [s for s in trace.spans if s.name == "ingest"]
        assert ingest.parent_id == build.span_id


def test_a_session_build_is_one_cube_build_span_holding_an_ingest():
    with start_trace("probe", sampled=False) as trace:
        session = ExplainSession(regime_relation(), "sales", ["cat"]).prepare()
    (build,) = [s for s in trace.spans if s.name == "cube-build"]
    (ingest,) = [s for s in trace.spans if s.name == "ingest"]
    assert ingest.parent_id == build.span_id
    assert session.ingest_report.build_seconds == ingest.duration
    # A relation is read whole and kept, never re-read.
    assert not session.ingest_report.out_of_core
    assert session.ingest_report.relation is session.relation
