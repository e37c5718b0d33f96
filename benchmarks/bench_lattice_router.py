"""The rollup-lattice prepare tier vs. per-shape builds (PR-6 claims).

Two claims, recorded in ``benchmarks/BENCH_lattice.json``:

1. **Cold**: building a lattice of N rollup shapes in a single pass —
   one scan feeding every root ledger, coarser shapes derived by
   re-aggregation — is >= 2x faster than building the N cubes
   independently from the relation.  The cubes are asserted byte-equal
   first, so the speedup never comes from computing something weaker.
2. **Warm**: answering a prepared shape through the
   :class:`~repro.lattice.router.LatticeRouter` (resident rollup) stays
   within 2x of the classic exact rollup-cache hit (p50 and p95 over
   repeated session prepares; in practice routing is faster — it skips
   the fingerprint + disk round trip).
"""

import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from repro.cube.cache import RollupCache
from repro.cube.datacube import ExplanationCube
from repro.lattice import LatticeRouter, RollupSpec, build_lattice, rollup_key
from repro.relation.schema import Schema
from repro.relation.table import Relation
from support import append_run, emit, git_rev, is_paper_scale, scale

BENCH_JSON = Path(__file__).parent / "BENCH_lattice.json"

WARM_ROUNDS = 30


def synthetic_table(n_times: int) -> Relation:
    """A time-ordered table: 8 regions x 25 products, 2 rows per cell."""
    n_regions, n_products, dup = 8, 25, 2
    per_time = n_regions * n_products * dup
    rng = np.random.default_rng(20230786)
    times = np.repeat(
        np.asarray([f"d{t:04d}" for t in range(n_times)], dtype=object), per_time
    )
    regions = np.tile(
        np.repeat(
            np.asarray([f"r{i}" for i in range(n_regions)], dtype=object),
            n_products * dup,
        ),
        n_times,
    )
    products = np.tile(
        np.repeat(
            np.asarray([f"p{i:02d}" for i in range(n_products)], dtype=object), dup
        ),
        n_times * n_regions,
    )
    values = rng.normal(100.0, 15.0, size=n_times * per_time)
    schema = Schema.build(
        dimensions=["region", "product"], measures=["revenue"], time="day"
    )
    return Relation(
        {"day": times, "region": regions, "product": products, "revenue": values},
        schema,
    )


def lattice_specs(max_order: int) -> list[RollupSpec]:
    """Six shapes; the planner collapses them to ONE scan root (var)."""
    full = ("product", "region")
    specs = [
        RollupSpec(dims=full, measure="revenue", aggregate=agg, max_order=max_order)
        for agg in ("var", "avg", "sum", "count")
    ]
    specs += [
        RollupSpec(dims=(dim,), measure="revenue", aggregate="sum", max_order=max_order)
        for dim in full
    ]
    return specs


def _percentiles(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    p50 = statistics.median(ordered)
    p95 = ordered[min(len(ordered) - 1, int(round(0.95 * (len(ordered) - 1))))]
    return p50, p95


def bench_lattice_router(benchmark, tmp_path):
    n_times = 160 if is_paper_scale() else 48
    relation = synthetic_table(n_times)
    config = ExplainConfig.optimized()
    specs = lattice_specs(config.max_order)

    # --- cold: N independent builds, one relation pass each -----------
    started = time.perf_counter()
    independent = {
        spec: ExplanationCube(
            relation,
            spec.dims,
            spec.measure,
            aggregate=spec.aggregate,
            max_order=spec.max_order,
        )
        for spec in specs
    }
    independent_seconds = time.perf_counter() - started

    # --- cold: one scan + ledger re-aggregation ------------------------
    started = time.perf_counter()
    cubes, report = build_lattice(relation, specs)
    lattice_seconds = time.perf_counter() - started
    assert len(report.built) == 1, "the planner must collapse to one scan root"

    # Equivalence before speed: byte-identical to the independent builds.
    for spec in specs:
        assert cubes[spec].included_values.tobytes() == independent[spec].included_values.tobytes()
        assert cubes[spec].explanations == independent[spec].explanations
    speedup = independent_seconds / lattice_seconds

    # --- warm: routed resident rollup vs exact rollup-cache hit --------
    cache = RollupCache(tmp_path / "cache")
    full_sum = next(s for s in specs if len(s.dims) == 2 and s.aggregate == "sum")
    key = rollup_key(relation.fingerprint(), full_sum, "day")
    cache.store(key, cubes[full_sum])
    assert cache.load(key) is not None

    router = LatticeRouter.for_source(relation)
    router.seed(cubes)
    hit_config = config.updated(cache_dir=str(tmp_path / "cache"))

    def routed_prepare():
        session = ExplainSession.from_lattice(
            router,
            relation,
            measure="revenue",
            explain_by=("product", "region"),
            config=config,
        )
        assert session.route_info.decision == "exact"
        return session

    def exact_hit_prepare():
        session = ExplainSession(
            relation,
            measure="revenue",
            explain_by=("product", "region"),
            config=hit_config,
        )
        session.prepare()
        return session

    routed_prepare(), exact_hit_prepare()  # warm both paths once
    routed_ms, exact_ms = [], []
    for _ in range(WARM_ROUNDS):
        started = time.perf_counter()
        routed_prepare()
        routed_ms.append((time.perf_counter() - started) * 1e3)
        started = time.perf_counter()
        exact_hit_prepare()
        exact_ms.append((time.perf_counter() - started) * 1e3)
    routed_p50, routed_p95 = _percentiles(routed_ms)
    exact_p50, exact_p95 = _percentiles(exact_ms)

    benchmark.pedantic(routed_prepare, rounds=5, iterations=1)
    benchmark.extra_info["cold_speedup"] = round(speedup, 2)
    benchmark.extra_info["routed_p50_ms"] = round(routed_p50, 3)

    record = {
        "bench": "lattice_router",
        "scale": scale(),
        "git_rev": git_rev(),
        "rows": relation.n_rows,
        "rollups": len(specs),
        "scan_roots": len(report.built),
        "cold": {
            "independent_builds_seconds": round(independent_seconds, 4),
            "single_scan_lattice_seconds": round(lattice_seconds, 4),
            "speedup": round(speedup, 2),
        },
        "warm": {
            "routed_p50_ms": round(routed_p50, 3),
            "routed_p95_ms": round(routed_p95, 3),
            "exact_cache_hit_p50_ms": round(exact_p50, 3),
            "exact_cache_hit_p95_ms": round(exact_p95, 3),
            "p50_ratio_vs_exact_hit": round(routed_p50 / exact_p50, 3),
        },
    }
    append_run(BENCH_JSON, record)

    emit(
        "bench_lattice_router",
        "\n".join(
            [
                f"rows={relation.n_rows}  rollups={len(specs)} "
                f"(scan roots: {len(report.built)})",
                f"cold: {len(specs)} independent builds "
                f"{independent_seconds:.3f}s vs single-scan lattice "
                f"{lattice_seconds:.3f}s -> {speedup:.2f}x",
                f"warm: routed p50={routed_p50:.3f}ms p95={routed_p95:.3f}ms; "
                f"exact cache hit p50={exact_p50:.3f}ms p95={exact_p95:.3f}ms",
            ]
        ),
    )

    assert speedup >= 2.0, (
        f"single-scan lattice build must be >= 2x faster than "
        f"{len(specs)} independent builds, got {speedup:.2f}x"
    )
    assert routed_p50 <= 2.0 * exact_p50, (
        f"warm routed prepare p50 {routed_p50:.3f}ms exceeds 2x the exact "
        f"cache hit p50 {exact_p50:.3f}ms"
    )
