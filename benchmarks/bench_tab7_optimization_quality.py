"""Table 7: result quality of the optimizations — total within-segment
variance of Vanilla vs O1+O2 on the real-world datasets.

Paper result: identical variance on S&P 500 and Liquor; < 1% difference on
the Covid datasets with cut points shifted by at most four days.
"""

from repro.core.config import ExplainConfig
from repro.core.session import ExplainSession
from support import emit, real_dataset, with_smoothing

DATASETS = ("covid-total", "covid-daily", "sp500", "liquor")


def _run(ds, config):
    session = ExplainSession(
        ds.relation,
        ds.measure,
        ds.explain_by,
        aggregate=ds.aggregate,
        config=with_smoothing(ds, config),
    )
    return session.explain()


def bench_tab7_optimization_quality(benchmark):
    def run():
        rows = []
        for name in DATASETS:
            ds = real_dataset(name)
            vanilla = _run(ds, ExplainConfig.vanilla())
            # Fix K to vanilla's choice so the variances are comparable.
            optimized = _run(ds, ExplainConfig.optimized(k=vanilla.k))
            rows.append((name, vanilla, optimized))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        f"{'dataset':<14s} {'Var(Vanilla)':>14s} {'Var(O1+O2)':>12s} "
        f"{'diff %':>8s} {'max cut shift':>14s}"
    ]
    worst_relative = 0.0
    for name, vanilla, optimized in rows:
        base = vanilla.total_variance
        relative = (
            abs(optimized.total_variance - base) / base * 100.0 if base > 0 else 0.0
        )
        worst_relative = max(worst_relative, relative)
        shifts = [
            min(abs(c - v) for v in vanilla.boundaries) for c in optimized.cuts
        ]
        lines.append(
            f"{name:<14s} {base:>14.4f} {optimized.total_variance:>12.4f} "
            f"{relative:>8.2f} {max(shifts) if shifts else 0:>14d}"
        )
    emit("tab7_optimization_quality", "\n".join(lines))
    benchmark.extra_info["worst_relative_pct"] = round(worst_relative, 3)
    # Paper: the optimizations' effect on quality is negligible.
    assert worst_relative < 15.0
