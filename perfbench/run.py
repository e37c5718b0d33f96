"""Run one benchmark workload and print its metrics.

    python3 -m perfbench.run --workload dashboard-flat --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the benchmark starts the program
from ``src/`` there.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the workload's shape.  A failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("dashboard-flat", "dashboard-hier", "stream-append")

#: The longest ``--seconds`` a run accepts.  The dashboards' window pools
#: hold several times the timed requests a run this long sends.
MAX_SECONDS = 60

END_TO_END = (
    "setup_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "throughput_ops_per_s",
    "peak_rss_mb",
)

PER_LAYER = (
    "serve.http.tax_ms",
    "serve.jsonio.encode_ms",
    "serve.scheduler.wait_ms",
    "serve.registry.hit_ratio",
    "core.session.explain_ms",
    "core.session.scorer_ms",
    "core.session.scorer_miss_ratio",
    "segmentation.sketch.phase1_ms",
    "segmentation.variance.builds",
    "segmentation.variance.self_ms",
    "segmentation.variance.scheme_eval_ms",
    "segmentation.variance.extend_ms",
    "segmentation.dp.calls",
    "segmentation.dp.self_ms",
    "ca.rows",
    "ca.cascade.self_ms",
    "ca.guess_verify.self_ms",
    "ca.guess_verify.rounds",
    "diff.scorer.tau_calls",
    "diff.scorer.self_ms",
    "core.streaming.update_ms",
    "cube.datacube.append_ms",
    "core.session.append_ms",
    "core.pipeline.select_scheme_ms",
    "store.ingest.build_s",
    "cube.cache.build_s",
    "cube.cache.store_s",
    "cube.cache.store_mb",
    "cache_disk_mb",
    "trace.coverage_pct",
    "trace.overhead_pct",
)


def _seconds(text: str) -> float:
    seconds = float(text)
    if not 0 < seconds <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must lie in (0, {MAX_SECONDS}], got {text}")
    return seconds


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _run(args: argparse.Namespace, workdir: Path):
    from perfbench import dashboard, stream

    if args.workload == "stream-append":
        runner = stream.run_traced if args.trace else stream.run
        return runner(args.seed, args.seconds)
    build = dashboard.flat_workload if args.workload == "dashboard-flat" else dashboard.hier_workload
    workload = build(args.seed, args.seconds, workdir)
    runner = dashboard.run_traced if args.trace else dashboard.run
    return runner(workload, args.seed, ROOT, workdir)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for directory in (ROOT / "src", ROOT / "perfbench"):
        if not compileall.compile_dir(directory, quiet=1):
            print(f"perfbench: cannot compile {directory}", file=sys.stderr)
            return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its work dir there

    expected = PER_LAYER if args.trace else END_TO_END
    if sorted(outcome.metrics) != sorted(expected):
        raise RuntimeError(f"metric names {sorted(outcome.metrics)} != {sorted(expected)}")
    for problem in outcome.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = not outcome.problems
    print(json.dumps({"workload": args.workload, "seed": args.seed, "shape": outcome.shape}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
                    for name in expected
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
