"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 -m perfbench.spread --workloads dashboard-hier --seeds 1 2 3 4 5

Runs ``perfbench.run`` untraced once per (workload, seed), one run at a time, with
``run_seconds`` from ``BENCHMARK.json``, and prints for each metric the
median and the inter-quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench.summary import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="perfbench.spread")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}

    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            command[0] = sys.executable if command[0] == "python3" else command[0]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if completed.returncode != 0:
                print(completed.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            line = {name: round(metric["value"], 4) for name, metric in result["metrics"].items()}
            print(f"{workload} seed={seed} attempted={result['attempted']} {line}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            spread = relative_spread(series) if len(series) >= 2 else float("nan")
            print(
                f"{workload:16s} {name:24s} median {statistics.median(series):12.4f}  "
                f"spread {spread:6.3f}  bound {bounds.get(name)}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
