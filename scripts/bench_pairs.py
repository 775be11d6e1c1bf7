#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write a record.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE BENCH_<n>.json \\
        --seeds 1 2 --pairs 10 --seconds 12

PARENT_TREE and CHANGE_TREE are two source checkouts, each with its own
``bench/run.py``. For every workload in ``BENCHMARK.json`` and every
seed, the script runs ``bench/run.py --trace 0`` once in each tree per
pair, from that tree's root, the parent first in even pairs and the
change first in odd ones. Every run must end with ``correct: true``.

The record holds, per workload, seed and end-to-end metric: each side's
runs, median and quartiles, in how many pairs the change read better
(ties count for neither side), and the bound ``BENCHMARK.json`` judges
the metric by. The parent's quartiles show its own spread next to that
bound. Metric names, directions and bounds are read from the
``BENCHMARK.json`` beside this script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced run in ``tree``; returns its end-to-end metric values."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    where = f"{tree}: {workload} seed {seed}"
    if done.returncode != 0:
        raise SystemExit(f"{where}: exit {done.returncode}\n{done.stderr}")
    try:
        result = json.loads(done.stdout.splitlines()[-1])
        correct = result["correct"]
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        raise SystemExit(
            f"{where}: the last line printed is not a JSON result\n{done.stderr}"
        ) from None
    if correct is not True:
        raise SystemExit(f"{where}: an oracle failed\n{done.stderr}")
    return metrics


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def better_in(metric: dict, parent: list[float], change: list[float]) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    if metric["better"] == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("out", type=Path, help="the record to write, BENCH_<n>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2: quartiles need two runs a side")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = dict(zip(SIDES, (args.parent, args.change)))
    results = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for seed in args.seeds:
            runs: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(trees[side], workload, seed, args.seconds))
            for metric in benchmark["end_to_end"]:
                name = metric["name"]
                values = {side: [run[name] for run in runs[side]] for side in SIDES}
                results.append({
                    "workload": workload,
                    "seed": seed,
                    "metric": name,
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "bound": metric["bound"],
                    **{side: summary(values[side]) for side in SIDES},
                    "better_in": better_in(metric, values["parent"], values["change"]),
                    "pairs": args.pairs,
                })
            print(f"{workload} seed {seed}: {args.pairs} pairs done", file=sys.stderr)

    record = {
        "protocol": {
            "command": benchmark["command"],
            "trace": 0,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "seeds": args.seeds,
            "order": "parent first in even pairs, change first in odd pairs",
        },
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
