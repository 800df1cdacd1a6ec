"""Run one workload once per seed and report how far its end-to-end metrics spread.

    python3 perfbench/steady.py --workload NAME --seeds 1-10 [--seconds S]

For each metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, next to the metric's bound from `BENCHMARK.json`. It also prints the
share of failed operations of each run. Runs go one after another.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=180)
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:12s} median {median:.6g} quartiles {q1:.6g} {q3:.6g} "
              f"spread {(q3 - q1) / median:.4f} bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
