"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. Every round runs in a fresh process: it builds the
workload's inputs from the seed and the round's index, runs the timed
section once with tracing off and, with `--trace 1`, once more traced, and
then checks the outputs (see `workloads.py`). The timed section runs part by
part, with the speed kernel of `speed.py` timed between parts, and every
time is reported at the reference speed that kernel defines. Rounds follow
one another until the next would end past `--seconds`. `wall_s` is the sum
over the parts of each part's median over the rounds; every other metric is
the median over the rounds. The last line of standard output is one JSON
object; a summary, and a results file under `perfbench/results/`, come with
it. The names and units of the metrics are those of `BENCHMARK.json`.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# The names of `workloads.WORKLOADS`. That module imports the package, which
# the set-up timing must see first, so they are repeated here.
WORKLOAD_NAMES = ("bif-practical", "tree-baselines", "gamma")

# One BLAS thread and one sweep worker: each workload is a single closed loop.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "CAUSALBANDIT_WORKERS"):
    os.environ[_var] = "1"


def round_seed(seed: int, index: int) -> int:
    """Each round makes its inputs from its own seed, so that one run's median
    spans several draws of the inputs."""
    return 1000 * seed + index


def timed_setup(workload_name: str, seed: int):
    """Seconds from before `import causalbandit` until the inputs are built
    and validated (the import of the benchmark's own modules left out), and
    the inputs."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import causalbandit
    except ImportError as err:
        raise SystemExit(f"error: cannot import causalbandit from {SRC}: {err}") from None
    imported = time.perf_counter()
    if Path(causalbandit.__file__).resolve().parent != SRC / "causalbandit":
        raise SystemExit(f"error: causalbandit was imported from {causalbandit.__file__}, "
                         f"not from {SRC}")
    import workloads
    begin = time.perf_counter()
    inputs = workloads.WORKLOADS[workload_name].setup(seed)
    return (imported - start) + (time.perf_counter() - begin), inputs


def timed_section(workload, inputs, kernel_s: float, tracer=None):
    """One pass of the timed section, part by part, with the speed kernel
    timed after every part (`kernel_s` is its time just before the first).
    Returns the outputs (None when a part raised), the captured trials, the
    wall time, each part's wall time at reference speed, and the last kernel
    time. The kernel's own time is not part of the wall time."""
    from speed import kernel_seconds, scaled
    from workloads import RegretCapture
    outputs, wall, parts_at_reference = [], 0.0, []
    with RegretCapture() as capture, tracer or contextlib.nullcontext():
        for part in inputs:
            start = time.perf_counter()
            try:
                outputs.append(workload.run(part))
            except Exception:
                traceback.print_exc()
                outputs = None
                break
            elapsed = time.perf_counter() - start
            after = kernel_seconds()
            wall += elapsed
            parts_at_reference.append(scaled(elapsed, kernel_s, after))
            kernel_s = after
    return outputs, capture.trials, wall, parts_at_reference, kernel_s


def one_round(workload_name: str, seed: int, trace: bool, traced_first: bool) -> dict:
    """The round of this process: set-up, the timed section and, with `trace`,
    the traced pass, then the checks. The first pass in a process pays
    one-time costs, so rounds alternate which pass goes first. Every time is
    also given at reference speed, from the speed kernel timed after set-up
    and after each part of a pass (see `speed.py`)."""
    setup_s, inputs = timed_setup(workload_name, seed)
    import causalbandit
    import speed
    from tracer import Tracer, layer_metrics, layer_table
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name]
    tracer = Tracer(causalbandit) if trace else None
    order = [tracer, None] if trace and traced_first else [None, tracer] if trace else [None]
    kernel_s = setup_kernel_s = speed.kernel_seconds()
    passes = {}
    for pass_tracer in order:
        *pass_out, kernel_s = timed_section(workload, inputs, kernel_s, pass_tracer)
        if pass_tracer is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes[pass_tracer is None] = pass_out
    outputs, trials, raw_wall, parts_s = passes[True]
    ops = workload.ops(inputs)
    out = {"setup_s": speed.scaled(setup_s, setup_kernel_s), "wall_s": sum(parts_s),
           "parts_s": parts_s, "peak_rss_mb": peak_rss_mb, "raw_setup_s": setup_s,
           "raw_wall_s": raw_wall, "kernel_s": setup_kernel_s,
           "traced_first": trace and traced_first, "attempted": ops, "failed": ops,
           "problems": ["the timed section raised"]}
    if outputs is None:
        return out
    try:
        out["failed"], out["problems"] = workload.check(inputs, outputs, trials, seed)
    except Exception:
        out["problems"] = [f"the checks raised:\n{traceback.format_exc()}"]
        return out
    if trace:
        traced, _, traced_raw_wall, traced_parts_s = passes[False]
        if traced is None or workload.signature(traced) != workload.signature(outputs):
            out["failed"] = ops
            out["problems"].append("the traced pass's outputs differ from the untraced pass's")
        else:
            out["layers"] = layer_metrics(tracer.spans, traced_raw_wall, workload.cells(traced))
            out["layers"].update({"trace.overhead_s": sum(traced_parts_s) - sum(parts_s),
                                  "raw.wall_s": raw_wall, "raw.setup_s": setup_s,
                                  "speed.kernel_s": setup_kernel_s})
            out["layer_table"] = layer_table(tracer.spans)
    return out


def fresh_round(args, index: int) -> dict:
    """`one_round` in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace), "--round", str(index)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: round {index} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def wall_of_run(rounds) -> float:
    """`wall_s` of a run: the sum over a round's parts of each part's median
    over the rounds in which every part ran. A part is one or a few
    operations; a median per part keeps one slow draw of a part's inputs from
    moving the whole round, as a median of the rounds' sums would not."""
    length = max(len(r["parts_s"]) for r in rounds)
    whole = [r["parts_s"] for r in rounds if len(r["parts_s"]) == length]
    return sum(statistics.median(part) for part in zip(*whole))


def overhead_of_run(rounds) -> float:
    """`trace.overhead_s` of a run. The first pass of a round also pays the
    process's one-time costs, so the median of traced minus untraced is taken
    apart over the rounds that traced first and over those that traced
    second; their mean cancels those costs."""
    by_order = [[r["layers"]["trace.overhead_s"] for r in rounds
                 if "layers" in r and r["traced_first"] == first] for first in (True, False)]
    return statistics.fmean(statistics.median(d) for d in by_order if d)


def load_metric_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.round is not None:
        print(json.dumps(one_round(args.workload, round_seed(args.seed, args.round),
                                   bool(args.trace), args.round % 2 == 1)))
        return 0

    units = load_metric_units(bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(fresh_round(args, len(rounds)))
        now = time.perf_counter()
        if (now - begin) + (now - start) > args.seconds:
            break

    per_round = [r["layers"] for r in rounds if "layers" in r] if args.trace else rounds
    problems = [p for r in rounds for p in r["problems"]]
    if per_round:
        metrics = {name: statistics.median(r[name] for r in per_round) for name in units}
        if args.trace:
            metrics["trace.overhead_s"] = overhead_of_run(rounds)
        else:
            metrics["wall_s"] = wall_of_run(rounds)
    else:
        problems.append("no round gave the metrics")
        metrics = {name: 0.0 for name in units}
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "rounds": rounds, "result": result}, fh, indent=1)

    for problem in problems:
        print(f"problem: {problem}")
    print(f"{args.workload} seed={args.seed}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, {len(rounds)} rounds")
    for name in units:
        print(f"  {name:28s} {metrics[name]:>14.6g} {units[name]:6s} "
              f"(median of {len(per_round)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
