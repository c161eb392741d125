"""Run a workload repeatedly and print the median and quartiles of every metric.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--trace 0|1]

Run i uses seed i, for i = 1 .. runs, and the run length of
``BENCHMARK.json``.  For each metric it prints the median, the
quartiles as ``statistics.quantiles(values, n=4)`` gives them, the spread
(q3 - q1) / median, and the metric's bound from ``BENCHMARK.json``.  It also
prints the share of failed operations of each run and, with ``--trace 1``,
the median batch time of the traced runs, from which the tracing overhead is
the traced minus the untraced ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES, WORK  # noqa: E402
from stats import median, quartiles  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares, walls = [], []
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads((WORK / "runs" / f"{args.workload}-seed{seed}-trace"
                             f"{args.trace}.json").read_text(encoding="utf-8"))
        walls.append(record["wall_s"])
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}, {args.runs} runs, trace={args.trace}")
    print(f"{'metric':42} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:42} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6}")
    print(f"failed share per run: {sorted(set(shares))}")
    if args.trace:
        print(f"traced wall_s median: {median(walls):.6g} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
