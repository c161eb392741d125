"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src`` directory.  Each timed batch runs in a fresh
single-threaded worker process, one after another, until S seconds have
passed (at least one batch).  Set-up is also measured in separate workers
that stop after set-up, before and after the batches and at points inside
each batch (see ``worker.py``); ``setup_s`` is the median of all set-ups.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the batches run under the span tracer and the metrics are the per-layer
ones.  Inputs for con-sweep and check-mix are written by ``make_inputs.py``
on first use, under ``perfbench/_work``; per-run records and span files go
to ``perfbench/_work/runs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402
from stats import median, nearest_rank, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ms": "ms", "op_tail_ms": "ms"}

# Workers that only set up, run before the first batch and again after the
# last, besides those the batches run inside.  One more warm-up worker (it
# may compile bytecode) runs first and is not counted.
SETUP_PROBES = 2

WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def source_digest() -> str:
    """Digest of the program's sources, naming the input cache it may use."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ordalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def child_env() -> dict[str, str]:
    """The caller's environment without Python settings, with a fixed hash
    seed so that set iteration, and with it every count, repeats exactly."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, env=child_env(),
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ensure_inputs(seed: int) -> Path:
    inputs = WORK / "inputs" / source_digest()
    if not (inputs / f"seed-{seed}" / "manifest.json").exists():
        proc = subprocess.run([sys.executable, str(HERE / "make_inputs.py"),
                               "--seed", str(seed), "--out", str(inputs)],
                              env=child_env(), stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise BenchError(f"make_inputs.py exited {proc.returncode}")
    return inputs


def end_to_end(probes: list[dict], batches: list[dict]) -> dict[str, float]:
    """Medians over the batches; set-up over every worker that set up."""
    p50s, tails = [], []
    for r in batches:
        samples = sorted(r["samples"])
        pct = tail_percentile(len(samples))
        p50s.append(median(samples) * 1000)
        # no batch has under 40 operations unless most of them failed
        tails.append((nearest_rank(samples, pct) if pct else samples[-1]) * 1000)
    return {
        "setup_s": median(setup_times(probes, batches)),
        "wall_s": median([r["wall_s"] for r in batches]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in batches]),
        "op_p50_ms": median(p50s),
        "op_tail_ms": median(tails),
    }


def setup_times(probes: list[dict], batches: list[dict]) -> list[float]:
    return ([p["setup_s"] for p in probes + batches]
            + [s for r in batches for s in r["probe_setup_s"]])


def per_layer(batches: list[dict]) -> dict[str, float]:
    return {name: median([r["layers"][name] for r in batches]) for name, _ in LAYER_METRICS}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "ordalg" / "__init__.py").is_file():
        raise BenchError(f"no ordalg sources under {ROOT / 'src'}")
    inputs = str(ensure_inputs(seed)) if WORKLOADS[workload].needs_inputs else "-"
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"

    def probe(count: int) -> list[dict]:
        return [run_worker([workload, inputs, str(seed), "-", "--setup-only"])
                for _ in range(0 if trace else count)]

    probes = probe(1 + SETUP_PROBES)[1:]
    batches = []
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < seconds:
        trace_file = str(runs / f"{stem}-batch{len(batches)}.spans.jsonl") if trace else "-"
        batches.append(run_worker([workload, inputs, str(seed), trace_file]))
    probes += probe(SETUP_PROBES)

    problems = [p for r in batches for p in r["problems"]]
    errors = [e for r in batches for e in r["errors"]]
    if trace:
        metrics = {name: {"value": value, "unit": unit} for (name, unit), value
                   in zip(LAYER_METRICS, per_layer(batches).values())}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(probes, batches).items()}
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in batches),
              "failed": sum(r["failed"] for r in batches),
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "result": result, "probes": probes,
              "batches": batches,
              "wall_s": median([r["wall_s"] for r in batches])}
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                       encoding="utf-8")
    for line in (problems + errors)[:20]:
        print(line, file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
