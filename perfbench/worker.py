"""One workload process: set up, run the timed batch once, check the outputs.

    python3 perfbench/worker.py WORKLOAD INPUTS SEED TRACE [--setup-only]

INPUTS is the directory ``make_inputs.py`` wrote (``-`` for enum-sweep).
TRACE is ``-`` for an untraced batch, or the file the spans go to.  Prints
one JSON object on stdout.  Set-up is timed from just before ``import
ordalg`` to the first timed operation.  Peak resident memory is read right
after the batch, before the outputs are checked.

An untraced batch stops at evenly spaced points to run set-up probes: fresh
``--setup-only`` workers, one at a time, while this process waits.  The
pauses are left out of every timing.  They spread the set-up samples over
the whole run, since the shared host's speed changes over seconds.
"""

import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBE_POINTS = 4
PROBES_PER_POINT = 2


def main(argv: list[str]) -> int:
    workload_name, inputs_arg, seed_arg, trace_arg = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    start = time.perf_counter()
    import ordalg
    import ordalg.cli  # noqa: F401  (the CLI is part of what a session imports)
    import_s = time.perf_counter() - start

    import json
    import resource

    import spans
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    inputs = None if inputs_arg == "-" else Path(inputs_arg)
    tracer = None
    if trace_arg != "-":
        tracer = spans.Tracer()
        tracer.install()

    start = time.perf_counter()
    state = workload.load(ordalg, inputs, int(seed_arg))
    setup_s = import_s + time.perf_counter() - start
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe_at = set() if tracer else {len(state) * k // (PROBE_POINTS + 1)
                                     for k in range(1, PROBE_POINTS + 1)}
    probes: list[float] = []
    paused = 0.0

    def before_op(i: int) -> None:
        nonlocal paused
        if tracer is not None:
            tracer.op = i
        if i in probe_at:
            begin = time.perf_counter()
            for _ in range(PROBES_PER_POINT):
                proc = subprocess.run([sys.executable, __file__, workload_name, inputs_arg,
                                       seed_arg, "-", "--setup-only"],
                                      stdout=subprocess.PIPE, text=True, check=True)
                probes.append(json.loads(proc.stdout)["setup_s"])
            paused += time.perf_counter() - begin

    start = time.perf_counter()
    batch = workload.run(ordalg, state, before_op)
    wall_s = time.perf_counter() - start - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "probe_setup_s": probes, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "samples": batch.samples,
              "attempted": batch.attempted, "failed": batch.failed,
              "errors": batch.errors}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write(trace_arg)
    result["problems"] = workload.verify(ordalg, ROOT, state, batch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
