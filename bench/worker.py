"""Workload runs in one fresh process: import the CLI, then run invocations.

Usage: python3 bench/worker.py SPEC.json

The spec names the workload, seed, scale and output directory, how many
workload runs to make at most (0 only measures set-up), the time budget for
them, whether to trace, and where to write the result. The process measures
its own set-up (interpreter start to `pdirichlet.cli` imported, using the
spawn time the parent wrote into the spec). It then makes workload runs
back to back, run k calling `pdirichlet.cli.run(argv)` for each of the
argument lists `workloads.invocations(..., index=k, ...)` gives and
capturing what each prints, until `max_runs` runs are done or their wall
times add up to the budget. It writes one JSON
result: set-up time, per-run invocation records (exit code, wall time,
output), peak RSS, and, when tracing, every recorded span.
"""

import json
import sys
import time

spec_path = sys.argv[1]
with open(spec_path) as fh:
    spec = json.load(fh)
sys.path.insert(0, spec["src"])

import contextlib  # noqa: E402
import io  # noqa: E402
import traceback  # noqa: E402

from pdirichlet import cli  # noqa: E402

setup_s = time.monotonic() - spec["spawned"]

import workloads  # noqa: E402

tracer = None
if spec["trace"]:
    import spans as bench_spans

    tracer = bench_spans.Tracer()
    bench_spans.install(tracer)


def invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is not None:
                code, _ = tracer.span("cli.run", cli.run, argv)
            else:
                code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed invocation
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return {"argv": argv, "code": code, "wall_s": wall,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


runs = []
spent = 0.0
while len(runs) < spec["max_runs"]:
    index = len(runs)
    argvs = workloads.invocations(spec["workload"], spec["seed"], index,
                                  f"{spec['out']}/run{index}", spec["scale"])
    records = [invoke(argv) for argv in argvs]
    wall = sum(r["wall_s"] for r in records)
    runs.append({"index": index, "wall_s": wall, "invocations": records})
    spent += wall
    if spent >= spec["seconds"]:
        break


def peak_rss_mb() -> float:
    """This process's own peak RSS. ru_maxrss is not used: Linux carries the
    spawning process's peak over into it across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


result = {
    "setup_s": setup_s,
    "runs": runs,
    "peak_rss_mb": peak_rss_mb(),
    "spans": tracer.spans if tracer is not None else [],
}
with open(spec["result"], "w") as fh:
    json.dump(result, fh)
