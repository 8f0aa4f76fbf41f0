"""Pipeline benchmark for the pdirichlet CLI.

Usage, from the root of a checkout:

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --selftest

A benchmark run of a workload starts one fresh worker process that imports
`pdirichlet.cli` and makes workload runs back to back, each a closed loop
of `pdirichlet.cli.run(argv)` calls on inputs derived from the seed and the
run's index, until their wall times add up to `--seconds`. With `--trace 0`
the end-to-end metrics are medians: of the workload runs' wall times, and
of the set-up times of the worker and of import-only probe processes. With
`--trace 1` it makes one untraced and one traced workload run on the same
inputs, each in its own worker; the traced run wraps the package's public
names from outside (see spans.py) and gives the per-layer metrics.

Every invocation's artifacts are checked, and its accuracy is scored
against independent oracles (see checks.py), off the clock. Accuracy and
convergence figures are printed by name next to the timings. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the full record, environment included, is written to
bench/results/. BLAS/OpenMP threads and PDIRICHLET_THREADS are pinned to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RESULTS = HERE / "results"

# BLAS, OpenMP and the study's cell pool run one thread each: the pool's
# cells hold the GIL, so a second thread makes the study slower and its
# timings noisier on a shared 2-core machine
_PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PDIRICHLET_THREADS": "1",
}

# import-only worker processes per benchmark run; with the worker's own
# import, set-up is a median of SETUP_PROBES + 1 fresh-process imports
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170.0
# cap on the workload runs of one measuring worker
MAX_RUNS = 50

# name -> (unit, better) of the end-to-end metrics (medians over workload runs)
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# accuracy figures, printed on every run; a traced run also reports each
# under its layer's name (0 where the workload does not exercise the layer)
ACCURACY = {
    "failed_frac": ("ratio", "lower", None),
    "converged_frac": ("ratio", "higher", None),
    "energy_gap": ("ratio", "lower", "graph.energy_gap"),
    "p2_err": ("label", "lower", "graph.p2_err"),
    "field_linf": ("label", "lower", "experiments.field_linf"),
}
LAYER_EXTRA = {
    "continuum.converged_frac": ("ratio", "higher"),
    "graph.converged_frac": ("ratio", "higher"),
    "graph.unpinned_nodes": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "pdirichlet" / "cli.py").is_file():
    _fail(f"no package source at {SRC / 'pdirichlet'}; run from the root of a checkout")
os.environ.update(_PINNED_ENV)
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PER_LAYER = {
    **spans.SPAN_METRICS,
    **{layer: (unit, better) for unit, better, layer in ACCURACY.values() if layer},
    **LAYER_EXTRA,
}


def _worker(run: "WorkloadRun", max_runs: int, seconds: float, trace: bool,
            tag: str) -> dict:
    """Run one worker process and return its result."""
    OUT.mkdir(parents=True, exist_ok=True)
    spec_path = OUT / f"{tag}.spec.json"
    result_path = OUT / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "workload": run.workload, "seed": run.seed,
            "scale": run.scale, "out": str(OUT / tag), "max_runs": max_runs,
            "seconds": seconds, "trace": trace, "result": str(result_path)}
    spec["spawned"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.is_file():
        _fail(f"worker {tag} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    spec_path.unlink()
    result_path.unlink()
    return result


class WorkloadRun:
    """The workload runs of one benchmark run and what their checks found."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.samples = {"run_s": [], "setup_s": [], "peak_rss_mb": []}
        self.attempted = 0
        self.failures = []
        self.converged = []
        self.values = {}
        self.spans = []

    def probe_setup(self, count: int) -> None:
        for k in range(count):
            result = _worker(self, 0, 0.0, False, f"{self.workload}-setup{k}")
            self.samples["setup_s"].append(result["setup_s"])

    def runs(self, max_runs: int, seconds: float, trace: bool = False) -> dict:
        """Checked workload runs in one worker; returns the worker result."""
        tag = f"{self.workload}-t{int(trace)}"
        shutil.rmtree(OUT / tag, ignore_errors=True)
        result = _worker(self, max_runs, seconds, trace, tag)
        self.samples["setup_s"].append(result["setup_s"])
        for run in result["runs"]:
            for record in run["invocations"]:
                self.attempted += 1
                outcome = checks.check_invocation(record["argv"], record)
                if outcome.failures:
                    self.failures.append((record["argv"][0], outcome.failures))
                self.converged.extend(outcome.converged)
                for key, value in outcome.values.items():
                    self.values.setdefault(key, []).append(value)
        shutil.rmtree(OUT / tag, ignore_errors=True)
        return result

    def measure(self, seconds: float) -> None:
        """Untraced workload runs until their wall times add up to `seconds`."""
        result = self.runs(MAX_RUNS, seconds)
        self.samples["run_s"] = [run["wall_s"] for run in result["runs"]]
        self.samples["peak_rss_mb"].append(result["peak_rss_mb"])

    def trace(self) -> dict:
        """Per-layer metrics from a traced run on the inputs of an untraced one."""
        untraced = self.runs(1, 0.0)["runs"][0]["wall_s"]
        result = self.runs(1, 0.0, trace=True)
        traced = result["runs"][0]["wall_s"]
        self.samples["run_s"].append(untraced)
        self.samples["peak_rss_mb"].append(result["peak_rss_mb"])
        m = spans.layer_metrics(result["spans"], int(_PINNED_ENV["PDIRICHLET_THREADS"]))
        acc = self.accuracy()
        for name, (_, _, layer) in ACCURACY.items():
            if layer:
                m[layer] = acc.get(name, 0.0)
        for layer in ("continuum", "graph"):
            flags = [c for lay, c in self.converged if lay == layer]
            m[f"{layer}.converged_frac"] = sum(flags) / len(flags) if flags else 0.0
        m["graph.unpinned_nodes"] = max(self.values.get("unpinned_nodes", [0]))
        m["trace.overhead_s"] = traced - untraced
        self.spans = result["spans"]
        return m

    def accuracy(self) -> dict:
        """Failure and convergence fractions, and the median of each
        accuracy figure the workload's invocations produced."""
        acc = {
            "failed_frac": len(self.failures) / self.attempted,
            "converged_frac": (sum(c for _, c in self.converged) / len(self.converged)
                               if self.converged else 0.0),
        }
        for name in ACCURACY:
            if self.values.get(name):
                acc[name] = statistics.median(self.values[name])
        return acc


def environment() -> dict:
    import numpy as np
    import scipy

    def command(*argv):
        try:
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "pdirichlet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "l2_bytes": command("getconf", "LEVEL2_CACHE_SIZE"),
        "l3_bytes": command("getconf", "LEVEL3_CACHE_SIZE"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": dict(_PINNED_ENV),
    }


def bench_workload(workload: str, seed: int, seconds: float, trace: bool,
                   scale: str = "full", probes: int = SETUP_PROBES) -> dict:
    """One benchmark run of one workload; returns its full record."""
    run = WorkloadRun(workload, seed, scale)
    run.probe_setup(probes)
    if trace:
        metrics = run.trace()
    else:
        run.measure(seconds)
        metrics = {name: statistics.median(run.samples[name]) for name in END_TO_END}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "metrics": metrics,
        "accuracy": run.accuracy(),
        "samples": run.samples,
        "attempted": run.attempted,
        "failures": run.failures,
        "values": run.values,
    }
    if trace:
        record["spans"] = run.spans
    return record


def unit_better(name: str) -> tuple:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER[name]


def report(record: dict) -> None:
    """Print every metric of a record by name, with its unit and direction."""
    w = record["workload"]
    for name, value in record["metrics"].items():
        unit, better = unit_better(name)
        extra = ""
        if name in END_TO_END:
            vals = record["samples"][name]
            extra = f"  median of {len(vals)}, max {max(vals):.4g}"
        print(f"{w:19s} {name:26s} {value:14.6g} {unit:6s} {better:6s}{extra}")
    for name, value in record["accuracy"].items():
        unit, better, _ = ACCURACY[name]
        print(f"{w:19s} {'accuracy ' + name:26s} {value:14.6g} {unit:6s} {better}")
    for cmd, reasons in record["failures"]:
        print(f"{w:19s} FAILED {cmd}: {'; '.join(reasons)}")


def selftest() -> int:
    """Every workload at toy sizes, untraced and traced, then check that a
    corrupted artifact of each kind is caught."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            rec = bench_workload(workload, 1, 0.0, trace, scale="toy", probes=1)
            report(rec)
            if rec["failures"]:
                problems.append(f"{workload}: failures {rec['failures']}")
            section = "per_layer" if trace else "end_to_end"
            names = [m["name"] for m in declared[section]]
            if sorted(names) != sorted(rec["metrics"]):
                problems.append(f"{workload}: metrics differ from BENCHMARK.json {section}")
            for m in declared[section]:
                if (m["unit"], m["better"]) != unit_better(m["name"]):
                    problems.append(f"{m['name']}: unit or direction differs")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    problems += _corruption_checks()
    for p in problems:
        print("selftest problem:", p)
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


def _corruption_checks() -> list:
    """Each kind of artifact is rejected once a pinned label or the energy
    audit flag is altered after the CLI wrote it."""
    problems = []
    pinned = {float(v) for v in checks.constraint_labels().values}
    for workload, name in (("discrete-pipeline", "discrete_labels.csv"),
                           ("study-minimizers", "study_minimizers.csv")):
        tag = f"selftest-{workload}"
        shutil.rmtree(OUT / tag, ignore_errors=True)
        run = WorkloadRun(workload, 1, "toy")
        record = _worker(run, 1, 0.0, False, tag)["runs"][0]["invocations"][0]
        argv = record["argv"]
        if checks.check_invocation(argv, record).failures:
            problems.append(f"{workload}: clean artifacts rejected")
            continue
        path = Path(checks.options(argv)["out"]) / name
        lines = path.read_text().split("\n")
        if name == "study_minimizers.csv":
            lines[1] = lines[1].rsplit(",", 1)[0] + ",0"
        else:  # layout i,x,y,f: bump the first pinned value
            k = next(k for k, line in enumerate(lines[1:], 1)
                     if line and float(line.rsplit(",", 1)[1]) in pinned)
            head, value = lines[k].rsplit(",", 1)
            lines[k] = f"{head},{float(value) + 1e-9!r}"
        path.write_text("\n".join(lines))
        if not checks.check_invocation(argv, record).failures:
            problems.append(f"{workload}: corrupted {name} accepted")
        shutil.rmtree(OUT / tag, ignore_errors=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at toy sizes and test the checks")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("environment:", json.dumps(env))
    RESULTS.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        record = bench_workload(name, args.seed, args.seconds, bool(args.trace))
        record["environment"] = env
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        report(record)
        records.append(record)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "."
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_better(name)[0]}
    failed = sum(len(r["failures"]) for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
