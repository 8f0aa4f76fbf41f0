"""The benchmark's workloads: which CLI invocations one workload run makes.

A workload run is a closed loop of `pdirichlet` CLI invocations made back
to back from one process. `invocations()` derives every input from the
benchmark seed and the run's index within the benchmark run, so the same
seed always gives the same argument lists.

Sizes are chosen so that one benchmark run of each workload, set-up and
checks included, takes about a minute on a 2-core machine, with several
workload runs in it (about 5.5 s per run for the discrete pipeline, about
10 s for the study). On a shared 2-core virtual machine the CPU speed
drifts by 10-20 % within minutes, so the study's solves are kept small
(4 collocation points per patch side) to fit four study runs, not two,
into one benchmark run's median:

- discrete-pipeline: graph energy/gradient calls and the edge CSV write do
  the work; the density and continuum layers stay idle.
- study-minimizers: 31 small continuum solves (the continuum route's
  `build_patches`, `splu` and line search), 15 spline fits, KDE at the
  spline knots, field evaluation on the mesh and 15 small graph solves,
  driven by the study's cell loop.
"""

from __future__ import annotations

WORKLOADS = {
    "discrete-pipeline": "graph energy/gradient and edge CSV writes; exact oracles at p=3 and p=2",
    "study-minimizers": "31 small continuum solves: set-up, spline fits, field evaluation, study loop",
}

# size knobs per scale; "toy" is what the self-test runs
SIZES = {
    "full": {
        "discrete": ((2048, 3.0), (8192, 2.0)),
        "study_n": 256,
        "study_mesh": 128,
        "study_points_per_patch": 4,
        "study_knots": 1024,
    },
    "toy": {
        "discrete": ((512, 3.0), (1024, 2.0)),
        "study_n": 16,
        "study_mesh": 32,
        "study_points_per_patch": 4,
        "study_knots": 256,
    },
}


def cli_seed(seed: int, index: int) -> int:
    """CLI seed of workload run `index`; studies use cli_seed..cli_seed+4."""
    return (seed % 100_000) * 100 + 10 * index + 1


def invocations(workload: str, seed: int, index: int, out: str, scale: str = "full") -> list:
    """Argument lists of one workload run; artifacts go under `out`."""
    size = SIZES[scale]
    s = str(cli_seed(seed, index))
    if workload == "discrete-pipeline":
        return [
            ["solve-discrete", "--density", "rho2", "--p", repr(p), "--n", str(n),
             "--seed", s, "--out", f"{out}/discrete-n{n}-p{p:g}"]
            for n, p in size["discrete"]
        ]
    if workload == "study-minimizers":
        return [
            ["study-minimizers", "--density", "rho2", "--p", "3", "--n", str(size["study_n"]),
             "--mesh", str(size["study_mesh"]),
             "--points-per-patch", str(size["study_points_per_patch"]),
             "--T", str(size["study_knots"]), "--seed", s, "--out", f"{out}/study"]
        ]
    raise KeyError(workload)
