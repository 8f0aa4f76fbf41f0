"""Output checks and accuracy oracles, computed off the clock.

`check_invocation(argv, record)` re-reads what one CLI invocation wrote and
returns an `Outcome`: the reasons it failed (empty when it passed), the
`converged` flag of every solve it made, and its accuracy figures. An
invocation fails when its exit code is nonzero, an artifact is missing or
unparsable, a row count is wrong, a value is non-finite, a pinned node does
not carry its label exactly (checked against `graph_constraints` rebuilt
here), or a study row has energy_monotone = 0.
Non-convergence is not a failure; it is reported through converged_frac.

The graph oracles never start from the route's output:
- p != 2 graph solves: scipy L-BFGS-B on the public `discrete_energy` and
  `discrete_energy_gradient`, started from the constraint-mean field;
- p = 2 graph solves: `solve_p2_direct` on the connected components that
  carry a pin (nodes of pin-free components are counted, not solved).
The study's continuum solves are scored by `field_linf`, read from the
study CSV: the distance to the study's own exact-density reference field.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from pdirichlet.experiments import constraint_labels
from pdirichlet.graph import (
    ConstraintSet,
    WeightedGraph,
    default_epsilon,
    discrete_energy,
    discrete_energy_gradient,
    solve_p2_direct,
)

_SOLVE_LINE = re.compile(
    r"^solve: p=(\S+) converged=(True|False) iterations=(\d+) "
    r"residual=(\S+) energy=(\S+) \(", re.M)
_GRAPH_LINE = re.compile(r"^graph: (\d+) nodes, (\d+) edges, epsilon=(\S+) \(", re.M)

STUDY_HEADER = ["route", "n", "seed", "l2", "linf", "converged", "iterations",
                "residual", "energy_monotone"]
STUDY_TIMING_HEADER = ["route", "n", "seed", "sample_seconds", "estimate_seconds",
                       "solve_seconds", "pipeline_seconds"]


class CheckFailed(Exception):
    """An artifact does not meet its contract."""


@dataclass
class Outcome:
    """What the checks found for one invocation."""

    failures: list = field(default_factory=list)
    converged: list = field(default_factory=list)  # (layer, converged) per solve
    values: dict = field(default_factory=dict)


def options(argv) -> dict:
    """Flag -> value of a CLI argument list (the subcommand under 'cmd')."""
    opts = {"cmd": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag.lstrip("-")] = value
    return opts


def _header(path: Path) -> list:
    if not path.is_file():
        raise CheckFailed(f"{path.name} missing")
    with open(path) as fh:
        return fh.readline().rstrip("\n").split(",")


def read_numeric(path: Path, header: list, rows: int) -> np.ndarray:
    """All-numeric CSV with the given header and row count, all finite."""
    if _header(path) != header:
        raise CheckFailed(f"{path.name}: header {_header(path)} != {header}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{path.name} unparsable: {exc}") from None
    if data.shape != (rows, len(header)):
        raise CheckFailed(f"{path.name}: shape {data.shape}, expected {(rows, len(header))}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path.name}: non-finite values")
    return data


def _solve_line(stdout: str) -> tuple:
    found = _SOLVE_LINE.findall(stdout)
    if len(found) != 1:
        raise CheckFailed("no single 'solve:' stage line in the output")
    _, converged, iterations, residual, energy = found[0]
    return converged == "True", int(iterations), float(residual), float(energy)


def _manifest(out: Path, cmd: str) -> None:
    path = out / f"{cmd.replace('-', '_')}_manifest.txt"
    if not path.is_file() or "config_hash=" not in path.read_text():
        raise CheckFailed(f"{path.name} missing or without a config hash")


def _pinned_components(weights: sp.csr_matrix, pins: np.ndarray) -> np.ndarray:
    _, comp = sp.csgraph.connected_components(weights, directed=False)
    return np.isin(comp, np.unique(comp[pins]))


def p_reference(graph: WeightedGraph, constraints: ConstraintSet, p: float) -> float:
    """Minimum energy by L-BFGS-B from the constraint-mean field."""
    pins = constraints.indices
    free = np.setdiff1d(np.arange(graph.n), pins)
    base = np.full(graph.n, float(constraints.values.mean()))
    base[pins] = constraints.values

    def energy_and_gradient(x):
        f = base.copy()
        f[free] = x
        return discrete_energy(graph, f, p), discrete_energy_gradient(graph, f, p)[free]

    res = minimize(energy_and_gradient, base[free], jac=True, method="L-BFGS-B",
                   options={"maxiter": 100_000, "maxcor": 20, "ftol": 1e-15, "gtol": 1e-14})
    if not np.isfinite(res.fun):
        raise CheckFailed(f"L-BFGS-B reference failed: {res.message}")
    return float(res.fun)


def _discrete(opts: dict, stdout: str, outcome: Outcome) -> None:
    out = Path(opts["out"])
    n, p = int(opts["n"]), float(opts["p"])
    converged, _, _, energy = _solve_line(stdout)
    outcome.converged.append(("graph", converged))
    graph_line = _GRAPH_LINE.findall(stdout)
    if len(graph_line) != 1:
        raise CheckFailed("no single 'graph:' stage line in the output")
    nodes, edges = int(graph_line[0][0]), int(graph_line[0][1])
    labels = constraint_labels()
    if nodes != n + len(labels.values):
        raise CheckFailed(f"graph has {nodes} nodes, expected {n + len(labels.values)}")
    lab = read_numeric(out / "discrete_labels.csv", ["i", "x", "y", "f"], nodes)
    if not np.array_equal(lab[:, 0], np.arange(nodes)):
        raise CheckFailed("discrete_labels.csv node ids out of order")
    constraints = labels.graph_constraints(n)
    pins = constraints.indices
    if not (np.array_equal(lab[pins, 1:3], labels.positions)
            and np.array_equal(lab[pins, 3], constraints.values)):
        raise CheckFailed("a pinned node does not carry its position and label exactly")
    ed = read_numeric(out / "discrete_edges.csv", ["i", "j", "w"], edges)
    i, j, w = ed[:, 0].astype(np.int64), ed[:, 1].astype(np.int64), ed[:, 2]
    if np.any(i < 0) or np.any(i >= j) or np.any(j >= nodes) or np.any(w <= 0.0):
        raise CheckFailed("discrete_edges.csv holds an invalid edge")
    weights = sp.csr_matrix((np.concatenate([w, w]), (np.concatenate([i, j]),
                                                      np.concatenate([j, i]))),
                            shape=(nodes, nodes))
    graph = WeightedGraph(points=lab[:, 1:3], weights=weights,
                          epsilon=default_epsilon(nodes, p), kind="epsilon")
    f = lab[:, 3]
    route_energy = discrete_energy(graph, f, p)
    if abs(route_energy - energy) > 1e-6 * abs(route_energy):
        raise CheckFailed(f"printed energy {energy} differs from the labels' {route_energy}")
    keep = _pinned_components(weights, pins)
    outcome.values["unpinned_nodes"] = int(nodes - keep.sum())
    if p == 2.0:
        idx = np.nonzero(keep)[0]
        remap = np.full(nodes, -1)
        remap[idx] = np.arange(idx.size)
        sub = WeightedGraph(points=graph.points[idx], weights=weights[idx][:, idx].tocsr(),
                            epsilon=graph.epsilon, kind="epsilon")
        exact = solve_p2_direct(sub, ConstraintSet(remap[pins], constraints.values))
        if not np.all(np.isfinite(exact.values)):
            raise CheckFailed("p = 2 oracle returned non-finite labels")
        outcome.values["p2_err"] = float(np.abs(f[idx] - exact.values).max())
    else:
        reference = p_reference(graph, constraints, p)
        outcome.values["energy_gap"] = (route_energy - reference) / reference
    _manifest(out, opts["cmd"])


def _study(opts: dict, stdout: str, outcome: Outcome) -> None:
    out = Path(opts["out"])
    n = int(opts["n"])
    n_values = (n // 4, n, 4 * n)
    rows_expected = len(n_values) * 5 * 3  # seeds x (kde, skde, discrete)
    path = out / "study_minimizers.csv"
    if _header(path) != STUDY_HEADER:
        raise CheckFailed(f"{path.name}: unexpected header")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != rows_expected:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {rows_expected}")
    try:
        nums = np.array([[float(r[k]) for k in STUDY_HEADER[1:]] for r in rows])
    except (TypeError, ValueError):
        raise CheckFailed(f"{path.name} unparsable") from None
    if not np.all(np.isfinite(nums)):
        raise CheckFailed(f"{path.name}: non-finite values")
    if sorted({r["route"] for r in rows}) != ["discrete", "kde", "skde"]:
        raise CheckFailed(f"{path.name}: unexpected routes")
    if sorted({int(r["n"]) for r in rows}) != list(n_values):
        raise CheckFailed(f"{path.name}: unexpected sample sizes")
    _study_timing(out, rows_expected)
    if any(r["energy_monotone"] != "1" for r in rows):
        raise CheckFailed("a study row has energy_monotone = 0")
    outcome.converged.extend(
        ("graph" if r["route"] == "discrete" else "continuum", r["converged"] == "1")
        for r in rows)
    top = [float(r["linf"]) for r in rows if r["route"] == "skde" and int(r["n"]) == n_values[-1]]
    outcome.values["field_linf"] = float(np.median(top))
    _manifest(out, opts["cmd"])


def _study_timing(out: Path, rows_expected: int) -> None:
    path = out / "study_minimizers_timing.csv"
    if _header(path) != STUDY_TIMING_HEADER:
        raise CheckFailed(f"{path.name}: unexpected header")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != rows_expected:
        raise CheckFailed(f"{path.name}: {len(rows)} rows, expected {rows_expected}")
    try:
        secs = np.array([[float(c) for c in r[3:]] for r in rows])
    except ValueError:
        raise CheckFailed(f"{path.name} unparsable") from None
    if not np.all(np.isfinite(secs)) or np.any(secs < 0.0):
        raise CheckFailed(f"{path.name}: invalid timings")


_CHECKS = {
    "solve-discrete": _discrete,
    "study-minimizers": _study,
}


def check_invocation(argv, record: dict) -> Outcome:
    """Check one invocation's exit code and artifacts; compute its oracles."""
    outcome = Outcome()
    if record["code"] != 0:
        outcome.failures.append(f"exit code {record['code']}: {record['stderr'].strip()[-300:]}")
        return outcome
    opts = options(argv)
    try:
        _CHECKS[opts["cmd"]](opts, record["stdout"], outcome)
    except CheckFailed as exc:
        outcome.failures.append(str(exc))
    return outcome
