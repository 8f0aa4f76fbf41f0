"""Reproducible error and timing studies comparing the labeling routes.

Two study drivers cover the package's empirical claims: density-estimation
error sweeps (estimator accuracy for values and first derivatives over a
sample-size/bandwidth grid) and minimizer discrepancy sweeps (how close the
continuum minimizer built on an estimated density lands to the one built on
the exact density, optionally alongside the discrete graph minimizer).
Every study is driven by a frozen `StudyConfig`, runs a fixed seed list,
reports medians, and returns deterministic result tables (bit-identical on
rerun) with wall times split into a separate timing table. Cells run one
after another: they hold the interpreter lock, so a thread pool made the
studies slower, not faster. Every error norm is taken over the window
[0.01, 0.99]^2, away from the edges of the square.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .continuum import ContinuumProblem, minimize_continuum
from .csvio import Table
from .density import (
    KdeDensityField,
    SplineConfig,
    SplineFit,
    reference_density,
    sample_density,
    skde_fit,
    spline_knots,
    uniform_mesh,
)
from .errors import ValidationError
from .graph import ConstraintSet, build_epsilon_graph, default_epsilon, minimize_discrete
from .patches import build_patches

_DENSITIES = ("rho1", "rho2", "rho3")
_ESTIMATORS = ("kde", "skde")
# evaluation window (x0, x1, y0, y1) of every study error norm
_REGION = (0.01, 0.99, 0.01, 0.99)


def label_value(x, y):
    """Constraint label formula: an offset anisotropic paraboloid."""
    return 4.0 * (np.asarray(x) - 0.5) ** 2 + (np.asarray(y) - 0.5) ** 2


@dataclass(frozen=True)
class PointConstraints:
    """Labelled constraint locations in the unit square."""

    positions: np.ndarray
    values: np.ndarray

    def graph_constraints(self, offset: int) -> ConstraintSet:
        """Constraint set for a cloud holding these points at `offset`..."""
        return ConstraintSet(np.arange(offset, offset + len(self.values)), self.values)


def constraint_labels() -> PointConstraints:
    """The 16-point uniform lattice with its quadratic labels."""
    ticks = np.linspace(0.0, 1.0, 4)
    xx, yy = np.meshgrid(ticks, ticks)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    return PointConstraints(positions=pos, values=label_value(pos[:, 0], pos[:, 1]))


@dataclass(frozen=True)
class ErrorReport:
    """One method's error curve along a parameter sweep."""

    method: str
    sweep: tuple
    l2: tuple
    linf: tuple
    seconds: tuple

    def __post_init__(self):
        sweep = tuple(self.sweep)
        l2 = tuple(float(v) for v in self.l2)
        linf = tuple(float(v) for v in self.linf)
        seconds = tuple(float(v) for v in self.seconds)
        if not (len(sweep) == len(l2) == len(linf) == len(seconds)):
            raise ValidationError("report columns differ in length")
        diffs = np.diff(np.asarray(sweep, dtype=float))
        if diffs.size and not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
            raise ValidationError("sweep values must be strictly monotone")
        if any(v < 0.0 for v in l2 + linf):
            raise ValidationError("errors must be nonnegative")
        for name, value in (("sweep", sweep), ("l2", l2), ("linf", linf), ("seconds", seconds)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class StudyConfig:
    """Frozen inputs of one study run.

    `h_values` of None selects the per-n bandwidth schedule
    h_scale * n^(-1/6) (the default coefficient 0.3 was measured to keep the
    estimate useful over the default n range); an explicit tuple sweeps
    those bandwidths at every n instead. `tol` is the relative energy-gap
    tolerance of every solve, continuum and discrete.
    """

    density: str = "rho2"
    n_values: tuple = (1024, 4096, 16384)
    h_values: tuple | None = None
    h_scale: float = 0.3
    T: int = 4096
    lam: float = 1.0e-6
    p: float = 3.0
    tol: float = 1.0e-5
    seeds: tuple = (1, 2, 3, 4, 5)
    mesh_size: int = 512
    points_per_patch: int = 20
    max_iter: int = 400
    estimators: tuple = _ESTIMATORS
    include_discrete: bool = False

    def __post_init__(self):
        if self.density not in _DENSITIES:
            raise ValidationError(f"unknown density {self.density!r}")
        n_values = tuple(int(n) for n in self.n_values)
        if not n_values or any(n < 1 for n in n_values):
            raise ValidationError("n_values must be positive integers")
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValidationError("n_values must be strictly increasing")
        h_values = self.h_values
        if h_values is not None:
            h_values = tuple(float(h) for h in h_values)
            if not h_values or any(h <= 0.0 for h in h_values):
                raise ValidationError("h_values must be positive")
            if len(set(h_values)) != len(h_values):
                raise ValidationError("h_values contain duplicates")
        if not (self.h_scale > 0.0):
            raise ValidationError(f"h_scale must be positive, got {self.h_scale}")
        if not (self.lam > 0.0):
            raise ValidationError(f"lam must be > 0, got {self.lam}")
        if self.p < 1.0:
            raise ValidationError(f"p must be >= 1, got {self.p}")
        if self.mesh_size < 2:
            raise ValidationError("mesh_size must be >= 2")
        if self.points_per_patch < 4:
            raise ValidationError("points_per_patch must be >= 4")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds or len(set(seeds)) != len(seeds):
            raise ValidationError("seeds must be nonempty and distinct")
        estimators = tuple(self.estimators)
        if not estimators or any(e not in _ESTIMATORS for e in estimators):
            raise ValidationError(f"estimators must be drawn from {_ESTIMATORS}")
        if not (self.tol > 0.0):
            raise ValidationError(f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "h_values", h_values)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "estimators", estimators)

    def bandwidths_for(self, n: int) -> tuple:
        if self.h_values is None:
            return (self.h_scale * float(n) ** (-1.0 / 6.0),)
        return self.h_values


@dataclass(frozen=True)
class StudyResult:
    """Deterministic tables, per-method reports, and trend flags."""

    results: Table
    timing: Table
    reports: tuple
    flags: dict
    meta: dict = field(default_factory=dict)


def _region_mask(mesh_size: int, region: tuple) -> np.ndarray:
    sites = uniform_mesh(mesh_size)
    in_x = (sites >= region[0]) & (sites <= region[1])
    in_y = (sites >= region[2]) & (sites <= region[3])
    return np.outer(in_y, in_x)  # rows index y


def error_metrics(a: np.ndarray, b: np.ndarray, region: tuple) -> tuple:
    """Discretized error norms of `a - b` restricted to a window.

    Both fields must sit on the same square D x D uniform mesh (rows
    indexing y). The L2 norm is sqrt(D^-2 sum of squared differences over
    mesh points inside `region`); the L-infinity norm is the largest
    absolute difference over the same points.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"mesh shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected square D x D fields, got {a.shape}")
    mask = _region_mask(a.shape[0], region)
    if not mask.any():
        raise ValidationError("region contains no mesh points")
    diff = np.abs(a - b)[mask]
    l2 = float(np.sqrt(np.sum(diff**2) / a.size))
    linf = float(np.max(diff))
    return l2, linf


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def density_error_study(config: StudyConfig) -> StudyResult:
    """Estimator accuracy sweep over (estimator, n, h) cells.

    Per cell and seed: draw the cloud, build the estimator, and measure the
    L2/L-infinity errors of the density value and of both partial
    derivatives against the exact density on the evaluation mesh window.
    The results table holds per-cell medians over the seed list; per-seed
    wall times go to the timing table.
    """
    rho = reference_density(config.density)
    mesh = config.mesh_size
    exact_value = rho.on_mesh(mesh)
    exact_grad = rho.gradient_on_mesh(mesh)
    spline_config = SplineConfig(num_knots=config.T, lam=config.lam)
    knots = spline_knots(spline_config)
    # one factored spline operator serves every fit of the study
    spline_op = SplineFit(spline_config) if "skde" in config.estimators else None

    cells = [(n, h) for n in config.n_values for h in config.bandwidths_for(n)]

    def run_cell(cell):
        n, h = cell
        rows = {est: [] for est in config.estimators}
        times = {est: [] for est in config.estimators}
        for seed in config.seeds:
            cloud = sample_density(rho, n, seed=seed)
            start = time.perf_counter()
            kde = KdeDensityField(cloud, h)
            kde_value = kde.on_mesh(mesh)
            kde_grad = kde.gradient_on_mesh(mesh)
            kde_time = time.perf_counter() - start
            if "kde" in rows:
                rows["kde"].append(_field_errors(kde_value, kde_grad, exact_value, exact_grad))
                times["kde"].append(kde_time)
            if "skde" in rows:
                start = time.perf_counter()
                spline = skde_fit(kde.value_at(knots), spline_config, spline_op)
                skde_value = spline.on_mesh(mesh)
                skde_grad = spline.gradient_on_mesh(mesh)
                rows["skde"].append(
                    _field_errors(skde_value, skde_grad, exact_value, exact_grad)
                )
                times["skde"].append(kde_time + time.perf_counter() - start)
        return cell, rows, times

    outcomes = [run_cell(cell) for cell in cells]

    metric_names = ("l2_value", "linf_value", "l2_dx", "linf_dx", "l2_dy", "linf_dy")
    result_rows = []
    timing_rows = []
    medians = {}
    for (n, h), rows, times in outcomes:
        for est in config.estimators:
            per_seed = np.asarray(rows[est])
            med = [_median(per_seed[:, k]) for k in range(per_seed.shape[1])]
            medians[(est, n, h)] = med
            result_rows.append((est, n, float(h), *med))
            for seed, sec in zip(config.seeds, times[est]):
                timing_rows.append((est, n, float(h), seed, float(sec)))

    results = Table(("estimator", "n", "h", *metric_names), tuple(result_rows))
    timing = Table(("estimator", "n", "h", "seed", "seconds"), tuple(timing_rows))

    reports = []
    for est in config.estimators:
        if config.h_values is not None and len(config.h_values) > 1 and len(config.n_values) == 1:
            sweep = config.h_values
            keys = [(est, config.n_values[0], h) for h in sweep]
        else:
            sweep = config.n_values
            keys = [(est, n, config.bandwidths_for(n)[0]) for n in sweep]
        secs = {(e, n, h): [] for (e, n, h) in keys}
        for (n, h), _, times in outcomes:
            if (est, n, h) in secs:
                secs[(est, n, h)] = times[est]
        reports.append(
            ErrorReport(
                method=est,
                sweep=sweep,
                l2=tuple(medians[k][0] for k in keys),
                linf=tuple(medians[k][1] for k in keys),
                seconds=tuple(_median(secs[k]) for k in keys),
            )
        )
    reports = tuple(reports)

    flags = {}
    for report in reports:
        flags[f"{report.method}_linf_nonincreasing_in_n"] = (
            len(config.n_values) > 1 and _nonincreasing(report.linf)
        )
    if set(("kde", "skde")) <= set(config.estimators):
        flags["skde_no_worse_than_kde"] = all(
            medians[("skde", n, h)][1] <= medians[("kde", n, h)][1]
            for n in config.n_values
            for h in config.bandwidths_for(n)
        )
    return StudyResult(
        results=results,
        timing=timing,
        reports=reports,
        flags=flags,
        meta={"exact_density": config.density, "mesh_size": mesh},
    )


def _field_errors(value, grad, exact_value, exact_grad):
    l2v, linfv = error_metrics(value, exact_value, _REGION)
    l2x, linfx = error_metrics(grad[:, :, 0], exact_grad[:, :, 0], _REGION)
    l2y, linfy = error_metrics(grad[:, :, 1], exact_grad[:, :, 1], _REGION)
    return (l2v, linfv, l2x, linfx, l2y, linfy)


def minimizer_comparison(config: StudyConfig) -> StudyResult:
    """Minimizer discrepancy and timing sweep over the sample sizes.

    The reference field comes from minimizing with the exact density. Per n
    and seed the study then minimizes with the estimated density (one run
    per configured estimator, sharing the sampled cloud) and, when
    `include_discrete` is set, runs the graph minimizer on the cloud plus
    constraint points. Errors are measured against the reference field on
    the evaluation mesh window (graph labelings: at the sample positions
    inside the window, values compared by interpolating the reference
    there). A non-converged run keeps its row, flagged by the `converged`
    column.
    """
    rho = reference_density(config.density)
    constraints = constraint_labels()
    in_region = _region_mask(config.mesh_size, _REGION).ravel()  # row-major, as on_mesh
    spline_config = SplineConfig(num_knots=config.T, lam=config.lam)
    knots = spline_knots(spline_config)
    spline_op = SplineFit(spline_config) if "skde" in config.estimators else None

    # one patch domain, with its static operators, and one factored spline
    # operator serve every solve and fit of the study
    domain = build_patches(
        constraints.positions,
        constraints.values,
        config.points_per_patch,
        tiles=(3, 3),
        label_fn=label_value,
    )

    def solve_continuum(density):
        problem = ContinuumProblem(domain=domain, density=density, p=config.p)
        return minimize_continuum(problem, tol=config.tol, max_iter=config.max_iter)

    start = time.perf_counter()
    reference = solve_continuum(rho)
    reference_seconds = time.perf_counter() - start
    f_ref = reference.field.on_mesh(config.mesh_size).ravel()
    masked_ref = f_ref[in_region]
    denom = float(config.mesh_size) ** 2

    def field_error(values_on_mesh):
        diff = np.abs(values_on_mesh[in_region] - masked_ref)
        return float(np.sqrt(np.sum(diff**2) / denom)), float(np.max(diff))

    def run_cell(cell):
        n, seed = cell
        h = config.bandwidths_for(n)[0]
        rows = []
        timing = []
        t0 = time.perf_counter()
        cloud = sample_density(rho, n, seed=seed)
        sample_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        kde = KdeDensityField(cloud, h)
        kde_knots = kde.value_at(knots)
        kde_seconds = time.perf_counter() - t0
        fit_seconds = 0.0
        for est in config.estimators:
            t0 = time.perf_counter()
            if est == "kde":
                density = kde
            else:
                density = skde_fit(kde_knots, spline_config, spline_op)
            fit_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            res = solve_continuum(density)
            solve_seconds = time.perf_counter() - t0
            l2, linf = field_error(res.field.on_mesh(config.mesh_size).ravel())
            rows.append(
                (
                    est,
                    n,
                    seed,
                    l2,
                    linf,
                    int(res.converged),
                    res.iterations,
                    float(res.residual),
                    int(np.all(np.diff(res.energies) <= 0.0)),
                )
            )
            pipeline = sample_seconds + kde_seconds + fit_seconds + solve_seconds
            timing.append((est, n, seed, sample_seconds, kde_seconds + fit_seconds, solve_seconds, pipeline))
        if config.include_discrete:
            t0 = time.perf_counter()
            pts = np.vstack([cloud.points, constraints.positions])
            graph = build_epsilon_graph(pts, default_epsilon(pts.shape[0], config.p))
            graph_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            res = minimize_discrete(
                graph, constraints.graph_constraints(n), p=config.p, tol=config.tol
            )
            solve_seconds = time.perf_counter() - t0
            keep = (
                (pts[:, 0] >= _REGION[0])
                & (pts[:, 0] <= _REGION[1])
                & (pts[:, 1] >= _REGION[2])
                & (pts[:, 1] <= _REGION[3])
            )
            diff = np.abs(res.values[keep] - reference.field.evaluate(pts[keep]))
            rows.append(
                (
                    "discrete",
                    n,
                    seed,
                    float(np.sqrt(np.mean(diff**2))),
                    float(np.max(diff)),
                    int(res.converged),
                    res.iterations,
                    float(res.residual),
                    int(np.all(np.diff(res.energies) <= 0.0)),
                )
            )
            timing.append(
                ("discrete", n, seed, sample_seconds, graph_seconds, solve_seconds,
                 sample_seconds + graph_seconds + solve_seconds)
            )
        return rows, timing

    cells = [(n, seed) for n in config.n_values for seed in config.seeds]
    outcomes = [run_cell(cell) for cell in cells]
    result_rows = []
    timing_rows = []
    for rows, timing in outcomes:
        result_rows.extend(rows)
        timing_rows.extend(timing)

    header = ("route", "n", "seed", "l2", "linf", "converged", "iterations", "residual",
              "energy_monotone")
    results = Table(header, tuple(result_rows))
    timing = Table(
        ("route", "n", "seed", "sample_seconds", "estimate_seconds", "solve_seconds",
         "pipeline_seconds"),
        tuple(timing_rows),
    )

    routes = list(config.estimators) + (["discrete"] if config.include_discrete else [])
    reports = []
    flags = {}
    for route in routes:
        per_n_linf = []
        per_n_l2 = []
        per_n_secs = []
        for n in config.n_values:
            rows = [r for r in result_rows if r[0] == route and r[1] == n]
            per_n_l2.append(_median([r[3] for r in rows]))
            per_n_linf.append(_median([r[4] for r in rows]))
            secs = [t[6] for t in timing_rows if t[0] == route and t[1] == n]
            per_n_secs.append(_median(secs))
        reports.append(
            ErrorReport(
                method=route,
                sweep=config.n_values,
                l2=tuple(per_n_l2),
                linf=tuple(per_n_linf),
                seconds=tuple(per_n_secs),
            )
        )
        flags[f"{route}_linf_nonincreasing_in_n"] = (
            len(config.n_values) > 1 and _nonincreasing(per_n_linf)
        )

    first_seed = config.seeds[0]
    for route in routes:
        spans = [
            next(t[6] for t in timing_rows if t[0] == route and t[1] == n and t[2] == first_seed)
            for n in config.n_values
        ]
        if len(spans) > 1 and spans[0] > 0.0:
            flags[f"{route}_time_growth"] = spans[-1] / spans[0]

    return StudyResult(
        results=results,
        timing=timing,
        reports=tuple(reports),
        flags=flags,
        meta={
            "reference_converged": int(reference.converged),
            "reference_residual": float(reference.residual),
            "reference_seconds": reference_seconds,
            "discrete_comparison": "reference field interpolated at the sample positions",
            "bandwidth_schedule": "0.3 * n^(-1/6)" if config.h_values is None else "explicit",
        },
    )
