"""Reproducible error and timing studies comparing the labeling routes.

Two study drivers cover the package's empirical claims: density-estimation
error sweeps (estimator accuracy for values and first derivatives over the
sample sizes, one bandwidth per size) and minimizer discrepancy sweeps (how
close the continuum minimizer built on an estimated density lands to the
one built on the exact density, optionally alongside the discrete graph
minimizer). Every study is driven by a frozen `StudyConfig`, runs a fixed
seed list, and returns deterministic result tables (bit-identical on rerun)
with wall times split into a separate timing table. Both studies run one
estimate stage per (n, seed): draw the cloud, build the KDE once, and fit
the spline to its knot values only when `skde` is configured; each
estimator is charged only the work its own field needs. Both studies reduce
their per-seed errors and times to the same per-method reports over n:
medians over the seeds, with a flag for whether the L-infinity error falls
in n. Cells run one after another: they hold the interpreter lock, so a
thread pool made the studies slower, not faster. Every error norm is taken
over the window [0.01, 0.99]^2, away from the edges of the square.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .continuum import ContinuumProblem, minimize_continuum
from .csvio import Table
from .density import (
    _DENSITIES,
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

    Each sample size n gets one kernel bandwidth: `h` if set, otherwise the
    schedule h_scale * n^(-1/6) (the default coefficient 0.3 was measured
    to keep the estimate useful over the default n range). `tol` is the
    relative energy-gap tolerance of every solve, continuum and discrete;
    both run on their solver's default step budget.
    """

    density: str = "rho2"
    n_values: tuple = (1024, 4096, 16384)
    h: float | None = None
    h_scale: float = 0.3
    T: int = 4096
    lam: float = 1.0e-6
    p: float = 3.0
    tol: float = 1.0e-5
    seeds: tuple = (1, 2, 3, 4, 5)
    mesh_size: int = 512
    points_per_patch: int = 20
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
        if self.h is not None:
            if not (self.h > 0.0):
                raise ValidationError(f"h must be positive, got {self.h}")
            object.__setattr__(self, "h", float(self.h))
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
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "estimators", estimators)

    def bandwidth(self, n: int) -> float:
        """Kernel bandwidth at sample size n."""
        if self.h is None:
            return self.h_scale * float(n) ** (-1.0 / 6.0)
        return self.h


@dataclass(frozen=True)
class StudyResult:
    """Deterministic tables, per-method reports, and trend flags."""

    results: Table
    timing: Table
    reports: tuple
    flags: dict
    meta: dict = field(default_factory=dict)


def _in_window(x, y, region: tuple):
    """Whether the points (x, y) lie in the window (x0, x1, y0, y1)."""
    return (x >= region[0]) & (x <= region[1]) & (y >= region[2]) & (y <= region[3])


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
    sites = uniform_mesh(a.shape[0])
    mask = _in_window(sites[None, :], sites[:, None], region)  # rows index y
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


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its wall time in seconds."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _reports(config: StudyConfig, routes, samples: dict) -> tuple:
    """Error reports over n and their `<route>_linf_nonincreasing_in_n` flags.

    ``samples[(route, n)]`` lists one (l2, linf, seconds) triple per seed;
    each report entry is the median of one of them over the seeds.
    """
    reports = []
    flags = {}
    for route in routes:
        per_n = [[_median(c) for c in zip(*samples[(route, n)])] for n in config.n_values]
        l2, linf, seconds = zip(*per_n)
        reports.append(ErrorReport(route, config.n_values, l2, linf, seconds))
        flags[f"{route}_linf_nonincreasing_in_n"] = (
            len(config.n_values) > 1 and _nonincreasing(linf)
        )
    return tuple(reports), flags


def _estimates(config: StudyConfig, rho):
    """The estimate stage of both studies, once per (n, seed).

    Yields ``(n, seed, cloud, sample_seconds, estimates)``, where
    ``estimates`` maps each configured estimator to its field and the
    seconds of only the work that field needs: the KDE build for `kde`,
    and the build, the KDE at the spline knots and the fit for `skde`. The
    knot values are computed only when `skde` is configured.
    """
    spline_config = SplineConfig(num_knots=config.T, lam=config.lam)
    fit_spline = "skde" in config.estimators
    if fit_spline:
        knots = spline_knots(spline_config)
        # one factored spline operator serves every fit of the study
        spline_op = SplineFit(spline_config)
    for n in config.n_values:
        for seed in config.seeds:
            cloud, sample_seconds = _timed(sample_density, rho, n, seed=seed)
            kde, kde_seconds = _timed(KdeDensityField, cloud, config.bandwidth(n))
            fields = {"kde": (kde, kde_seconds)}
            if fit_spline:
                start = time.perf_counter()
                spline = skde_fit(kde.value_at(knots), spline_config, spline_op)
                fields["skde"] = (spline, kde_seconds + (time.perf_counter() - start))
            yield n, seed, cloud, sample_seconds, {est: fields[est] for est in config.estimators}


def _lattice_domain(points_per_patch: int):
    """The 3 x 3 patch domain pinned at the 16 constraint-lattice points."""
    labels = constraint_labels()
    return build_patches(
        labels.positions, labels.values, points_per_patch, tiles=(3, 3), label_fn=label_value
    )


def density_error_study(config: StudyConfig) -> StudyResult:
    """Estimator accuracy sweep over (estimator, n) cells.

    Per cell and seed: draw the cloud, build the estimator, and measure the
    L2/L-infinity errors of the density value and of both partial
    derivatives against the exact density on the evaluation mesh window.
    The results table holds per-cell medians over the seed list; per-seed
    wall times (the estimator's own work plus its mesh evaluation) go to the
    timing table.
    """
    rho = reference_density(config.density)
    mesh = config.mesh_size
    exact_value = rho.on_mesh(mesh)
    exact_grad = rho.gradient_on_mesh(mesh)

    def on_mesh(estimate):
        return estimate.on_mesh(mesh), estimate.gradient_on_mesh(mesh)

    def errors(value, grad):
        return (
            *error_metrics(value, exact_value, _REGION),
            *error_metrics(grad[:, :, 0], exact_grad[:, :, 0], _REGION),
            *error_metrics(grad[:, :, 1], exact_grad[:, :, 1], _REGION),
        )

    # (estimator, n) -> per-seed (errors, seconds)
    cells = {(est, n): [] for n in config.n_values for est in config.estimators}
    for n, _, _, _, estimates in _estimates(config, rho):
        for est, (estimate, estimate_seconds) in estimates.items():
            fields, mesh_seconds = _timed(on_mesh, estimate)
            cells[(est, n)].append((errors(*fields), estimate_seconds + mesh_seconds))

    result_rows = []
    timing_rows = []
    samples = {}
    for (est, n), per_seed in cells.items():
        h = config.bandwidth(n)
        per_seed_errors = [errs for errs, _ in per_seed]
        result_rows.append((est, n, h, *(_median(c) for c in zip(*per_seed_errors))))
        timing_rows.extend((est, n, h, seed, sec)
                           for seed, (_, sec) in zip(config.seeds, per_seed))
        samples[(est, n)] = [(errs[0], errs[1], sec) for errs, sec in per_seed]
    metric_names = ("l2_value", "linf_value", "l2_dx", "linf_dx", "l2_dy", "linf_dy")
    results = Table(("estimator", "n", "h", *metric_names), tuple(result_rows))
    timing = Table(("estimator", "n", "h", "seed", "seconds"), tuple(timing_rows))

    reports, flags = _reports(config, config.estimators, samples)
    if set(("kde", "skde")) <= set(config.estimators):
        by_est = {report.method: report.linf for report in reports}
        flags["skde_no_worse_than_kde"] = all(
            s <= k for s, k in zip(by_est["skde"], by_est["kde"])
        )
    return StudyResult(
        results=results,
        timing=timing,
        reports=reports,
        flags=flags,
        meta={"exact_density": config.density, "mesh_size": mesh},
    )


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
    mesh = config.mesh_size
    # one patch domain, with its static operators, serves every solve
    domain = _lattice_domain(config.points_per_patch)

    def solve_continuum(density):
        problem = ContinuumProblem(domain=domain, density=density, p=config.p)
        return minimize_continuum(problem, tol=config.tol)

    reference, reference_seconds = _timed(solve_continuum, rho)
    reference_on_mesh = reference.field.on_mesh(mesh)

    result_rows = []
    timing_rows = []
    samples = {}  # (route, n) -> per-seed (l2, linf, pipeline seconds)

    def record(route, n, seed, l2, linf, res, sample_s, estimate_s, solve_s):
        pipeline = sample_s + estimate_s + solve_s
        result_rows.append((route, n, seed, l2, linf, int(res.converged), res.iterations,
                            float(res.residual), int(np.all(np.diff(res.energies) <= 0.0))))
        timing_rows.append((route, n, seed, sample_s, estimate_s, solve_s, pipeline))
        samples.setdefault((route, n), []).append((l2, linf, pipeline))

    for n, seed, cloud, sample_seconds, estimates in _estimates(config, rho):
        for est, (density, estimate_seconds) in estimates.items():
            res, solve_seconds = _timed(solve_continuum, density)
            l2, linf = error_metrics(res.field.on_mesh(mesh), reference_on_mesh, _REGION)
            record(est, n, seed, l2, linf, res, sample_seconds, estimate_seconds, solve_seconds)
        if config.include_discrete:
            start = time.perf_counter()
            pts = np.vstack([cloud.points, constraints.positions])
            graph = build_epsilon_graph(pts, default_epsilon(pts.shape[0], config.p))
            graph_seconds = time.perf_counter() - start
            res, solve_seconds = _timed(
                minimize_discrete, graph, constraints.graph_constraints(n), p=config.p,
                tol=config.tol,
            )
            keep = _in_window(pts[:, 0], pts[:, 1], _REGION)
            diff = np.abs(res.values[keep] - reference.field.evaluate(pts[keep]))
            record("discrete", n, seed, float(np.sqrt(np.mean(diff**2))),
                   float(np.max(diff)), res, sample_seconds, graph_seconds, solve_seconds)

    results = Table(
        ("route", "n", "seed", "l2", "linf", "converged", "iterations", "residual",
         "energy_monotone"),
        tuple(result_rows),
    )
    timing = Table(
        ("route", "n", "seed", "sample_seconds", "estimate_seconds", "solve_seconds",
         "pipeline_seconds"),
        tuple(timing_rows),
    )
    routes = config.estimators + (("discrete",) if config.include_discrete else ())
    reports, flags = _reports(config, routes, samples)
    for report in reports:
        # median pipeline seconds over the seeds, at the largest n over the smallest
        spans = report.seconds
        if len(spans) > 1 and spans[0] > 0.0:
            flags[f"{report.method}_time_growth"] = spans[-1] / spans[0]

    schedule = f"{config.h_scale:g} * n^(-1/6)" if config.h is None else f"{config.h:g}"
    return StudyResult(
        results=results,
        timing=timing,
        reports=reports,
        flags=flags,
        meta={
            "reference_converged": int(reference.converged),
            "reference_residual": float(reference.residual),
            "reference_seconds": reference_seconds,
            "discrete_comparison": "reference field interpolated at the sample positions",
            "bandwidth_schedule": schedule,
        },
    )
