"""Acceptance checklist for the package, one test per criterion.

Each test prints a single ``criterion NN: PASS|FAIL - detail`` line (visible
under ``pytest -s``) before asserting, so a full run reads as a checklist.
Small exact oracles come first, then trend reproductions on the reference
densities; the final two criteria audit records accumulated by the earlier
solver runs, so the file is meant to run as a whole and in order.

Criterion 6 compares the p = 2 collocation field with a resolved grid solve
on a well-posed problem: the label formula on the whole outer boundary. At
p = d = 2 isolated point constraints carry no capacity in the continuum
energy, so pinning the 16-point lattice alone has no continuum minimizer to
compare against; criteria 9 and 12 pin that lattice at p = 3, where points
do carry capacity.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from pdirichlet.chebyshev import chebyshev_nodes
from pdirichlet.continuum import (
    ContinuumProblem,
    minimize_continuum,
    nonlocal_energy,
)
from pdirichlet.density import (
    KdeDensityField,
    SplineConfig,
    reference_density,
    sample_density,
    sigma_eta,
    skde_fit,
    spline_knots,
    uniform_mesh,
)
from pdirichlet.experiments import (
    StudyConfig,
    constraint_labels,
    density_error_study,
    label_value,
    minimizer_comparison,
)
from pdirichlet.graph import (
    ConstraintSet,
    build_epsilon_graph,
    default_epsilon,
    minimize_discrete,
    solve_p2_direct,
)
from pdirichlet.patches import build_patches
from tensor_grid import quadrature_2d, tensor_diff_ops

# Energy sequences recorded by the solver runs in criteria 3-6, audited by
# criterion 11 together with the per-row flags of the criterion 9 study.
_ENERGY_RUNS: list[tuple[str, np.ndarray]] = []
_RECORDS: dict[str, object] = {}


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_spectral_exactness():
    t0 = time.perf_counter()
    grid = chebyshev_nodes(8, (0.0, 1.0))
    dx, dy = tensor_diff_ops(grid, grid)
    rule = quadrature_2d(grid, grid)
    x, y = rule.points[:, 0], rule.points[:, 1]
    worst = 0.0
    for a in range(9):
        for b in range(9):
            f = x**a * y**b
            fx = a * x ** max(a - 1, 0) * y**b if a else np.zeros_like(x)
            fy = b * x**a * y ** max(b - 1, 0) if b else np.zeros_like(x)
            for op, exact in ((dx, fx), (dy, fy)):
                scale = max(float(np.max(np.abs(exact))), 1.0)
                worst = max(worst, float(np.max(np.abs(op @ f - exact))) / scale)
            integral = rule.integrate(f)
            exact_int = 1.0 / ((a + 1) * (b + 1))
            worst = max(worst, abs(integral - exact_int) / exact_int)
    dt = time.perf_counter() - t0
    _verdict(
        1,
        worst < 1.0e-8 and dt < 1.0,
        f"derivatives and integrals of all 81 monomials up to degree 8 "
        f"reproduced to {worst:.2e} relative error in {dt:.2f}s",
    )


def test_criterion_02_kernel_constant_oracles():
    t0 = time.perf_counter()
    gap1 = abs(sigma_eta(2.0, "indicator", d=1) - 2.0 / 3.0)
    gap2 = abs(sigma_eta(2.0, "indicator", d=2) - np.pi / 4.0)
    dt = time.perf_counter() - t0
    _verdict(
        2,
        gap1 < 1.0e-6 and gap2 < 1.0e-6 and dt < 1.0,
        f"indicator-kernel constants match 2/3 (d=1) and pi/4 (d=2) to "
        f"{max(gap1, gap2):.2e} in {dt:.2f}s",
    )


def test_criterion_03_descent_matches_direct_solve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(60, 501))
        pts = rng.random((n, 2))
        eps = 1.3 * default_epsilon(n, 2.0)
        graph = build_epsilon_graph(pts, eps)
        assert sp.csgraph.connected_components(graph.weights, directed=False)[0] == 1
        m = int(rng.integers(3, 9))
        idx = rng.choice(n, size=m, replace=False)
        cons = ConstraintSet(idx, rng.random(m))
        direct = solve_p2_direct(graph, cons)
        res = minimize_discrete(graph, cons, p=2.0, tol=1e-11, max_iter=500_000)
        _ENERGY_RUNS.append((f"criterion 3 n={n}", res.energies))
        worst = max(worst, float(np.max(np.abs(res.values - direct.values))))
    dt = time.perf_counter() - t0
    _verdict(
        3,
        worst < 1.0e-6 and dt < 30.0,
        f"descent minimizer matches the direct p=2 solve to {worst:.2e} "
        f"max norm over 20 random graphs in {dt:.1f}s",
    )


def _exhaustive_grid_min(graph, cons, p, step=1e-3):
    """Joint grid search over the free coordinates: a coarse full grid, then a
    full fine-grid pass in the surrounding window (the energy is strictly
    convex, so the global fine-grid minimizer lies next to the coarse one)."""
    free = np.setdiff1d(np.arange(graph.n), cons.indices)
    lo, hi = float(cons.values.min()), float(cons.values.max())
    w = graph.weights.tocoo()
    mask = w.row < w.col
    rows, cols, wij = w.row[mask], w.col[mask], w.data[mask]

    def best_on(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        u = {idx: g.ravel() for idx, g in zip(free, grids)}
        for idx, val in zip(cons.indices, cons.values):
            u[idx] = val
        total = np.zeros(grids[0].size)
        for i, j, weight in zip(rows, cols, wij):
            total += weight * np.abs(u[i] - u[j]) ** p
        k = int(np.argmin(total))
        return np.array([g.ravel()[k] for g in grids])

    coarse = 0.02
    centers = best_on([np.arange(lo, hi + coarse / 2, coarse)] * free.size)
    span = np.arange(-coarse, coarse + step / 2, step)
    fine = best_on([c + span for c in centers])
    return fine, free


def test_criterion_04_descent_matches_grid_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        for _ in range(3):
            n_free = int(rng.integers(1, 5))
            n = n_free + 3
            pts = rng.random((n, 2))
            graph = build_epsilon_graph(pts, 0.55, eta="gaussian")
            assert sp.csgraph.connected_components(graph.weights, directed=False)[0] == 1
            vals = np.round(rng.random(3), 3)
            cons = ConstraintSet(np.arange(n_free, n), vals)
            ref, free = _exhaustive_grid_min(graph, cons, p)
            res = minimize_discrete(graph, cons, p=p, tol=1e-10)
            _ENERGY_RUNS.append((f"criterion 4 p={p}", res.energies))
            worst = max(worst, float(np.max(np.abs(res.values[free] - ref))))
    dt = time.perf_counter() - t0
    _verdict(
        4,
        worst < 2.0e-3 and dt < 60.0,
        f"minimizer matches the exhaustive 1e-3 grid search within "
        f"{worst:.2e} per coordinate for p in (1.5, 2, 3) in {dt:.1f}s",
    )


def test_criterion_05_affine_recovery():
    t0 = time.perf_counter()
    affine = lambda x, y: 2.0 * x - y + 0.3
    rho = reference_density("rho1")
    sites = uniform_mesh(101)
    xx, yy = np.meshgrid(sites, sites)
    worst = 0.0
    all_converged = True
    # both solves start from the exact p = 2 minimizer, which already
    # reproduces affine data, so at p = 3 the run verifies stationarity
    for p in (2.0, 3.0):
        dom = build_patches(None, None, 30, tiles=(3, 3), boundary_value_fn=affine)
        prob = ContinuumProblem(domain=dom, density=rho, p=p)
        res = minimize_continuum(prob, tol=1.0e-5)
        _ENERGY_RUNS.append((f"criterion 5 p={p}", res.energies))
        all_converged = all_converged and res.converged
        mesh_err = float(np.max(np.abs(res.field.on_mesh(101) - affine(xx, yy))))
        node_err = float(
            np.max(np.abs(res.values - affine(dom.points[:, 0], dom.points[:, 1])))
        )
        worst = max(worst, mesh_err, node_err)
    dt = time.perf_counter() - t0
    _verdict(
        5,
        all_converged and worst < 1.0e-5 and dt < 120.0,
        f"affine boundary data recovered to {worst:.2e} L-infinity for "
        f"p in (2, 3) on 3x3 patches with 30 points per side in {dt:.1f}s",
    )


def _grid_dirichlet_oracle(m: int, boundary_fn) -> np.ndarray:
    """Independent second-order oracle on the uniform (m x m) grid: 5-point
    Laplacian at the interior nodes and identity rows pinning every outer
    boundary node to ``boundary_fn``; values are indexed [iy * m + ix]."""
    h = 1.0 / (m - 1)
    t = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    lap = (sp.kron(eye, t) + sp.kron(t, eye)).tolil() / h**2
    iy, ix = np.divmod(np.arange(m * m), m)
    on_edge = (ix % (m - 1) == 0) | (iy % (m - 1) == 0)
    for k in np.flatnonzero(on_edge):
        lap.rows[k] = [k]
        lap.data[k] = [1.0]
    rhs = np.where(on_edge, boundary_fn(ix * h, iy * h), 0.0)
    return splu(lap.tocsc()).solve(rhs)


def test_criterion_06_p2_field_vs_grid_oracle():
    t0 = time.perf_counter()
    m = 257
    h = 1.0 / (m - 1)
    tol = 1.0e-2
    # the labels on the whole outer boundary, which holds the 12 boundary
    # lattice points; the oracle must be resolved well below the tolerance
    oracle = _grid_dirichlet_oracle(m, label_value)
    coarse = _grid_dirichlet_oracle((m + 1) // 2, label_value)
    drift = float(np.max(np.abs(oracle.reshape(m, m)[::2, ::2].ravel() - coarse)))

    dom = build_patches(None, None, 20, tiles=(3, 3), boundary_value_fn=label_value)
    prob = ContinuumProblem(domain=dom, density=reference_density("rho1"), p=2.0)
    res = minimize_continuum(prob, tol=1.0e-5)
    _ENERGY_RUNS.append(("criterion 6", res.energies))

    sites = np.arange(m) * h
    xx, yy = np.meshgrid(sites, sites)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    window = (
        (pts[:, 0] >= 0.01)
        & (pts[:, 0] <= 0.99)
        & (pts[:, 1] >= 0.01)
        & (pts[:, 1] <= 0.99)
    )
    gap = float(np.max(np.abs(res.field.evaluate(pts[window]) - oracle[window])))
    dt = time.perf_counter() - t0
    _verdict(
        6,
        res.converged and drift < 0.1 * tol and gap < tol and dt < 300.0,
        f"p = 2 field with the labels on the outer boundary matches the "
        f"5-point grid oracle to {gap:.2e} L-infinity (tolerance {tol:.1e}; "
        f"oracle moves {drift:.1e} from m = {(m + 1) // 2} to {m}; "
        f"converged={res.converged}) in {dt:.1f}s",
    )


def test_criterion_07_kde_error_trend():
    t0 = time.perf_counter()
    out = density_error_study(
        StudyConfig(
            density="rho2",
            n_values=(1024, 8192, 65536),
            h_scale=1.0,
            seeds=(1, 2, 3, 4, 5),
            mesh_size=512,
            estimators=("kde",),
        )
    )
    (report,) = out.reports
    dt = time.perf_counter() - t0
    medians = ", ".join(f"{v:.4f}" for v in report.linf)
    _verdict(
        7,
        bool(out.flags["kde_linf_nonincreasing_in_n"]) and dt < 300.0,
        f"median sup-norm error is non-increasing across the sample sweep "
        f"({medians}) in {dt:.1f}s",
    )


def test_criterion_08_skde_no_worse_than_kde():
    t0 = time.perf_counter()
    out = density_error_study(
        StudyConfig(
            density="rho1",
            n_values=(10000,),
            h=0.03,
            T=4096,
            lam=1.0e-6,
            seeds=(1, 2, 3, 4, 5),
            mesh_size=512,
        )
    )
    by_method = {r.method: r.linf[0] for r in out.reports}
    dt = time.perf_counter() - t0
    _verdict(
        8,
        bool(out.flags["skde_no_worse_than_kde"]) and dt < 180.0,
        f"median sup-norm error {by_method['skde']:.4f} (spline fit) <= "
        f"{by_method['kde']:.4f} (kernel estimate) in {dt:.1f}s",
    )


def test_criterion_09_minimizer_error_trend():
    t0 = time.perf_counter()
    out = minimizer_comparison(
        StudyConfig(
            density="rho2",
            n_values=(1024, 4096, 16384),
            p=3.0,
            seeds=(1, 2, 3, 4, 5),
            mesh_size=512,
            points_per_patch=20,
            tol=1.0e-5,
            T=4096,
            lam=1.0e-6,
            estimators=("skde",),
        )
    )
    _RECORDS["minimizers"] = out
    (report,) = out.reports
    dt = time.perf_counter() - t0
    medians = ", ".join(f"{v:.4f}" for v in report.linf)
    _verdict(
        9,
        bool(out.flags["skde_linf_nonincreasing_in_n"]) and dt < 900.0,
        f"median sup-norm distance to the exact-density field is "
        f"non-increasing across the sample sweep ({medians}) in {dt:.1f}s",
    )


def test_criterion_10_nonlocal_energy_consistency():
    t0 = time.perf_counter()
    rho = reference_density("rho1")
    target = sigma_eta(3.0, "indicator", d=2) * 0.16
    deviations = []
    for eps, cells in ((0.1, 24), (0.05, 28), (0.025, 30)):
        energy = nonlocal_energy(
            lambda q: q[:, 0],
            rho,
            eps,
            p=3.0,
            region=(0.3, 0.7, 0.3, 0.7),
            cells_per_radius=cells,
            x_cells=80,
        )
        deviations.append(abs(energy - target))
    dt = time.perf_counter() - t0
    shrinking = all(np.diff(deviations) < 0.0)
    listed = ", ".join(f"{d:.2e}" for d in deviations)
    _verdict(
        10,
        shrinking and max(deviations) < 1.0e-3 and dt < 120.0,
        f"neighborhood-energy deviation from the local limit shrinks "
        f"monotonically ({listed}) in {dt:.1f}s",
    )


def test_criterion_11_energy_monotonicity():
    if not _ENERGY_RUNS and "minimizers" not in _RECORDS:
        pytest.skip("needs the solver runs recorded by criteria 3-9")
    violations = []
    for label, energies in _ENERGY_RUNS:
        if np.any(np.diff(np.asarray(energies)) > 0.0):
            violations.append(label)
    study = _RECORDS.get("minimizers")
    rows = study.results.rows if study is not None else []
    for row in rows:
        if int(row[8]) != 1:
            violations.append(f"criterion 9 {row[0]} n={row[1]} seed={row[2]}")
    audited = len(_ENERGY_RUNS) + len(rows)
    _verdict(
        11,
        not violations,
        f"all {audited} recorded energy sequences are non-increasing"
        if not violations
        else f"energy rose in: {', '.join(violations)}",
    )


def test_criterion_12_timing_crossover():
    rho = reference_density("rho2")
    pc = constraint_labels()
    spline_config = SplineConfig(num_knots=4096, lam=1.0e-6)
    knots = spline_knots(spline_config)
    continuum_secs = []
    discrete_secs = []
    for n in (1024, 4096, 16384):
        t0 = time.perf_counter()
        cloud = sample_density(rho, n, seed=1)
        kde = KdeDensityField(cloud, 0.3 * float(n) ** (-1.0 / 6.0))
        density = skde_fit(kde.value_at(knots), spline_config)
        dom = build_patches(
            pc.positions, pc.values, 20, tiles=(3, 3), label_fn=label_value
        )
        prob = ContinuumProblem(domain=dom, density=density, p=3.0)
        minimize_continuum(prob, tol=1.0e-5, max_iter=400)
        continuum_secs.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        pts = np.vstack([cloud.points, pc.positions])
        graph = build_epsilon_graph(pts, default_epsilon(pts.shape[0], 3.0))
        minimize_discrete(graph, pc.graph_constraints(n), p=3.0, tol=1.0e-5)
        discrete_secs.append(time.perf_counter() - t0)
    continuum_growth = continuum_secs[-1] / continuum_secs[0]
    discrete_growth = discrete_secs[-1] / discrete_secs[0]
    _verdict(
        12,
        continuum_growth < 4.0 and discrete_growth > 10.0,
        f"over a 16x sample increase the patch pipeline slowed by "
        f"{continuum_growth:.1f}x while the graph solver slowed by "
        f"{discrete_growth:.1f}x",
    )
