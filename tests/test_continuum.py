"""Continuum solver: energy-gradient oracles, minimizers, interpolation, nonlocal sums."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.sparse.linalg import splu

from pdirichlet import continuum, solver
from pdirichlet.chebyshev import chebyshev_nodes
from pdirichlet.continuum import (
    ContinuumProblem,
    _bary_matrix,
    _RitzEnergy,
    PatchedField,
    local_energy,
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
)
from pdirichlet.errors import ValidationError
from pdirichlet.patches import build_patches
from pdirichlet.solver import _pcg
from point_pin import point_pin_minimizer
from tensor_grid import quadrature_2d, tensor_diff_ops


def constraint_lattice():
    ticks = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    xx, yy = np.meshgrid(ticks, ticks)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    return pos, 4.0 * (pos[:, 0] - 0.5) ** 2 + (pos[:, 1] - 0.5) ** 2


def make_problem(p=2.0, ppp=10, tiles=(2, 2), boundary=None):
    dom = build_patches(None, None, ppp, tiles=tiles, boundary_value_fn=boundary)
    rho = reference_density("rho1")
    return ContinuumProblem(domain=dom, density=rho, p=p)


def node_values(dom, fn):
    return fn(dom.points[:, 0], dom.points[:, 1])


def geometric_values(dom, fn):
    return fn(dom.node_points[:, 0], dom.node_points[:, 1])


def newton_rhs(v, prob):
    """-dE/dv at the free geometric nodes: the right-hand side of the
    Newton system, summed over the copies of each node."""
    return -_RitzEnergy(prob).gradient(v, prob.p)


def reference_operators(dom):
    """Per-copy d/dx, d/dy (block-diagonal sparse), coordinates and
    quadrature weights, built patch by patch from `tensor_diff_ops` and
    `quadrature_2d`, independently of the domain's stacked arrays."""
    order = dom.d1x.shape[1] - 1
    grids = [
        (chebyshev_nodes(order, (x0, x1)), chebyshev_nodes(order, (y0, y1)))
        for y0, y1 in zip(dom.ylines[:-1], dom.ylines[1:])
        for x0, x1 in zip(dom.xlines[:-1], dom.xlines[1:])
    ]
    dx, dy = zip(*(tensor_diff_ops(gx, gy) for gx, gy in grids))
    rules = [quadrature_2d(gx, gy) for gx, gy in grids]
    return (
        sp.block_diag(dx, format="csr"),
        sp.block_diag(dy, format="csr"),
        np.vstack([r.points for r in rules]),
        np.concatenate([r.weights for r in rules]),
    )


def unequal_tiles():
    """Pins inferring tiles of unequal widths: x-lines 0/0.25/1, y-lines 0/0.6/1."""
    xx, yy = np.meshgrid([0.0, 0.25, 1.0], [0.0, 0.6, 1.0])
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    return build_patches(pos, pos[:, 0] - pos[:, 1] ** 2, 7)


def test_stacked_layout_matches_per_patch_reference():
    dom = unequal_tiles()
    np.testing.assert_allclose(np.diff(dom.xlines), [0.25, 0.75], rtol=1e-15)
    np.testing.assert_allclose(np.diff(dom.ylines), [0.6, 0.4], rtol=1e-15)
    dx, dy, points, weights = reference_operators(dom)
    np.testing.assert_array_equal(dom.points, points)
    np.testing.assert_array_equal(dom.quad_weights, weights)
    u = np.random.default_rng(5).random(dom.n_nodes)
    stacked = u.reshape(dom.d1x.shape)
    np.testing.assert_allclose((stacked @ dom.d1x.transpose(0, 2, 1)).ravel(), dx @ u,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose((dom.d1y @ stacked).ravel(), dy @ u, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_energy_and_gradient_match_sparse_reference_on_unequal_tiles(p):
    # swapping d/dx and d/dy, or a derivative matrix and its transpose,
    # changes both on tiles whose widths differ in x and y
    dom = unequal_tiles()
    prob = ContinuumProblem(domain=dom, density=reference_density("rho2"), p=p)
    dx, dy, points, weights = reference_operators(dom)
    v = np.random.default_rng(11).random(dom.node_points.shape[0])
    u = v[dom.node_of]
    gx, gy = dx @ u, dy @ u
    w = prob.sigma * weights * prob.density.value_at(points) ** 2
    q = p * w * (gx * gx + gy * gy) ** ((p - 2.0) / 2.0)
    grad = np.bincount(dom.node_of, dx.T @ (q * gx) + dy.T @ (q * gy))[dom.free_nodes]
    assert local_energy(u, prob) == pytest.approx(w @ (gx * gx + gy * gy) ** (p / 2.0), rel=1e-12)
    got = _RitzEnergy(prob).gradient(v, p)
    np.testing.assert_allclose(got, grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())


def test_rhs_zero_for_affine_field():
    prob = make_problem(p=2.0, boundary=lambda x, y: 2.0 * x - y)
    v = geometric_values(prob.domain, lambda x, y: 2.0 * x - y)
    assert np.max(np.abs(newton_rhs(v, prob))) < 1e-9


def test_rhs_is_laplacian_for_quadratic():
    # u = x^2/2 with unit density and p = 2: integrating by parts, the
    # Newton rhs at a free node is 2 sigma times the integral of its basis
    # function, i.e. the summed quadrature weights of its copies; this holds
    # at interface and cross nodes too, since the quadrature is exact here
    prob = make_problem(p=2.0, tiles=(3, 3), boundary=lambda x, y: 0.5 * x**2)
    dom = prob.domain
    v = geometric_values(dom, lambda x, y: 0.5 * x**2)
    mass = np.bincount(dom.node_of, dom.quad_weights)[dom.free_nodes]
    np.testing.assert_allclose(newton_rhs(v, prob) / (2.0 * prob.sigma * mass), 1.0, atol=1e-9)


def test_local_energy_oracles():
    prob = make_problem(p=2.0, boundary=lambda x, y: x)
    dom = prob.domain
    sigma = sigma_eta(2.0, "indicator")
    assert local_energy(node_values(dom, lambda x, y: 0.0 * x + 3.0), prob) < 1e-20
    e_lin = local_energy(node_values(dom, lambda x, y: x), prob)
    assert e_lin == pytest.approx(sigma, rel=1e-12)
    e_quad = local_energy(node_values(dom, lambda x, y: x**2), prob)
    assert e_quad == pytest.approx(sigma * 4.0 / 3.0, rel=1e-8)


def test_local_energy_p3_oracle():
    # |grad u|^3 = |2x|^3 integrates to 2 on the unit square
    prob = make_problem(p=3.0, boundary=lambda x, y: x**2)
    dom = prob.domain
    sigma = sigma_eta(3.0, "indicator")
    e = local_energy(node_values(dom, lambda x, y: x**2), prob)
    assert e == pytest.approx(sigma * 2.0, rel=1e-8)


def test_rhs_matches_energy_gateaux_derivative_p2():
    # for p = 2 the energy is quadratic, so the centered difference is exact
    prob = make_problem(p=2.0, ppp=12, tiles=(1, 1), boundary=lambda x, y: x**2 + 0.5 * x * y)
    dom = prob.domain
    energy = _RitzEnergy(prob)
    v = geometric_values(dom, lambda x, y: x**2 + 0.5 * x * y)
    grad = energy.gradient(v, 2.0)
    rng = np.random.default_rng(7)
    for k in rng.integers(0, dom.free_nodes.size, size=5):
        h = 1e-4
        up, dn = v.copy(), v.copy()
        up[dom.free_nodes[k]] += h
        dn[dom.free_nodes[k]] -= h
        fd = (energy.energy(up) - energy.energy(dn)) / (2.0 * h)
        assert fd == pytest.approx(grad[k], rel=1e-9, abs=1e-14)


def test_rhs_matches_energy_gateaux_derivative_p3():
    # the Newton rhs is the exact derivative of the quadrature energy, so at
    # p = 3 the centered difference agrees up to its own truncation error,
    # at free nodes inside patches, on interfaces and at the cross point
    prob = make_problem(p=3.0, ppp=10, tiles=(2, 2), boundary=lambda x, y: x**2)
    dom = prob.domain
    energy = _RitzEnergy(prob)
    v = geometric_values(dom, lambda x, y: x**2 + 0.3 * np.sin(3.0 * y))
    grad = energy.gradient(v, 3.0)
    copies = np.bincount(dom.node_of)[dom.free_nodes]
    checked = np.concatenate([np.arange(0, dom.free_nodes.size, 7), np.flatnonzero(copies > 1)])
    assert set(copies[checked]) == {1, 2, 4}
    for k in checked:
        h = 1e-6
        up, dn = v.copy(), v.copy()
        up[dom.free_nodes[k]] += h
        dn[dom.free_nodes[k]] -= h
        fd = (energy.energy(up) - energy.energy(dn)) / (2.0 * h)
        assert fd == pytest.approx(grad[k], rel=1e-5)


def test_step_preserves_affine_across_patches():
    # the p = 2 start reproduces the affine boundary data exactly, and the
    # p = 3 Newton steps must keep it, across the patch interface too
    for p in (2.0, 3.0):
        prob = make_problem(p=p, ppp=8, tiles=(2, 1), boundary=lambda x, y: 2.0 * x - y + 0.3)
        res = minimize_continuum(prob, tol=1e-10)
        assert res.converged
        u = node_values(prob.domain, lambda x, y: 2.0 * x - y + 0.3)
        assert np.max(np.abs(res.values - u)) < 1e-8


def test_step_keeps_pins_exact():
    # the 16-point lattice pins every interior cross point of the 3x3
    # tiling; pinned nodes are fixed unknowns, so all their copies carry the
    # label exactly after every Newton step
    pos, labels = constraint_lattice()
    dom = build_patches(pos, labels, 8)
    prob = ContinuumProblem(domain=dom, density=reference_density("rho2"), p=3.0)
    res = minimize_continuum(prob, tol=1e-8)
    assert res.converged and res.iterations >= 1
    for coord, label in zip(pos, labels):
        at = np.flatnonzero(np.all(dom.points == coord, axis=1))
        assert at.size in (1, 2, 4)
        np.testing.assert_array_equal(res.values[at], label)


def test_minimize_recovers_affine_from_mean_start():
    for p in (2.0, 3.0):
        prob = make_problem(p=p, ppp=14, tiles=(2, 2), boundary=lambda x, y: x)
        res = minimize_continuum(prob, tol=1e-5)
        assert res.converged
        assert res.stop_reason == "converged"
        exact = node_values(prob.domain, lambda x, y: x)
        assert np.max(np.abs(res.values - exact)) < 1e-5
        assert np.all(np.diff(res.energies) <= 0.0)


def test_minimize_respects_maximum_principle():
    # with the whole boundary pinned the converged field must stay inside the
    # range of the pinned values; interior point pins are excluded here since
    # for p = 2 in two dimensions isolated pins force local spikes
    C = lambda x, y: 4.0 * (x - 0.5) ** 2 + (y - 0.5) ** 2
    for p in (2.0, 3.0):
        prob = make_problem(p=p, ppp=20, tiles=(2, 2), boundary=C)
        res = minimize_continuum(prob, tol=1e-5)
        assert res.converged
        pins = prob.domain.pin_values
        assert res.values.min() >= pins.min() - 1e-3
        assert res.values.max() <= pins.max() + 1e-3


def test_minimize_matches_second_order_dirichlet_solve():
    # independent oracle: 5-point Laplace solve with the same boundary values,
    # compared on the interior of a uniform grid; agreement is limited by the
    # oracle's own truncation error, h^2 ~ 6e-5 here
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    C = lambda x, y: 4.0 * (x - 0.5) ** 2 + (y - 0.5) ** 2
    m = 129
    h = 1.0 / (m - 1)
    n = m - 2
    t = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    lap = (sp.kron(eye, t) + sp.kron(t, eye)) / h**2
    xs = np.linspace(0.0, 1.0, m)
    inner = xs[1:-1]
    b = np.zeros((n, n))  # row index = y, column = x
    b[0, :] -= C(inner, 0.0) / h**2
    b[-1, :] -= C(inner, 1.0) / h**2
    b[:, 0] -= C(0.0, inner) / h**2
    b[:, -1] -= C(1.0, inner) / h**2
    oracle = splu(lap.tocsc()).solve(b.ravel())

    prob = make_problem(p=2.0, ppp=16, tiles=(3, 3), boundary=C)
    res = minimize_continuum(prob, tol=1e-5)
    assert res.converged
    gx, gy = np.meshgrid(inner, inner)
    mine = res.field.evaluate(np.column_stack([gx.ravel(), gy.ravel()]))
    assert np.max(np.abs(mine - oracle)) < 2e-4


def test_minimize_nonconverged_flag():
    # at p = 2 the start is already the minimizer, so the budget binds at p = 3
    prob = make_problem(p=3.0, ppp=8, tiles=(2, 2), boundary=lambda x, y: x * y)
    res = minimize_continuum(prob, tol=1e-12, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.stop_reason == "budget"
    assert res.decrement > 1e-12 * res.energy


def test_newton_reaches_lbfgs_minimum_p3():
    # p = 3 on 2x2 patches, pinned at the four domain corners and at the
    # cross point (0.5, 0.5) shared by all four patches
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    dom = build_patches(pos, np.array([0.0, 1.0, 0.5, -0.4, 1.2]), 6, tiles=(2, 2))
    prob = ContinuumProblem(domain=dom, density=reference_density("rho2"), p=3.0)
    res = minimize_continuum(prob, tol=1e-12)
    assert res.stop_reason == "converged"
    assert res.decrement <= 1e-12 * res.energy
    base = np.zeros(dom.node_points.shape[0])
    base[dom.pin_nodes] = dom.pin_values
    energy = _RitzEnergy(prob)

    def energy_and_gradient(x):
        v = base.copy()
        v[dom.free_nodes] = x
        return energy.energy(v), energy.gradient(v, 3.0)

    ref = minimize(energy_and_gradient, np.full(dom.free_nodes.size, 0.5), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": 100_000, "ftol": 1e-15, "gtol": 1e-14})
    assert local_energy(res.values, prob) <= ref.fun * (1.0 + 1e-10)
    assert res.energy == pytest.approx(local_energy(res.values, prob), rel=1e-12)


def hessian_domain(kind, ppp):
    if kind == "lattice":
        return build_patches(*constraint_lattice(), ppp)
    return build_patches(None, None, ppp, tiles=(2, 2), boundary_value_fn=lambda x, y: x * y)


def hessian_point(kind, ppp, p):
    """A Ritz energy on one of the two domains and a random iterate."""
    dom = hessian_domain(kind, ppp)
    energy = _RitzEnergy(ContinuumProblem(domain=dom, density=reference_density("rho2"), p=p))
    v = np.zeros(dom.node_points.shape[0])
    v[dom.pin_nodes] = dom.pin_values
    v[dom.free_nodes] = np.random.default_rng(ppp).random(dom.free_nodes.size)
    return dom, energy, v


def reference_hessian(dom, energy, v, p, delta, cross=True):
    """G^T M G, G the free-node gradient operator built from the per-patch
    `tensor_diff_ops` and the gather, M the per-copy 2x2 blocks (with their
    off-diagonal zeroed unless ``cross``)."""
    n = dom.n_nodes
    gather = sp.csr_matrix(
        (np.ones(n), (np.arange(n), dom.node_of)), shape=(n, dom.node_points.shape[0])
    )[:, dom.free_nodes]
    dx, dy, _, _ = reference_operators(dom)
    g = sp.vstack([dx @ gather, dy @ gather], format="csr")
    u = v[dom.node_of]
    gx, gy = dx @ u, dy @ u
    sq = np.maximum(gx * gx + gy * gy, delta * delta)
    a = p * energy._problem._weight.ravel() * sq ** ((p - 2.0) / 2.0)
    if p == 2.0:
        m = sp.diags(np.concatenate([a, a]))
    else:
        b = (p - 2.0) * a / sq
        bxy = sp.diags(b * gx * gy) if cross else None
        m = sp.bmat([[sp.diags(a + b * gx * gx), bxy], [bxy, sp.diags(a + b * gy * gy)]])
    return g.T @ (m @ g)


def factored_matrices(monkeypatch):
    """The matrices `_RitzEnergy.hessian` passes to `splu`, in call order."""
    factored = []

    def recording(a, **kwargs):
        factored.append(a)
        return splu(a, **kwargs)

    monkeypatch.setattr(continuum, "splu", recording)
    return factored


@pytest.mark.parametrize("kind", ["lattice", "boundary"])
@pytest.mark.parametrize("ppp", [4, 7])
@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
def test_ritz_hessian_matches_gradient_differences(kind, ppp, p):
    dom, energy, v = hessian_point(kind, ppp, p)
    w = np.random.default_rng(1).standard_normal(dom.free_nodes.size)
    h = 1e-6
    vp, vm = v.copy(), v.copy()
    vp[dom.free_nodes] += h * w
    vm[dom.free_nodes] -= h * w
    fd = (energy.gradient(vp, p) - energy.gradient(vm, p)) / (2.0 * h)
    hw = energy.hessian(v, p, 1e-12)[0] @ w
    np.testing.assert_allclose(hw, fd, rtol=1e-5, atol=1e-7 * np.abs(fd).max())


@pytest.mark.parametrize("kind", ["lattice", "boundary"])
def test_ritz_exponent_2_system_does_not_depend_on_the_iterate(kind):
    # `_newton` builds the p = 2 system once and solves every step with it
    dom, energy, v = hessian_point(kind, 7, 2.0)
    rng = np.random.default_rng(2)
    w = v.copy()
    w[dom.free_nodes] = 10.0 * rng.standard_normal(dom.free_nodes.size)
    (h1, solve1), (h2, solve2) = energy.hessian(v, 2.0, 1e-3), energy.hessian(w, 2.0, 1e-3)
    r = rng.standard_normal(dom.free_nodes.size)
    np.testing.assert_array_equal(h1 @ r, h2 @ r)
    np.testing.assert_array_equal(solve1(r), solve2(r))


@pytest.mark.parametrize("kind", ["lattice", "boundary"])
@pytest.mark.parametrize("ppp", [4, 7])
@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
def test_ritz_hessian_equals_gtmg(monkeypatch, kind, ppp, p):
    # the operator is G^T M G; the preconditioner factors the same with the
    # cross term of M zeroed, which at p = 2 is the operator itself
    dom, energy, v = hessian_point(kind, ppp, p)
    factored = factored_matrices(monkeypatch)
    h = energy.hessian(v, p, 1e-3)[0]
    ref = reference_hessian(dom, energy, v, p, 1e-3)
    w = np.random.default_rng(3).standard_normal(dom.free_nodes.size)
    scale = (abs(ref) @ np.abs(w)).max()
    assert np.abs(h @ w - ref @ w).max() <= 1e-13 * scale
    (stiffness,) = factored
    ref = reference_hessian(dom, energy, v, p, 1e-3, cross=False)
    assert stiffness.shape == ref.shape == (dom.free_nodes.size,) * 2
    assert abs(stiffness - ref).max() <= 1e-13 * abs(ref).max()
    if p == 2.0:
        # the grid-line pattern holds exactly the nonzeros of G^T M G
        assert stiffness.nnz == ref.nnz


def test_repeated_fills_leave_the_domain_layout_intact(monkeypatch):
    # every stiffness matrix is built on the layout's index arrays
    dom, energy, v = hessian_point("boundary", 7, 3.0)
    saved = [a.copy() for a in (dom._free_of, *dom._layout)]
    factored = factored_matrices(monkeypatch)
    for p in (3.0, 2.0, 3.0, 2.0, 3.0):
        energy.hessian(v, p, 1e-3)
    for before, after in zip(saved, (dom._free_of, *dom._layout), strict=True):
        np.testing.assert_array_equal(after, before)
    first, last = factored[0], factored[-1]
    for a, b in [(first.indices, last.indices), (first.indptr, last.indptr), (first.data, last.data)]:
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("ppp", [4, 8, 12])
def test_pcg_iterations_per_newton_system_stay_flat(monkeypatch, ppp):
    # the grid-line preconditioner bounds kappa(P^-1 H) by p - 1 at every
    # resolution, and at p = 2 it is the Hessian, so one iteration solves
    counts = []

    def counted(*args):
        x, k = _pcg(*args)
        counts.append(k)
        return x, k

    monkeypatch.setattr(solver, "_pcg", counted)
    dom = build_patches(*constraint_lattice(), ppp)
    for p in (2.0, 3.0):
        counts.clear()
        res = minimize_continuum(ContinuumProblem(dom, reference_density("rho2"), p), tol=1e-8)
        assert res.converged and sum(counts) == res.pcg_iterations
        if p == 2.0:
            assert counts == [1, 1]
        else:
            assert counts[0] == 1 and max(counts) <= 20


def test_density_is_evaluated_once_per_geometric_node():
    # the weights come from one read at the geometric nodes, gathered to the
    # copies; the copies of a node share its coordinates, so a pointwise
    # density gives the per-copy values bit for bit
    dom = build_patches(*constraint_lattice(), 8)
    cloud = sample_density(reference_density("rho2"), 512, seed=4)
    kde = KdeDensityField(cloud, 0.1)
    config = SplineConfig(num_knots=256, lam=1e-6)
    spline = skde_fit(kde.value_at(spline_knots(config)), config)
    for rho in (reference_density("rho2"), kde, spline):
        prob = ContinuumProblem(domain=dom, density=rho, p=3.0)
        at_nodes = rho.value_at(dom.node_points)[dom.node_of]
        expect = prob.sigma * dom.quad_weights * at_nodes * at_nodes
        assert prob._weight.ravel().tobytes() == expect.tobytes()
        # the KDE sums the geometric nodes, a y-fastest lattice, in 1D
        # factors and the scattered copies in dense blocks
        per_copy = rho.value_at(dom.points)
        if rho is kde:
            np.testing.assert_allclose(at_nodes, per_copy, rtol=1e-13)
        else:
            assert at_nodes.tobytes() == per_copy.tobytes()


# sup error at the node copies and (E_h - E*) / E* at N = 16: 1.25 x the
# readings of today's solver, rounded up
_PIN_BOUNDS = {
    (3.0, (2, 2)): (1.3e-2, 3.5e-2),
    (3.0, (4, 4)): (9.4e-3, 2.5e-2),
    (5.0, (2, 2)): (2.7e-3, 9.2e-3),
    (5.0, (4, 4)): (1.7e-3, 5.5e-3),
}


@pytest.mark.parametrize("p, tiles", sorted(_PIN_BOUNDS),
                         ids=[f"p{p:g}-{t[0]}x{t[1]}" for p, t in sorted(_PIN_BOUNDS)])
def test_point_pin_solve_converges_to_the_exact_minimizer(p, tiles):
    u, exact = point_pin_minimizer(p)
    assert exact == pytest.approx({3.0: 0.626701, 5.0: 0.392401}[p], abs=1e-6)
    sup, rel = [], []
    for n in (8, 12, 16):
        dom = build_patches([[0.5, 0.5]], [0.0], n, tiles=tiles, boundary_value_fn=u)
        res = minimize_continuum(ContinuumProblem(dom, reference_density("rho1"), p), tol=1e-10)
        assert res.converged
        sup.append(np.abs(res.values - u(dom.points[:, 0], dom.points[:, 1])).max())
        rel.append((res.energy - exact) / exact)
    # algebraic convergence from above, in N
    assert sup[0] > sup[1] > sup[2] and rel[0] > rel[1] > rel[2] > 0.0
    sup_bound, rel_bound = _PIN_BOUNDS[p, tiles]
    assert sup[2] <= sup_bound and rel[2] <= rel_bound


def test_minimize_with_every_node_pinned():
    # no free node leaves an empty Hessian pattern; the pinned field is the answer
    dom = build_patches(None, None, 4, tiles=(1, 1), boundary_value_fn=lambda x, y: x)
    inner = dom.node_points[dom.free_nodes]
    dom = build_patches(inner, inner[:, 0], 4, tiles=(1, 1), boundary_value_fn=lambda x, y: x)
    assert dom.free_nodes.size == 0
    res = minimize_continuum(ContinuumProblem(dom, reference_density("rho1"), 3.0))
    assert res.converged
    np.testing.assert_array_equal(res.values, dom.points[:, 0])


def test_evaluate_exact_at_collocation_nodes():
    prob = make_problem(p=2.0, ppp=7, tiles=(2, 2), boundary=lambda x, y: x)
    dom = prob.domain
    vals = node_values(dom, lambda x, y: np.cos(x) + y**3)
    fld = PatchedField(dom, vals)
    got = fld.evaluate(dom.points)
    # copies of shared nodes carry identical values here, so exact match
    np.testing.assert_allclose(got, vals, rtol=0.0, atol=0.0)


def test_evaluate_reproduces_polynomials():
    prob = make_problem(p=2.0, ppp=9, tiles=(2, 2), boundary=lambda x, y: x)
    dom = prob.domain
    fld_affine = PatchedField(dom, node_values(dom, lambda x, y: 3.0 * x - 2.0 * y + 0.25))
    rng = np.random.default_rng(3)
    pts = rng.random((200, 2))
    np.testing.assert_allclose(
        fld_affine.evaluate(pts), 3.0 * pts[:, 0] - 2.0 * pts[:, 1] + 0.25, atol=1e-10
    )
    fld_quad = PatchedField(dom, node_values(dom, lambda x, y: x**2))
    mids = np.column_stack([np.full(5, 0.25), np.linspace(0.1, 0.9, 5)])
    np.testing.assert_allclose(fld_quad.evaluate(mids), np.full(5, 0.0625), atol=1e-8)


def test_on_mesh_agrees_with_pointwise_evaluation():
    prob = make_problem(p=2.0, ppp=6, tiles=(3, 3), boundary=lambda x, y: x)
    dom = prob.domain
    fld = PatchedField(dom, node_values(dom, lambda x, y: np.sin(2 * x) * y + x))
    mesh = fld.on_mesh(17)
    axis = np.linspace(0.0, 1.0, 17)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    np.testing.assert_allclose(mesh.ravel(), fld.evaluate(pts), atol=1e-12)


@pytest.mark.parametrize("tiles, mesh", [((3, 3), 17), ((3, 3), 2), ((2, 3), 9)])
def test_on_mesh_builds_weights_once_per_tile_column_and_row(monkeypatch, tiles, mesh):
    # bit for bit the per-patch construction, with one `_bary_matrix` call
    # per tile column and per tile row; a 2-point mesh leaves the middle
    # tiles of a 3 x 3 tiling without a site
    dom = make_problem(p=2.0, ppp=5, tiles=tiles, boundary=lambda x, y: x).domain
    fld = PatchedField(dom, node_values(dom, lambda x, y: np.sin(3 * x) * y + x * x))
    axis = np.linspace(0.0, 1.0, mesh)
    tx, ty = fld._tile_of(axis, dom.xlines), fld._tile_of(axis, dom.ylines)
    nodes_x, nodes_y, values = fld._patch_arrays()
    expect = np.empty((mesh, mesh))
    for patch in range(values.shape[0]):
        iy, ix = divmod(patch, tiles[0])
        sx, sy = np.nonzero(tx == ix)[0], np.nonzero(ty == iy)[0]
        wx = _bary_matrix(axis[sx], nodes_x[patch])
        wy = _bary_matrix(axis[sy], nodes_y[patch])
        expect[np.ix_(sy, sx)] = wy @ values[patch] @ wx.T
    calls = []

    def counted(queries, nodes):
        calls.append(queries.size)
        return _bary_matrix(queries, nodes)

    monkeypatch.setattr("pdirichlet.continuum._bary_matrix", counted)
    got = fld.on_mesh(mesh)
    assert len(calls) == sum(tiles) and sum(calls) == 2 * mesh
    assert got.tobytes() == expect.tobytes()
    xx, yy = np.meshgrid(axis, axis)
    np.testing.assert_allclose(got.ravel(), fld.evaluate(np.column_stack([xx.ravel(), yy.ravel()])),
                               atol=1e-12)


def test_evaluate_on_mesh_dispatch():
    prob = make_problem(p=2.0, ppp=8, tiles=(2, 2), boundary=lambda x, y: x)
    res = minimize_continuum(prob, tol=1e-7)
    grid = res.field.on_mesh(33)
    assert grid.shape == (33, 33)
    axis = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(grid[0, :], axis, atol=1e-5)  # bottom row: u = x
    pts = np.array([[0.5, 0.5], [0.123, 0.877]])
    np.testing.assert_allclose(res.field.evaluate(pts), pts[:, 0], atol=1e-5)


def cell_kernel(eta, wx, wy, s, eps, trunc):
    # independent re-derivation of the per-cell kernel weight: exact inside
    # and outside the interaction circle, sub-sampled on straddling cells
    if eta == "gaussian":
        r = np.hypot(wx, wy)
        return float(np.exp(-0.5 * (r / eps) ** 2)) if r <= trunc * eps else 0.0
    near = np.hypot(max(abs(wx) - s / 2, 0.0), max(abs(wy) - s / 2, 0.0))
    far = np.hypot(abs(wx) + s / 2, abs(wy) + s / 2)
    if far <= eps:
        return 1.0
    if near > eps:
        return 0.0
    t = ((np.arange(32) + 0.5) / 32 - 0.5) * s
    dx, dy = np.meshgrid(t, t)
    return float(np.mean(np.hypot(wx + dx, wy + dy) <= eps))


def brute_pair_sum(fgrid, rho, k, eps, p, eta, trunc, mask):
    m = fgrid.shape[0]
    s = 1.0 / m
    c0 = (k - 1) // 2
    nc = m // k
    total = 0.0
    for iy in range(nc):
        for ix in range(nc):
            if not mask[iy, ix]:
                continue
            fy, fx = c0 + k * iy, c0 + k * ix
            for jy in range(m):
                for jx in range(m):
                    if jy == fy and jx == fx:
                        continue
                    w = cell_kernel(eta, (jx - fx) * s, (jy - fy) * s, s, eps, trunc)
                    if w == 0.0:
                        continue
                    total += (
                        w
                        * abs(fgrid[fy, fx] - fgrid[jy, jx]) ** p
                        * rho[fy, fx]
                        * rho[jy, jx]
                    )
    return total * (k * s) ** 2 * s**2 / eps ** (2.0 + p)


def fine_lattice(m):
    centers = (np.arange(m) + 0.5) / m
    return centers, np.column_stack([np.tile(centers, m), np.repeat(centers, m)])


@pytest.mark.parametrize("eta,trunc", [("indicator", 1.0), ("gaussian", 5.0)])
def test_nonlocal_energy_matches_brute_pair_sum(eta, trunc):
    eps, xc = 0.5, 4
    m = xc  # nesting factor 1: requested kernel cells match the x lattice
    _, pts = fine_lattice(m)
    fn = lambda q: q[:, 0] ** 2 + 0.3 * q[:, 1]
    rho = reference_density("rho2")
    fgrid = fn(pts).reshape(m, m)
    rgrid = rho.value_at(pts).reshape(m, m)
    mask = np.ones((xc, xc), dtype=bool)
    expected = brute_pair_sum(fgrid, rgrid, 1, eps, 3.0, eta, trunc, mask)
    got = nonlocal_energy(fn, rho, eps, p=3.0, eta=eta, cells_per_radius=2, x_cells=xc)
    assert got == pytest.approx(expected, rel=1e-12)


def test_nonlocal_energy_nested_lattice_matches_brute():
    # cells_per_radius = 6 at eps = 0.5 over 4 coarse cells forces a 3x
    # refinement of the kernel lattice
    eps, xc, k = 0.5, 4, 3
    m = xc * k
    _, pts = fine_lattice(m)
    fn = lambda q: q[:, 0] ** 2 + 0.3 * q[:, 1]
    rho = reference_density("rho2")
    fgrid = fn(pts).reshape(m, m)
    rgrid = rho.value_at(pts).reshape(m, m)
    mask = np.ones((xc, xc), dtype=bool)
    expected = brute_pair_sum(fgrid, rgrid, k, eps, 3.0, "indicator", 1.0, mask)
    got = nonlocal_energy(fn, rho, eps, p=3.0, cells_per_radius=6, x_cells=xc)
    assert got == pytest.approx(expected, rel=1e-12)


def test_nonlocal_energy_region_restriction_matches_brute():
    eps, xc = 0.5, 8
    m = xc
    centers, pts = fine_lattice(m)
    fn = lambda q: np.sin(q[:, 0]) + q[:, 1]
    rho = reference_density("rho1")
    fgrid = fn(pts).reshape(m, m)
    rgrid = rho.value_at(pts).reshape(m, m)
    region = (0.25, 0.75, 0.25, 0.75)
    inx = (centers >= region[0]) & (centers <= region[1])
    mask = np.outer(inx, inx)
    expected = brute_pair_sum(fgrid, rgrid, 1, eps, 2.0, "indicator", 1.0, mask)
    got = nonlocal_energy(fn, rho, eps, p=2.0, region=region, cells_per_radius=4, x_cells=xc)
    assert got == pytest.approx(expected, rel=1e-12)


def test_nonlocal_energy_trivia():
    rho = reference_density("rho1")
    const = lambda q: np.full(q.shape[0], 2.5)
    assert nonlocal_energy(const, rho, 0.1) == 0.0
    lin = lambda q: q[:, 0]
    twice = lambda q: 2.0 * q[:, 0]
    e1 = nonlocal_energy(lin, rho, 0.1, p=3.0)
    e2 = nonlocal_energy(twice, rho, 0.1, p=3.0)
    assert e2 == pytest.approx(8.0 * e1, rel=1e-12)


def test_nonlocal_energy_interior_value_near_surface_moment():
    sigma = sigma_eta(3.0, "indicator")
    region = (0.3, 0.7, 0.3, 0.7)
    lin = lambda q: q[:, 0]
    got = nonlocal_energy(
        lin, reference_density("rho1"), 0.1, p=3.0, region=region, cells_per_radius=24
    )
    assert got == pytest.approx(sigma * 0.16, abs=1e-3)


def test_nonlocal_energy_evaluates_patched_field():
    prob = make_problem(p=2.0, ppp=8, tiles=(2, 2), boundary=lambda x, y: x)
    fld = PatchedField(prob.domain, node_values(prob.domain, lambda x, y: x))
    direct = nonlocal_energy(lambda q: q[:, 0], prob.density, 0.25, p=2.0)
    via_field = nonlocal_energy(fld, prob.density, 0.25, p=2.0)
    assert via_field == pytest.approx(direct, rel=1e-10)


def test_validation_errors():
    prob = make_problem(p=2.0, ppp=6, tiles=(1, 1), boundary=lambda x, y: x)
    with pytest.raises(ValidationError):
        ContinuumProblem(domain=prob.domain, density=prob.density, p=1.0)
    with pytest.raises(ValidationError):
        ContinuumProblem(domain=prob.domain, density=prob.density, p=1.5)
    with pytest.raises(ValidationError):
        local_energy(np.zeros(3), prob)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValidationError):
            nonlocal_energy(lambda q: q[:, 0], prob.density, bad)
    with pytest.raises(ValidationError):
        nonlocal_energy(lambda q: q[:, 0], prob.density, 1e-5)
    with pytest.raises(ValidationError):
        nonlocal_energy(lambda q: q[:, 0], prob.density, 0.5, eta="box")
    with pytest.raises(ValidationError):
        nonlocal_energy(lambda q: q[:, 0], prob.density, 0.5, x_cells=3)
    with pytest.raises(ValidationError):
        nonlocal_energy(lambda q: q[:, 0], prob.density, 0.5, cells_per_radius=1)
    fld = PatchedField(prob.domain, np.zeros(prob.domain.n_nodes))
    for bad in (1.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            fld.evaluate(np.array([[bad, 0.5]]))
        with pytest.raises(ValidationError):
            fld.evaluate(np.array([[0.5, 0.5], [0.5, bad]]))
