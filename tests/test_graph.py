import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from pdirichlet import graph as graph_module
from pdirichlet import solver
from pdirichlet.density import reference_density, sample_density
from pdirichlet.errors import ConstraintError, ValidationError
from pdirichlet.experiments import constraint_labels
from pdirichlet.graph import (
    _COARSE_MIN_CELLS,
    ConstraintSet,
    WeightedGraph,
    _cells,
    _PinnedEdges,
    _start_values,
    build_epsilon_graph,
    build_knn_graph,
    default_epsilon,
    discrete_energy,
    discrete_energy_gradient,
    minimize_discrete,
    solve_p2_direct,
)


def _path_points(n, spacing=0.3):
    return np.column_stack([spacing * np.arange(n), np.zeros(n)])


def test_epsilon_graph_edges_and_weights():
    pts = _path_points(3)  # spacing 0.3
    g = build_epsilon_graph(pts, epsilon=0.5)
    w = g.weights.toarray()
    expect = 1.0 / 0.5**2
    assert w[0, 1] == pytest.approx(expect)
    assert w[1, 2] == pytest.approx(expect)
    assert w[0, 2] == 0.0  # distance 0.6 exceeds epsilon
    np.testing.assert_array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    assert g.num_edges == 2


def test_epsilon_graph_gaussian_weights():
    pts = _path_points(2, spacing=0.2)
    g = build_epsilon_graph(pts, epsilon=0.1, eta="gaussian")
    # r/eps = 2 -> exp(-2) / eps^2
    assert g.weights[0, 1] == pytest.approx(np.exp(-2.0) * 100.0, rel=1e-12)


def test_knn_graph_symmetric_and_unit_weights():
    rng = np.random.default_rng(0)
    pts = rng.random((60, 2))
    g = build_knn_graph(pts, k=4)
    w = g.weights.toarray()
    np.testing.assert_array_equal(w, w.T)
    assert set(np.unique(w)) <= {0.0, 1.0}
    degrees = (w > 0).sum(axis=1)
    assert degrees.min() >= 4
    assert g.epsilon > 0


@pytest.mark.parametrize("eta, reach", [("indicator", 1.0), ("gaussian", 5.0)])
def test_epsilon_graph_matches_brute_force_pairs(eta, reach):
    rng = np.random.default_rng(21)
    pts = rng.random((150, 2))
    epsilon = 0.06
    g = build_epsilon_graph(pts, epsilon, eta=eta)
    i, j = np.triu_indices(pts.shape[0], k=1)
    r = np.linalg.norm(pts[i] - pts[j], axis=1)
    near = r <= reach * epsilon
    profile = np.ones(near.sum()) if eta == "indicator" else np.exp(-(r[near] / epsilon) ** 2 / 2.0)
    expect = sp.coo_matrix((profile / epsilon**2, (i[near], j[near])), shape=g.weights.shape)
    expect = (expect + expect.T).tocsr()
    assert g.num_edges == near.sum() and 0 < near.sum() < i.size
    np.testing.assert_array_equal(g.weights.indptr, expect.indptr)
    np.testing.assert_array_equal(g.weights.indices, expect.indices)
    np.testing.assert_allclose(g.weights.data, expect.data, rtol=1e-15)
    if eta == "indicator":
        assert np.all(g.weights.data == 1.0 / epsilon**2)


@pytest.mark.parametrize(
    "eta, n, epsilon",
    [("indicator", 600, 0.08), ("gaussian", 300, 0.02), ("indicator", 40, 1e-6)],
)
def test_epsilon_graph_weights_match_a_coo_build(eta, n, epsilon):
    # the weights' arrays and dtypes equal a COO -> CSR build (sorted by
    # `sum_duplicates`) of the same pairs, bit for bit; the last case has no pairs
    pts = np.random.default_rng(8).random((n, 2))
    g = build_epsilon_graph(pts, epsilon, eta=eta)
    reach = epsilon if eta == "indicator" else 5.0 * epsilon
    pairs = cKDTree(pts).query_pairs(reach, output_type="ndarray")
    r = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    w = (np.ones(r.size) if eta == "indicator" else np.exp(-(r / epsilon) ** 2 / 2.0)) / epsilon**2
    expect = sp.csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([pairs[:, 0], pairs[:, 1]]),
                                  np.concatenate([pairs[:, 1], pairs[:, 0]]))),
        shape=(n, n),
    )
    assert (expect.nnz == 0) == (epsilon < 1e-3)
    assert g.weights.has_canonical_format
    for name in ("data", "indices", "indptr"):
        got, want = getattr(g.weights, name), getattr(expect, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name



def _chunk_cases():
    """(points, epsilon, eta) of the graphs of `_two_level_cases`, a
    gaussian graph on the same points, and a rho2 sample at the default
    scale."""
    rng = np.random.default_rng(31)
    pts = rng.random((300, 2))
    parts = np.vstack([0.4 * rng.random((150, 2)), 0.3 * rng.random((30, 2)) + 0.65,
                       [[0.95, 0.05]], 0.3 * rng.random((20, 2)) + [0.0, 0.65]])
    cloud = sample_density(reference_density("rho2"), 1024, seed=5)
    sample = np.vstack([cloud.points, constraint_labels().positions])
    return [(pts, 0.12, "indicator"), (parts, 0.08, "indicator"), (pts, 0.03, "gaussian"),
            (sample, default_epsilon(sample.shape[0], 3.0), "indicator")]


@pytest.mark.parametrize("chunk", [1, 7, graph_module._PAIR_CHUNK])
def test_epsilon_graph_pair_chunks_match_one_chunk(monkeypatch, chunk):
    # the weights' arrays and dtypes do not depend on how many pairs are
    # grouped at a time (nor, for the gaussian weights, rows at a time)
    for pts, epsilon, eta in _chunk_cases():
        whole = build_epsilon_graph(pts, epsilon, eta=eta).weights
        assert 7 < whole.nnz // 2 <= graph_module._PAIR_CHUNK
        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "_PAIR_CHUNK", chunk)
            patch.setattr(graph_module, "_EDGE_CHUNK", min(chunk, graph_module._EDGE_CHUNK))
            chunked = build_epsilon_graph(pts, epsilon, eta=eta).weights
        assert chunked.has_canonical_format
        for name in ("data", "indices", "indptr"):
            got, want = getattr(chunked, name), getattr(whole, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

def test_default_epsilon_midpoint():
    n, p = 1000, 3.0
    lower = np.log(n) ** 0.75 / np.sqrt(n)
    upper = n ** (-1.0 / p)
    assert default_epsilon(n, p) == pytest.approx(np.sqrt(lower * upper), rel=1e-12)


def test_two_point_energy_frozen():
    pts = _path_points(2, spacing=0.3)
    g = build_epsilon_graph(pts, epsilon=0.5)
    # E = (1/(eps^p n^2)) * 2 * W * |df|^p, W = 1/eps^2, n = 2
    for p in (1.5, 2.0, 3.0):
        expected = 2.0 * (1.0 / 0.25) * 0.7**p / (0.5**p * 4.0)
        assert discrete_energy(g, np.array([0.0, 0.7]), p) == pytest.approx(expected, rel=1e-12)


def test_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    pts = rng.random((25, 2))
    g = build_epsilon_graph(pts, epsilon=0.4)
    f = rng.standard_normal(25)
    for p in (1.5, 2.0, 3.0):
        grad = discrete_energy_gradient(g, f, p)
        eps = 1e-7
        for i in (0, 7, 19):
            fp, fm = f.copy(), f.copy()
            fp[i] += eps
            fm[i] -= eps
            fd = (discrete_energy(g, fp, p) - discrete_energy(g, fm, p)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)



@pytest.mark.parametrize("values, p", [(np.zeros(50), 0.5), (np.zeros(49), 2.0),
                                       (np.zeros(51), 2.0), (np.zeros((50, 1)), 2.0)])
def test_energy_and_gradient_reject_bad_exponents_and_lengths(values, p):
    g = build_epsilon_graph(np.random.default_rng(6).random((50, 2)), epsilon=0.3)
    values = values + np.random.default_rng(7).random(values.shape)
    with pytest.raises(ValidationError):
        discrete_energy(g, values, p)
    with pytest.raises(ValidationError):
        discrete_energy_gradient(g, values, p)


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_energy_and_gradient_sum_the_upper_triangle_in_blocks(monkeypatch, chunk, p):
    # both triangles summed at once, as a reference
    graph = _two_level_cases()["knn"][0]
    f = np.random.default_rng(9).standard_normal(graph.n)
    f[:5] = f[5]  # some zero gaps
    w = graph.weights
    rows = np.repeat(np.arange(graph.n), np.diff(w.indptr))
    diff = f[rows] - f[w.indices]
    scale = 1.0 / (graph.epsilon**p * graph.n**2)
    energy = scale * np.dot(w.data, np.abs(diff) ** p)
    grad = 2.0 * p * scale * np.bincount(rows, w.data * np.abs(diff) ** (p - 1.0) * np.sign(diff),
                                         minlength=graph.n)
    monkeypatch.setattr(graph_module, "_EDGE_CHUNK", chunk)
    assert discrete_energy(graph, f, p) == pytest.approx(energy, rel=1e-13)
    np.testing.assert_allclose(discrete_energy_gradient(graph, f, p), grad, rtol=1e-13,
                               atol=1e-13 * np.abs(grad).max())

def test_p2_direct_on_path_is_linear_interpolation():
    pts = _path_points(4, spacing=0.2)
    g = build_epsilon_graph(pts, epsilon=0.25)
    cons = ConstraintSet(indices=[0, 3], values=[0.0, 1.0])
    res = solve_p2_direct(g, cons)
    np.testing.assert_allclose(res.values, [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], atol=1e-12)


def test_descent_matches_direct_solver_p2():
    rng = np.random.default_rng(42)
    pts = rng.random((120, 2))
    g = build_epsilon_graph(pts, epsilon=0.25)
    assert sp.csgraph.connected_components(g.weights, directed=False)[0] == 1
    cons = ConstraintSet(indices=[0, 1, 2], values=[0.0, 1.0, 0.5])
    direct = solve_p2_direct(g, cons)
    res = minimize_discrete(g, cons, p=2.0, tol=1e-12, max_iter=100_000)
    assert res.converged
    # the start is the exact p = 2 minimizer, so no step is taken
    assert res.iterations == 0
    np.testing.assert_allclose(res.values, direct.values, atol=1e-7)


def test_single_free_node_p3_midpoint():
    # one free node tied equally to two pinned values: minimizer is the midpoint
    pts = _path_points(3, spacing=0.2)
    g = build_epsilon_graph(pts, epsilon=0.25)
    cons = ConstraintSet(indices=[0, 2], values=[0.0, 1.0])
    res = minimize_discrete(g, cons, p=3.0, tol=1e-10)
    assert res.values[1] == pytest.approx(0.5, abs=1e-6)


def test_energy_trace_monotone_and_pins_held():
    rng = np.random.default_rng(7)
    pts = rng.random((200, 2))
    g = build_epsilon_graph(pts, epsilon=0.2)
    cons = ConstraintSet(indices=[4, 50, 101], values=[1.0, -1.0, 0.25])
    res = minimize_discrete(g, cons, p=3.0, tol=1e-8)
    assert np.all(np.diff(res.energies) <= 0.0)
    np.testing.assert_array_equal(res.values[cons.indices], cons.values)


def test_smoothed_solve_reports_the_true_energy():
    # at a loose tol the ladder stops while the smoothing still lifts the
    # energy it minimizes; the reported energy must be the true one
    rng = np.random.default_rng(7)
    pts = rng.random((200, 2))
    g = build_epsilon_graph(pts, epsilon=0.2)
    cons = ConstraintSet(indices=[4, 50, 101], values=[1.0, -1.0, 0.25])
    res = minimize_discrete(g, cons, p=1.5, tol=1e-3)
    assert res.converged and np.all(np.diff(res.energies) <= 0.0)
    assert res.energy == pytest.approx(discrete_energy(g, res.values, 1.5), rel=1e-12)
    assert res.decrement <= 1e-3 * res.energy


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_pinned_edges_hessian_matches_gradient_differences(s):
    rng = np.random.default_rng(13)
    g = build_epsilon_graph(rng.random((40, 2)), epsilon=0.4)
    cons = ConstraintSet(indices=[0, 1], values=[0.0, 1.0])
    p = 1.5 if s else 3.0
    f, solved = _start_values(g, cons)
    problem = _PinnedEdges(g, cons, p, solved, s)
    f[problem.free] = rng.random(problem.free.size)
    v = rng.standard_normal(problem.free.size)
    h = 1e-6
    fp, fm = f.copy(), f.copy()
    fp[problem.free] += h * v
    fm[problem.free] -= h * v
    fd = (problem.gradient(fp, p) - problem.gradient(fm, p)) / (2.0 * h)
    np.testing.assert_allclose(problem.hessian(f, p, 1e-12)[0] @ v, fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("kind", ["epsilon", "knn", "components", "sample"])
def test_pinned_edges_lower_places_hold_the_transposes(kind):
    if kind == "sample":
        labels = constraint_labels()
        cloud = sample_density(reference_density("rho2"), 1024, seed=5)
        pts = np.vstack([cloud.points, labels.positions])
        graph = build_epsilon_graph(pts, default_epsilon(pts.shape[0], 2.0))
        cons = labels.graph_constraints(1024)
    else:
        graph, cons = _two_level_cases()[kind]
    f, solved = _start_values(graph, cons)
    problem = _PinnedEdges(graph, cons, 2.0, solved, 0.0)
    w = graph.weights
    rows = np.repeat(np.arange(graph.n, dtype=w.indices.dtype), np.diff(w.indptr))
    # the edges are the solved components' upper triangle, in CSR order
    upper = sp.triu(w, k=1).tocoo()
    keep = solved[upper.row]
    i, j = rows[problem.edges], w.indices[problem.edges]
    np.testing.assert_array_equal(i, upper.row[keep])
    np.testing.assert_array_equal(j, upper.col[keep])
    assert problem.edges.dtype == problem._lower.dtype == w.indices.dtype
    # each edge's lower place holds its transpose (j, i) and the same weight,
    # and the places cover the solved rows' lower triangle once each
    lower = problem._lower
    np.testing.assert_array_equal(rows[lower], j)
    np.testing.assert_array_equal(w.indices[lower], i)
    np.testing.assert_array_equal(w.data[lower], w.data[problem.edges])
    np.testing.assert_array_equal(np.sort(lower),
                                  np.flatnonzero((w.indices < rows) & solved[rows]))
    # so the p = 2 Hessian is the free block of the weights' Laplacian, with
    # curvature p (p - 1) scale w
    hess = problem.hessian(f, 2.0, 1e-12)[0]
    free = problem.free
    laplacian = (sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w).tocsr()[free][:, free]
    np.testing.assert_allclose(np.column_stack([hess @ e for e in np.eye(free.size)]),
                               2.0 * problem.scale * laplacian.toarray(), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["epsilon", "knn", "components"])
def test_exponent_2_system_does_not_depend_on_the_iterate(monkeypatch, kind):
    # `_newton` builds the p = 2 system once and solves every step with it
    monkeypatch.setattr("pdirichlet.graph._COARSE_MIN_CELLS", 1)
    graph, cons = _two_level_cases()[kind]
    f, solved = _start_values(graph, cons)
    problem = _PinnedEdges(graph, cons, 2.0, solved, 0.0)
    assert problem._coarse is not None
    rng = np.random.default_rng(4)
    g = f.copy()
    g[problem.free] = 10.0 * rng.standard_normal(problem.free.size)
    (h1, m1), (h2, m2) = problem.hessian(f, 2.0, 1e-12), problem.hessian(g, 2.0, 1e-3)
    r = rng.standard_normal(problem.free.size)
    np.testing.assert_array_equal(h1 @ r, h2 @ r)
    np.testing.assert_array_equal(m1(r), m2(r))


def test_minimizer_deterministic():
    rng = np.random.default_rng(9)
    pts = rng.random((80, 2))
    g = build_epsilon_graph(pts, epsilon=0.3)
    cons = ConstraintSet(indices=[0, 10], values=[0.0, 1.0])
    a = minimize_discrete(g, cons, p=2.5, tol=1e-9)
    b = minimize_discrete(g, cons, p=2.5, tol=1e-9)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.iterations == b.iterations


def test_budget_exhaustion_flags_unconverged():
    rng = np.random.default_rng(11)
    pts = rng.random((150, 2))
    g = build_epsilon_graph(pts, epsilon=0.2)
    cons = ConstraintSet(indices=[0, 1], values=[0.0, 1.0])
    # at p = 2 the start is already the minimizer, so the budget binds at p = 3
    res = minimize_discrete(g, cons, p=3.0, tol=1e-12, max_iter=1)
    assert not res.converged
    assert res.iterations == 1
    assert res.stop_reason == "budget"
    assert res.decrement > 1e-12 * res.energy


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
def test_newton_reaches_lbfgs_minimum(p):
    rng = np.random.default_rng(23)
    pts = rng.random((150, 2))
    g = build_epsilon_graph(pts, epsilon=0.2)
    cons = ConstraintSet(indices=[3, 40, 77, 120], values=[0.0, 1.0, 0.3, -0.5])
    res = minimize_discrete(g, cons, p=p, tol=1e-12)
    assert res.stop_reason == "converged"
    assert res.decrement <= 1e-12 * res.energy
    free = np.setdiff1d(np.arange(g.n), cons.indices)
    base = np.full(g.n, cons.values.mean())
    base[cons.indices] = cons.values

    def energy_and_gradient(x):
        f = base.copy()
        f[free] = x
        return discrete_energy(g, f, p), discrete_energy_gradient(g, f, p)[free]

    ref = minimize(energy_and_gradient, base[free], jac=True, method="L-BFGS-B",
                   options={"maxiter": 100_000, "ftol": 1e-15, "gtol": 1e-14})
    assert discrete_energy(g, res.values, p) <= ref.fun * (1.0 + 1e-10)
    assert res.energy == pytest.approx(discrete_energy(g, res.values, p), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, pytest.param(None, id="p2-direct")])
def test_pin_free_component_and_isolated_node_keep_the_mean(p):
    # p = None is the direct p = 2 solve, whose free Laplacian is singular
    # on a pin-free component
    def solve(g, cons):
        if p is None:
            return solve_p2_direct(g, cons)
        return minimize_discrete(g, cons, p=p, tol=1e-10)

    rng = np.random.default_rng(3)
    pinned_part = 0.3 * rng.random((40, 2))
    pin_free_part = 0.3 * rng.random((15, 2)) + 0.6
    isolated = np.array([[0.95, 0.05]])
    agreed_part = 0.3 * rng.random((12, 2)) + [0.0, 0.6]
    g = build_epsilon_graph(
        np.vstack([pinned_part, pin_free_part, isolated, agreed_part]), epsilon=0.12
    )
    _, comp = sp.csgraph.connected_components(g.weights, directed=False)
    assert comp[0] != comp[40] and np.unique(comp[:40]).size == 1
    assert np.unique(comp[40:55]).size == 1 and np.sum(comp == comp[55]) == 1
    assert np.unique(comp[56:]).size == 1 and np.sum(comp == comp[56]) == 12
    # the last component's two pins carry one value
    cons = ConstraintSet(indices=[0, 7, 19, 58, 63], values=[0.0, 1.0, 0.4, 0.7, 0.7])
    # six nodes: a pinned path 0-1-2, a pin-free pair 3-4, the isolated node 5
    small = build_epsilon_graph(
        np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.5, 0.5], [0.6, 0.5], [0.9, 0.9]]),
        epsilon=0.15,
    )
    small_cons = ConstraintSet(indices=[0, 1], values=[0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # MatrixRankWarning, division by zero, ...
        res = solve(g, cons)
        small_res = solve(small, small_cons)
    assert res.converged and small_res.converged
    assert np.all(np.isfinite(res.values))
    np.testing.assert_array_equal(res.values[40:56], np.full(16, cons.values.mean()))
    np.testing.assert_array_equal(res.values[56:], np.full(12, 0.7))
    np.testing.assert_array_equal(res.values[cons.indices], cons.values)
    np.testing.assert_allclose(small_res.values, [0.0, 1.0, 1.0, 0.5, 0.5, 0.5], atol=1e-9)


def test_agreed_pins_everywhere_give_zero_energy():
    # at p = 1.2 the default scale leaves every pin of the 16-point lattice
    # in a component whose pins agree, so nothing is left to solve
    n, p = 1024, 1.2
    labels = constraint_labels()
    cloud = sample_density(reference_density("rho2"), n, seed=1)
    pts = np.vstack([cloud.points, labels.positions])
    g = build_epsilon_graph(pts, default_epsilon(pts.shape[0], p))
    cons = labels.graph_constraints(n)
    _, comp = sp.csgraph.connected_components(g.weights, directed=False)
    assert np.unique(comp[cons.indices]).size == cons.indices.size
    res = minimize_discrete(g, cons, p=p, tol=1e-5)
    assert res.converged and res.energy == 0.0
    assert res.iterations == 0
    assert discrete_energy(g, res.values, p) == 0.0
    np.testing.assert_array_equal(res.values[cons.indices], cons.values)


def test_validation_and_constraint_errors():
    pts = _path_points(3)
    g = build_epsilon_graph(pts, epsilon=0.5)
    # a NaN scale would connect nothing, an infinite one every pair
    for epsilon in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            build_epsilon_graph(pts, epsilon=epsilon)
    with pytest.raises(ValidationError):
        build_knn_graph(pts, k=5)
    with pytest.raises(ConstraintError):
        ConstraintSet(indices=[0, 0], values=[1.0, 2.0])
    with pytest.raises(ConstraintError):
        ConstraintSet(indices=[], values=[])
    # fractions are not node numbers, and a mask is not a list of them
    for indices in ([1.7, 2.2], [0.9, 3.5], [True, False]):
        with pytest.raises(ConstraintError):
            ConstraintSet(indices=indices, values=[0.0, 1.0])
    np.testing.assert_array_equal(ConstraintSet(indices=[1.0, 2.0], values=[0.0, 1.0]).indices,
                                  [1, 2])
    cons = ConstraintSet(indices=[7], values=[1.0])
    with pytest.raises(ConstraintError):
        minimize_discrete(g, cons, p=2.0)
    with pytest.raises(ValidationError):
        minimize_discrete(g, ConstraintSet(indices=[0], values=[1.0]), p=1.0)


def _three_nodes(entries, weights=None):
    rows, cols = zip(*entries)
    weights = sp.csr_matrix((weights or np.ones(len(rows)), (rows, cols)), shape=(3, 3))
    return WeightedGraph(points=_path_points(3), weights=weights, epsilon=0.5, kind="epsilon")


def _one_sided():
    # each edge stored once, in the upper triangle
    g = build_epsilon_graph(np.random.default_rng(0).random((60, 2)), epsilon=0.35)
    return replace(g, weights=sp.triu(g.weights, k=1, format="csr"))


@pytest.mark.parametrize("graph", [
    pytest.param(_one_sided, id="one-sided"),
    # node 2 holds a lower entry (2, 1) whose transpose is missing
    pytest.param(lambda: _three_nodes([(0, 2), (2, 0), (2, 1)]), id="extra-lower"),
    # column 2 holds two edges, row 2 one entry
    pytest.param(lambda: _three_nodes([(0, 2), (1, 2), (2, 0), (1, 0)]), id="short-row"),
    pytest.param(lambda: _three_nodes([(0, 2), (2, 0), (1, 2), (2, 1)], [1.0, 2.0, 1.0, 1.0]),
                 id="weights-differ"),
])
def test_solvers_reject_weights_that_are_not_symmetric(graph):
    # the direct solve reads both triangles and the Newton route one, so on
    # such weights neither solves the problem the graph stands for
    graph = graph()
    cons = ConstraintSet(indices=[0, 1], values=[0.0, 1.0])
    with pytest.raises(ValidationError, match="symmetric"):
        solve_p2_direct(graph, cons)
    for p in (1.5, 2.0, 3.0):
        with pytest.raises(ValidationError, match="symmetric"):
            minimize_discrete(graph, cons, p=p)
    symmetric = replace(graph, weights=(graph.weights + graph.weights.T).tocsr())
    assert minimize_discrete(symmetric, cons, p=3.0).converged
    assert solve_p2_direct(symmetric, cons).converged


def test_disconnected_component_detected():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    g = build_epsilon_graph(pts, epsilon=0.2)
    assert sp.csgraph.connected_components(g.weights, directed=False)[0] == 2


def _two_level_cases():
    """(graph, constraints) pairs for the preconditioner tests: an epsilon
    graph, a kNN graph, and a graph with a pin-free component, an isolated
    node and a component whose pins agree."""
    rng = np.random.default_rng(31)
    pts = rng.random((300, 2))
    pins = ConstraintSet(indices=[0, 1, 2, 3], values=[0.0, 1.0, 0.3, -0.5])
    parts = np.vstack([0.4 * rng.random((150, 2)), 0.3 * rng.random((30, 2)) + 0.65,
                       [[0.95, 0.05]], 0.3 * rng.random((20, 2)) + [0.0, 0.65]])
    mixed = build_epsilon_graph(parts, epsilon=0.08)
    _, comp = sp.csgraph.connected_components(mixed.weights, directed=False)
    assert np.unique(comp[:150]).size == 1 and comp[150] not in comp[:150]
    mixed_pins = ConstraintSet(indices=[0, 5, 9, 181, 185], values=[0.0, 1.0, 0.4, 0.7, 0.7])
    return {
        "epsilon": (build_epsilon_graph(pts, epsilon=0.12), pins),
        "knn": (build_knn_graph(pts, k=8), pins),
        "components": (mixed, mixed_pins),
    }


_DEFAULT_FORCING = solver._PCG_FORCING


def _solve_both(monkeypatch, graph, constraints, p, forcing, tol=1e-10):
    """The same solve with the coarse term forced on and forced off, under
    the PCG forcing ``forcing`` (0 solves every Newton system tight)."""
    monkeypatch.setattr(solver, "_PCG_FORCING", forcing)
    runs = []
    for threshold in (1, graph.n + 1):
        monkeypatch.setattr("pdirichlet.graph._COARSE_MIN_CELLS", threshold)
        runs.append(minimize_discrete(graph, constraints, p=p, tol=tol))
    return runs


def test_two_level_preconditioner_is_spd(monkeypatch):
    monkeypatch.setattr("pdirichlet.graph._COARSE_MIN_CELLS", 1)
    graph, cons = _two_level_cases()["epsilon"]
    f, solved = _start_values(graph, cons)
    problem = _PinnedEdges(graph, cons, 3.0, solved, 0.0)
    assert problem._coarse is not None
    f[problem.free] = np.random.default_rng(2).random(problem.free.size)
    hess, precondition = problem.hessian(f, 3.0, 1e-12)
    inverse = np.column_stack([precondition(e) for e in np.eye(problem.free.size)])
    np.testing.assert_allclose(inverse, inverse.T, rtol=1e-10, atol=1e-14 * np.abs(inverse).max())
    assert np.linalg.eigvalsh((inverse + inverse.T) / 2.0).min() > 0.0
    # dense reference: D^-1 + P (P^T H P)^-1 P^T, P the 0/1 cell aggregation
    agg, cells = _cells(graph.points[problem.free], graph.epsilon)
    assert 1 < cells < problem.free.size
    agg_matrix = np.eye(cells)[agg]
    h = np.column_stack([hess @ e for e in np.eye(problem.free.size)])
    reference = np.diag(1.0 / np.diag(h)) + agg_matrix @ np.linalg.solve(
        agg_matrix.T @ h @ agg_matrix, agg_matrix.T)
    np.testing.assert_allclose(inverse, reference, rtol=1e-8, atol=1e-12 * np.abs(reference).max())


@pytest.mark.parametrize("kind", ["epsilon", "knn", "components"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_two_level_matches_jacobi(monkeypatch, kind, p):
    graph, cons = _two_level_cases()[kind]
    # equal step counts hold only for exact Newton steps
    two_level, jacobi = _solve_both(monkeypatch, graph, cons, p, forcing=0.0)
    assert two_level.energy == pytest.approx(jacobi.energy, rel=1e-9)
    assert two_level.iterations == jacobi.iterations
    assert two_level.stop_reason == jacobi.stop_reason == "converged"
    assert two_level.pcg_iterations <= jacobi.pcg_iterations
    np.testing.assert_array_equal(two_level.values[cons.indices], cons.values)
    # a loose step depends on the preconditioner, the certified minimum not
    two_level, jacobi = _solve_both(monkeypatch, graph, cons, p, forcing=_DEFAULT_FORCING)
    assert two_level.energy == pytest.approx(jacobi.energy, rel=1e-9)
    assert two_level.stop_reason == jacobi.stop_reason == "converged"


@pytest.mark.parametrize("epsilon, cells", [(1e-3, "one node each"), (2.0, "one cell")])
def test_two_level_at_extreme_cell_sizes(monkeypatch, epsilon, cells):
    # the cells follow the graph's length scale, which here differs from the
    # connection radius the graph was built with
    graph, cons = _two_level_cases()["epsilon"]
    graph = replace(graph, epsilon=epsilon)
    f, solved = _start_values(graph, cons)
    solved[cons.indices] = False
    _, count = _cells(graph.points[solved], epsilon)
    assert count == (solved.sum() if cells == "one node each" else 1)
    two_level, jacobi = _solve_both(monkeypatch, graph, cons, 3.0, forcing=0.0)
    assert two_level.energy == pytest.approx(jacobi.energy, rel=1e-9)
    assert two_level.iterations == jacobi.iterations
    assert two_level.stop_reason == jacobi.stop_reason == "converged"
    two_level, jacobi = _solve_both(monkeypatch, graph, cons, 3.0, forcing=_DEFAULT_FORCING)
    assert two_level.energy == pytest.approx(jacobi.energy, rel=1e-9)
    assert two_level.stop_reason == jacobi.stop_reason == "converged"


@pytest.mark.parametrize("epsilon, coarse", [(0.15, False), (0.06, True)])
def test_coarse_term_only_from_the_cell_count_rule_up(epsilon, coarse):
    # a jittered 30 x 30 lattice: about (1 / epsilon)^2 nonempty cells, 49
    # at epsilon = 0.15 and 288 at 0.06
    rng = np.random.default_rng(8)
    grid = (np.stack(np.meshgrid(np.arange(30), np.arange(30)), -1).reshape(-1, 2) + 0.5) / 30
    graph = build_epsilon_graph(grid + 0.005 * rng.standard_normal(grid.shape), epsilon)
    cons = ConstraintSet(indices=[0, 29, 870, 899], values=[0.0, 1.0, 1.0, 0.0])
    f, solved = _start_values(graph, cons)
    problem = _PinnedEdges(graph, cons, 3.0, solved, 0.0)
    _, count = _cells(graph.points[problem.free], epsilon)
    assert (count >= _COARSE_MIN_CELLS) == coarse
    assert (problem._coarse is not None) == coarse
    res = minimize_discrete(graph, cons, p=3.0, tol=1e-8)
    assert res.converged


def test_discrete_route_phases_stay_within_their_bytes_per_edge():
    # about 0.5M edges; each phase's traced peak above its entry, in bytes
    # per edge: the build (which keeps its 24 B/edge CSR), the set-up of the
    # pinned problem (which keeps about 12 B/edge: the edges, their
    # transposes' places and the coarse slots) and a Newton solve
    rng = np.random.default_rng(3)
    pts = rng.random((16384, 2))
    cons = ConstraintSet(indices=np.arange(8), values=np.linspace(0.0, 1.0, 8))
    peaks, held = {}, {}

    def traced(name, fn):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        now, peak = tracemalloc.get_traced_memory()
        peaks[name], held[name] = peak - entry, now - entry
        return result

    tracemalloc.start()
    try:
        graph = traced("build", lambda: build_epsilon_graph(pts, 0.0345))
        f, solved = _start_values(graph, cons)
        problem = traced("setup", lambda: _PinnedEdges(graph, cons, 3.0, solved, 0.0))
        result = traced("newton", lambda: solver._newton(problem, f, 1e-8, 100))
    finally:
        tracemalloc.stop()
    edges = graph.num_edges
    assert 450_000 < edges < 550_000 and problem._coarse is not None
    assert result.converged
    per_edge = {name: peak / edges for name, peak in peaks.items()}
    assert per_edge["build"] < 40.0, per_edge
    assert per_edge["setup"] < 50.0, per_edge
    assert per_edge["newton"] < 36.0, per_edge
    assert held["setup"] / edges < 16.0, held
