"""Shared Newton driver: its three stops, on stub problems, and its
preconditioned CG kernel with its loose stop, alone and under the driver
on both routes."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from pdirichlet import solver
from pdirichlet.continuum import ContinuumProblem, minimize_continuum
from pdirichlet.density import reference_density, sample_density
from pdirichlet.experiments import constraint_labels, label_value
from pdirichlet.graph import build_epsilon_graph, default_epsilon, minimize_discrete
from pdirichlet.patches import build_patches
from pdirichlet.solver import _newton, _pcg


class Quadratic:
    """E(f) = 1 + |f_free - c_p|^2 / 2 over the free entries, whose minimizer
    ``c_p`` is ``start`` for the exponent-2 start step and ``target`` for
    the target exponent ``p``."""

    bias = 0.0

    def __init__(self, start, target, p=3.0):
        self.free = np.array([1, 2])
        self.p = p
        self._center = {2.0: np.asarray(start, float), p: np.asarray(target, float)}

    def energy(self, f):
        return 1.0 + 0.5 * float(np.sum((f[self.free] - self._center[self.p]) ** 2))

    def gradient(self, f, p):
        return f[self.free] - self._center[p]

    def hessian(self, f, p, delta):
        return np.eye(self.free.size), lambda r: r


class Rising(Quadratic):
    """Its energy rises along every step: it is least at the start
    minimizer, which the driver reaches first, while the gradient points on."""

    def energy(self, f):
        return 1.0 + float(np.abs(f[self.free] - self._center[2.0]).sum())


def test_exact_start_converges_without_a_step():
    problem = Quadratic(start=[0.5, -0.5], target=[0.5, -0.5])
    res = _newton(problem, np.zeros(3), tol=1e-10, max_iter=10)
    assert res.stop_reason == "converged" and res.converged
    assert res.iterations == 0
    assert res.decrement == 0.0
    np.testing.assert_array_equal(res.values, [0.0, 0.5, -0.5])
    np.testing.assert_array_equal(res.energies, [1.0])


def test_zero_budget_from_a_non_minimizer():
    problem = Quadratic(start=[0.0, 0.0], target=[1.0, 2.0])
    res = _newton(problem, np.zeros(3), tol=1e-10, max_iter=0)
    assert res.stop_reason == "budget" and not res.converged
    assert res.iterations == 0
    # the decrement of the quadratic is exactly its gap, |c_p - c_2|^2 / 2
    assert res.decrement == 2.5
    np.testing.assert_array_equal(res.energies, [3.5])
    assert res.residual == 2.0


def test_energy_rising_along_every_step_stalls():
    problem = Rising(start=[0.0, 0.0], target=[1.0, 2.0])
    res = _newton(problem, np.zeros(3), tol=1e-10, max_iter=10)
    assert res.stop_reason == "stalled" and not res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.values, np.zeros(3))
    np.testing.assert_array_equal(res.energies, [1.0])


class Halfway(Quadratic):
    """Counts the Newton systems it builds. Its operator is twice the
    Hessian, so each step goes halfway and a run solves several systems."""

    systems = 0

    def hessian(self, f, p, delta):
        self.systems += 1
        return 2.0 * np.eye(self.free.size), lambda r: r / 2.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_exponent_2_system_is_built_once(monkeypatch, p):
    # at p = 2 every step's system is the start step's; other exponents
    # build one per step
    solves = []

    def counting_pcg(a, precondition, b, enough):
        solves.append(b)
        return _pcg(a, precondition, b, enough)

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    problem = Halfway(start=[0.5, -0.5], target=[1.0, 2.0] if p == 3.0 else [0.5, -0.5], p=p)
    res = _newton(problem, np.zeros(3), tol=1e-10, max_iter=100)
    assert res.converged and res.iterations >= 5
    assert res.pcg_iterations == len(solves)
    assert problem.systems == (1 if p == 2.0 else len(solves))


def grid_laplacian(m, low, seed):
    """Weighted Laplacian of the m x m grid graph with the boundary pinned,
    restricted to the interior nodes (SPD), and a random right-hand side;
    the edge weights are log-uniform in [low, 1]."""
    rng = np.random.default_rng(seed)
    idx = np.arange(m * m).reshape(m, m)
    i = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    j = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    adj = sp.coo_matrix((low ** rng.random(i.size), (i, j)), shape=(m * m, m * m))
    adj = (adj + adj.T).tocsr()
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
    inner = idx[1:-1, 1:-1].ravel()
    return lap.tocsr()[inner][:, inner].tocsc(), rng.standard_normal(inner.size)


def test_pcg_jacobi_reaches_the_relative_residual():
    a, b = grid_laplacian(12, 1e-2, seed=3)
    inv_diag = 1.0 / a.diagonal()
    x, iterations = _pcg(a, lambda r: inv_diag * r, b)
    assert 1 <= iterations <= 4 * b.size + 10
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_pcg_with_an_exact_factorization_takes_one_iteration():
    a, b = grid_laplacian(12, 1e-2, seed=4)
    lu = splu(a, permc_spec="MMD_AT_PLUS_A")
    calls = []

    def precondition(r):
        calls.append(r)
        return lu.solve(r)

    x, iterations = _pcg(a, precondition, b)
    assert len(calls) == 1 and iterations == 1
    exact = lu.solve(b)
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


def test_capped_pcg_still_gives_a_descent_direction(monkeypatch):
    # no iterations per unknown leaves the fixed 10, far too few here
    monkeypatch.setattr(solver, "_PCG_MAX_ITER_FACTOR", 0)
    a, b = grid_laplacian(30, 1e-6, seed=5)
    inv_diag = 1.0 / a.diagonal()
    x, iterations = _pcg(a, lambda r: inv_diag * r, b)
    assert iterations == 10
    assert np.linalg.norm(a @ x - b) > 1e-3 * np.linalg.norm(b)
    assert float(b @ x) > 0.0


def test_pcg_stops_loose_only_above_enough():
    a, b = grid_laplacian(30, 1e-2, seed=6)
    inv_diag = 1.0 / a.diagonal()
    jacobi = lambda r: inv_diag * r
    exact = 0.5 * float(b @ splu(a, permc_spec="MMD_AT_PLUS_A").solve(b))
    tight, tight_iterations = _pcg(a, jacobi, b)
    for enough in (0.0, 0.5 * exact, 0.9 * exact):
        x, iterations = _pcg(a, jacobi, b, enough)
        # CG from 0 only raises b.x / 2 toward b.a^-1 b / 2
        assert enough < 0.5 * float(b @ x) <= exact
        assert iterations < tight_iterations
        assert np.linalg.norm(a @ x - b) > 1e-10 * np.linalg.norm(b)
    # a bound that stays below enough leaves the residual stop alone
    for enough in ((1.0 + 1e-9) * exact, np.inf):
        x, iterations = _pcg(a, jacobi, b, enough)
        assert iterations == tight_iterations
        np.testing.assert_array_equal(x, tight)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def _recorded_solves(monkeypatch):
    """Patch `solver._pcg` to record, per system, whether its solve met the
    residual stop and whether its decrement b.x / 2 exceeded ``enough``."""
    solves = []

    def recording_pcg(a, precondition, b, enough):
        x, k = _pcg(a, precondition, b, enough)
        tight = np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
        solves.append((tight, 0.5 * float(b @ x) > enough))
        return x, k

    monkeypatch.setattr(solver, "_pcg", recording_pcg)
    return solves


def _graph_run(p):
    labels = constraint_labels()
    cloud = sample_density(reference_density("rho2"), 2048, seed=11).points
    graph = build_epsilon_graph(np.vstack([labels.positions, cloud]), default_epsilon(2048, p))
    return minimize_discrete(graph, labels.graph_constraints(0), p=p)


def _continuum_run(p):
    labels = constraint_labels()
    dom = build_patches(labels.positions, labels.values, 10, tiles=(3, 3), label_fn=label_value)
    return minimize_continuum(ContinuumProblem(dom, reference_density("rho2"), p))


@pytest.mark.parametrize("run", [_graph_run, _continuum_run], ids=["graph", "continuum"])
@pytest.mark.parametrize("p", [3.0, 5.0])
def test_every_converged_stop_rests_on_a_tight_solve(monkeypatch, run, p):
    solves = _recorded_solves(monkeypatch)
    res = run(p)
    assert res.converged
    # the certifying system met the residual stop, and every system that
    # stopped loose had a decrement no tight solve could certify
    assert solves[-1][0]
    assert all(tight or above for tight, above in solves)
    assert not all(tight for tight, _ in solves)
