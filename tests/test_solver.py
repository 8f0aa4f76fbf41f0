"""Shared Newton driver: its three stops, on stub problems."""

import numpy as np

from pdirichlet.solver import _newton


class Quadratic:
    """E(f) = 1 + |f_free - c_p|^2 / 2 over the free entries, whose minimizer
    ``c_p`` is ``start`` for the exponent-2 start step and ``target`` for
    the target exponent ``p``."""

    bias = 0.0
    solve = staticmethod(np.linalg.solve)

    def __init__(self, start, target, p=3.0):
        self.free = np.array([1, 2])
        self.p = p
        self._center = {2.0: np.asarray(start, float), p: np.asarray(target, float)}

    def energy(self, f):
        return 1.0 + 0.5 * float(np.sum((f[self.free] - self._center[self.p]) ** 2))

    def gradient(self, f, p):
        return f[self.free] - self._center[p]

    def hessian(self, f, p, delta):
        return np.eye(self.free.size)


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
