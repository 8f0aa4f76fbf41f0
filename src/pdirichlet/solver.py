"""Damped Newton with backtracking for convex energies with pinned values.

Both labeling routes minimize a convex p-Dirichlet energy over the values
that are not pinned: the graph energy of `pdirichlet.graph` and the
quadrature energy of `pdirichlet.continuum`. Each supplies a problem
object, and `_newton` runs the same iteration on either (Boyd &
Vandenberghe, *Convex Optimization*, §9.5). A problem exposes

- ``free``: the indices, into the value vector, of the unknowns;
- ``p``: the target exponent;
- ``bias``: a bound on how far the problem's energy lies above the true
  one at any iterate and at the minimum (0 for an exact energy);
- ``energy(f)``: the energy of the full value vector;
- ``gradient(f, p)`` and ``hessian(f, p, delta)``: the gradient and
  Hessian of the exponent-``p`` energy over the free unknowns, with
  gradient magnitudes floored at ``delta`` in the Hessian, whose weights
  vanish with them for p > 2;
- ``solve(h, b)``: the solution of one Newton system h x = b;
- ``refine(decrement)``, read only when ``bias`` > 0: tighten the problem
  once the decrement no longer dominates its bias, returning whether it
  did, which changes ``energy`` and ``bias``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MinimizerResult"]

# Armijo sufficient-decrease fraction and the step length at which the
# line search gives up
_ARMIJO = 1e-4
_MIN_NEWTON_STEP = 2.0**-40
_EPS = float(np.finfo(float).eps)


@dataclass
class MinimizerResult:
    """Outcome of an energy minimization run.

    ``energies`` lists the energy after every accepted step (starting from
    the initial iterate), so monotonicity can be audited after the fact.
    ``stop_reason`` is "converged", "budget" or "stalled"; only the first
    is converged. ``decrement`` is the last bound on the energy gap (0 for
    a direct solve). ``field`` is the evaluable continuum field, None for
    graph labelings.
    """

    values: np.ndarray
    energy: float
    energies: np.ndarray
    iterations: int
    residual: float
    stop_reason: str
    decrement: float
    field: object = None

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _newton(problem, f: np.ndarray, tol: float, max_iter: int) -> MinimizerResult:
    """Damped Newton from the exact p = 2 minimizer, stopped on a gap bound.

    The start is one Newton step of the exponent-2 energy from ``f``;
    ``delta`` is sqrt(machine eps) times the range of the start values.
    The run stops when the bound decrement + bias <= tol * (E - bias),
    where E is the problem's current energy: the decrement lambda^2 / 2
    estimates the gap to the problem's minimum, and the bias bounds how far
    that minimum lies above the true one and E above the true energy, so
    the bound caps the true gap at ``tol`` times the true energy. Before
    that, a problem with a bias may refine itself, and the run continues
    from the same iterate.

    Returns the `MinimizerResult` over ``f``: the energies after every
    accepted step, the max free-node gradient as the residual, and the last
    gap bound as the decrement.
    """
    free = problem.free
    delta = np.sqrt(_EPS) * max(float(np.ptp(f)), 1e-12)
    f[free] += problem.solve(problem.hessian(f, 2.0, delta), -problem.gradient(f, 2.0))
    energy = problem.energy(f)
    energies = [energy]
    iterations = 0
    while True:
        grad = problem.gradient(f, problem.p)
        step = problem.solve(problem.hessian(f, problem.p, delta), -grad)
        decrement = -0.5 * float(grad @ step)
        bias = problem.bias
        certified = decrement + bias <= tol * (energy - bias)
        if iterations >= max_iter:
            reason = "converged" if certified else "budget"
            break
        if bias and not certified and problem.refine(decrement):
            energy = problem.energy(f)
            continue
        # a certified step whose predicted decrease is below the rounding of
        # E cannot change it, so it is not tried
        if certified and 2.0 * decrement <= _EPS * energy:
            reason = "converged"
            break
        # Armijo backtracking (lambda^2 = 2 * decrement is the decrease the
        # model predicts at t = 1); a certified step is only tried at full
        # length, which costs one energy evaluation and squares the gap
        t = 1.0
        while True:
            cand = f.copy()
            cand[free] += t * step
            cand_energy = problem.energy(cand)
            if cand_energy <= energy - _ARMIJO * t * 2.0 * decrement:
                f, energy = cand, cand_energy
                energies.append(energy)
                iterations += 1
                break
            t /= 2.0
            if certified or t < _MIN_NEWTON_STEP:
                break
        if certified or t < _MIN_NEWTON_STEP:
            reason = "converged" if certified else "stalled"
            break
    residual = float(np.abs(problem.gradient(f, problem.p)).max()) if free.size else 0.0
    return MinimizerResult(
        values=f,
        energy=energies[-1],
        energies=np.asarray(energies),
        iterations=iterations,
        residual=residual,
        stop_reason=reason,
        decrement=decrement + bias,
    )
