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
- ``gradient(f, p)``: the gradient of the exponent-``p`` energy over the
  free unknowns;
- ``hessian(f, p, delta)``: the pair (operator, precondition) of the
  Newton system for that energy. The operator is its Hessian (anything
  with ``@``), with gradient magnitudes floored at ``delta``, since its
  weights vanish with them for p > 2. ``precondition(r)`` applies an SPD
  approximation of the Hessian's inverse to a residual. The exponent-2
  system must not depend on ``f`` (true of both energies: their curvature
  weights are |gap|^0), so at ``p`` = 2 `_newton` builds it once and solves
  every Newton system with it;
- ``refine(decrement)``, read only when ``bias`` > 0: tighten the problem
  once the decrement no longer dominates its bias, returning whether it
  did, which changes ``energy`` and ``bias``.

`_newton` solves every Newton system with `_pcg` on the problem's operator
and preconditioner: on the graph, Jacobi plus a coarse solve on the
aggregates of epsilon-wide cells (Jacobi alone on small graphs); on the
continuum, the sparse LU of the Hessian's grid-line part (the Hessian
without its cross term), which bounds the preconditioned condition number
by p - 1 at every resolution and is exact at p = 2.
The run's `MinimizerResult` counts the PCG iterations of all its systems.

A PCG solve stops in one of two ways. The tight stop is a relative
residual of _PCG_RTOL. The loose stop needs a step that cannot certify:
PCG from zero only raises its running decrement b.x_k / 2 toward the
exact lambda^2 / 2 (each iteration lowers the quadratic model), so once
that lower bound exceeds the certificate's threshold, no tight solve of the
same system could certify the step either, and PCG stops as soon as its
model decrease has also stalled in the energy norm (Eisenstat & Walker,
SIAM J. Sci. Comput. 17, 1996; Strakos & Tichy, ETNA 13, 2002). Such a
step is still a descent direction, Armijo-tested like any other. Every
certified stop, and every decrement a problem's ``refine`` reads, comes
from a tight solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["MinimizerResult"]

# Armijo sufficient-decrease fraction and the step length at which the
# line search gives up
_ARMIJO = 1e-4
_MIN_NEWTON_STEP = 2.0**-40
_EPS = float(np.finfo(float).eps)
# PCG relative residual, energy-norm forcing of a loose stop, and
# iteration cap per unknown
_PCG_RTOL = 1e-10
_PCG_FORCING = 1e-2
_PCG_MAX_ITER_FACTOR = 4


@dataclass
class MinimizerResult:
    """Outcome of an energy minimization run.

    ``energies`` lists the energy after every accepted step (starting from
    the initial iterate), so monotonicity can be audited after the fact.
    ``stop_reason`` is "converged", "budget" or "stalled"; only the first
    is converged. ``decrement`` is the last bound on the energy gap (0 for
    `graph.solve_p2_direct`, whose one sparse solve is exact). It comes
    from a tight solve whenever the run converged; after a "budget" or
    "stalled" stop it may come from a loose one and then only bounds the
    exact decrement from below. ``field`` is
    the evaluable continuum field, None for graph labelings.
    ``pcg_iterations`` counts the conjugate-gradient iterations of every
    Newton system the run solved (0 for `graph.solve_p2_direct`, which
    runs none).
    """

    values: np.ndarray
    energy: float
    energies: np.ndarray
    iterations: int
    residual: float
    stop_reason: str
    decrement: float
    field: object = None
    pcg_iterations: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _pcg(a, precondition, b: np.ndarray, enough: float = np.inf):
    """Preconditioned conjugate gradients for the SPD system a x = b,
    started from 0 and stopped once |a x - b| <= _PCG_RTOL |b|, or after
    _PCG_MAX_ITER_FACTOR iterations per unknown plus 10. Every iterate is a
    descent direction for the quadratic model, so a capped solve still
    gives a usable Newton step. The residual is tested before the
    preconditioner is applied again, so an exact preconditioner costs one
    application. Returns x and the number of iterations (products with
    ``a``).

    From x_0 = 0, iteration j lowers the model q(x) = x.a x / 2 - b.x by
    alpha_j r_j.z_j / 2 (r_j.z_j the preconditioned residual product), so
    the running sum of these, b.x_k / 2 = -q(x_k), only rises toward the
    exact decrement b.a^-1 b / 2 (Strakos & Tichy, ETNA 13, 2002). The
    solve therefore also stops early, loose, once that lower bound exceeds
    ``enough``, the decrement above which the caller's decision is already
    made, and the last iteration added at most _PCG_FORCING^2 of it, an
    energy-norm error of about _PCG_FORCING relative to the step. With
    ``enough`` = inf (the default) every solve runs to the residual stop.
    """
    x = np.zeros_like(b)
    r = b.copy()
    stop = (_PCG_RTOL * float(np.linalg.norm(b))) ** 2
    if float(r @ r) <= stop:
        return x, 0
    stall = _PCG_FORCING**2
    d = precondition(r)
    rz = float(r @ d)
    total = 0.0
    for k in range(1, _PCG_MAX_ITER_FACTOR * b.size + 11):
        ad = a @ d
        alpha = rz / float(d @ ad)
        x += alpha * d
        r -= alpha * ad
        if float(r @ r) <= stop:
            break
        gain = alpha * rz
        total += gain
        # the running sum gates the loose stop, and b.x, which the caller
        # reads as twice the decrement, confirms it past rounding
        if gain <= stall * total and total > 2.0 * enough and float(b @ x) > 2.0 * enough:
            break
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    return x, k


def _newton(problem, f: np.ndarray, tol: float, max_iter: int) -> MinimizerResult:
    """Damped Newton from the p = 2 minimizer, stopped on a gap bound.

    The start is one Newton step of the exponent-2 energy from ``f``;
    ``delta`` is sqrt(machine eps) times the range of the start values.
    The run stops when the bound decrement + bias <= tol * (E - bias),
    where E is the problem's current energy: the decrement lambda^2 / 2
    estimates the gap to the problem's minimum, and the bias bounds how far
    that minimum lies above the true one and E above the true energy, so
    the bound caps the true gap at ``tol`` times the true energy. Before
    that, a problem with a bias may refine itself, and the run continues
    from the same iterate.

    On an unbiased problem, a step's system may stop loose once its
    decrement provably exceeds ``tol * E`` (`_pcg`'s ``enough``), and the
    start's system at once unless p = 2, since the start is only a
    starting iterate. A biased problem, whose ``refine`` reads every
    decrement, and the p = 2 start, which is then the minimizer, solve
    every system tight.

    Raises `ValidationError` if the start's energy overflows, as it does at
    large p. Returns the `MinimizerResult` over ``f``: the energies after every
    accepted step, the max free-node gradient as the residual, the last
    gap bound as the decrement, and the PCG iterations of every system
    solved.
    """
    free = problem.free
    delta = np.sqrt(_EPS) * max(float(np.ptp(f)), 1e-12)
    system = problem.hessian(f, 2.0, delta)
    enough = np.inf if problem.bias or problem.p == 2.0 else 0.0
    start, pcg_iterations = _pcg(*system, -problem.gradient(f, 2.0), enough)
    f[free] += start
    # kept only where it is every step's system, so that at other exponents
    # it is freed before the next one is built
    fixed = system if problem.p == 2.0 else None
    del system
    energy = problem.energy(f)
    # past this, every gradient and Hessian at p is inf or nan
    if not np.isfinite(energy):
        raise ValidationError(f"the p = {problem.p:g} energy of the start overflows floating point")
    energies = [energy]
    iterations = 0
    while True:
        grad = problem.gradient(f, problem.p)
        bias = problem.bias
        # the threshold of `certified` below, when bias is 0
        enough = np.inf if bias else tol * energy
        step, k = _pcg(*(fixed or problem.hessian(f, problem.p, delta)), -grad, enough)
        pcg_iterations += k
        decrement = -0.5 * float(grad @ step)
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
        pcg_iterations=pcg_iterations,
    )
