"""Weighted proximity graphs and constrained discrete energy minimization.

The discrete route works directly on the point cloud: connect nearby points
with kernel weights, pin the labeled ones, and minimize the convex graph
energy

    E(f) = (1 / (eps^p n^2)) * sum_ij W_ij |f_i - f_j|^p

over the other nodes. For p >= 2 `minimize_discrete` runs a damped Newton
method: it starts from the exact p = 2 minimizer, solves each step's
weighted-Laplacian Hessian system by Jacobi-preconditioned CG, takes an
Armijo backtracking step, and stops on the Newton decrement, so ``tol`` is
a relative energy-gap certificate. For 1 < p < 2 the Hessian degenerates
where neighbouring values meet, and accelerated projected descent runs
instead. Both accept a step only if the energy does not increase, so
recorded energy traces are monotone by construction. For p = 2 the
minimizer is also available as a direct sparse linear solve, which serves
as an exact cross-check. The same Newton iteration also minimizes the
continuum quadrature energy of `pdirichlet.continuum`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as _dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .density import kernel
from .errors import ConstraintError, ConvergenceError, StepSizeError, ValidationError

__all__ = [
    "WeightedGraph",
    "ConstraintSet",
    "GraphLabeling",
    "MinimizerResult",
    "default_epsilon",
    "build_epsilon_graph",
    "build_knn_graph",
    "discrete_energy",
    "discrete_energy_gradient",
    "minimize_discrete",
    "solve_p2_direct",
]


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric weighted graph over a point cloud.

    ``weights`` is CSR with zero diagonal and each undirected edge stored in
    both directions. ``epsilon`` is the length scale entering the energy
    normalization (for kNN graphs, the mean distance to the k-th neighbor).
    """

    points: np.ndarray
    weights: sp.csr_matrix
    epsilon: float
    kind: str

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def num_edges(self) -> int:
        return self.weights.nnz // 2

    def is_connected(self) -> bool:
        ncomp = sp.csgraph.connected_components(self.weights, directed=False, return_labels=False)
        return int(ncomp) == 1


@dataclass(frozen=True)
class ConstraintSet:
    """Pinned node indices and their label values."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        vals = np.asarray(self.values, dtype=float)
        if idx.ndim != 1 or idx.shape != vals.shape:
            raise ConstraintError("constraint indices and values must be 1D of equal length")
        if idx.size == 0:
            raise ConstraintError("constraint set is empty")
        if np.unique(idx).size != idx.size:
            raise ConstraintError("constraint indices contain duplicates")
        if not np.all(np.isfinite(vals)):
            raise ConstraintError("constraint values must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    def check_against(self, n: int) -> None:
        if self.indices.min() < 0 or self.indices.max() >= n:
            raise ConstraintError(f"constraint indices out of range for {n} nodes")


@dataclass(frozen=True)
class GraphLabeling:
    """Node values on a graph, with the constraint set that produced them."""

    values: np.ndarray
    constraints: ConstraintSet


@dataclass
class MinimizerResult:
    """Outcome of an energy minimization run.

    ``energies`` lists the energy after every accepted step (starting from
    the initial iterate), so monotonicity can be audited after the fact.
    """

    values: np.ndarray
    energy: float
    energies: np.ndarray
    iterations: int
    residual: float
    converged: bool
    wall_time: float
    method: str
    field: object = None
    meta: dict = _dc_field(default_factory=dict)


def default_epsilon(n: int, p: float, d: int = 2) -> float:
    """Geometric midpoint (in log scale) of the admissible length-scale window.

    The window is (log n)^(3/4) / sqrt(n) below and n^(-1/p) above for d = 2
    (for d = 1 the lower exponent drops to 3/4 on the log factor as well with
    1/d scaling on n); the midpoint sqrt(lower * upper) is returned even when
    the window is degenerate at small n.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 points, got {n}")
    if p < 1:
        raise ValidationError(f"exponent p must be >= 1, got {p}")
    lower = np.log(n) ** 0.75 / np.sqrt(n) if d == 2 else np.log(n) ** 0.75 / n
    upper = n ** (-1.0 / p)
    return float(np.sqrt(lower * upper))


def _points_array(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"expected points of shape (n, 2), got {pts.shape}")
    if pts.shape[0] < 2:
        raise ValidationError("need at least 2 points to build a graph")
    return pts


def build_epsilon_graph(points: np.ndarray, epsilon: float, eta: str = "indicator") -> WeightedGraph:
    """Proximity graph with kernel weights W_ij = eps^-2 eta(|x_i - x_j| / eps).

    Pairs farther apart than the profile's truncation radius (times epsilon)
    are not connected; the diagonal is empty.

    Parameters
    ----------
    points : ndarray, shape (n, 2)
    epsilon : float
        Length scale, > 0.
    eta : str, optional
        Radial profile: indicator (default) connects within epsilon with
        constant weight; gaussian decays as exp(-r^2 / (2 eps^2)) and is
        truncated at 5 epsilon.

    Returns
    -------
    WeightedGraph
    """
    pts = _points_array(points)
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if eta == "indicator":
        radius, profile = epsilon, lambda r: np.ones_like(r)
    elif eta == "gaussian":
        radius, profile = 5.0 * epsilon, lambda r: np.exp(-(r / epsilon) ** 2 / 2.0)
    else:
        raise ValidationError(f"unknown profile {eta!r}; choose indicator or gaussian")
    n = pts.shape[0]
    tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    if pairs.size:
        dists = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        w = profile(dists) / epsilon**2
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        data = np.concatenate([w, w])
    else:
        rows = cols = np.zeros(0, dtype=int)
        data = np.zeros(0)
    weights = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return WeightedGraph(points=pts, weights=weights, epsilon=float(epsilon), kind="epsilon")


def build_knn_graph(points: np.ndarray, k: int) -> WeightedGraph:
    """Symmetrized k-nearest-neighbor graph with unit weights.

    An edge joins i and j when either is among the other's k nearest
    neighbors. The stored length scale is the mean k-th neighbor distance.
    """
    pts = _points_array(points)
    n = pts.shape[0]
    if not 1 <= k < n:
        raise ValidationError(f"k must be in [1, n-1], got {k}")
    tree = cKDTree(pts)
    dists, idx = tree.query(pts, k=k + 1)
    rows = np.repeat(np.arange(n), k)
    cols = idx[:, 1:].ravel()
    ones = np.ones(rows.size)
    direct = sp.coo_matrix((ones, (rows, cols)), shape=(n, n))
    sym = direct.maximum(direct.T).tocsr()
    sym.setdiag(0.0)
    sym.eliminate_zeros()
    scale = float(dists[:, -1].mean())
    return WeightedGraph(points=pts, weights=sym, epsilon=scale, kind="knn")


def _energy_scale(graph: WeightedGraph, p: float) -> float:
    return 1.0 / (graph.epsilon**p * graph.n**2)


def discrete_energy(graph: WeightedGraph, values: np.ndarray, p: float) -> float:
    """Graph p-Dirichlet energy (1 / (eps^p n^2)) sum_ij W_ij |f_i - f_j|^p."""
    if p < 1:
        raise ValidationError(f"exponent p must be >= 1, got {p}")
    f = np.asarray(values, dtype=float)
    if f.shape != (graph.n,):
        raise ValidationError(f"expected {graph.n} node values, got shape {f.shape}")
    w = graph.weights
    rows = np.repeat(np.arange(graph.n), np.diff(w.indptr))
    diff = f[rows] - f[w.indices]
    return float(_energy_scale(graph, p) * np.dot(w.data, np.abs(diff) ** p))


def discrete_energy_gradient(graph: WeightedGraph, values: np.ndarray, p: float) -> np.ndarray:
    """Gradient of `discrete_energy`: (2p / (eps^p n^2)) sum_j W_ij phi(f_i - f_j)
    with phi(t) = |t|^(p-1) sign(t); for p < 2 the zero-gap subgradient is 0."""
    f = np.asarray(values, dtype=float)
    w = graph.weights
    rows = np.repeat(np.arange(graph.n), np.diff(w.indptr))
    diff = f[rows] - f[w.indices]
    contrib = w.data * np.abs(diff) ** (p - 1.0) * np.sign(diff)
    grad = np.bincount(rows, weights=contrib, minlength=graph.n)
    return 2.0 * p * _energy_scale(graph, p) * grad


def _default_step(graph: WeightedGraph, p: float, label_range: float) -> float:
    degree = np.asarray(graph.weights.sum(axis=1)).ravel().max()
    curvature = max(label_range, 1e-12) ** (p - 2.0)
    return 0.9 * graph.epsilon**p * graph.n**2 / (2.0 * p * max(degree, 1e-300) * curvature)


# Newton: PCG relative residual, PCG iteration cap per unknown, Armijo
# sufficient-decrease fraction, and the step length at which the line
# search gives up
_PCG_RTOL = 1e-10
_PCG_MAX_ITER_FACTOR = 4
_ARMIJO = 1e-4
_MIN_NEWTON_STEP = 2.0**-40


class _PinnedEdges:
    """The free part of a constrained graph energy, with each edge stored once.

    Only the connected components that carry a pin are solved: ``free`` lists
    their unpinned nodes, and nodes of pin-free components keep their start
    value. Edges (i < j) and the sparsity pattern of the free-node Hessian
    are built once here, so each Newton step only refills the Hessian data.
    """

    def __init__(self, graph: WeightedGraph, constraints: ConstraintSet, p: float):
        pins = constraints.indices
        _, comp = sp.csgraph.connected_components(graph.weights, directed=False)
        solved = np.isin(comp, comp[pins])
        upper = sp.triu(graph.weights, k=1).tocoo()
        keep = solved[upper.row]
        self.i, self.j, self.w = upper.row[keep], upper.col[keep], upper.data[keep]
        solved[pins] = False
        self.free = np.flatnonzero(solved)
        self.n, self.p = graph.n, p
        # sum_ij counts every edge twice
        self.scale = 2.0 * _energy_scale(graph, p)
        nf = self.free.size
        local = np.full(graph.n, -1)
        local[self.free] = np.arange(nf)
        li, lj = local[self.i], local[self.j]
        self._both = (li >= 0) & (lj >= 0)
        a, b = li[self._both], lj[self._both]
        # the Hessian's entries, each once: both triangles, then the diagonal;
        # the data records each entry's place in that list, so a refill is a
        # single gather in CSR order
        diag = np.arange(nf)
        pattern = sp.csr_matrix(
            (np.arange(1.0, 2 * a.size + nf + 1),
             (np.concatenate([a, b, diag]), np.concatenate([b, a, diag]))),
            shape=(nf, nf),
        )
        self._order = pattern.data.astype(np.int64) - 1
        self._indices, self._indptr = pattern.indices, pattern.indptr

    def energy(self, f: np.ndarray) -> float:
        return self.scale * float(np.dot(self.w, np.abs(f[self.i] - f[self.j]) ** self.p))

    def gradient(self, f: np.ndarray, p: float) -> np.ndarray:
        """Free-node gradient of the energy with exponent ``p``, under this
        problem's normalization (a common factor, which Newton steps cancel)."""
        diff = f[self.i] - f[self.j]
        contrib = self.w * np.abs(diff) ** (p - 1.0) * np.sign(diff)
        grad = np.bincount(self.i, contrib, self.n) - np.bincount(self.j, contrib, self.n)
        return p * self.scale * grad[self.free]

    def hessian(self, f: np.ndarray, p: float, delta: float) -> sp.csr_matrix:
        """Free-node Hessian of the exponent-``p`` energy: a weighted Laplacian
        with edge weights scale * p (p - 1) w max(|f_i - f_j|, delta)^(p - 2)."""
        gap = np.maximum(np.abs(f[self.i] - f[self.j]), delta)
        curv = p * (p - 1.0) * self.scale * self.w * gap ** (p - 2.0)
        diag = np.bincount(self.i, curv, self.n) + np.bincount(self.j, curv, self.n)
        off = -curv[self._both]
        data = np.concatenate([off, off, diag[self.free]])[self._order]
        nf = self.free.size
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(nf, nf))


def _pcg(a: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for the SPD system a x = b,
    started from 0 and stopped once |a x - b| <= _PCG_RTOL |b|. Every
    iterate is a descent direction for the quadratic model, so a capped
    solve still gives a usable Newton step."""
    x = np.zeros_like(b)
    r = b.copy()
    inv_diag = 1.0 / a.diagonal()
    z = inv_diag * r
    d = z.copy()
    rz = float(r @ z)
    stop = (_PCG_RTOL * float(np.linalg.norm(b))) ** 2
    for _ in range(_PCG_MAX_ITER_FACTOR * b.size + 10):
        if float(r @ r) <= stop:
            break
        ad = a @ d
        alpha = rz / float(d @ ad)
        x += alpha * d
        r -= alpha * ad
        z = inv_diag * r
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    return x


def _newton(problem, f: np.ndarray, tol: float, max_iter: int, delta: float, solve=_pcg):
    """Damped Newton from the exact p = 2 minimizer, stopped on the decrement.

    Shared by both routes. ``problem`` exposes the free unknowns
    (``free``, indices into ``f``), ``p``, and ``energy(f)``,
    ``gradient(f, p)`` and ``hessian(f, p, delta)`` of the exponent-``p``
    energy over the free unknowns; ``solve(h, b)`` solves one Newton system,
    and ``delta`` floors the gradient magnitudes in the Hessian weights.
    """
    free = problem.free
    f[free] += solve(problem.hessian(f, 2.0, delta), -problem.gradient(f, 2.0))
    energy = problem.energy(f)
    energies = [energy]
    iterations = 0
    while True:
        grad = problem.gradient(f, problem.p)
        step = solve(problem.hessian(f, problem.p, delta), -grad)
        decrement = -0.5 * float(grad @ step)
        certified = decrement <= tol * energy
        if iterations >= max_iter:
            reason = "converged" if certified else "budget"
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
        if certified:
            reason = "converged"
            break
        if t < _MIN_NEWTON_STEP:
            reason = "stalled"
            break
    residual = float(np.abs(problem.gradient(f, problem.p)).max()) if free.size else 0.0
    return f, energies, iterations, residual, reason, decrement


def _nesterov(problem: _PinnedEdges, graph: WeightedGraph, f: np.ndarray, tol: float,
              max_iter: int, label_range: float):
    """Accelerated projected descent with energy-decrease acceptance (1 < p < 2)."""
    p, free = problem.p, problem.free
    tau = _default_step(graph, p, label_range)
    grad_scale = (
        2.0 * p * _energy_scale(graph, p)
        * np.asarray(graph.weights.sum(axis=1)).ravel().max()
        * max(label_range, 1e-12) ** (p - 1.0)
    )

    def residual_of(vals):
        g = problem.gradient(vals, p)
        return float(np.abs(g).max()) if g.size else 0.0

    energy = problem.energy(f)
    energies = [energy]
    residual = residual_of(f)
    y = f.copy()
    iterations = 0
    converged = residual <= tol * grad_scale
    stagnated = False
    while not converged and not stagnated and iterations < max_iter:
        accepted = False
        while not accepted and not stagnated:
            cand = y.copy()
            cand[free] -= tau * problem.gradient(y, p)
            cand_energy = problem.energy(cand)
            if cand_energy <= energy:
                accepted = True
            elif not np.array_equal(y, f):
                y = f.copy()  # restart momentum, retry from the accepted iterate
            elif cand_energy - energy <= 16.0 * np.finfo(float).eps * max(abs(energy), 1e-300):
                # descent is blocked by roundoff only: converged to precision
                stagnated = True
            else:
                tau /= 2.0
                if tau < 1e-300:
                    raise StepSizeError("step size underflow: no descent step found")
        if not accepted:
            break
        prev = f
        f = cand
        energy = cand_energy
        energies.append(energy)
        iterations += 1
        y = f + iterations / (iterations + 3.0) * (f - prev)
        residual = residual_of(f)
        converged = residual <= tol * grad_scale
    reason = "stalled" if stagnated else "converged" if converged else "budget"
    return f, energies, iterations, residual, reason, float("nan")


def minimize_discrete(
    graph: WeightedGraph,
    constraints: ConstraintSet,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    strict: bool = True,
) -> MinimizerResult:
    """Minimize the graph energy with the constrained nodes held fixed.

    Only the connected components that carry a pin are solved; every other
    node (pin-free components, isolated nodes) keeps the constraint mean.

    For p >= 2 the solver is a damped Newton method. It starts from the
    exact p = 2 minimizer (one Newton step of the p = 2 energy from the
    constraint-mean field). Each step solves the weighted-Laplacian Hessian
    system, with edge curvature floored at a gap of sqrt(machine eps) times
    the label range, by Jacobi-preconditioned CG and takes an Armijo
    backtracking step. It stops when the Newton decrement lambda^2 / 2 =
    -g.d / 2, an estimate of the remaining energy gap E - E_min, drops to
    ``tol * E``; ``tol`` is thus a relative energy-gap certificate. The
    certified step is still taken at full length when it lowers the energy
    (one energy evaluation, and the gap is about squared). A line search
    that cannot lower the energy ends the run unconverged ("stalled").

    For 1 < p < 2 the Hessian degenerates, and accelerated projected descent
    runs instead: a step is accepted only if the energy does not increase
    (a rejected candidate first restarts the momentum, then halves the
    step), and the run stops when the free-node gradient drops below ``tol``
    times its natural scale, or when descent is blocked by roundoff alone
    (stop reason "stalled", counted as converged).

    Parameters
    ----------
    graph : WeightedGraph
    constraints : ConstraintSet
    p : float
        Energy exponent, > 1.
    tol : float, optional
        Relative energy-gap tolerance for p >= 2, relative gradient
        tolerance for p < 2 (default 1e-8).
    max_iter : int, optional
        Accepted-step budget (default 200000).
    strict : bool, optional
        If True (default) raise ConvergenceError when the run ends
        unconverged; otherwise return the last iterate flagged unconverged.

    Returns
    -------
    MinimizerResult
        ``meta["stop_reason"]`` is "converged", "budget" or "stalled", and
        ``meta["decrement"]`` the lambda^2 / 2 of the last Newton system
        solved (NaN for p < 2).
    """
    if p <= 1:
        raise ValidationError(f"the discrete minimizer needs p > 1, got p = {p}")
    constraints.check_against(graph.n)
    start = time.perf_counter()
    problem = _PinnedEdges(graph, constraints, p)
    f = np.full(graph.n, float(constraints.values.mean()))
    f[constraints.indices] = constraints.values
    label_range = float(constraints.values.max() - constraints.values.min())
    if p >= 2.0:
        method = "newton"
        delta = np.sqrt(np.finfo(float).eps) * max(label_range, 1e-12)
        f, energies, iterations, residual, reason, decrement = _newton(
            problem, f, tol, max_iter, delta
        )
        converged = reason == "converged"
    else:
        method = "nesterov"
        f, energies, iterations, residual, reason, decrement = _nesterov(
            problem, graph, f, tol, max_iter, label_range
        )
        converged = reason != "budget"
    if not converged and strict:
        raise ConvergenceError(
            f"discrete minimizer ({method}) stopped unconverged ({reason}) after "
            f"{iterations} steps: residual {residual:.3e}"
        )
    return MinimizerResult(
        values=f,
        energy=energies[-1],
        energies=np.asarray(energies),
        iterations=iterations,
        residual=residual,
        converged=converged,
        wall_time=time.perf_counter() - start,
        method=method,
        meta={"p": p, "stop_reason": reason, "decrement": decrement},
    )


def solve_p2_direct(graph: WeightedGraph, constraints: ConstraintSet) -> MinimizerResult:
    """Exact p = 2 minimizer via the constrained graph-Laplacian linear system.

    Free rows of (D - W) f = 0 are solved sparsely with the pinned values
    substituted; this is the reference the iterative route is checked
    against. As in `minimize_discrete`, only the connected components that
    carry a pin are solved (elsewhere the system is singular), and every
    other node keeps the constraint mean.
    """
    constraints.check_against(graph.n)
    start = time.perf_counter()
    w = graph.weights
    lap = sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w
    _, comp = sp.csgraph.connected_components(w, directed=False)
    solved = np.isin(comp, comp[constraints.indices])
    solved[constraints.indices] = False
    free = np.flatnonzero(solved)
    f = np.full(graph.n, float(constraints.values.mean()))
    f[constraints.indices] = constraints.values
    if free.size:
        lap_csr = lap.tocsr()
        a = lap_csr[free][:, free].tocsc()
        rhs = -lap_csr[free][:, constraints.indices] @ constraints.values
        f[free] = spla.spsolve(a, rhs)
    energy = discrete_energy(graph, f, 2.0)
    grad = discrete_energy_gradient(graph, f, 2.0)
    grad[constraints.indices] = 0.0
    return MinimizerResult(
        values=f,
        energy=energy,
        energies=np.asarray([energy]),
        iterations=1,
        residual=float(np.abs(grad).max()),
        converged=True,
        wall_time=time.perf_counter() - start,
        method="p2-direct",
    )
