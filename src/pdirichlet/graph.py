"""Weighted proximity graphs and constrained discrete energy minimization.

The discrete route works directly on the point cloud: connect nearby points
with kernel weights, pin the labeled ones, and minimize the convex graph
energy

    E(f) = (1 / (eps^p n^2)) * sum_ij W_ij |f_i - f_j|^p

over the other nodes. `minimize_discrete` runs the damped Newton driver of
`pdirichlet.solver` for every p > 1, whose conjugate gradients solve each
step's weighted-Laplacian Hessian system under a two-level preconditioner:
Jacobi plus a coarse solve on aggregates, one per epsilon-wide cell of free
nodes. The graph energy tends to a continuum energy at scale epsilon
(Garcia Trillos & Slepcev, ARMA 220, 2016), so the Hessian's smooth error
modes, which Jacobi cannot damp, are continuum modes that such cells
resolve. On small graphs (fewer than _COARSE_MIN_CELLS cells) the coarse
term costs more than it saves and the preconditioner is Jacobi alone. For
1 < p < 2 the Hessian blows up where neighbouring values meet, so Newton
runs on the smoothed energy with |t|^p replaced by (t^2 + s^2)^(p/2), along
a ladder of shrinking s; the smoothing adds at most sum_ij W_ij s^p
(scaled) to the gap, and the certificate counts it, so ``tol`` means the
same for every p. For p = 2 the minimizer is also available as a direct
sparse linear solve, which serves as an exact cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import ConstraintError, ValidationError
from .solver import MinimizerResult, _newton

__all__ = [
    "WeightedGraph",
    "ConstraintSet",
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


def default_epsilon(n: int, p: float) -> float:
    """Geometric midpoint (in log scale) of the admissible length-scale window.

    The window of the planar (d = 2) theory is (log n)^(3/4) / sqrt(n) below
    and n^(-1/p) above; the midpoint sqrt(lower * upper) is returned even
    when the window is degenerate at small n.
    """
    if n < 2:
        raise ValidationError(f"need at least 2 points, got {n}")
    if p < 1:
        raise ValidationError(f"exponent p must be >= 1, got {p}")
    lower = np.log(n) ** 0.75 / np.sqrt(n)
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
    if eta not in ("indicator", "gaussian"):
        raise ValidationError(f"unknown profile {eta!r}; choose indicator or gaussian")
    n = pts.shape[0]
    tree = cKDTree(pts)
    pairs = tree.query_pairs(epsilon if eta == "indicator" else 5.0 * epsilon,
                             output_type="ndarray")
    if eta == "indicator":
        # constant weights, so the pair distances are not needed
        w = np.ones(pairs.shape[0]) / epsilon**2
    else:
        dists = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        w = np.exp(-(dists / epsilon) ** 2 / 2.0) / epsilon**2
    # the sorted CSR without an index sort, by two O(nnz) transposes. A
    # matrix with one row per stored entry, holding that entry's row as its
    # column, transposes to the entries grouped by row in pair order. The
    # CSR they form is symmetric, so its CSC arrays are its own CSR arrays,
    # now with every row's columns in order; the pairs are unique, so there
    # are no duplicates to sum
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    entries = rows.size
    ids = np.arange(entries, dtype=np.int32)
    by_row = sp.csr_matrix((ids, rows, np.arange(entries + 1)), shape=(entries, n)).tocsc()
    del rows, ids
    order = by_row.data
    grouped = sp.csr_matrix((np.concatenate([w, w])[order], cols[order], by_row.indptr),
                            shape=(n, n))
    del cols, by_row, order
    csc = grouped.tocsc()
    weights = sp.csr_matrix((csc.data, csc.indices, csc.indptr), shape=(n, n))
    weights.has_canonical_format = True
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


# the preconditioner's coarse term is used from this many epsilon-cells of
# free nodes up. Jacobi-PCG iterations grow like 1 / epsilon, about the
# square root of the cell count, while the coarse term costs a set-up per
# solve and a coarse solve per iteration: on rho2 clouds it was slower at
# 16-49 cells, even at 80-126 and faster from 143 on
_COARSE_MIN_CELLS = 100

# smoothing ladder (1 < p < 2): a stage ends once its decrement is below
# _STAGE_TOL times its smoothing bias, the most by which its own minimum
# can be off
_STAGE_TOL = 1e-2
_SMOOTHING_RATIO = 10.0


def _start_values(graph: WeightedGraph, constraints: ConstraintSet):
    """Start field and the mask of the nodes whose components are solved.

    A connected component is solved when its pins carry at least two
    values. Every node of a component whose pins all agree takes that
    value, its exact minimizer; every node of a pin-free component
    (isolated nodes included) takes the constraint mean.
    """
    pins, vals = constraints.indices, constraints.values
    ncomp, comp = sp.csgraph.connected_components(graph.weights, directed=False)
    lo = np.full(ncomp, np.inf)
    hi = np.full(ncomp, -np.inf)
    np.minimum.at(lo, comp[pins], vals)
    np.maximum.at(hi, comp[pins], vals)
    f = np.where(lo == hi, lo, float(vals.mean()))[comp]
    f[pins] = vals
    return f, (lo < hi)[comp]


def _cells(points: np.ndarray, epsilon: float):
    """Aggregate of each point, its cell in the grid of side ``epsilon``
    (cells numbered over the nonempty ones), and the number of cells."""
    # cell coordinates ranked per axis, so the key stays below n^2 for any epsilon
    ix, iy = (np.unique(np.floor(c / epsilon), return_inverse=True)[1]
              for c in points.T)
    keys, agg = np.unique(ix * (iy.max() + 1) + iy, return_inverse=True)
    return agg, keys.size


def _coarse_pattern(agg: np.ndarray, cells: int, a: np.ndarray, b: np.ndarray):
    """Where the entries of a free-node Hessian H land in the coarse matrix
    P^T H P, for P the aggregation of node k into aggregate ``agg[k]``.

    H's off-diagonal entries are given by their pairs (a, b), each stored
    once. Returns ``slot``, the coarse entry (agg[a], agg[b]) of each pair;
    ``swap``, the transpose of each coarse entry; ``diagonal``, the coarse
    diagonal entries; and the symmetric CSR pattern (indices, indptr) that
    these positions index.
    """
    keys = np.concatenate([agg[a] * cells + agg[b], np.arange(cells) * (cells + 1)])
    first, inverse = np.unique(keys, return_inverse=True)
    del keys
    rows, cols = np.divmod(first, cells)
    pattern = np.union1d(first, cols * cells + rows)
    slot = np.searchsorted(pattern, first)[inverse[:a.size]].astype(np.int32)
    rows, cols = np.divmod(pattern, cells)
    return (slot, np.searchsorted(pattern, cols * cells + rows),
            np.searchsorted(pattern, np.arange(cells) * (cells + 1)),
            cols, np.searchsorted(rows, np.arange(cells + 1)))


class _PinnedEdges:
    """The free part of a constrained graph energy, with each edge stored once.

    Only the nodes marked ``solved`` (see `_start_values`) are solved:
    ``free`` lists the unpinned ones, and every other node keeps its start
    value. Edges (i < j) and the sparsity pattern of the free-node Hessian
    are built once here, so each Newton step only refills the Hessian data.
    So is the aggregation of the free nodes into their cells of side
    ``graph.epsilon``, with the slots of the coarse matrix, when there are
    at least _COARSE_MIN_CELLS cells.

    With smoothing ``s`` > 0 each edge term |t|^p, t = f_i - f_j, becomes
    (t^2 + s^2)^(p/2). For p <= 2 that term exceeds |t|^p by at most s^p,
    so ``bias`` = scale sum w s^p bounds how far the smoothed energy lies
    above the true one at any f. The smoothing ladder runs through
    `refine`, and `minimize_discrete` reports the true energy at the end.
    """

    def __init__(self, graph: WeightedGraph, constraints: ConstraintSet, p: float,
                 solved: np.ndarray, s: float):
        w = graph.weights
        if not w.has_canonical_format:
            w = w.copy()
            w.sum_duplicates()
        rows = np.repeat(np.arange(graph.n, dtype=np.int32), np.diff(w.indptr))
        # the edges i < j of the solved components, in the CSR order of the
        # weights' upper triangle
        edges = np.flatnonzero((w.indices > rows) & solved.take(rows))
        self.i, self.j, self.w = rows.take(edges), w.indices.take(edges), w.data.take(edges)
        del rows, edges
        solved = solved.copy()
        solved[constraints.indices] = False
        self.free = np.flatnonzero(solved)
        self.n, self.p = graph.n, p
        # sum_ij counts every edge twice
        self.scale = 2.0 * _energy_scale(graph, p)
        self.smooth(s)
        nf = self.free.size
        self._both = solved.take(self.i) & solved.take(self.j)
        local = np.full(graph.n, -1, dtype=np.int32)
        local[self.free] = np.arange(nf, dtype=np.int32)
        inner = np.flatnonzero(self._both)
        a, b = local.take(self.i.take(inner)), local.take(self.j.take(inner))
        del local, inner
        # the Hessian's entries, each once: the free-free edges (a, b), a < b,
        # their transposes (b, a), then the diagonal. A CSR row holds its
        # transposes, its diagonal entry and its edges, each part in column
        # order, and ``_order`` gives each CSR entry's place in that list, so
        # a refill is a single gather in CSR order
        m = a.size
        ids = np.arange(m, dtype=np.int32)
        upper = np.zeros(nf + 1, dtype=np.int32)
        np.cumsum(np.bincount(a, minlength=nf), out=upper[1:])
        # the transposes by row, without a sort: the CSC arrays of the
        # upper triangle are the CSR arrays of the lower one, and its data
        # the id of each transpose's edge
        lower = sp.csr_matrix((ids, b, upper), shape=(nf, nf)).tocsc()
        rank, below = lower.data, lower.indptr.astype(np.int32)
        self._indptr = below + upper + np.arange(nf + 1, dtype=np.int32)
        self._indices = np.empty(2 * m + nf, dtype=np.int32)
        self._order = np.empty_like(self._indices)
        # an entry's CSR place counts the entries before it. Edge k of row
        # a: k edges, the transposes of rows <= a and a + 1 diagonal entries
        place = ids + below[1:].take(a) + a + 1
        self._indices[place], self._order[place] = b, ids
        # transpose k, of row r: k transposes, the edges of rows < r and r
        # diagonal entries
        r = b.take(rank)
        place = ids + upper.take(r) + r
        self._indices[place], self._order[place] = lower.indices, m + rank
        # diagonal entry r: the transposes of rows <= r, the edges of rows < r
        # and r diagonal entries
        r = np.arange(nf, dtype=np.int32)
        place = below[1:] + upper[:-1] + r
        self._indices[place], self._order[place] = r, 2 * m + r
        # freed before the coarse pattern's sort, which would otherwise add
        # to the peak of this set-up
        del ids, upper, lower, rank, below, place, r
        self._coarse = None
        # every cell holds a free node, so there are no more cells than nodes
        if nf >= _COARSE_MIN_CELLS:
            agg, cells = _cells(graph.points[self.free], graph.epsilon)
            if cells >= _COARSE_MIN_CELLS:
                self._coarse = (agg, *_coarse_pattern(agg, cells, a, b))

    def smooth(self, s: float) -> None:
        """Set the smoothing ``s`` and its energy bias bound."""
        self.s = s
        self.bias = self.scale * float(self.w.sum()) * s**self.p

    def refine(self, decrement: float) -> bool:
        """Start the next stage of the smoothing ladder, with s divided by
        _SMOOTHING_RATIO, once this stage is done; returns whether it did."""
        done = decrement <= _STAGE_TOL * self.bias
        if done:
            self.smooth(self.s / _SMOOTHING_RATIO)
        return done

    def _gaps(self, f: np.ndarray):
        """t = f_i - f_j per edge and its smoothed size u = sqrt(t^2 + s^2),
        which is |t| exactly when s = 0."""
        t = f[self.i] - f[self.j]
        return t, np.sqrt(t * t + self.s**2)

    def energy(self, f: np.ndarray) -> float:
        return self.scale * float(np.dot(self.w, self._gaps(f)[1] ** self.p))

    def gradient(self, f: np.ndarray, p: float) -> np.ndarray:
        """Free-node gradient of the (smoothed) energy with exponent ``p``,
        under this problem's normalization (a common factor, which Newton
        steps cancel)."""
        t, u = self._gaps(f)
        # t / u is the smoothed sign, sign(t) when s = 0
        sign = np.divide(t, u, out=np.zeros_like(t), where=u > 0.0)
        contrib = self.w * u ** (p - 1.0) * sign
        grad = np.bincount(self.i, contrib, self.n) - np.bincount(self.j, contrib, self.n)
        return p * self.scale * grad[self.free]

    def hessian(self, f: np.ndarray, p: float, delta: float):
        """Free-node Hessian of the (smoothed) exponent-``p`` energy and its
        preconditioner. The Hessian H is a weighted Laplacian with edge
        weights scale p (p - 1 - (p - 2) s^2 / u^2) w u^(p - 2). A positive
        s keeps u >= s; without it, u is floored at ``delta``, since the
        curvature vanishes with u for p > 2.

        The preconditioner is additive two-level: r / diag(H) + P A_c^-1
        P^T r, with P the 0/1 aggregation of the free nodes into their
        epsilon-cells and A_c = P^T H P, filled through the fixed slot map
        and factored by sparse LU here. Both terms are SPD (A_c is, since P
        has full column rank), so their sum is; it costs one coarse solve
        per PCG iteration and has no weight to tune. Without an
        aggregation (fewer than _COARSE_MIN_CELLS cells) it is Jacobi."""
        u = self._gaps(f)[1]
        if not self.s:
            u = np.maximum(u, delta)
        curv = p * (p - 1.0 - (p - 2.0) * self.s**2 / u**2) * self.scale * self.w * u ** (p - 2.0)
        diag = (np.bincount(self.i, curv, self.n) + np.bincount(self.j, curv, self.n))[self.free]
        off = -curv[self._both]
        data = np.concatenate([off, off, diag])[self._order]
        nf = self.free.size
        inv_diag = 1.0 / diag
        coarse = None
        if self._coarse is not None:
            agg, slot, swap, diagonal, indices, indptr = self._coarse
            cells = diagonal.size
            values = np.bincount(slot, off, swap.size)
            values += values[swap]
            values[diagonal] += np.bincount(agg, diag, cells)
            # symmetric, so its CSR arrays are also its CSC arrays
            coarse = spla.splu(sp.csc_matrix((values, indices, indptr), shape=(cells, cells)),
                               permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})

        def precondition(r):
            z = inv_diag * r
            if coarse is not None:
                z += coarse.solve(np.bincount(agg, r, cells))[agg]
            return z

        return sp.csr_matrix((data, self._indices, self._indptr), shape=(nf, nf)), precondition


def minimize_discrete(
    graph: WeightedGraph,
    constraints: ConstraintSet,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> MinimizerResult:
    """Minimize the graph energy with the constrained nodes held fixed.

    Only the connected components whose pins carry two or more values are
    solved. Every node of a component whose pins agree takes their value,
    and every other node (pin-free components, isolated nodes) keeps the
    constraint mean.

    The solver is the damped Newton driver of `pdirichlet.solver`, for
    every p > 1. It starts from the p = 2 minimizer (one Newton step of the
    p = 2 energy from the start values, exact at p = 2). Each step solves
    the weighted-Laplacian Hessian system by CG under a two-level
    preconditioner (Jacobi plus a coarse solve on the epsilon-cells of the
    free nodes, or Jacobi alone below _COARSE_MIN_CELLS cells) and takes
    an Armijo backtracking step. CG runs to a relative residual of 1e-10,
    except on the start's system at p != 2 and on a step's system whose
    decrement provably exceeds the stop below (a lower bound on it, which
    CG only raises, passes it): those end loose once CG's energy-norm
    progress stalls, while the certifying system, and for p < 2 every
    system, is solved tight. For
    p >= 2, with edge curvature floored at a gap of sqrt(machine eps) times
    the label range, it stops when the Newton decrement lambda^2 / 2 =
    -g.d / 2, an estimate of the remaining energy gap E - E_min, drops to
    ``tol * E``. The certified step is still taken at full length when it
    lowers the energy (one energy evaluation, and the gap is about
    squared), unless its predicted decrease lambda^2 is at most machine
    eps times E, which no step can realize in floating point: then it is
    not tried, so a run from an exact start, such as p = 2, reports 0
    iterations. A line search that cannot lower the energy ends the run
    unconverged ("stalled").

    For 1 < p < 2 the Hessian blows up at zero gaps, so Newton runs on the
    smoothed energy E_s, with |t|^p replaced by (t^2 + s^2)^(p/2). The
    smoothing starts at the label range and shrinks tenfold per stage, each
    stage starting from the previous iterate. Since (t^2 + s^2)^(p/2) <=
    |t|^p + s^p, E_s exceeds E by at most B = (2 / (eps^p n^2)) sum_(i<j)
    W_ij s^p, so the gap to the true minimum is at most decrement + B. A
    stage ends once its decrement is below 1e-2 B, and the run stops once
    the bound is at most ``tol * (E_s - B)``, which is at most ``tol * E``.
    So for every p, ``tol`` is a relative energy-gap certificate.

    Parameters
    ----------
    graph : WeightedGraph
    constraints : ConstraintSet
    p : float
        Energy exponent, > 1.
    tol : float, optional
        Relative energy-gap tolerance (default 1e-8).
    max_iter : int, optional
        Accepted-step budget over all stages (default 100).

    Returns
    -------
    MinimizerResult
        Never raised on: a run that ends on its budget or stalls returns its
        last iterate with ``converged`` False. ``energies`` holds the energy
        after every accepted step; for p < 2 these are the smoothed
        energies, which never increase across stages either, followed by
        the true energy. ``stop_reason`` is "converged", "budget" or
        "stalled" (only the first is converged), and ``decrement`` the last
        gap bound: the decrement of the last Newton system solved, plus B
        for p < 2 (exact when converged; after a budget or stalled stop at
        p >= 2 possibly a lower bound from a loose solve).
    """
    if p <= 1:
        raise ValidationError(f"the discrete minimizer needs p > 1, got p = {p}")
    constraints.check_against(graph.n)
    f, solved = _start_values(graph, constraints)
    s = float(np.ptp(constraints.values)) if p < 2.0 else 0.0
    problem = _PinnedEdges(graph, constraints, p, solved, s)
    result = _newton(problem, f, tol, max_iter)
    if s:
        problem.smooth(0.0)
        result.energy = problem.energy(result.values)
        result.energies = np.append(result.energies, result.energy)
    return result


def solve_p2_direct(graph: WeightedGraph, constraints: ConstraintSet) -> MinimizerResult:
    """Exact p = 2 minimizer via the constrained graph-Laplacian linear system.

    Free rows of (D - W) f = 0 are solved sparsely with the pinned values
    substituted; this is the reference the iterative route is checked
    against. As in `minimize_discrete`, only the connected components whose
    pins disagree are solved (elsewhere the system is singular or the
    answer is constant), and every other node keeps its start value.
    """
    constraints.check_against(graph.n)
    w = graph.weights
    lap = sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w
    f, solved = _start_values(graph, constraints)
    solved[constraints.indices] = False
    free = np.flatnonzero(solved)
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
        stop_reason="converged",
        decrement=0.0,
    )
