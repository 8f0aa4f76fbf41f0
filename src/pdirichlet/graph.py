"""Weighted proximity graphs and constrained discrete energy minimization.

The discrete route works directly on the point cloud: connect nearby points
with kernel weights, pin the labeled ones, and minimize the convex graph
energy

    E(f) = (1 / (eps^p n^2)) * sum_ij W_ij |f_i - f_j|^p

over the other nodes. `minimize_discrete` runs the damped Newton driver of
`pdirichlet.solver` for every p > 1, whose conjugate gradients solve each
step's Hessian system under a two-level preconditioner: Jacobi plus a coarse
solve on aggregates, one per epsilon-wide cell of free nodes. The Hessian is
a weighted graph Laplacian, so it is applied on the weights' own CSR
pattern, with each edge's curvature in place of its weight, and no pattern
of its own is built. The graph energy tends to a continuum energy at scale
epsilon (Garcia Trillos & Slepcev, ARMA 220, 2016), so the Hessian's smooth
error modes, which Jacobi cannot damp, are continuum modes that such cells
resolve. On small graphs (fewer than _COARSE_MIN_CELLS cells) the coarse
term costs more than it saves and the preconditioner is Jacobi alone. For
1 < p < 2 the Hessian blows up where neighbouring values meet, so Newton
runs on the smoothed energy with |t|^p replaced by (t^2 + s^2)^(p/2), along
a ladder of shrinking s; the smoothing adds at most sum_ij W_ij s^p
(scaled) to the gap, and the certificate counts it, so ``tol`` means the
same for every p. At p = 2, the start system of every solve, the edge
curvature is the scaled weight and the gradient one product with the
weights, d f - W f with d = W 1, at every smoothing: each edge of a free
node lies in that node's own solved component, so the weights' full rows
of the free nodes are the right sums, and neither reads the gaps. For
p = 2 the minimizer is also available as a direct sparse linear solve,
which serves as an exact cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    both directions with one weight; the solvers raise `ValidationError` on
    weights that are not symmetric. ``epsilon`` is the length scale entering
    the energy normalization (for kNN graphs, the mean distance to the k-th
    neighbor).
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
        idx = np.asarray(self.indices)
        # a cast would truncate fractions and turn a boolean mask into 0/1
        if idx.dtype.kind not in "iuf" or not np.all(np.isfinite(idx) & (idx == np.floor(idx))):
            raise ConstraintError("constraint indices must be integers, not fractions or a mask")
        vals = np.asarray(self.values, dtype=float)
        if idx.ndim != 1 or idx.shape != vals.shape:
            raise ConstraintError("constraint indices and values must be 1D of equal length")
        if idx.size == 0:
            raise ConstraintError("constraint set is empty")
        if np.unique(idx).size != idx.size:
            raise ConstraintError("constraint indices contain duplicates")
        if not np.all(np.isfinite(vals)):
            raise ConstraintError("constraint values must be finite")
        object.__setattr__(self, "indices", idx.astype(int))
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
    if not np.all(np.isfinite(pts)):
        raise ValidationError("point coordinates must be finite")
    return pts


# pairs grouped by row at a time in `build_epsilon_graph`; a chunk takes
# about 44 bytes of scratch per pair
_PAIR_CHUNK = 2**17
# edges per block of consecutive rows in the chunked sums over edges
_EDGE_CHUNK = 2**14


def _row_blocks(indptr: np.ndarray, limit: int) -> list:
    """Consecutive row ranges (r0, r1) that cover the CSR offsets ``indptr``,
    each holding at most ``limit`` entries, or one row that holds more."""
    blocks, r0, n = [], 0, indptr.size - 1
    while r0 < n:
        r1 = int(np.searchsorted(indptr, indptr[r0] + limit, side="right")) - 1
        r1 = min(max(r1, r0 + 1), n)
        blocks.append((r0, r1))
        r0 = r1
    return blocks


def _pairs_by_row(pairs: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The CSR column array of the entries (i, j) and (j, i) of every pair,
    grouped by row but in no order within a row; ``indptr`` holds the row
    offsets. A chunk of pairs at a time, a matrix with one row per pair,
    holding the pair's two nodes as columns and the other node as their
    values, transposes (a counting sort) to the chunk's entries grouped by
    row. Each row's group goes after that row's entries from the earlier
    chunks; a single chunk's transpose is the whole grouping."""
    m, n = pairs.shape[0], indptr.size - 1
    steps = np.arange(0, 2 * min(m, _PAIR_CHUNK) + 1, 2, dtype=indptr.dtype)
    grouped = np.empty(2 * m if m > _PAIR_CHUNK else 0, dtype=indptr.dtype)
    cursor = indptr[:-1].copy()
    for start in range(0, m, _PAIR_CHUNK):
        part = pairs[start:start + _PAIR_CHUNK]
        by_row = sp.csr_matrix((part[:, ::-1].ravel(), part.ravel(), steps[:part.shape[0] + 1]),
                               shape=(part.shape[0], n)).tocsc()
        if m <= _PAIR_CHUNK:
            return by_row.data
        counts = np.diff(by_row.indptr)
        place = np.repeat(cursor - by_row.indptr[:-1], counts)
        place += np.arange(place.size, dtype=place.dtype)
        grouped[place] = by_row.data
        cursor += counts
    return grouped


def _pairs_within(pts: np.ndarray, reach: float, idx) -> np.ndarray:
    """Every pair of points at most ``reach`` apart, once, as the rows (i, j)
    of an array of dtype ``idx``, in no particular order.

    A fixed-radius search on strips (Bentley, Stanat & Williams, Inf.
    Process. Lett. 6, 1977). The points are sorted by their strip along x,
    of width h a hair above ``reach``, and then by y, so a pair within reach
    lies in one strip or in two adjacent ones. In that order each point's
    candidates form two runs, found by binary search: the points after it
    in its own strip up to y + h, and those of the next strip within y -/+
    h. Both searches run on one key, strip * span + y with y measured from
    its minimum, which orders the points by strip exactly and by y
    monotonically: span is a power of two above every y + 2 h, so every
    window of a strip lies inside that strip's keys. The padding of h
    covers the rounding of the strips, the keys and the window ends, and
    the runs are clipped apart, so they hold every pair of the exact test,
    dx^2 + dy^2 <= reach^2, once. That test is the one
    `scipy.spatial.cKDTree.query_pairs` makes, so the pairs are the tree's.
    Candidates are tested at most _EDGE_CHUNK at a time, blocks small
    enough to stay in cache.
    """
    n = pts.shape[0]
    # relative to the reach, and above the rounding error of coordinates
    # this large
    pad = reach * 2.0**-20 + 2.0**-40 * float(np.abs(pts).max())
    h = reach + pad
    y = pts[:, 1] - pts[:, 1].min()
    base = np.floor((pts[:, 0] - pts[:, 0].min()) / h)
    span = 2.0 ** math.ceil(math.log2(float(y.max()) + 2.0 * h))
    base *= span
    key = base + y
    order = np.argsort(key)
    key, base, y = key[order], base[order], y[order]
    # where the run in the point's own strip ends, and where the run in the
    # next strip starts and ends
    end = np.searchsorted(key, base + (y + h), side="right")
    base += span
    next_lo = np.maximum(np.searchsorted(key, base + (y - h), side="left"), end)
    next_hi = np.maximum(np.searchsorted(key, base + (y + h), side="right"), next_lo)
    # rows k and n + k hold point k's two runs; each point is one complex
    # item x + iy, so that one gather reads both coordinates
    lo = np.concatenate([np.arange(1, n + 1), next_lo])
    counts = np.concatenate([end, next_hi]) - lo
    offsets = np.zeros(2 * n + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    z = np.ascontiguousarray(pts[order]).view(np.complex128).ravel()
    z, owner = np.concatenate([z, z]), np.concatenate([order, order])
    pieces = []
    for r0, r1 in _row_blocks(offsets, _EDGE_CHUNK):
        c = counts[r0:r1]
        cand = np.repeat(lo[r0:r1] - (offsets[r0:r1] - offsets[r0]), c)
        cand += np.arange(cand.size)
        d = z[cand]
        d -= np.repeat(z[r0:r1], c)
        # (dx, dy) interleaved, squared and summed
        sq = d.view(np.float64)
        sq *= sq
        dist = sq[0::2]
        dist += sq[1::2]
        keep = np.flatnonzero(dist <= reach * reach)
        piece = np.empty((keep.size, 2), dtype=idx)
        piece[:, 0] = np.repeat(owner[r0:r1], c)[keep]
        piece[:, 1] = order[cand[keep]]
        pieces.append(piece)
    return np.concatenate(pieces)


def build_epsilon_graph(points: np.ndarray, epsilon: float, eta: str = "indicator") -> WeightedGraph:
    """Proximity graph with kernel weights W_ij = eps^-2 eta(|x_i - x_j| / eps).

    Pairs farther apart than the profile's truncation radius (times epsilon)
    are not connected; the diagonal is empty. The pairs come from a
    strip-sorted fixed-radius search (`_pairs_within`), which finds the
    pairs of `scipy.spatial.cKDTree.query_pairs` without building a tree,
    so that only `build_knn_graph` loads `scipy.spatial`. The pairs are
    expanded in the CSR's index type a bounded block at a time, and
    counting sorts turn them into the CSR arrays.

    Parameters
    ----------
    points : ndarray, shape (n, 2)
        At least 2 points with finite coordinates.
    epsilon : float
        Length scale, finite and > 0.
    eta : str, optional
        Radial profile: indicator (default) connects within epsilon with
        constant weight; gaussian decays as exp(-r^2 / (2 eps^2)) and is
        truncated at 5 epsilon.

    Returns
    -------
    WeightedGraph
    """
    pts = _points_array(points)
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
    if eta not in ("indicator", "gaussian"):
        raise ValidationError(f"unknown profile {eta!r}; choose indicator or gaussian")
    n = pts.shape[0]
    pairs = _pairs_within(pts, epsilon if eta == "indicator" else 5.0 * epsilon,
                          np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    m = pairs.shape[0]
    idx = np.int32 if max(2 * m, n) <= np.iinfo(np.int32).max else np.int64
    pairs = pairs.astype(idx, copy=False)
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(pairs.ravel(), minlength=n), out=indptr[1:])
    grouped = _pairs_by_row(pairs, indptr)
    del pairs
    # sorted by a transpose: the matrix whose rows hold these groups is the
    # (symmetric) weights pattern, so its CSC arrays are the CSR arrays of
    # that pattern, with every row's columns in order; the pairs are unique,
    # so there are no duplicates to sum
    indices = sp.csr_matrix((np.ones(2 * m, dtype=np.bool_), grouped, indptr),
                            shape=(n, n)).tocsc().indices
    del grouped
    if eta == "indicator":
        # constant weights, so the pair distances are not needed
        data = np.full(2 * m, 1.0 / epsilon**2)
    else:
        data = np.empty(2 * m)
        for r0, r1 in _row_blocks(indptr, _EDGE_CHUNK):
            span = slice(indptr[r0], indptr[r1])
            rows = np.repeat(np.arange(r0, r1), np.diff(indptr[r0:r1 + 1]))
            dists = np.linalg.norm(pts[rows] - pts[indices[span]], axis=1)
            data[span] = np.exp(-(dists / epsilon) ** 2 / 2.0) / epsilon**2
    weights = sp.csr_matrix((data, indices, indptr), shape=(n, n))
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
    # only k-nearest queries need a tree; importing it here keeps
    # scipy.spatial (and scipy.special, which it loads) out of other runs
    from scipy.spatial import cKDTree

    dists, idx = cKDTree(pts).query(pts, k=k + 1)
    rows = np.repeat(np.arange(n), k)
    cols = idx[:, 1:].ravel()
    ones = np.ones(rows.size)
    direct = sp.coo_matrix((ones, (rows, cols)), shape=(n, n))
    sym = direct.maximum(direct.T).tocsr()
    sym.setdiag(0.0)
    sym.eliminate_zeros()
    scale = float(dists[:, -1].mean())
    return WeightedGraph(points=pts, weights=sym, epsilon=scale, kind="knn")


_ASYMMETRIC = "graph weights must be symmetric, each edge stored in both directions with one weight"


def _energy_scale(graph: WeightedGraph, p: float) -> float:
    """1 / (eps^p n^2); `ValidationError` where it is no finite positive float."""
    try:
        scale = 1.0 / (float(graph.epsilon) ** float(p) * graph.n**2)
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise ValidationError(f"the energy scale 1 / (eps^p n^2) at p = {p:g}, "
                              f"eps = {graph.epsilon:g} leaves floating point")
    return scale


def _node_values(graph: WeightedGraph, values: np.ndarray, p: float) -> np.ndarray:
    """The node values as floats, checked against the graph and the exponent."""
    if not (math.isfinite(p) and p >= 1):
        raise ValidationError(f"exponent p must be finite and >= 1, got {p}")
    f = np.asarray(values, dtype=float)
    if f.shape != (graph.n,):
        raise ValidationError(f"expected {graph.n} node values, got shape {f.shape}")
    return f


def _upper_triangle(weights: sp.csr_matrix):
    """Per block of rows holding at most _EDGE_CHUNK stored entries: the
    block's entries (i, j, w) with i < j, in CSR order. For a graph's
    weights these are its edges, each once."""
    indptr, indices = weights.indptr, weights.indices
    for r0, r1 in _row_blocks(indptr, _EDGE_CHUNK):
        span = slice(indptr[r0], indptr[r1])
        rows = np.repeat(np.arange(r0, r1, dtype=indices.dtype), np.diff(indptr[r0:r1 + 1]))
        keep = np.flatnonzero(indices[span] > rows)
        yield rows[keep], indices[span][keep], weights.data[span][keep]


def discrete_energy(graph: WeightedGraph, values: np.ndarray, p: float) -> float:
    """Graph p-Dirichlet energy (1 / (eps^p n^2)) sum_ij W_ij |f_i - f_j|^p."""
    f = _node_values(graph, values, p)
    # sum_ij counts every edge twice
    total = sum(float(np.dot(w, np.abs(f[i] - f[j]) ** p))
                for i, j, w in _upper_triangle(graph.weights))
    return float(2.0 * _energy_scale(graph, p) * total)


def discrete_energy_gradient(graph: WeightedGraph, values: np.ndarray, p: float) -> np.ndarray:
    """Gradient of `discrete_energy`: (2p / (eps^p n^2)) sum_j W_ij phi(f_i - f_j)
    with phi(t) = |t|^(p-1) sign(t); for p < 2 the zero-gap subgradient is 0."""
    f = _node_values(graph, values, p)
    grad = np.zeros(graph.n)
    for i, j, w in _upper_triangle(graph.weights):
        diff = f[i] - f[j]
        # phi is odd, so edge (i, j) adds phi(t) to i and takes it from j
        contrib = w * np.abs(diff) ** (p - 1.0) * np.sign(diff)
        np.add.at(grad, i, contrib)
        np.subtract.at(grad, j, contrib)
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


def _between_pins(weights: sp.csr_matrix, pins: np.ndarray) -> sp.coo_matrix:
    """The weights' entries between two of the nodes ``pins``, each edge in
    both directions, numbered by place in ``pins``."""
    return weights[pins][:, pins].tocoo()


def _start_values(graph: WeightedGraph, constraints: ConstraintSet):
    """Start field and the mask of the nodes whose components are solved.

    The components are those of the graph without its edges between two
    pins, whose terms no value can change. A component is solved when its
    pins carry at least two values, so its minimum energy is positive.
    Every node of a component whose pins all agree takes that value, its
    exact minimizer; every node of a pin-free component (isolated nodes
    included) takes the constraint mean.
    """
    pins, vals = constraints.indices, constraints.values
    w = graph.weights
    between = _between_pins(w, pins)
    if between.nnz:
        w = w - sp.csr_matrix((between.data, (pins[between.row], pins[between.col])), w.shape)
    ncomp, comp = sp.csgraph.connected_components(w, directed=False)
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
    these positions index. The pairs' coarse entries are put in order by
    two counting sorts, by column and then by row, so that equal ones are
    adjacent; only the distinct ones look up their places in the pattern.
    """
    idx = a.dtype
    agg = agg.astype(idx)
    rows, cols = agg[a], agg[b]
    # a matrix with one row per pair, holding an entry in a column of the
    # pair's, transposes to the pairs grouped by that column, in order
    steps = np.arange(rows.size + 1, dtype=idx)
    flags = np.ones(rows.size, dtype=np.bool_)
    order = sp.csr_matrix((flags, cols, steps), shape=(rows.size, cells)).tocsc().indices
    by_row = sp.csr_matrix((flags, rows[order], steps), shape=(rows.size, cells)).tocsc()
    del steps, flags
    order = order[by_row.indices]
    rows = np.repeat(np.arange(cells, dtype=idx), np.diff(by_row.indptr))
    cols = cols[order]
    del by_row
    fresh = np.ones(rows.size, dtype=np.bool_)
    np.not_equal(rows[1:], rows[:-1], out=fresh[1:])
    fresh[1:] |= cols[1:] != cols[:-1]
    rows, cols = rows[fresh], cols[fresh]
    distinct = sp.csr_array((np.ones(rows.size, dtype=np.bool_), cols,
                             np.searchsorted(rows, np.arange(cells + 1))), shape=(cells, cells))
    # canonical (each row's columns in order, no duplicates), as sums are
    pattern = distinct + distinct.T + sp.eye_array(cells, dtype=np.bool_, format="csr")
    pattern.data = np.arange(pattern.nnz, dtype=idx)
    slot = np.empty(order.size, dtype=idx)
    slot[order] = pattern[rows, cols][np.cumsum(fresh, dtype=idx) - 1]
    every = np.arange(cells)
    pattern_rows = np.repeat(every, np.diff(pattern.indptr))
    return (slot, pattern[pattern.indices, pattern_rows], pattern[every, every],
            pattern.indices.astype(idx), pattern.indptr.astype(idx))


class _PinnedEdges:
    """The free part of a constrained graph energy, with each edge stored once.

    Only the nodes marked ``solved`` (see `_start_values`) are solved:
    ``free`` lists the unpinned ones, and every other node keeps its start
    value. An edge between two pinned nodes adds a constant, which is held
    once as ``pinned_energy`` and left out of ``energy``, so that a
    relative stop tol * E weighs only what a step can change. The other
    edges (i < j) of the solved components are held as
    ``edges``, their places in the CSR arrays of the graph's weights, from
    which each sum over them reads j and w a block of rows at a time (see
    `_gaps`), and ``_lower`` holds the place of each edge's transpose (j, i)
    there, so `hessian` writes its curvatures on the weights' own pattern;
    the p = 2 gradient reads the weights and the free nodes' weighted
    degrees ``_degree`` alone. Set up here too, when there are at least
    _COARSE_MIN_CELLS cells: the aggregation of the free nodes into their
    cells of side ``graph.epsilon``, with each edge's slot in the coarse
    matrix. The weights must be symmetric (`ValidationError` otherwise),
    which the places of the transposes check.

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
        self._weights = w
        idx = w.indices.dtype
        rows = np.repeat(np.arange(graph.n, dtype=idx), np.diff(w.indptr))
        # sum_ij counts every edge twice
        self.scale = 2.0 * _energy_scale(graph, p)
        # an edge between two pins adds a constant no step can change: its
        # energy is held once, as ``pinned_energy``
        between = _between_pins(w, constraints.indices)
        gaps = np.abs(constraints.values[between.row] - constraints.values[between.col])
        self.pinned_energy = 0.5 * self.scale * float(np.dot(between.data, gaps**p))
        pinned = np.zeros(graph.n, dtype=np.bool_)
        pinned[constraints.indices] = True
        # the other edges of the solved components, in the CSR order of the
        # weights' upper triangle, and the places of the same rows' other
        # entries below the diagonal, in CSR order
        kept = solved[rows] & ~(pinned[rows] & pinned[w.indices])
        self.edges = np.flatnonzero(kept & (w.indices > rows)).astype(idx)
        lower = np.flatnonzero(kept & (w.indices < rows)).astype(idx)
        del rows, kept
        # blocks of consecutive rows: the rows, their edges (node r's edges,
        # i = r, lie between offsets[r] and offsets[r + 1]) and edge counts,
        # and for `np.add.reduceat` the rows that hold any and where their
        # edges start in the block
        offsets = np.searchsorted(self.edges, w.indptr).astype(idx)
        self._blocks = []
        for r0, r1 in _row_blocks(offsets, _EDGE_CHUNK):
            counts = np.diff(offsets[r0:r1 + 1])
            busy = r0 + np.flatnonzero(counts).astype(idx)
            self._blocks.append((slice(r0, r1), slice(offsets[r0], offsets[r1]), counts,
                                 busy, offsets[busy] - offsets[r0]))
        solved = solved.copy()
        solved[constraints.indices] = False
        self.free = np.flatnonzero(solved)
        # the weighted degrees of the free nodes, for the p = 2 gradient
        self._degree = (w @ np.ones(graph.n))[self.free]
        self.n, self.p = graph.n, p
        self.smooth(s)
        nf, edges = self.free.size, self.edges.size
        self._coarse = None
        # every cell holds a free node, so there are no more cells than nodes
        if nf >= _COARSE_MIN_CELLS:
            agg, cells = _cells(graph.points[self.free], graph.epsilon)
            if cells >= _COARSE_MIN_CELLS:
                local = np.full(graph.n, -1, dtype=idx)
                local[self.free] = np.arange(nf, dtype=idx)
                a = local[np.repeat(np.arange(graph.n, dtype=idx), np.diff(offsets))]
                b = local[w.indices[self.edges]]
                del local
                # the free-free edges (a, b), a < b, and their places among the edges
                inner = np.flatnonzero((a >= 0) & (b >= 0)).astype(idx)
                a, b = a[inner], b[inner]
                inner_slot, swap, *pattern = _coarse_pattern(agg, cells, a, b)
                # an edge with a pinned end adds to one more slot, dropped
                slot = np.full(edges, swap.size, dtype=idx)
                slot[inner] = inner_slot
                self._coarse = (agg, slot, swap, *pattern)
                del a, b, inner, inner_slot, slot
        # ``_lower``: the place of each edge's transpose in the weights' CSR.
        # The kept entries left of the diagonal, row j's in order, are the
        # transposes of column j's edges in the same order, so a counting
        # sort of the edges by column (the CSC arrays of the upper triangle,
        # holding each edge's number and row) lines them up with ``lower``
        by_col = sp.csr_matrix((np.arange(edges, dtype=idx), w.indices[self.edges], offsets),
                               shape=w.shape).tocsc()
        # each edge's transpose is where it is placed, and no other kept
        # entry lies below the diagonal
        symmetric = (lower.size == edges
                     and np.array_equal(np.diff(np.searchsorted(lower, w.indptr)),
                                        np.diff(by_col.indptr))
                     and np.array_equal(w.indices[lower], by_col.indices))
        if symmetric:
            self._lower = np.empty(edges, dtype=idx)
            self._lower[by_col.data] = lower
        del by_col, lower
        if not (symmetric and np.array_equal(w.data[self._lower], w.data[self.edges])):
            raise ValidationError(_ASYMMETRIC)

    def smooth(self, s: float) -> None:
        """Set the smoothing ``s`` and its energy bias bound."""
        self.s = s
        self.bias = 0.0
        if s:
            self.bias = self.scale * float(self._weights.data[self.edges].sum()) * s**self.p

    def refine(self, decrement: float) -> bool:
        """Start the next stage of the smoothing ladder, with s divided by
        _SMOOTHING_RATIO, once this stage is done; returns whether it did."""
        done = decrement <= _STAGE_TOL * self.bias
        if done:
            self.smooth(self.s / _SMOOTHING_RATIO)
        return done

    def _gaps(self, f: np.ndarray):
        """Per block of rows holding at most _EDGE_CHUNK edges: the block
        (see `__init__`), its edges' places in the weights, their ends j, t
        = f_i - f_j and its smoothed size u = sqrt(t^2 + s^2), which is |t|
        when s = 0. Sums over the edges accumulate block by block in edge
        order, so they equal the sums over all edges at once."""
        w = self._weights
        for block in self._blocks:
            rows, span, counts = block[:3]
            edges = self.edges[span]
            j = w.indices[edges]
            t = np.repeat(f[rows], counts) - f[j]
            u = np.sqrt(t * t + self.s**2) if self.s else np.abs(t)
            yield block, edges, j, t, u

    def energy(self, f: np.ndarray) -> float:
        p, total = self.p, 0.0
        for _, edges, _, _, u in self._gaps(f):
            # u^p as u^(p - 2) u^2, whose power is cheap at p = 2, 3 and 4,
            # except where u^(p - 2) is infinite: at tied values when p < 2
            terms = np.power(u, p) if p < 2.0 and not self.s else u ** (p - 2.0) * (u * u)
            total += float(np.dot(self._weights.data[edges], terms))
        return self.scale * total

    def gradient(self, f: np.ndarray, p: float) -> np.ndarray:
        """Free-node gradient of the (smoothed) energy with exponent ``p``,
        under this problem's normalization (a common factor, which Newton
        steps cancel): scale p sum_j w t u^(p - 2) at each free node, with
        w t u^(p - 2) = w u^(p - 1) sign(t) when s = 0. For p < 2 it needs
        s > 0 (every Newton system of `minimize_discrete` has it), since
        u^(p - 2) is infinite at tied values.

        At p = 2 the edge term is w t at every s, so the gradient is 2 scale
        (d f - W f)[free], with W the weights and d = W 1 held per problem:
        the full rows of W are the right sums, since every edge of a free
        node lies in that node's own solved component."""
        free = self.free
        if p == 2.0:
            return p * self.scale * (self._degree * f[free] - (self._weights @ f)[free])
        grad = np.zeros(self.n)
        for (*_, busy, starts), edges, j, t, u in self._gaps(f):
            contrib = self._weights.data[edges] * t * u ** (p - 2.0)
            # each row's edges are contiguous; the back ends are scattered
            grad[busy] += np.add.reduceat(contrib, starts)
            np.subtract.at(grad, j, contrib)
        return p * self.scale * grad[free]

    def hessian(self, f: np.ndarray, p: float, delta: float):
        """Free-node Hessian of the (smoothed) exponent-``p`` energy and its
        preconditioner. The Hessian H is a weighted Laplacian with edge
        weights scale p (p - 1 - (p - 2) s^2 / u^2) w u^(p - 2). A positive
        s keeps u >= s; without it, u is floored at ``delta``, since the
        curvature vanishes with u for p > 2. These curvatures fill a matrix
        C on the weights' own CSR pattern, each at its edge's two places
        (``edges`` and ``_lower``) and 0 elsewhere, so H is the free block
        of diag(C 1) - C and is applied as x -> d x - (C x^)[free], with d
        = (C 1)[free] and x^ holding x at the free nodes and 0 elsewhere.
        At p = 2 the curvature is 2 scale w at every s, so C is 2 scale W,
        read from the weights without the gaps: H reads only the free
        nodes' rows of C, and each of their entries is a solved edge.

        The preconditioner is additive two-level: r / d + P A_c^-1 P^T r,
        with P the 0/1 aggregation of the free nodes into their
        epsilon-cells and A_c = P^T H P, filled through the fixed slot map
        and factored by sparse LU here. Both terms are SPD (A_c is, since P
        has full column rank), so their sum is; it costs one coarse solve
        per PCG iteration and has no weight to tune. Without an
        aggregation (fewer than _COARSE_MIN_CELLS cells) it is Jacobi."""
        w = self._weights
        if p == 2.0:
            data = p * (p - 1.0) * self.scale * w.data
        else:
            data = np.zeros(w.data.size)
            for (_, span, *_), edges, _, _, u in self._gaps(f):
                if self.s:
                    factor = p * (p - 1.0 - (p - 2.0) * self.s**2 / u**2) * self.scale
                else:
                    # the same products, with the factor that is constant at s = 0
                    u = np.maximum(u, delta)
                    factor = p * (p - 1.0) * self.scale
                curv = factor * w.data[edges] * u ** (p - 2.0)
                data[edges] = curv
                data[self._lower[span]] = curv
        hess = _FreeLaplacian(sp.csr_matrix((data, w.indices, w.indptr), shape=w.shape), self.free)
        inv_diag = 1.0 / hess.diagonal
        coarse = None
        if self._coarse is not None:
            agg, slot, swap, diagonal, indices, indptr = self._coarse
            cells = diagonal.size
            # H holds -curv at each free-free edge; the last slot gathers the
            # edges with a pinned end
            sums = np.zeros(swap.size + 1)
            for _, span, *_ in self._blocks:
                np.subtract.at(sums, slot[span], data[self.edges[span]])
            sums = sums[:-1]
            sums += sums[swap]
            sums[diagonal] += np.bincount(agg, hess.diagonal, cells)
            # symmetric, so its CSR arrays are also its CSC arrays
            coarse = spla.splu(sp.csc_matrix((sums, indices, indptr), shape=(cells, cells)),
                               permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                               options={"SymmetricMode": True})

        def precondition(r):
            z = inv_diag * r
            if coarse is not None:
                z += coarse.solve(np.bincount(agg, r, cells))[agg]
            return z

        return hess, precondition


class _FreeLaplacian:
    """The free block of the Laplacian diag(C 1) - C of a symmetric matrix
    C, applied as x -> d x - (C x^)[free]: ``diagonal`` d = (C 1)[free],
    and x^ holds x at the nodes ``free`` and 0 elsewhere."""

    def __init__(self, c: sp.csr_matrix, free: np.ndarray):
        self._c, self._free, self._full = c, free, np.zeros(c.shape[0])
        self.diagonal = (c @ np.ones(c.shape[0]))[free]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self._full[self._free] = x
        return self.diagonal * x - (self._c @ self._full)[self._free]


def minimize_discrete(
    graph: WeightedGraph,
    constraints: ConstraintSet,
    p: float,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> MinimizerResult:
    """Minimize the graph energy with the constrained nodes held fixed.

    Only the connected components whose pins carry two or more values are
    solved, components of the graph without its edges between two pins
    (see `_start_values`). Every node of a component whose pins agree takes
    their value, and every other node (pin-free components, isolated
    nodes) keeps the constraint mean.

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

    In these stops E, E_s and B leave out the edges between two pins,
    whose terms no step can change: the gap is weighed against the energy
    the solve can lower. That constant is added back to the reported
    ``energy`` and ``energies``, so ``energy`` is `discrete_energy` of the
    result.

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
        energies (the edges between two pins unsmoothed), which never
        increase across stages either, followed by the true energy.
        ``stop_reason`` is "converged", "budget" or "stalled" (only the
        first is converged), and ``decrement`` the last
        gap bound: the decrement of the last Newton system solved, plus B
        for p < 2 (exact when converged; after a budget or stalled stop at
        p >= 2 possibly a lower bound from a loose solve).
    """
    if not (math.isfinite(p) and p > 1):
        raise ValidationError(f"the discrete minimizer needs a finite p > 1, got p = {p}")
    constraints.check_against(graph.n)
    f, solved = _start_values(graph, constraints)
    s = float(np.ptp(constraints.values)) if p < 2.0 else 0.0
    problem = _PinnedEdges(graph, constraints, p, solved, s)
    if not np.isfinite(problem.pinned_energy):
        raise ValidationError(f"the p = {p:g} energy of the edges between pins overflows "
                              "floating point")
    result = _newton(problem, f, tol, max_iter)
    if s:
        problem.smooth(0.0)
        result.energy = problem.energy(result.values)
        result.energies = np.append(result.energies, result.energy)
    result.energy += problem.pinned_energy
    result.energies += problem.pinned_energy
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
    if (w != w.T).nnz:
        raise ValidationError(_ASYMMETRIC)
    lap = sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w
    f, solved = _start_values(graph, constraints)
    solved[constraints.indices] = False
    free = np.flatnonzero(solved)
    if free.size:
        rows = lap.tocsr()[free]
        a = rows[:, free].tocsc()
        rhs = -rows[:, constraints.indices] @ constraints.values
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
