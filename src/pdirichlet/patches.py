"""Rectangular patch decompositions of the unit square for spectral elements.

The square is tiled by axis-aligned patches, each carrying its own
Chebyshev-Gauss-Lobatto tensor grid. Every field and operator over node
copies has one layout, the stacked ``[patch, iy, ix]`` array: patches run
x-tile fastest, and within a patch x runs fastest, so a field's flat value
vector reshapes to ``d1x.shape``. A node on a shared edge exists once per
touching patch (a node copy), but all copies of one geometric node share a
single unknown: the gather map ``node_of`` (the 0/1 matrix Q in index form)
sends geometric-node values to the copies, so every field is continuous
across patches by construction. This module owns the geometry and the
static operators built from it: the tiling, the matching of copies to
geometric nodes, the per-patch 1D derivative matrices and per-copy
quadrature weights, the pins, and the layout of the free-node Newton
Hessian: a fixed CSC pattern, laid out once, with the slot of every
per-patch block entry in its data, so that the Hessian of each Newton step
is one fill of that data from the per-copy curvature. One pattern serves
every p: a block couples every pair of copies of its patch. A constraint
pins its geometric node exactly, including a cross point where four
patches meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .chebyshev import chebyshev_diff_matrix, chebyshev_nodes, clenshaw_curtis_weights
from .errors import ConstraintError, ValidationError

__all__ = ["PatchedDomain", "build_patches"]

_KEY_DECIMALS = 12
# entries of the patch blocks that one chunk of a stiffness fill holds
_BLOCK_BUDGET = 1 << 21


def _key(x: float, y: float) -> tuple[float, float]:
    return (round(float(x), _KEY_DECIMALS), round(float(y), _KEY_DECIMALS))


@dataclass
class PatchedDomain:
    """Patch tiling, copy-to-node matching, static operators and pins.

    Arrays over node copies are the flat ``[patch, iy, ix]`` layout of field
    values (patch ``iy_tile * (xlines.size - 1) + ix_tile``); arrays over
    geometric nodes follow ``node_points``. ``d1x``/``d1y`` stack the
    patches' 1D derivative matrices, so a field ``u`` reshaped to
    ``d1x.shape`` has d/dx ``u @ d1x^T`` and d/dy ``d1y @ u``. `stiffness`
    assembles the free-node matrix of a per-copy 2x2 tensor on the fixed
    pattern that `build_patches` lays out.
    """

    xlines: np.ndarray  # tile boundaries along x, ascending
    ylines: np.ndarray
    points: np.ndarray  # coordinates of every node copy
    quad_weights: np.ndarray  # Clenshaw-Curtis weight of every node copy
    node_of: np.ndarray  # geometric node of every copy
    node_points: np.ndarray  # coordinates of every geometric node
    pin_nodes: np.ndarray  # pinned geometric nodes, ascending
    pin_values: np.ndarray  # their labels
    free_nodes: np.ndarray  # the other geometric nodes, ascending
    d1x: np.ndarray  # per-patch 1D d/dx, shape (patches, N, N)
    d1y: np.ndarray
    # free index of every copy ([patch, ix, iy], -1 if pinned), the CSC
    # indices and indptr of the free-node pattern, and the slots of the
    # block entries in its data (see build_patches)
    _layout: tuple

    @property
    def n_nodes(self) -> int:
        """Number of node copies, the length of a field's value vector."""
        return self.points.shape[0]

    def stiffness(self, mxx: np.ndarray, mxy: np.ndarray, myy: np.ndarray) -> sp.csc_matrix:
        """Q^T D^T M D Q over the free nodes, D = (Dx, Dy) per patch, for the
        per-copy symmetric tensor M = [[mxx, mxy], [mxy, myy]], each
        ``[patch, iy, ix]``.

        As Dx and Dy act along grid lines, the xx and yy terms are
        d1^T diag(m) d1 along each grid line and the cross term is
        d1x[jx, ix] mxy[iy, jx] d1y[iy, jy], which couples every pair of
        copies of a patch. Pinned copies' rows and columns are zeroed, and the
        blocks are added, a chunk of patches at a time, into the data of the
        fixed pattern. An all-zero ``mxy`` skips the cross term, and then the
        pattern's empty slots are dropped, so the matrix (and its LU fill)
        holds only the grid-line coupling.
        """
        free_of, indices, indptr, starts, ranks, kind = self._layout
        cross_term = bool(mxy.any())
        # myy transposed to [patch, ix, iy], as its lines run along y
        myy = myy.transpose(0, 2, 1)
        data = np.zeros(max(indices.size, 1))  # slot 0 exists even with no free node
        chunk = max(1, _BLOCK_BUDGET // self.d1x.shape[1] ** 4)
        for lo in range(0, self.d1x.shape[0], chunk):
            at = slice(lo, lo + chunk)
            d1x, d1y, free = self.d1x[at], self.d1y[at], free_of[at] >= 0
            d1xt, d1yt = d1x.transpose(0, 2, 1), d1y.transpose(0, 2, 1)
            # [patch, ix, iy, jx] and [patch, ix, iy, jy], as the slots run
            xx = (d1xt[:, :, None] * mxx[at][:, None]) @ d1x[:, None]
            xx *= free[..., None] & free.transpose(0, 2, 1)[:, None]
            yy = (d1yt[:, None] * myy[at][:, :, None]) @ d1y[:, None]
            yy *= free[..., None] & free[:, :, None]
            where = starts[at][..., None, None] + ranks[at][:, kind]
            if cross_term:
                # [patch, ix, iy, jx, jy]
                cross = (d1xt[:, :, None] * mxy[at][:, None] * free[..., None])[..., None]
                cross = cross * (d1y[:, :, None] * free[:, None])[:, None]
                block = np.add(cross, cross.transpose(0, 3, 4, 1, 2), order="C")
                # flat, as ufunc.at takes its fast path on 1D indices only
                np.add.at(data, where.ravel(), block.ravel())
            np.add.at(data, np.einsum("pxyXy->pxyX", where).ravel(), xx.ravel())
            np.add.at(data, np.einsum("pxyxY->pxyY", where).ravel(), yy.ravel())
        h = sp.csc_matrix((data[: indices.size], indices, indptr), shape=(self.free_nodes.size,) * 2)
        if not cross_term:
            # on a copy: h shares the layout's index arrays, which this edits
            h = h.copy()
            h.eliminate_zeros()
        return h


def _tile_axis(lines: np.ndarray, points_per_patch: int) -> tuple:
    """Nodes, 1D derivative and Clenshaw-Curtis weights of every tile of one axis."""
    order = points_per_patch - 1
    grids = [chebyshev_nodes(order, (a, b)) for a, b in zip(lines[:-1], lines[1:])]
    return (
        np.array([g.nodes for g in grids]),
        np.array([chebyshev_diff_matrix(g) for g in grids]),
        np.array([clenshaw_curtis_weights(order, g.interval) for g in grids]),
    )


def _coupling(free_of: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """CSC indices and indptr of the pattern of the free nodes (``free_of``)
    with copies in a common patch, the node-patch incidence times its
    transpose, and the data slots of the entries (``rows``, ``cols``); a
    pinned index (-1) reads as node 0."""
    keep = free_of >= 0
    patch = np.broadcast_to(np.arange(free_of.shape[0])[:, None, None], free_of.shape)
    incidence = sp.csr_matrix(
        (np.ones(keep.sum(), np.int8), (free_of[keep], patch[keep])),
        shape=(int(free_of.max()) + 1, free_of.shape[0]),
    )
    pattern = (incidence @ incidence.T).T  # symmetric: the CSR product read as CSC
    pattern.sort_indices()
    pattern.data = np.arange(pattern.nnz, dtype=np.int32)
    r, c = np.broadcast_arrays(np.maximum(rows, 0), np.maximum(cols, 0))
    slots = pattern[r.ravel(), c.ravel()] if pattern.nnz else np.zeros(r.size, np.int32)
    return pattern.indices, pattern.indptr, np.asarray(slots).reshape(r.shape)


def _lines_from_positions(values: np.ndarray) -> np.ndarray:
    # the constraint coordinates themselves, so pins land exactly on nodes
    _, first = np.unique(np.round(values, _KEY_DECIMALS), return_index=True)
    lines = values[first]
    if lines.size < 2 or not np.isclose(lines[0], 0.0) or not np.isclose(lines[-1], 1.0):
        raise ConstraintError(
            "constraint positions do not span the unit square; pass tiles= explicitly"
        )
    return lines


def build_patches(
    positions,
    labels,
    points_per_patch: int,
    tiles: tuple[int, int] | None = None,
    label_fn=None,
    boundary_value_fn=None,
) -> PatchedDomain:
    """Tile the unit square and pin pointwise constraints to its nodes.

    When ``tiles`` is omitted the tiling lines are inferred from the distinct
    constraint coordinates (a lattice of constraint positions makes each
    lattice cell one patch). Every constraint pins the geometric node at its
    position, whichever patches share that node.

    Parameters
    ----------
    positions : array-like, shape (N, 2) or None
        Constraint locations; must coincide with collocation nodes. May be
        None/empty when ``boundary_value_fn`` provides the constraints.
    labels : array-like, shape (N,) or None
        Constraint values.
    points_per_patch : int
        Collocation nodes per dimension per patch, >= 4.
    tiles : (int, int), optional
        Explicit tiling (nx, ny) with uniform lines.
    label_fn : callable, optional
        Label formula (x, y) -> label; every label must agree with it at its
        position, else ConstraintError.
    boundary_value_fn : callable, optional
        When given, every outer-boundary node is pinned to its value.

    Returns
    -------
    PatchedDomain
    """
    if points_per_patch < 4:
        raise ValidationError(f"need at least 4 points per patch, got {points_per_patch}")
    pos = np.zeros((0, 2)) if positions is None else np.atleast_2d(np.asarray(positions, float))
    labs = np.zeros(0) if labels is None else np.atleast_1d(np.asarray(labels, float))
    if pos.shape[0] != labs.shape[0]:
        raise ConstraintError("positions and labels differ in length")
    if pos.shape[0] == 0 and boundary_value_fn is None:
        raise ConstraintError("no constraints given")
    if pos.size and (pos.min() < 0.0 or pos.max() > 1.0):
        raise ConstraintError("constraint positions fall outside the unit square")
    if tiles is not None:
        if min(tiles) < 1:
            raise ValidationError(f"tiles must be >= 1 along each axis, got {tuple(tiles)}")
        xlines = np.linspace(0.0, 1.0, tiles[0] + 1)
        ylines = np.linspace(0.0, 1.0, tiles[1] + 1)
    else:
        xlines = _lines_from_positions(pos[:, 0])
        ylines = _lines_from_positions(pos[:, 1])
    n = points_per_patch
    nodes_x, deriv_x, weights_x = _tile_axis(xlines, n)
    nodes_y, deriv_y, weights_y = _tile_axis(ylines, n)
    # x tile and y tile of every patch, x tile fastest
    tile_y, tile_x = np.divmod(np.arange((xlines.size - 1) * (ylines.size - 1)), xlines.size - 1)
    n_patches = tile_x.size
    d1x, d1y = deriv_x[tile_x], deriv_y[tile_y]
    px, py = np.broadcast_arrays(nodes_x[tile_x][:, None, :], nodes_y[tile_y][:, :, None])
    points = np.column_stack([px.ravel(), py.ravel()])
    quad_weights = (weights_y[tile_y][:, :, None] * weights_x[tile_x][:, None, :]).ravel()
    # copies of a shared node are computed from the same tiling line, so
    # their coordinates agree exactly and rounding only guards the lookup
    _, first, node_of = np.unique(
        np.round(points, _KEY_DECIMALS), axis=0, return_index=True, return_inverse=True
    )
    node_points = points[first]
    node_of = node_of.ravel()
    index = {_key(x, y): k for k, (x, y) in enumerate(node_points)}

    pins: dict = {}

    def pin(node: int, label: float) -> None:
        if node in pins and not np.isclose(pins[node], label):
            raise ConstraintError(
                f"conflicting constraint labels at {tuple(node_points[node])}"
            )
        pins[node] = float(label)

    for (x, y), label in zip(pos, labs):
        node = index.get(_key(x, y))
        if node is None:
            raise ConstraintError(f"constraint at ({x}, {y}) is not a collocation node")
        if label_fn is not None and not np.isclose(label_fn(x, y), label):
            raise ConstraintError(f"constraint label at ({x}, {y}) disagrees with label_fn")
        pin(node, label)
    if boundary_value_fn is not None:
        lo, hi = node_points.min(axis=1), node_points.max(axis=1)
        for node in np.flatnonzero(np.isclose(lo, 0.0) | np.isclose(hi, 1.0)):
            pin(node, boundary_value_fn(*node_points[node]))

    pin_nodes = np.array(sorted(pins), dtype=int)
    pin_values = np.array([pins[k] for k in pin_nodes], dtype=float)
    free_nodes = np.setdiff1d(np.arange(node_points.shape[0]), pin_nodes)
    # free index of every copy (-1 if pinned), [patch, ix, iy]: x-major like
    # the node numbering, so that a refill walks each CSC column in order
    free_of = np.where(np.isin(node_of, pin_nodes), -1, np.searchsorted(free_nodes, node_of))
    free_of = free_of.reshape(n_patches, n, n).transpose(0, 2, 1)
    # a block couples all copies of its patch, so a column's rows are
    # the free nodes of the patches holding its node. They depend only on
    # the node's kind (inside, on one of four sides or at one of four
    # corners): an entry's slot is its column's start plus its row's rank in
    # a free column ``rep`` of that kind.
    side = (np.arange(n) > 0) + (np.arange(n) == n - 1).astype(int)
    kind = 3 * side[:, None] + side
    rep = np.full((n_patches, 9), -1)
    np.maximum.at(rep, (np.arange(n_patches)[:, None, None], kind), free_of)
    indices, indptr, ranks = _coupling(free_of, free_of[:, None], rep[..., None, None])
    ranks = np.maximum(ranks - indptr[np.maximum(rep, 0)][..., None, None], 0)
    return PatchedDomain(
        xlines=xlines,
        ylines=ylines,
        points=points,
        quad_weights=quad_weights,
        node_of=node_of,
        node_points=node_points,
        pin_nodes=pin_nodes,
        pin_values=pin_values,
        free_nodes=free_nodes,
        d1x=d1x,
        d1y=d1y,
        _layout=(free_of, indices, indptr, indptr[np.maximum(free_of, 0)], ranks, kind),
    )
