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
quadrature weights, the pins, the free index of every copy and the layout
of the grid-line stiffness: a fixed CSC pattern, laid out once, with the
slot of every grid-line entry in its data, so that each fill is one
``np.bincount`` of the per-copy weights' entries. Dx and Dy act along grid
lines, so a node couples only to the nodes on its x-line and y-line in its
patches. A constraint pins its geometric node exactly, including a cross
point where four patches meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .chebyshev import chebyshev_diff_matrix, chebyshev_nodes, clenshaw_curtis_weights
from .errors import ConstraintError, ValidationError

__all__ = ["PatchedDomain", "build_patches"]

_KEY_DECIMALS = 12


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
    assembles the free-node matrix of per-copy grid-line weights on the
    fixed pattern that `build_patches` lays out.
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
    # free index of every copy, flat [patch, iy, ix], free_nodes.size if pinned
    _free_of: np.ndarray
    # the CSC indices and indptr of the grid-line pattern and the slots of
    # its entries in the data (see build_patches)
    _layout: tuple

    @property
    def n_nodes(self) -> int:
        """Number of node copies, the length of a field's value vector."""
        return self.points.shape[0]

    def stiffness(self, mxx: np.ndarray, myy: np.ndarray) -> sp.csc_matrix:
        """Q^T (Dx^T diag(mxx) Dx + Dy^T diag(myy) Dy) Q over the free nodes,
        D = (Dx, Dy) per patch, for per-copy weights ``mxx`` and ``myy``, each
        ``[patch, iy, ix]``.

        Along each grid line the terms are d1^T diag(m) d1, entries
        [patch, iy, ix, j] that couple a copy to the j-th copy of its x-line
        (xx) or y-line (yy). One ``np.bincount`` adds them into the data of the
        fixed pattern; entries in a pinned row or column land in one extra
        slot, which is dropped.
        """
        indices, indptr, slots = self._layout
        d1x, d1y = self.d1x, self.d1y
        # xx[p, iy, ix, j] = sum_k d1x[k, ix] mxx[iy, k] d1x[k, j], and yy alike
        xx = (d1x.transpose(0, 2, 1)[:, None] * mxx[:, :, None]) @ d1x[:, None]
        yy = (d1y.transpose(0, 2, 1)[:, :, None] * myy.transpose(0, 2, 1)[:, None]) @ d1y[:, None]
        data = np.bincount(slots, np.concatenate((xx, yy), axis=None), indices.size + 1)
        return sp.csc_matrix((data[:-1], indices, indptr), shape=(self.free_nodes.size,) * 2)


def _tile_axis(lines: np.ndarray, points_per_patch: int) -> tuple:
    """Nodes, 1D derivative and Clenshaw-Curtis weights of every tile of one axis."""
    order = points_per_patch - 1
    grids = [chebyshev_nodes(order, (a, b)) for a, b in zip(lines[:-1], lines[1:])]
    return (
        np.array([g.nodes for g in grids]),
        np.array([chebyshev_diff_matrix(g) for g in grids]),
        np.array([clenshaw_curtis_weights(order, g.interval) for g in grids]),
    )


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
    n_free = free_nodes.size
    free_of = np.where(np.isin(node_of, pin_nodes), n_free, np.searchsorted(free_nodes, node_of))
    # the grid-line entries [xx | yy, patch, iy, ix, j] couple each copy (row)
    # to the copies of its x-line and its y-line (column); their CSC keys,
    # column-major, sorted and made unique, are the pattern, and a key past
    # every free pair stands for an entry with a pinned end
    row = free_of.reshape(n_patches, n, n)[..., None]
    col = np.stack(np.broadcast_arrays(row.transpose(0, 1, 3, 2), row.transpose(0, 3, 2, 1)))
    dump = n_free * n_free
    keys = np.where((row == n_free) | (col == n_free), dump, col * n_free + row)
    pattern, slots = np.unique(keys.ravel(), return_inverse=True)
    pattern = pattern[pattern < dump]
    indices = (pattern % max(n_free, 1)).astype(np.int32)
    indptr = np.searchsorted(pattern, np.arange(n_free + 1) * n_free).astype(np.int32)
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
        _free_of=free_of,
        _layout=(indices, indptr, slots.ravel()),
    )
