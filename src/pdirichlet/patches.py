"""Rectangular patch decompositions of the unit square for spectral elements.

The square is tiled by axis-aligned patches, each carrying its own
Chebyshev-Gauss-Lobatto tensor grid. A node on a shared edge exists once per
touching patch (a node copy), but all copies of one geometric node share a
single unknown: the gather map ``node_of`` (the 0/1 matrix Q in index form)
sends geometric-node values to the copies, so every field is continuous
across patches by construction. This module owns the geometry and the
static operators built from it: the tiling, the matching of copies to
geometric nodes, the per-copy spectral derivatives and quadrature weights,
and the pins. A constraint pins its geometric node exactly, including a
cross point where four patches meet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .chebyshev import chebyshev_nodes, quadrature_2d, tensor_diff_ops
from .errors import ConstraintError, ValidationError

__all__ = ["Patch", "PatchedDomain", "build_patches"]

_KEY_DECIMALS = 12


def _key(x: float, y: float) -> tuple[float, float]:
    return (round(float(x), _KEY_DECIMALS), round(float(y), _KEY_DECIMALS))


@dataclass
class Patch:
    """One rectangular tile with its collocation grid."""

    index: int
    bounds: tuple[float, float, float, float]  # x0, x1, y0, y1
    grid_x: object
    grid_y: object
    points: np.ndarray
    offset: int

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class PatchedDomain:
    """Patch tiling, copy-to-node matching, static operators and pins.

    Arrays over node copies run patch by patch in patch-local order (the
    layout of field values); arrays over geometric nodes follow
    ``node_points``. ``grad`` maps the values of the free (unpinned)
    geometric nodes to the partial derivatives at every copy, d/dx in its
    first ``n_nodes`` rows and d/dy in the rest: the per-patch derivatives
    times the free columns of Q.
    """

    patches: list
    xlines: np.ndarray
    ylines: np.ndarray
    points: np.ndarray  # coordinates of every node copy
    quad_weights: np.ndarray  # Clenshaw-Curtis weight of every node copy
    diff_x: sp.csr_matrix  # per-patch d/dx, node copies -> node copies
    diff_y: sp.csr_matrix
    node_of: np.ndarray  # geometric node of every copy
    node_points: np.ndarray  # coordinates of every geometric node
    pin_nodes: np.ndarray  # pinned geometric nodes, ascending
    pin_values: np.ndarray  # their labels
    free_nodes: np.ndarray  # the other geometric nodes, ascending
    grad: sp.csr_matrix  # free-node values -> (d/dx, d/dy) at every copy

    @property
    def n_nodes(self) -> int:
        """Number of node copies, the length of a field's value vector."""
        return self.points.shape[0]


def _build_tiling(xlines: np.ndarray, ylines: np.ndarray, points_per_patch: int) -> tuple:
    """The patches, and per patch its d/dx, d/dy and quadrature weights."""
    patches, diff_x, diff_y, weights = [], [], [], []
    offset = 0
    order = points_per_patch - 1
    for j in range(len(ylines) - 1):
        for i in range(len(xlines) - 1):
            gx = chebyshev_nodes(order, (xlines[i], xlines[i + 1]))
            gy = chebyshev_nodes(order, (ylines[j], ylines[j + 1]))
            dx, dy = tensor_diff_ops(gx, gy)
            rule = quadrature_2d(gx, gy)
            patches.append(
                Patch(
                    index=len(patches),
                    bounds=(xlines[i], xlines[i + 1], ylines[j], ylines[j + 1]),
                    grid_x=gx,
                    grid_y=gy,
                    points=rule.points,
                    offset=offset,
                )
            )
            diff_x.append(dx)
            diff_y.append(dy)
            weights.append(rule.weights)
            offset += rule.points.shape[0]
    return patches, diff_x, diff_y, weights


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
        xlines = np.linspace(0.0, 1.0, tiles[0] + 1)
        ylines = np.linspace(0.0, 1.0, tiles[1] + 1)
    else:
        xlines = _lines_from_positions(pos[:, 0])
        ylines = _lines_from_positions(pos[:, 1])
    patches, diff_x, diff_y, weights = _build_tiling(xlines, ylines, points_per_patch)
    points = np.vstack([p.points for p in patches])
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
    n_copies = points.shape[0]
    gather = sp.csr_matrix(
        (np.ones(n_copies), (np.arange(n_copies), node_of)),
        shape=(n_copies, node_points.shape[0]),
    )[:, free_nodes]
    diff_x = sp.block_diag(diff_x, format="csr")
    diff_y = sp.block_diag(diff_y, format="csr")
    return PatchedDomain(
        patches=patches,
        xlines=xlines,
        ylines=ylines,
        points=points,
        quad_weights=np.concatenate(weights),
        diff_x=diff_x,
        diff_y=diff_y,
        node_of=node_of,
        node_points=node_points,
        pin_nodes=pin_nodes,
        pin_values=pin_values,
        free_nodes=free_nodes,
        grad=sp.vstack([diff_x @ gather, diff_y @ gather], format="csr"),
    )
