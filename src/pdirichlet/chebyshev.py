"""Chebyshev collocation primitives on intervals and tensor-product rectangles.

Nodes are Chebyshev-Gauss-Lobatto points, stored in the conventional
descending order (right endpoint first). Differentiation matrices are built
from the barycentric form with the negative-sum trick on the diagonal, which
keeps them exact on polynomials up to the grid order and makes every row sum
to zero. Rectangle operators act on fields flattened in C order with x
fastest, i.e. a field sampled as ``F[iy, ix]`` is passed as ``F.ravel()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

__all__ = [
    "ChebGrid1D",
    "QuadratureRule",
    "chebyshev_nodes",
    "chebyshev_diff_matrix",
    "tensor_diff_ops",
    "clenshaw_curtis_weights",
    "quadrature_2d",
]


@dataclass(frozen=True)
class ChebGrid1D:
    """Chebyshev-Gauss-Lobatto grid on a closed interval.

    Attributes
    ----------
    order : int
        Polynomial order D; the grid has D + 1 nodes.
    interval : tuple of float
        Endpoints (a, b) with a < b.
    nodes : ndarray, shape (D + 1,)
        Collocation nodes in descending order, ``nodes[0] == b`` and
        ``nodes[-1] == a`` exactly.
    """

    order: int
    interval: tuple[float, float]
    nodes: np.ndarray

    @property
    def size(self) -> int:
        return self.order + 1


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes and weights on a rectangle.

    Points are flattened in the same x-fastest C order used by the tensor
    differentiation operators, so a field and the rule can be combined as
    ``rule.weights @ values``.
    """

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.weights.shape[0]:
            raise ValidationError(
                f"quadrature rule with {self.weights.shape[0]} nodes applied "
                f"to {values.shape[0]} values"
            )
        return float(self.weights @ values)


def _check_interval(interval: tuple[float, float]) -> tuple[float, float]:
    a, b = float(interval[0]), float(interval[1])
    if not np.isfinite(a) or not np.isfinite(b) or a >= b:
        raise ValidationError(f"invalid interval ({a}, {b}): need finite a < b")
    return a, b


def chebyshev_nodes(order: int, interval: tuple[float, float] = (-1.0, 1.0)) -> ChebGrid1D:
    """Build a Chebyshev-Gauss-Lobatto grid of the given polynomial order.

    Parameters
    ----------
    order : int
        Polynomial order D >= 1; the grid carries D + 1 nodes cos(i pi / D),
        i = 0..D, mapped affinely onto ``interval``.
    interval : tuple of float, optional
        Target interval (a, b). Default is (-1, 1).

    Returns
    -------
    ChebGrid1D
        Grid with nodes in descending order. The node set is symmetrized as
        (t - t[::-1]) / 2 before mapping, so endpoints land exactly on a and
        b and, for even order, the midpoint is exact.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    a, b = _check_interval(interval)
    i = np.arange(order + 1)
    t = np.cos(np.pi * i / order)
    t = (t - t[::-1]) / 2.0
    # Midpoint-radius form keeps the node set exactly antisymmetric about the
    # interval center; the endpoints are pinned to the exact bounds.
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * t
    nodes[0] = b
    nodes[-1] = a
    return ChebGrid1D(order=order, interval=(a, b), nodes=nodes)


def _barycentric_weights(order: int) -> np.ndarray:
    w = np.ones(order + 1)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def chebyshev_diff_matrix(grid: ChebGrid1D) -> np.ndarray:
    """First-derivative collocation matrix for a Lobatto grid.

    Built in barycentric form: off-diagonal entries (w_j / w_i) / (x_i - x_j)
    and diagonal entries set to the negated row sums, which enforces exact
    differentiation of constants and, with the Lobatto weights, exactness on
    all polynomials up to the grid order.
    """
    x = grid.nodes
    w = _barycentric_weights(grid.order)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return d


def tensor_diff_ops(grid_x: ChebGrid1D, grid_y: ChebGrid1D) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Partial-derivative operators on the tensor grid of two 1D grids.

    Fields are flattened x-fastest: node (ix, iy) sits at flat index
    ``iy * grid_x.size + ix``. Returns (Dx, Dy) as sparse CSR matrices of
    size ``grid_x.size * grid_y.size``.
    """
    d1x = chebyshev_diff_matrix(grid_x)
    d1y = chebyshev_diff_matrix(grid_y)
    nx, ny = grid_x.size, grid_y.size
    dx = sp.kron(sp.identity(ny, format="csr"), sp.csr_matrix(d1x), format="csr")
    dy = sp.kron(sp.csr_matrix(d1y), sp.identity(nx, format="csr"), format="csr")
    return dx, dy


def clenshaw_curtis_weights(order: int, interval: tuple[float, float] = (-1.0, 1.0)) -> np.ndarray:
    """Clenshaw-Curtis weights for the Lobatto nodes of `chebyshev_nodes`.

    The rule integrates polynomials of degree up to ``order`` exactly. All
    weights are strictly positive. Weights are returned in the same
    descending-node order as the grid.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    a, b = _check_interval(interval)
    n = order
    theta = np.pi * np.arange(n + 1) / n
    w = np.zeros(n + 1)
    v = np.ones(n - 1) if n > 1 else np.zeros(0)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4.0 * k * k - 1)
        v -= np.cos(n * theta[1:-1]) / (n * n - 1)
    else:
        w[0] = w[n] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[1:-1]) / (4.0 * k * k - 1)
    if n > 1:
        w[1:-1] = 2.0 * v / n
    else:
        w[:] = 1.0
    return w * (b - a) / 2.0


def quadrature_2d(grid_x: ChebGrid1D, grid_y: ChebGrid1D) -> QuadratureRule:
    """Tensor Clenshaw-Curtis rule on the rectangle spanned by two grids.

    Point k of the rule is node (ix, iy) with ``k = iy * grid_x.size + ix``,
    matching the flattening of `tensor_diff_ops`.
    """
    wx = clenshaw_curtis_weights(grid_x.order, grid_x.interval)
    wy = clenshaw_curtis_weights(grid_y.order, grid_y.interval)
    xx, yy = np.meshgrid(grid_x.nodes, grid_y.nodes)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    weights = np.outer(wy, wx).ravel()
    return QuadratureRule(points=points, weights=weights)
