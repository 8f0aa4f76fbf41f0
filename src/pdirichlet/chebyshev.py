"""Chebyshev collocation primitives on intervals.

Nodes are Chebyshev-Gauss-Lobatto points, stored in the conventional
descending order (right endpoint first). Differentiation matrices are built
from the barycentric form with the negative-sum trick on the diagonal, which
keeps them exact on polynomials up to the grid order and makes every row sum
to zero. Clenshaw-Curtis weights integrate on the same nodes. The patch
layer (`pdirichlet.patches`) builds its tensor-product operators and
quadrature from these 1D pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ChebGrid1D",
    "chebyshev_nodes",
    "chebyshev_diff_matrix",
    "clenshaw_curtis_weights",
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
