"""Tensor-product operators on a rectangle of two Chebyshev grids, for tests.

Fields are flattened in C order with x fastest: a field sampled as
``F[iy, ix]`` is passed as ``F.ravel()``. The package assembles its patch
operators in stacked form (`pdirichlet.patches`); these per-rectangle
sparse operators and quadrature rules are the independent references the
tests check them against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from pdirichlet.chebyshev import ChebGrid1D, chebyshev_diff_matrix, clenshaw_curtis_weights
from pdirichlet.errors import ValidationError


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
