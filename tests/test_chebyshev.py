import numpy as np
import pytest

from pdirichlet.chebyshev import (
    chebyshev_diff_matrix,
    chebyshev_nodes,
    clenshaw_curtis_weights,
)
from pdirichlet.errors import ValidationError
from tensor_grid import quadrature_2d, tensor_diff_ops


def test_nodes_order_two_reference_interval():
    g = chebyshev_nodes(2)
    np.testing.assert_array_equal(g.nodes, [1.0, 0.0, -1.0])


def test_nodes_order_two_unit_interval():
    g = chebyshev_nodes(2, (0.0, 1.0))
    np.testing.assert_array_equal(g.nodes, [1.0, 0.5, 0.0])


def test_node_value_order_eight():
    # cos(pi/8), second node from the right endpoint
    g = chebyshev_nodes(8)
    assert g.nodes[1] == pytest.approx(0.9238795325112867, abs=1e-15)


def test_nodes_are_symmetric_and_descending():
    for order in (2, 5, 8, 17):
        g = chebyshev_nodes(order)
        np.testing.assert_array_equal(g.nodes, -g.nodes[::-1])
        assert np.all(np.diff(g.nodes) < 0)
        assert g.nodes[0] == 1.0 and g.nodes[-1] == -1.0


def test_endpoints_exact_on_mapped_interval():
    g = chebyshev_nodes(7, (0.25, 0.75))
    assert g.nodes[0] == 0.75 and g.nodes[-1] == 0.25


def test_diff_constant_is_zero():
    g = chebyshev_nodes(9, (0.0, 1.0))
    d = chebyshev_diff_matrix(g)
    np.testing.assert_allclose(d @ np.ones(g.size), 0.0, atol=1e-13)


def test_diff_linear_is_one():
    g = chebyshev_nodes(6, (0.0, 1.0))
    d = chebyshev_diff_matrix(g)
    np.testing.assert_allclose(d @ g.nodes, 1.0, atol=1e-12)


def test_diff_square_matches_derivative():
    g = chebyshev_nodes(8)
    d = chebyshev_diff_matrix(g)
    np.testing.assert_allclose(d @ g.nodes**2, 2.0 * g.nodes, atol=1e-12)


def test_diff_rows_sum_to_zero():
    g = chebyshev_nodes(12, (-0.5, 2.0))
    d = chebyshev_diff_matrix(g)
    np.testing.assert_allclose(d.sum(axis=1), 0.0, atol=1e-11)


def test_diff_exact_on_monomials_up_to_order():
    order = 10
    g = chebyshev_nodes(order, (0.0, 1.0))
    d = chebyshev_diff_matrix(g)
    for a in range(order + 1):
        expected = a * g.nodes ** (a - 1) if a > 0 else np.zeros(g.size)
        np.testing.assert_allclose(d @ g.nodes**a, expected, atol=1e-8)


def test_tensor_ops_on_separable_field():
    gx = chebyshev_nodes(8, (0.0, 1.0))
    gy = chebyshev_nodes(6, (0.0, 1.0))
    dx, dy = tensor_diff_ops(gx, gy)
    xx, yy = np.meshgrid(gx.nodes, gy.nodes)
    f = (xx**2 * yy).ravel()
    np.testing.assert_allclose(dx @ f, (2.0 * xx * yy).ravel(), atol=1e-10)
    np.testing.assert_allclose(dy @ f, (xx**2).ravel(), atol=1e-10)


def test_tensor_ops_commute():
    gx = chebyshev_nodes(7, (0.0, 1.0))
    gy = chebyshev_nodes(7, (0.0, 1.0))
    dx, dy = tensor_diff_ops(gx, gy)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(dx.shape[1])
    np.testing.assert_allclose(
        dx @ (dy @ f), dy @ (dx @ f), atol=1e-8 * max(1.0, np.abs(f).max())
    )


def test_clenshaw_curtis_weights_positive_and_sum():
    for order in (2, 3, 8, 15, 32):
        w = clenshaw_curtis_weights(order, (0.0, 1.0))
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)


def test_quadrature_xy_on_unit_square():
    gx = chebyshev_nodes(8, (0.0, 1.0))
    gy = chebyshev_nodes(8, (0.0, 1.0))
    rule = quadrature_2d(gx, gy)
    vals = rule.points[:, 0] * rule.points[:, 1]
    assert rule.integrate(vals) == pytest.approx(0.25, abs=1e-12)


def test_quadrature_x_squared_on_mixed_rectangle():
    gx = chebyshev_nodes(10, (-1.0, 1.0))
    gy = chebyshev_nodes(4, (0.0, 1.0))
    rule = quadrature_2d(gx, gy)
    vals = rule.points[:, 0] ** 2
    assert rule.integrate(vals) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_quadrature_exact_to_grid_degree():
    order = 9
    g = chebyshev_nodes(order, (0.0, 1.0))
    w = clenshaw_curtis_weights(order, (0.0, 1.0))
    for a in range(order + 1):
        exact = 1.0 / (a + 1)
        got = float(w @ g.nodes**a)
        assert abs(got - exact) / exact < 1e-10


def test_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        chebyshev_nodes(0)
    with pytest.raises(ValidationError):
        chebyshev_nodes(4, (1.0, 1.0))
