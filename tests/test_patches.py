"""Patched-domain geometry: tiling, node matching, constraint placement."""

import re

import numpy as np
import pytest

from pdirichlet.errors import ConstraintError, ValidationError
from pdirichlet.patches import build_patches


def lattice_16():
    ticks = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    xx, yy = np.meshgrid(ticks, ticks)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    labels = 4.0 * (pos[:, 0] - 0.5) ** 2 + (pos[:, 1] - 0.5) ** 2
    return pos, labels


def test_lattice_constraints_make_nine_patches():
    pos, labels = lattice_16()
    dom = build_patches(pos, labels, points_per_patch=6)
    assert dom.d1x.shape == dom.d1y.shape == (9, 6, 6)
    np.testing.assert_allclose(np.diff(dom.xlines), 1.0 / 3.0, atol=1e-9)
    np.testing.assert_allclose(np.diff(dom.ylines), 1.0 / 3.0, atol=1e-9)
    assert dom.n_nodes == 9 * 36


def pinned_coords(dom):
    return {tuple(c) for c in dom.node_points[dom.pin_nodes]}


def test_four_corner_constraints_make_single_patch():
    pos = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    dom = build_patches(pos, np.arange(4.0), points_per_patch=5)
    assert dom.d1x.shape[0] == 1
    assert pinned_coords(dom) == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}


def test_group_census_on_three_by_three_tiling():
    pos, labels = lattice_16()
    n = 6
    dom = build_patches(pos, labels, points_per_patch=n)
    # every node copy maps to exactly one geometric node
    assert dom.node_of.shape == (dom.n_nodes,)
    copies = np.bincount(dom.node_of)
    assert copies.size == (3 * (n - 1) + 1) ** 2
    # 4 shared patch corners inside the square, 4 interface lines with
    # 3 * (n - 1) + 1 nodes each, of which 2 are cross points; every other
    # node belongs to one patch
    assert np.sum(copies == 4) == 4
    assert np.sum(copies == 2) == 4 * (3 * (n - 1) + 1 - 2)
    assert np.sum(copies == 1) == copies.size - 4 - 4 * (3 * (n - 1) - 1)
    assert copies.sum() == 9 * n * n
    assert dom.pin_nodes.size == 16
    assert dom.free_nodes.size == copies.size - 16


def test_cross_constraints_pin_the_shared_corner():
    pos, labels = lattice_16()
    dom = build_patches(pos, labels, points_per_patch=8)
    copies = np.bincount(dom.node_of)
    # the 4 interior lattice points are the cross points: pinned exactly at
    # their coordinates with their labels, one unknown for all 4 copies
    for (x, y), label in zip(pos, labels):
        k = dom.pin_nodes[np.all(dom.node_points[dom.pin_nodes] == (x, y), axis=1)]
        assert k.size == 1
        assert dom.pin_values[np.searchsorted(dom.pin_nodes, k[0])] == label
        if 0.0 < x < 1.0 and 0.0 < y < 1.0:
            assert copies[k[0]] == 4
    assert dom.pin_nodes.size == 16


def test_labels_checked_against_label_fn():
    def labeler(x, y):
        return 4.0 * (x - 0.5) ** 2 + (y - 0.5) ** 2

    pos, labels = lattice_16()
    dom = build_patches(pos, labels, points_per_patch=8, label_fn=labeler)
    np.testing.assert_array_equal(dom.pin_values, labeler(*dom.node_points[dom.pin_nodes].T))
    with pytest.raises(ConstraintError):
        build_patches(pos, labels + 0.1, points_per_patch=8, label_fn=labeler)


def test_paired_copies_coincide_in_coordinates():
    pos, labels = lattice_16()
    dom = build_patches(pos, labels, points_per_patch=5)
    np.testing.assert_array_equal(dom.points, dom.node_points[dom.node_of])
    assert np.unique(dom.node_points, axis=0).shape == dom.node_points.shape


def test_boundary_value_fn_pins_entire_boundary():
    dom = build_patches(
        None, None, points_per_patch=6, tiles=(2, 2), boundary_value_fn=lambda x, y: x
    )
    x, y = dom.node_points.T
    on_edge = (np.minimum(x, y) < 1e-12) | (np.maximum(x, y) > 1 - 1e-12)
    np.testing.assert_array_equal(dom.pin_nodes, np.flatnonzero(on_edge))
    np.testing.assert_allclose(dom.pin_values, x[on_edge], atol=1e-12)


def test_explicit_tiles_with_interior_constraint():
    dom = build_patches(
        np.array([[0.5, 0.5]]), np.array([2.0]), points_per_patch=6, tiles=(2, 2)
    )
    # (0.5, 0.5) is the shared corner of all 4 patches: one pinned node
    assert pinned_coords(dom) == {(0.5, 0.5)}
    np.testing.assert_array_equal(dom.pin_values, [2.0])
    assert np.sum(dom.node_of == dom.pin_nodes[0]) == 4


def test_constraint_validation():
    with pytest.raises(ConstraintError):
        build_patches(np.array([[0.2, 0.2]]), np.array([1.0]), 5, tiles=(1, 1))
    with pytest.raises(ConstraintError):
        build_patches(np.array([[0.0, 0.0]]), np.array([1.0, 2.0]), 5)
    with pytest.raises(ConstraintError):
        build_patches(None, None, 5)
    with pytest.raises(ConstraintError):
        build_patches(np.array([[1.2, 0.0]]), np.array([1.0]), 5, tiles=(1, 1))
    with pytest.raises(ValidationError):
        build_patches(np.array([[0.0, 0.0]]), np.array([1.0]), 3, tiles=(1, 1))
    with pytest.raises(ConstraintError):
        # positions without 0 and 1 cannot define a tiling on their own
        build_patches(np.array([[0.25, 0.25]]), np.array([1.0]), 5)


@pytest.mark.parametrize("tiles", [(0, 1), (1, 0), (-1, 2)])
def test_tiles_below_one_rejected(tiles):
    with pytest.raises(ValidationError, match=re.escape(str(tiles))):
        build_patches(None, None, 5, tiles=tiles, boundary_value_fn=lambda x, y: x)


def test_conflicting_labels_rejected():
    pos = np.array([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConstraintError):
        build_patches(pos, np.array([1.0, 2.0]), 5, tiles=(1, 1))
