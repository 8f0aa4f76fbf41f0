import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import integrate
from scipy.interpolate import BSpline
from scipy.sparse.linalg import spsolve
from scipy.spatial.distance import cdist

import pdirichlet.density as density_module
from pdirichlet.density import (
    KdeDensityField,
    ReferenceDensity,
    SplineConfig,
    SplineDensityField,
    SplineFit,
    kde_evaluate,
    reference_density,
    sample_density,
    sigma_eta,
    skde_fit,
    spline_knots,
)
from pdirichlet.errors import ValidationError
from pdirichlet.experiments import _lattice_domain


# ---------------------------------------------------------------- references


@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3"])
def test_reference_density_integrates_to_one(name):
    rho = reference_density(name)
    val, err = integrate.dblquad(
        lambda y, x: rho.value_at([[x, y]])[0], 0, 1, 0, 1, epsabs=1e-10, epsrel=1e-10
    )
    assert val == pytest.approx(1.0, abs=1e-8)


def test_rho2_point_values():
    rho = reference_density("rho2")
    np.testing.assert_allclose(
        rho.value_at([[0.0, 0.0], [1.0, 1.0]]),
        [0.2 / 0.45, 1.2 / 0.45],
        rtol=1e-14,
    )


def test_rho3_strictly_positive():
    rho = reference_density("rho3")
    s = np.linspace(0, 1, 301)
    xx, yy = np.meshgrid(s, s)
    vals = rho.value_at(np.column_stack([xx.ravel(), yy.ravel()]))
    # analytic lower bound (1/2 - 1/3) / normalization
    assert vals.min() > 0.33
    assert vals.min() > (0.5 - 1.0 / 3.0) / 0.5031765765112621 - 1e-12


@pytest.mark.parametrize("name", ["rho2", "rho3"])
def test_reference_gradient_matches_finite_differences(name):
    rho = reference_density(name)
    rng = np.random.default_rng(3)
    pts = 0.1 + 0.8 * rng.random((40, 2))
    grad = rho.gradient_at(pts)
    eps = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        fd = (rho.value_at(pts + shift) - rho.value_at(pts - shift)) / (2 * eps)
        np.testing.assert_allclose(grad[:, axis], fd, atol=5e-6, rtol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_points_rejected(bad):
    rho = reference_density("rho2")
    for pts in ([[bad, 0.5]], [[0.5, bad]], [[0.2, 0.2], [bad, bad]]):
        with pytest.raises(ValidationError):
            rho.value_at(pts)
        with pytest.raises(ValidationError):
            rho.gradient_at(pts)


def test_unknown_density_rejected():
    with pytest.raises(ValidationError):
        reference_density("rho9")


# ------------------------------------------------------------------ sampling


def test_sampling_is_deterministic_and_inside_domain():
    rho = reference_density("rho2")
    a = sample_density(rho, 500, seed=11)
    b = sample_density(rho, 500, seed=11)
    c = sample_density(rho, 500, seed=12)
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.points.min() >= 0.0 and a.points.max() <= 1.0


def _trapezoid_cdfs(rho, grid):
    """The sampler's CDFs by the plain expressions over the whole lattice:
    the lattice sites, the density on it (rows y), the normalized marginal
    CDF in x and the unnormalized conditional CDFs in y, one per column."""
    s = np.linspace(0.0, 1.0, grid)
    xx, yy = np.meshgrid(s, s)
    v = rho.value_at(np.column_stack([xx.ravel(), yy.ravel()])).reshape(grid, grid)
    dx = s[1] - s[0]
    marg_x = np.trapezoid(v, dx=dx, axis=0)
    ref_x = np.concatenate([[0.0], np.cumsum((marg_x[:-1] + marg_x[1:]) / 2.0 * dx)])
    ref_y = np.zeros_like(v)
    ref_y[1:, :] = np.cumsum((v[:-1, :] + v[1:, :]) / 2.0 * dx, axis=0)
    return s, v, ref_x / ref_x[-1], ref_y


@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3"])
def test_sampler_tables_equal_the_trapezoid_formulas(name):
    # the tables are built by column blocks and keep every stride-th row of
    # the conditional CDFs; the plain expressions are the reference, and
    # every row between two stored ones, rebuilt from the lower one as
    # `sample_density` rebuilds it, is the reference row bit for bit
    stride = density_module._SAMPLER_STRIDE
    base = reference_density(name)
    for grid in (200, 1024):
        rho = ReferenceDensity(name, base._value_fn, base._grad_fn)
        s, cdf_x, coarse = rho._sampler(grid)
        ref_s, v, ref_x, ref_y = _trapezoid_cdfs(rho, grid)
        np.testing.assert_array_equal(s, ref_s)
        np.testing.assert_array_equal(cdf_x, ref_x)
        rows = np.append(np.arange(0, grid - 1, stride), grid - 1)
        assert coarse.shape == (grid, rows.size)
        np.testing.assert_array_equal(coarse, ref_y[rows].T)
        dx = s[1] - s[0]
        cdf_y = ref_y / ref_y[-1, :]
        for b in range(rows.size - 1):
            rebuilt = [coarse[:, b]]
            for j in range(rows[b], rows[b + 1]):
                rebuilt.append(rebuilt[-1] + (v[j] + v[j + 1]) / 2.0 * dx)
            np.testing.assert_array_equal(np.array(rebuilt) / coarse[:, -1],
                                          cdf_y[rows[b] : rows[b + 1] + 1])


def _full_table_cloud(tables, n, seed):
    """The sampler with every conditional CDF row stored, inverted by
    bisection of the whole column: the reference the two-level tables
    must reproduce bit for bit."""
    s, cdf_x, cdf_y = tables
    grid = s.size
    u = np.random.default_rng(seed).random((n, 2))
    x = np.interp(u[:, 0], cdf_x, s)
    col = np.clip(np.rint(x * (grid - 1)).astype(int), 0, grid - 1)
    u2 = u[:, 1]
    lo = np.zeros(n, dtype=int)
    hi = np.full(n, grid - 1, dtype=int)
    while int((hi - lo).max()) > 1:
        mid = (lo + hi) // 2
        below = cdf_y[mid, col] <= u2
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    f_lo = cdf_y[lo, col]
    f_hi = cdf_y[lo + 1, col]
    frac = (u2 - f_lo) / np.maximum(f_hi - f_lo, 1e-300)
    y = s[lo] + frac * (s[1] - s[0])
    return np.column_stack([x, np.clip(y, 0.0, 1.0)])


@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3"])
def test_sampling_matches_a_full_table_bisection(name, monkeypatch):
    # at grid 200 the stored rows' count, 26, is not a power of two plus one
    base = reference_density(name)
    for grid in (200, 1024):
        monkeypatch.setattr(density_module, "_SAMPLER_GRID", grid)
        rho = ReferenceDensity(name, base._value_fn, base._grad_fn)
        s, _, cdf_x, ref_y = _trapezoid_cdfs(rho, grid)
        tables = (s, cdf_x, ref_y / ref_y[-1, :])
        for n in (1, 2, 4095, 4096, 4097, 65536):
            for seed in (0, 1, 7):
                np.testing.assert_array_equal(sample_density(rho, n, seed).points,
                                              _full_table_cloud(tables, n, seed))


def test_sampler_tables_and_draws_stay_within_their_bytes():
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for name in ("rho1", "rho2", "rho3"):
        base = reference_density(name)
        rho = ReferenceDensity(name, base._value_fn, base._grad_fn)
        # the first draw builds the tables; 4096 points fill two draw chunks
        peak = traced_peak(lambda: sample_density(rho, 4096, 0))
        assert peak < 2.5e6, (name, peak)
        tables = rho._sampler_cache[density_module._SAMPLER_GRID]
        assert sum(a.nbytes for a in tables) <= 1.1e6
    rho = reference_density("rho2")
    sample_density(rho, 1, 0)
    peak = traced_peak(lambda: sample_density(rho, 200_000, 0))
    assert peak <= 80 * 200_000, peak / 200_000


def test_sampling_matches_rho2_mean():
    # E[x] under rho2 is (1/6 + 1/10) / 0.45
    rho = reference_density("rho2")
    cloud = sample_density(rho, 200_000, seed=0)
    expected = (1.0 / 6.0 + 0.1) / 0.45
    assert cloud.points[:, 0].mean() == pytest.approx(expected, abs=3e-3)
    assert cloud.points[:, 1].mean() == pytest.approx(expected, abs=3e-3)


def test_sampling_uniform_cell_counts():
    rho = reference_density("rho1")
    cloud = sample_density(rho, 160_000, seed=4)
    counts, _, _ = np.histogram2d(
        cloud.points[:, 0], cloud.points[:, 1], bins=4, range=[[0, 1], [0, 1]]
    )
    # each cell expects 10000 +- 5 sigma (sigma ~ 97)
    assert np.abs(counts - 10_000).max() < 500


# ------------------------------------------------------------------- kernels


def test_kernel_unit_mass():
    # the gaussian is untruncated: its mass beyond radius 40 is exp(-800)
    kernel = density_module._gaussian
    mass, _ = integrate.quad(lambda r: 2 * np.pi * r * kernel(np.array([r * r]))[0], 0, 40.0,
                             epsabs=1e-13, epsrel=1e-13, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_gaussian_clipped_exponent_keeps_every_value():
    # squared radii from 0 to past the clip at 1200 (exponent -600), where
    # exp(-sq / 2) would leave the normal range
    clip = -4.0 * density_module._MIN_EXPONENT
    sq = np.concatenate([[0.0, 1.0, 25.0, np.nextafter(clip, 0.0), clip, np.nextafter(clip, 1e4)],
                         np.linspace(clip - 30.0, clip + 30.0, 601), [1e4, 1e6, np.inf]])
    reference = np.exp(-np.minimum(sq, clip) / 2.0) / (2.0 * np.pi)
    np.testing.assert_array_equal(density_module._gaussian(sq), reference)
    np.testing.assert_array_equal(density_module._gaussian(sq.reshape(-1, 10)),
                                  reference.reshape(-1, 10))
    np.testing.assert_array_equal(reference[sq < clip], np.exp(-sq[sq < clip] / 2.0) / (2.0 * np.pi))
    # the 1D factors at the CLI's default bandwidth, across the square: no
    # factor, and no product of two factors with the least bin mass of a
    # 1536 mesh at n = 2^20, is subnormal
    tiny = np.finfo(float).tiny
    sites = np.linspace(0.0, 1.0, 1536)
    g, dg = density_module._gauss_factors(sites, sites, 0.01, derivative=True)
    least = g.min() ** 2 * 2.0**-20 * np.finfo(float).eps
    assert least >= tiny and np.abs(dg[dg != 0.0]).min() >= tiny
    t = np.subtract.outer(sites, sites)
    exact = np.exp(-(t / 0.01) ** 2 / 2.0) / (np.sqrt(2.0 * np.pi) * 0.01)
    kept = -(t / 0.01) ** 2 / 2.0 >= density_module._MIN_EXPONENT
    np.testing.assert_allclose(g[kept], exact[kept], rtol=1e-13)


def test_kde_peak_value_single_sample():
    h = 0.1
    vals = kde_evaluate(np.array([[0.5, 0.5]]), h, [[0.5, 0.5]])
    assert vals[0] == pytest.approx(1.0 / (2 * np.pi * h * h), rel=1e-12)


def test_kde_dense_blocks_match_brute_pair_sum(monkeypatch):
    rng = np.random.default_rng(8)
    data = rng.random((4000, 2))
    h = 0.05
    # the first point sits on a sample (zero distance) and the last lies
    # more than 14 bandwidths from every sample, far past a 5 h cut
    pts = np.vstack([data[:1], rng.random((51, 2)), [[1.5, 1.5]]])
    # blocks of one point, of two points for three samples, and the default
    # blocks (16 points for 4000 samples), the last two with a remainder
    for block in (1, 7, density_module._DENSE_BLOCK):
        monkeypatch.setattr(density_module, "_DENSE_BLOCK", block)
        for cloud in (data, data[:3]):
            np.testing.assert_allclose(kde_evaluate(cloud, h, pts), _brute_kde(cloud, h, pts),
                                       rtol=1e-12)


def _brute_kde(data, h, pts):
    """The untruncated pair sum, written out: every (point, sample) pair
    contributes exp(-d^2 / 2h^2) / (2 pi n h^2)."""
    d2 = ((pts[:, None, :] - data[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * h * h)).sum(axis=1) / (2.0 * np.pi * data.shape[0] * h * h)


def _row_major(xs, ys):
    xx, yy = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float))
    return np.column_stack([xx.ravel(), yy.ravel()])


def _dense_path_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a lattice took the dense path")

    monkeypatch.setattr(density_module, "_sq_distances", fail)


def test_dense_blocks_match_cdist():
    rng = np.random.default_rng(41)
    a, b = rng.random((300, 2)), rng.random((700, 2))
    for pts, data in ((a, b), (a - 0.5, 3.0 * b + 7.0), (a[:1], b), (b[:0], a)):
        got = density_module._sq_distances(pts, data)
        want = cdist(pts, data, "sqeuclidean")
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) == 0.0


_LATTICES = {
    "1xk": ([0.5], np.linspace(0.0, 1.0, 23)),
    "kx1": (np.linspace(0.0, 1.0, 23), [0.3]),
    "non-uniform": (np.sort(np.random.default_rng(5).random(13)), [0.9, 0.05, 0.4, 0.41, 0.7]),
    "duplicated": ([0.1, 0.45, 0.45, 0.8, 1.0], [0.0, 0.6, 0.25, 0.6, 0.6, 1.0]),
    "spline knots": (np.linspace(0.0, 1.0, 16), np.linspace(0.0, 1.0, 16)),
}


@pytest.mark.parametrize("name", sorted(_LATTICES))
def test_kde_lattice_path_matches_brute_pair_sum(name, monkeypatch):
    rng = np.random.default_rng(31)
    data = rng.random((700, 2))
    pts = _row_major(*_LATTICES[name])
    _dense_path_fails(monkeypatch)
    for h in (0.02, 0.07, 0.3):
        np.testing.assert_allclose(kde_evaluate(data, h, pts), _brute_kde(data, h, pts), rtol=1e-12)


@pytest.mark.parametrize(
    "budget, block",
    [
        (8_000_000, 1 << 16),  # one chunk
        (11 * 37, 11 * 12),  # chunks of 20 samples
        (1, 1),  # one sample per chunk
    ],
)
def test_kde_lattice_chunks_and_row_blocks_match_brute_pair_sum(budget, block, monkeypatch):
    rng = np.random.default_rng(32)
    data = np.vstack([rng.random((500, 2)), [[0.5, 0.5]] * 5])  # five coincident samples
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.sort(rng.random(9))
    pts = _row_major(xs, ys)
    h = 0.05
    brute = _brute_kde(data, h, pts)
    monkeypatch.setattr(density_module, "_FACTOR_BUDGET", budget)
    # the dense blocks' size does not reach the lattice path
    monkeypatch.setattr(density_module, "_DENSE_BLOCK", block)
    _dense_path_fails(monkeypatch)
    # within the factor budget (20 x 505 factors) for the first case, above it otherwise
    np.testing.assert_allclose(kde_evaluate(data, h, pts), brute, rtol=1e-12)


@pytest.mark.parametrize("sample", [[0.5625, 0.25], [0.25, 0.5625]])
def test_kde_lattice_keeps_a_sample_exactly_5h_away(sample):
    # h and the offsets are binary fractions, so the distance to the first
    # lattice point is exactly 5 h along one axis, where a kernel cut at 5 h
    # would end; the untruncated kernel counts every pair in full
    h = 0.0625
    pts = _row_major([0.25, 0.375], [0.25, 0.375])
    vals = kde_evaluate(np.array([sample]), h, pts)
    on_edge = np.exp(-12.5) / (2.0 * np.pi * h * h)
    assert vals[0] == pytest.approx(on_edge, rel=1e-12)
    assert vals.min() > 0.0
    np.testing.assert_allclose(vals, _brute_kde(np.array([sample]), h, pts), rtol=1e-12)
    # the dense path agrees: in this order the points are no lattice
    order = [0, 3, 1, 2]
    assert density_module._lattice_axes(pts[order]) is None
    assert density_module._lattice_axes(pts[order][:, ::-1]) is None
    dense = kde_evaluate(np.array([sample]), h, pts[order])
    np.testing.assert_allclose(vals[order], dense, rtol=1e-12)


def test_kde_y_fastest_lattice_takes_the_lattice_path(monkeypatch):
    # the layout of a continuum domain's geometric nodes: x slowest, y fastest
    rng = np.random.default_rng(33)
    data = rng.random((300, 2))
    h = 0.08
    xs, ys = np.linspace(0.0, 1.0, 12), np.sort(rng.random(7))
    row_major = _row_major(xs, ys)
    yy, xx = np.meshgrid(ys, xs)
    y_fastest = np.column_stack([xx.ravel(), yy.ravel()])
    assert density_module._lattice_axes(y_fastest) is None
    assert density_module._lattice_axes(y_fastest[:, ::-1]) is not None
    _dense_path_fails(monkeypatch)
    vals = kde_evaluate(data, h, y_fastest)
    transposed = kde_evaluate(data, h, row_major).reshape(ys.size, xs.size).T.ravel()
    np.testing.assert_allclose(vals, transposed, rtol=1e-12)
    np.testing.assert_allclose(vals, _brute_kde(data, h, y_fastest), rtol=1e-12)


def test_kde_lattice_detection_rejects_scattered_points():
    pts = _row_major(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4))
    assert density_module._lattice_axes(pts) is not None
    for k, shift in ((7, [1e-12, 0.0]), (13, [0.0, 1e-12]), (0, [0.0, 1e-12])):
        moved = pts.copy()
        moved[k] += shift
        assert density_module._lattice_axes(moved) is None
    assert density_module._lattice_axes(pts[:-1]) is None
    assert density_module._lattice_axes(pts[::-1]) is not None  # decreasing axes


def test_kde_mesh_path_matches_exact_evaluation():
    rng = np.random.default_rng(21)
    cloud = sample_density(reference_density("rho2"), 4000, seed=21)
    field = KdeDensityField(cloud, h=0.1)
    mesh = field.on_mesh(257)
    sites = np.linspace(0, 1, 257)
    idx = rng.integers(10, 247, size=(40, 2))
    pts = np.column_stack([sites[idx[:, 0]], sites[idx[:, 1]]])
    exact = kde_evaluate(cloud, 0.1, pts)
    approx = mesh[idx[:, 1], idx[:, 0]]
    np.testing.assert_allclose(approx, exact, rtol=2e-4, atol=2e-4)


@pytest.mark.parametrize("mesh, n", [(2, 3), (33, 8), (257, 63), (300, 301)])
def test_kde_mesh_products_match_a_brute_binned_pair_sum(mesh, n):
    # every bin of the linearly binned mass is a point mass at its mesh
    # site, and every (site, bin) pair adds mass times the 2D Gaussian
    rng = np.random.default_rng(mesh)
    data = rng.random((n, 2))
    data[0] = [1.0, 0.0]  # on the last column and the first row
    field = KdeDensityField(data, h=0.08)
    mass = field._binned_mass(mesh)
    np.testing.assert_allclose(mass.sum(), 1.0, rtol=1e-14)
    sites = np.linspace(0.0, 1.0, mesh)
    value = np.zeros((mesh, mesh))
    grad = np.zeros((mesh, mesh, 2))
    for j, k in zip(*np.nonzero(mass)):
        ty, tx = (sites - sites[j])[:, None], (sites - sites[k])[None, :]
        term = mass[j, k] * np.exp(-(tx * tx + ty * ty) / (2.0 * 0.08**2)) / (2.0 * np.pi * 0.08**2)
        value += term
        grad[..., 0] -= tx / 0.08**2 * term
        grad[..., 1] -= ty / 0.08**2 * term
    got = field.on_mesh(mesh)
    assert got.shape == (mesh, mesh)
    np.testing.assert_allclose(got, value, rtol=0, atol=1e-13 * value.max())
    got = field.gradient_on_mesh(mesh)
    assert got.shape == (mesh, mesh, 2)
    np.testing.assert_allclose(got, grad, rtol=0, atol=1e-13 * np.abs(grad).max())


def test_kde_mass_on_fine_mesh():
    cloud = sample_density(reference_density("rho1"), 3000, seed=5)
    field = KdeDensityField(cloud, h=0.05)
    mesh = field.on_mesh(513)
    sites = np.linspace(0, 1, 513)
    mass = np.trapezoid(np.trapezoid(mesh, sites, axis=1), sites)
    # sub-unit because kernel mass leaks outside the square near the boundary
    assert 0.9 < mass <= 1.0 + 1e-6


def test_kde_gradient_matches_finite_differences():
    cloud = sample_density(reference_density("rho2"), 500, seed=9)
    field = KdeDensityField(cloud, h=0.15)
    pts = np.array([[0.4, 0.6], [0.7, 0.3], [0.5, 0.5]])
    grad = field.gradient_at(pts, clip=False)
    eps = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        fd = (
            field.value_at(pts + shift, clip=False) - field.value_at(pts - shift, clip=False)
        ) / (2 * eps)
        np.testing.assert_allclose(grad[:, axis], fd, rtol=1e-5, atol=1e-7)


def test_kde_gradient_blocks_match_brute_loop_in_bounded_memory():
    rng = np.random.default_rng(17)
    data = rng.random((8000, 2))
    pts = rng.random((1000, 2))
    h = 0.05
    field = KdeDensityField(data, h)
    tracemalloc.start()
    grad = field.gradient_at(pts, clip=False)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # 8M pairs in blocks of 64k: a few MB, not the 366 MB of one 8M-pair block
    assert peak < 32 * 2**20
    brute = np.empty_like(grad)
    for k, x in enumerate(pts):
        diff = x - data
        sq = (diff**2).sum(axis=1) / (h * h)
        phi = np.exp(-sq / 2.0) / (2.0 * np.pi)
        brute[k] = -(diff * phi[:, None]).sum(axis=0) / (data.shape[0] * h**4)
    np.testing.assert_allclose(grad, brute, rtol=1e-14, atol=1e-14 * np.abs(brute).max())


def test_kde_floor_active_far_from_samples():
    data = np.full((50, 2), 0.5) + 0.01 * np.random.default_rng(2).standard_normal((50, 2))
    field = KdeDensityField(data, h=0.02)
    far = np.array([[0.05, 0.95]])
    assert field.value_at(far)[0] == pytest.approx(field.floor)
    np.testing.assert_array_equal(field.gradient_at(far), [[0.0, 0.0]])
    assert field.value_at(far, clip=False)[0] < field.floor


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kde_rejects_non_finite_bandwidths_and_samples(bad):
    # a NaN sample would poison every value of the untruncated sums
    data = np.random.default_rng(3).random((20, 2))
    corrupt = data.copy()
    corrupt[7, 1] = bad
    for h, cloud in ((bad, data), (0.1, corrupt)):
        with pytest.raises(ValidationError):
            kde_evaluate(cloud, h, [[0.5, 0.5]])
        with pytest.raises(ValidationError):
            KdeDensityField(cloud, h)


# --------------------------------------------------------------------- spline


def test_spline_config_validation():
    with pytest.raises(ValidationError):
        SplineConfig(num_knots=50, lam=1e-6)
    with pytest.raises(ValidationError):
        SplineConfig(num_knots=64, lam=-1.0)


def test_skde_reproduces_affine_data_exactly():
    cfg = SplineConfig(num_knots=16 * 16, lam=1e-6)
    knots = spline_knots(cfg)
    vals = 0.3 + 1.7 * knots[:, 0] - 0.6 * knots[:, 1]
    field = skde_fit(vals, cfg)
    rng = np.random.default_rng(13)
    pts = rng.random((200, 2))
    expected = 0.3 + 1.7 * pts[:, 0] - 0.6 * pts[:, 1]
    np.testing.assert_allclose(field.value_at(pts, clip=False), expected, atol=1e-9)
    grad = field.gradient_at(pts, clip=False)
    np.testing.assert_allclose(grad[:, 0], 1.7, atol=1e-8)
    np.testing.assert_allclose(grad[:, 1], -0.6, atol=1e-8)


def test_skde_smooth_target_small_error():
    cfg = SplineConfig(num_knots=32 * 32, lam=1e-6)
    knots = spline_knots(cfg)
    rho = reference_density("rho2")
    field = skde_fit(rho.value_at(knots), cfg)
    pts = np.random.default_rng(17).random((300, 2))
    err = np.abs(field.value_at(pts, clip=False) - rho.value_at(pts))
    # the penalty flattens the corners slightly; interior error is much smaller
    assert err.max() < 2e-3
    interior = (pts.min(axis=1) > 0.05) & (pts.max(axis=1) < 0.95)
    assert err[interior].max() < 2e-4


def test_skde_gradient_matches_finite_differences():
    cfg = SplineConfig(num_knots=24 * 24, lam=1e-5)
    knots = spline_knots(cfg)
    vals = np.sin(2 * np.pi * knots[:, 0]) * np.cos(np.pi * knots[:, 1]) + 1.5
    field = skde_fit(vals, cfg)
    pts = 0.05 + 0.9 * np.random.default_rng(19).random((60, 2))
    grad = field.gradient_at(pts, clip=False)
    eps = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = eps
        fd = (
            field.value_at(pts + shift, clip=False) - field.value_at(pts - shift, clip=False)
        ) / (2 * eps)
        np.testing.assert_allclose(grad[:, axis], fd, rtol=2e-5, atol=2e-6)


def derivative_matrix(t, degree):
    """Coefficient map of spline differentiation: degree k on t -> degree k-1
    on t[1:-1], d_j = k (c_{j+1} - c_j) / (t_{j+k+1} - t_{j+1})."""
    n = len(t) - degree - 1
    scale = degree / (t[degree + 1 : degree + n] - t[1:n])
    return sp.diags([-scale, scale], [0, 1], shape=(n - 1, n), format="csr")


def reference_tensor_spline(t, coefs, pts):
    """Values and gradients of sum_ij coefs[j, i] B_i(x) B_j(y) from 1D design
    matrices, the gradients through the differentiated coefficients."""
    d1 = derivative_matrix(t, 3).toarray()

    def combine(tx, kx, ty, ky, c):
        bx = BSpline.design_matrix(pts[:, 0], tx, kx)
        by = BSpline.design_matrix(pts[:, 1], ty, ky)
        return np.asarray(by.multiply(bx @ c.T).sum(axis=1)).ravel()

    values = combine(t, 3, t, 3, coefs)
    gx = combine(t[1:-1], 2, t, 3, coefs @ d1.T)
    gy = combine(t, 3, t[1:-1], 2, d1 @ coefs)
    return values, np.column_stack([gx, gy])


def test_spline_field_matches_tensor_design_reference():
    cfg = SplineConfig(num_knots=12 * 12, lam=1e-5)
    rng = np.random.default_rng(41)
    field = skde_fit(1.0 + rng.random(cfg.num_knots), cfg)
    s = np.linspace(0.0, 1.0, 33)  # edges and corners included
    xx, yy = np.meshgrid(s, s)
    pts = np.vstack([np.column_stack([xx.ravel(), yy.ravel()]), rng.random((500, 2))])
    values, grads = reference_tensor_spline(field.t, field.coefs, pts)
    got_values = field.value_at(pts, clip=False)
    got_grads = field.gradient_at(pts, clip=False)
    np.testing.assert_allclose(got_values, values, rtol=0, atol=1e-12 * np.abs(values).max())
    np.testing.assert_allclose(got_grads, grads, rtol=0, atol=1e-12 * np.abs(grads).max())


@pytest.mark.parametrize("deriv", [0, 1, 2])
def test_bspline_gram_matches_derivative_chain(deriv):
    t = density_module._open_knot_vector(np.linspace(0.0, 1.0, 9))
    chain = sp.identity(len(t) - 4, format="csr")
    tt, deg = t, 3
    for _ in range(deriv):
        chain = derivative_matrix(tt, deg) @ chain
        tt, deg = tt[1:-1], deg - 1
    xg, wg = np.polynomial.legendre.leggauss(4)
    breaks = np.unique(t)
    mid, half = (breaks[:-1] + breaks[1:]) / 2.0, np.diff(breaks) / 2.0
    xq = (mid[:, None] + half[:, None] * xg).ravel()
    wq = (half[:, None] * wg).ravel()
    basis = (BSpline.design_matrix(xq, tt, deg) @ chain).toarray()
    expected = basis.T @ (wq[:, None] * basis)
    got = density_module._bspline_gram(t, 3, deriv)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def _kernel_sites(t):
    """Knot sites, breakpoints, Gauss points of every span, random points
    and exactly 0 and 1."""
    breaks = np.unique(t)
    xg, _ = np.polynomial.legendre.leggauss(4)
    mid, half = (breaks[:-1] + breaks[1:]) / 2.0, np.diff(breaks) / 2.0
    gauss = (mid[:, None] + half[:, None] * xg).ravel()
    rand = np.random.default_rng(43).random(400)
    return np.concatenate([t, breaks, gauss, rand, [0.0, 1.0]])


@pytest.mark.parametrize("nu", [0, 1, 2])
@pytest.mark.parametrize(
    "t",
    [
        density_module._open_knot_vector(np.linspace(0.0, 1.0, 9)),
        # uneven interior knots, one of them double
        density_module._open_knot_vector(np.array([0.0, 0.1, 0.35, 0.35, 0.4, 0.8, 1.0])),
    ],
    ids=["uniform", "uneven"],
)
def test_bspline_kernel_matches_scipy_bspline(t, nu):
    x = _kernel_sites(t)
    nb = len(t) - 4
    expected = BSpline(t, np.eye(nb), 3)(x, nu=nu)
    first, b = density_module._bspline_basis(t, x, nu)
    assert b.shape == (4, x.size)
    assert first.min() >= 0 and first.max() <= nb - 4
    got = np.zeros((x.size, nb))
    np.put_along_axis(got, first[:, None] + np.arange(4), b.T, axis=1)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15 * np.abs(expected).max())
    np.testing.assert_array_equal(density_module._bspline_design(t, x, nu), got)


def _per_point(field, pts):
    """Values and gradients at pts, evaluated in a shuffled order that no
    lattice check accepts, back in the order of pts."""
    order = np.random.default_rng(47).permutation(pts.shape[0])
    assert density_module._lattice_axes(pts[order]) is None
    assert density_module._lattice_axes(pts[order][:, ::-1]) is None
    back = np.argsort(order)
    return (field.value_at(pts[order], clip=False)[back],
            field.gradient_at(pts[order], clip=False)[back])


def test_spline_lattice_path_matches_per_point_path():
    cfg = SplineConfig(num_knots=12 * 12, lam=1e-5)
    rng = np.random.default_rng(53)
    field = skde_fit(1.0 + rng.random(cfg.num_knots), cfg)
    mesh = density_module._mesh_points(41)  # x fastest
    nodes = _lattice_domain(6).node_points  # y fastest
    assert density_module._lattice_axes(mesh) is not None
    assert density_module._lattice_axes(nodes) is None
    assert density_module._lattice_axes(nodes[:, ::-1]) is not None
    # both paths add the same products in the same order
    for pts in (mesh, nodes):
        values, grads = _per_point(field, pts)
        np.testing.assert_array_equal(field.value_at(pts, clip=False), values)
        np.testing.assert_array_equal(field.gradient_at(pts, clip=False), grads)


@pytest.mark.parametrize("shape", [(9, 10), (10, 9), (100,)])
def test_spline_field_rejects_misshapen_coefficients(shape):
    cfg = SplineConfig(num_knots=8 * 8, lam=1e-5)
    t = density_module._open_knot_vector(np.linspace(0.0, 1.0, 8))
    assert len(t) == 14
    with pytest.raises(ValidationError, match=r"\(10, 10\)"):
        SplineDensityField(t, np.ones(shape), cfg)
    SplineDensityField(t, np.ones((10, 10)), cfg)


@pytest.mark.parametrize("g", [16, 32])
def test_spline_fit_matches_tensor_design_normal_equations(g):
    # reference: the T x nb^2 tensor design B1 kron B1, formed explicitly
    cfg = SplineConfig(num_knots=g * g, lam=1e-5)
    sites = np.linspace(0.0, 1.0, g)
    t = density_module._open_knot_vector(sites)
    b1 = BSpline.design_matrix(sites, t, 3)
    design = sp.kron(b1, b1, format="csr")
    grams = [sp.csr_matrix(density_module._bspline_gram(t, 3, k)) for k in range(3)]
    penalty = sp.kron(grams[0], grams[2]) + 2.0 * sp.kron(grams[1], grams[1])
    penalty = penalty + sp.kron(grams[2], grams[0])
    normal = (design.T @ design) / (g * g) + cfg.lam * penalty
    f = reference_density("rho3").value_at(spline_knots(cfg))
    f += 0.1 * np.random.default_rng(59).random(f.size)
    expected = spsolve(sp.csc_matrix(normal), design.T @ f / (g * g))
    got = skde_fit(f, cfg).coefs.ravel()
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("g, lam", [(8, 1e-2), (30, 1e-5), (32, 0.3), (50, 1e-4)])
def test_spline_normal_matrix_matches_its_kronecker_sums(g, lam):
    # the one-pass fill equals the sparse Kronecker sums it replaced, array
    # for array, and so do the coefficients; g = 30 and 50 are not powers of
    # two, so 1 / g^2 is rounded
    cfg = SplineConfig(num_knots=g * g, lam=lam)
    sites = np.linspace(0.0, 1.0, g)
    t = density_module._open_knot_vector(sites)
    b1 = density_module._bspline_design(t, sites)
    grams = [sp.csr_matrix(density_module._bspline_gram(t, 3, k)) for k in range(3)]
    data = sp.csr_matrix(b1.T @ b1)
    penalty = sp.kron(grams[0], grams[2]) + 2.0 * sp.kron(grams[1], grams[1])
    penalty = penalty + sp.kron(grams[2], grams[0])
    expected = sp.csc_matrix(sp.kron(data, data) / (g * g) + lam * penalty)
    got = density_module._spline_normal(t, b1, lam)
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(expected, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    f = reference_density("rho3").value_at(spline_knots(cfg))
    lu = sp.linalg.splu(expected, permc_spec="MMD_AT_PLUS_A")
    coefs = lu.solve((b1.T @ f.reshape(g, g) @ b1).ravel() / (g * g))
    assert skde_fit(f, cfg).coefs.ravel().tobytes() == coefs.tobytes()


def test_one_operator_serves_several_fits():
    cfg = SplineConfig(num_knots=20 * 20, lam=1e-5)
    knots = spline_knots(cfg)
    operator = SplineFit(cfg)
    rng = np.random.default_rng(29)
    for vals in (
        reference_density("rho3").value_at(knots),
        1.0 + 0.5 * knots[:, 0] + 0.1 * rng.standard_normal(len(knots)),
    ):
        shared = skde_fit(vals, cfg, operator)
        fresh = skde_fit(vals, cfg)
        np.testing.assert_allclose(shared.coefs, fresh.coefs, rtol=1e-12, atol=1e-12)
        assert shared.floor == pytest.approx(fresh.floor, rel=1e-12)
    with pytest.raises(ValidationError):
        skde_fit(vals, SplineConfig(num_knots=20 * 20, lam=1e-4), operator)


def test_shared_operator_fits_from_threads():
    cfg = SplineConfig(num_knots=16 * 16, lam=1e-5)
    operator = SplineFit(cfg)
    rng = np.random.default_rng(37)
    batches = [rng.random(cfg.num_knots) + 1.0 for _ in range(48)]
    serial = [operator.fit(v).coefs for v in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(skde_fit, v, cfg, operator) for v in batches]
            threaded = [f.result(timeout=60).coefs for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


def test_skde_smooths_noisy_values():
    cfg_rough = SplineConfig(num_knots=24 * 24, lam=1e-10)
    cfg_smooth = SplineConfig(num_knots=24 * 24, lam=1e-4)
    knots = spline_knots(cfg_rough)
    rng = np.random.default_rng(23)
    truth = 1.0 + 0.5 * knots[:, 0]
    noisy = truth + 0.05 * rng.standard_normal(truth.shape)
    pts = rng.random((400, 2))
    expected = 1.0 + 0.5 * pts[:, 0]
    err_rough = np.abs(skde_fit(noisy, cfg_rough).value_at(pts, clip=False) - expected).max()
    err_smooth = np.abs(skde_fit(noisy, cfg_smooth).value_at(pts, clip=False) - expected).max()
    assert err_smooth < err_rough


# ------------------------------------------------------------------ sigma_eta


def test_sigma_eta_frozen_values():
    assert sigma_eta(2.0, d=1) == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert sigma_eta(2.0, d=2) == pytest.approx(np.pi / 4.0, abs=1e-6)
    assert sigma_eta(3.0, d=2) == pytest.approx(8.0 / 15.0, abs=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sigma_eta_against_brute_quadrature(p):
    # independent route: reduce the disc integral of |x1|^p over y first
    brute, _ = integrate.quad(
        lambda x: 2.0 * abs(x) ** p * np.sqrt(1.0 - x * x), -1, 1, epsabs=1e-12
    )
    assert sigma_eta(p, d=2) == pytest.approx(brute, abs=1e-10)


def test_sigma_eta_gaussian_profile():
    brute, _ = integrate.dblquad(
        lambda y, x: np.exp(-(x * x + y * y) / 2.0) * abs(x) ** 2,
        -8,
        8,
        -8,
        8,
        epsabs=1e-12,
    )
    assert sigma_eta(2.0, eta="gaussian", d=2) == pytest.approx(brute, rel=1e-8)


def test_sigma_eta_validation():
    with pytest.raises(ValidationError):
        sigma_eta(0.5)
    with pytest.raises(ValidationError):
        sigma_eta(2.0, eta="box-car")


def test_sigma_eta_past_the_gamma_overflow():
    # Gamma((p+2)/2) overflows from p = 342; the indicator moment does not
    for p in (342.0, 400.0):
        brute, _ = integrate.quad(lambda x: 4.0 * x**p * np.sqrt(1.0 - x * x), 0, 1,
                                  epsabs=0.0, epsrel=1e-12, limit=200)
        assert sigma_eta(p) == pytest.approx(brute, rel=1e-12)
    # the Gaussian moment itself exceeds the float range from p = 301
    assert np.isfinite(sigma_eta(300.0, eta="gaussian"))
    for p in (301.0, 341.0, 400.0, 1e306):
        with pytest.raises(ValidationError, match=re.escape(f"p = {p}")):
            sigma_eta(p, eta="gaussian")
