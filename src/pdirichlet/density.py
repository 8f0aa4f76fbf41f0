"""Densities on the unit square: references, sampling, KDE and spline-KDE.

Three strictly positive reference densities drive the studies. Point clouds
are drawn from them by inverse-transform sampling on a fine lattice, whose
conditional CDFs are stored at every 8th row and rebuilt in between. The
smoothing kernel is the untruncated unit-mass Gaussian, and it factors,
exp(-(u^2 + v^2) / 2) = exp(-u^2 / 2) exp(-v^2 / 2), so kernel density
estimates are products of 1D factor matrices wherever the points allow: on
a full uniform mesh G M G^T, for the linearly binned sample mass M and the
mesh's 1D factor G; on a tensor lattice in either axis order (the spline
knots are laid out x fastest, a continuum domain's geometric nodes y
fastest) exactly, as Ey Ex^T summed over sample chunks. Elsewhere the exact
sums run in dense distance blocks of about 64k pairs. Every path holds
bounded memory whatever n and h are. The spline-smoothed variant fits a
penalized tensor-product cubic B-spline to KDE values on a square knot
lattice and evaluates it, values and gradients, with one vectorized Cox-de
Boor kernel (`_bspline_basis`), in 1D factors on a tensor lattice in either
axis order; `SplineFit` factors the fit's normal matrix once, so a study
fitting many value vectors at one (T, lam) pays for it once. Every
estimator is exposed as a `DensityField` with consistent value/gradient
evaluation and a positivity floor, which is what the continuum solver
consumes: 1e-3 for a KDE (1e-3 times the uniform density, the mean of any
density on the unit square) and 1e-3 times the largest knot value for a
spline.

The eta-moment constant sigma (the weight appearing in front of local
continuum energies) is computed here as well, in closed form.

The B-splines are evaluated here rather than by SciPy's interpolation
package, whose import (it loads the optimizers too) would add about 0.05 s
and 10 MB to a process's first spline fit (2-core VM). The dense distance
blocks are numpy sums and the moments' Gamma function is `math.gamma`
(`math.lgamma` where it overflows), so the module needs neither
`scipy.spatial` nor `scipy.special`: with the graph builder's own pair
search, that keeps about 0.06 s and 7 MB of imports (2-core VM) out of
every run but a kNN graph's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularSystemError, ValidationError

__all__ = [
    "DensityField",
    "ReferenceDensity",
    "SampleSet",
    "SplineConfig",
    "SplineFit",
    "KdeDensityField",
    "SplineDensityField",
    "reference_density",
    "sample_density",
    "kde_evaluate",
    "spline_knots",
    "skde_fit",
    "sigma_eta",
    "uniform_mesh",
]

# Normalization of the oscillatory reference density, frozen from adaptive
# quadrature of cos(6 pi ((x-1/2)^2 + (y-1/5)^2))/3 + 1/2 over the unit square.
_RHO3_NORM = 0.5031765765112621

# positivity floor of the estimators, relative to the uniform density (KDE)
# or to the largest knot value (spline)
_FLOOR_RATIO = 1.0e-3
# the 1D Gaussian factors' exponents are clipped here: exp(-300) = 5e-131,
# so no factor, product of two factors or product of those with a bin mass
# is subnormal
_MIN_EXPONENT = -300.0
# resolution of the lattice on which `sample_density` tabulates its CDFs
_SAMPLER_GRID = 1024
# the sampler keeps every this-many-th row of the conditional CDFs in y
_SAMPLER_STRIDE = 8
# 1D factors, one per (lattice line, sample), that one sample chunk of a
# lattice KDE sum may hold
_FACTOR_BUDGET = 1 << 17
# pairs per dense distance block; blocks this small stay in cache, which
# halves the time of a 1M-pair sum and leaves every row sum unchanged
_DENSE_BLOCK = 1 << 16


def uniform_mesh(mesh_size: int) -> np.ndarray:
    """1D evaluation sites i/(D-1), i = 0..D-1, shared by all mesh dumps."""
    if mesh_size < 2:
        raise ValidationError(f"mesh size must be >= 2, got {mesh_size}")
    return np.linspace(0.0, 1.0, mesh_size)


def _mesh_points(mesh_size: int) -> np.ndarray:
    """Points of the uniform D x D mesh, shape (D^2, 2), row-major (x fastest)."""
    sites = uniform_mesh(mesh_size)
    xx, yy = np.meshgrid(sites, sites)
    return np.column_stack([xx.ravel(), yy.ravel()])


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"expected points of shape (m, 2), got {pts.shape}")
    return pts


def _check_unit_square(pts: np.ndarray) -> None:
    if not np.all((pts >= -1e-12) & (pts <= 1.0 + 1e-12)):
        raise ValidationError("points fall outside the unit square")


class DensityField:
    """Common interface of every density representation.

    Subclasses implement `_values` and `_gradients`; this base layers the
    positivity floor on top (values clamped from below, gradients zeroed
    wherever the clamp is active) and provides mesh dumps.
    """

    floor: float = 0.0

    def _values(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gradients(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_at(self, points: np.ndarray, clip: bool = True) -> np.ndarray:
        pts = _as_points(points)
        _check_unit_square(pts)
        vals = self._values(pts)
        if clip and self.floor > 0.0:
            vals = np.maximum(vals, self.floor)
        return vals

    def gradient_at(self, points: np.ndarray, clip: bool = True) -> np.ndarray:
        pts = _as_points(points)
        _check_unit_square(pts)
        grads = self._gradients(pts)
        if clip and self.floor > 0.0:
            raw = self._values(pts)
            grads = np.where((raw < self.floor)[:, None], 0.0, grads)
        return grads

    def on_mesh(self, mesh_size: int) -> np.ndarray:
        """Raw (unclamped) values on the uniform mesh, shape (D, D), rows y."""
        pts = _mesh_points(mesh_size)
        return self.value_at(pts, clip=False).reshape(mesh_size, mesh_size)

    def gradient_on_mesh(self, mesh_size: int) -> np.ndarray:
        """Raw gradient on the uniform mesh, shape (D, D, 2)."""
        pts = _mesh_points(mesh_size)
        return self.gradient_at(pts, clip=False).reshape(mesh_size, mesh_size, 2)


class ReferenceDensity(DensityField):
    """Analytic density on the unit square with exact gradient and sampler."""

    def __init__(self, name, value_fn, grad_fn):
        self.name = name
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._sampler_cache: dict[int, tuple] = {}

    def _values(self, pts):
        return self._value_fn(pts[:, 0], pts[:, 1])

    def _gradients(self, pts):
        gx, gy = self._grad_fn(pts[:, 0], pts[:, 1])
        return np.column_stack([np.broadcast_to(gx, pts[:, 0].shape),
                                np.broadcast_to(gy, pts[:, 0].shape)])

    def _sampler(self, grid_size):
        cached = self._sampler_cache.get(grid_size)
        if cached is not None:
            return cached
        # per column, the unnormalized conditional CDF in y at every
        # _SAMPLER_STRIDE-th row and, last, the column total: a 1 MB table at
        # the default grid, filled by blocks of 16 columns whose transients
        # stay under 1 MB; `sample_density` rebuilds the rows in between
        # from the density itself
        s = np.linspace(0.0, 1.0, grid_size)
        dx = s[1] - s[0]
        rows = np.append(np.arange(0, grid_size - 1, _SAMPLER_STRIDE), grid_size - 1)
        coarse = np.empty((grid_size, rows.size))
        for c in range(0, grid_size, 16):
            v = self._value_fn(*np.broadcast_arrays(s[c : c + 16], s[:, None]))
            # trapezoid increments between rows, (v_j + v_{j+1}) / 2 * dx,
            # summed row after row
            steps = v[:-1] + v[1:]
            steps /= 2.0
            steps *= dx
            cum = np.zeros(v.shape)
            np.cumsum(steps, axis=0, out=cum[1:])
            coarse[c : c + 16] = cum[rows].T
        marg_x = coarse[:, -1]
        cdf_x = np.concatenate([[0.0], np.cumsum((marg_x[:-1] + marg_x[1:]) / 2.0 * dx)])
        cdf_x /= cdf_x[-1]
        self._sampler_cache[grid_size] = (s, cdf_x, coarse)
        return self._sampler_cache[grid_size]


def _rho1(x, y):
    return np.ones_like(np.asarray(x, dtype=float))


def _rho1_grad(x, y):
    z = np.zeros_like(np.asarray(x, dtype=float))
    return z, z


def _rho2(x, y):
    return (x * y + 0.2) / 0.45


def _rho2_grad(x, y):
    return y / 0.45, x / 0.45


def _rho3(x, y):
    s = (x - 0.5) ** 2 + (y - 0.2) ** 2
    return (np.cos(6.0 * np.pi * s) / 3.0 + 0.5) / _RHO3_NORM


def _rho3_grad(x, y):
    s = (x - 0.5) ** 2 + (y - 0.2) ** 2
    common = -4.0 * np.pi * np.sin(6.0 * np.pi * s) / _RHO3_NORM
    return common * (x - 0.5), common * (y - 0.2)


# one instance per name, so the sampler tables each builds are built once
# per process
_DENSITIES = {
    name: ReferenceDensity(name, value_fn, grad_fn)
    for name, value_fn, grad_fn in (
        ("rho1", _rho1, _rho1_grad),
        ("rho2", _rho2, _rho2_grad),
        ("rho3", _rho3, _rho3_grad),
    )
}


def reference_density(name: str) -> ReferenceDensity:
    """Look up one of the built-in densities: rho1 (uniform), rho2, rho3.

    All three are strictly positive and integrate to one over the unit
    square; rho2 is the tilted bilinear density, rho3 the oscillatory one.
    Every call with one name returns the same instance, which keeps the
    two-level sampler tables `sample_density` has built for it (1 MB).
    """
    if name not in _DENSITIES:
        raise ValidationError(f"unknown density {name!r}; choose from {sorted(_DENSITIES)}")
    return _DENSITIES[name]


@dataclass(frozen=True)
class SampleSet:
    """Point cloud drawn from a named density, with its seed for provenance."""

    points: np.ndarray
    density: str
    seed: int

    @property
    def n(self) -> int:
        return self.points.shape[0]


def sample_density(density: ReferenceDensity, n: int, seed: int) -> SampleSet:
    """Draw n points by inverse-transform sampling on a uniform lattice.

    The marginal CDF in x and per-column conditional CDFs in y are those of
    the trapezoid rule on a 1024 x 1024 lattice, inverted by binary search
    and linear interpolation. Only every 8th row of the conditional CDFs is
    stored, with each column's total (1 MB in all): a draw finds the two
    stored rows that bracket it and rebuilds the rows between them from
    the density with the same arithmetic, so the clouds are those of the
    whole table bit for bit. Identical (density, n, seed) inputs reproduce
    the identical cloud.

    Parameters
    ----------
    density : ReferenceDensity
        Source density.
    n : int
        Number of points, >= 1.
    seed : int
        Seed for `numpy.random.default_rng`.

    Returns
    -------
    SampleSet
        Cloud of shape (n, 2) inside the unit square.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    sites, cdf_x, coarse = density._sampler(_SAMPLER_GRID)
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    x = np.interp(u[:, 0], cdf_x, sites)
    col = np.clip(np.rint(x * (_SAMPLER_GRID - 1)).astype(int), 0, _SAMPLER_GRID - 1)
    dx = sites[1] - sites[0]
    # column c's stored rows sit at flat offsets c * width + 0 .. width - 1,
    # the last its total; the lattice rows b * stride + j of block b have
    # y sites y_rows[j, b], the last block's overhang clamped to the top row
    width = coarse.shape[1]
    stored = coarse.ravel()
    lifts = [1 << e for e in reversed(range((width - 2).bit_length()))]
    y_rows = sites[np.minimum(np.arange(0, width * _SAMPLER_STRIDE, _SAMPLER_STRIDE)
                              + np.arange(_SAMPLER_STRIDE + 1)[:, None], _SAMPLER_GRID - 1)]
    y = np.empty(n)
    # chunks this small keep a draw's transients under 1 MB
    chunk = 2048
    for a in range(0, n, chunk):
        c = col[a : a + chunk]
        u2 = u[a : a + chunk, 1]
        m = c.size
        first = c * width
        last = first + (width - 1)
        total = stored[last]
        # the last stored row with prefix / total <= u2, by binary lifting
        at = first.copy()
        for step in lifts:
            cand = np.minimum(at + step, last)
            np.copyto(at, cand, where=stored[cand] / total <= u2)
        block = at - first
        # the block's rows, rebuilt in place of their y sites with the
        # build's arithmetic; the CDF is monotone, so the last of them
        # <= u2 is the row a bisection of the whole column finds
        cdf = np.take(y_rows, block, axis=1)
        # (a constant density comes back in the shape of x)
        v = np.broadcast_to(density._value_fn(sites[c], cdf), cdf.shape)
        cdf[0] = stored[at]
        np.add(v[:-1], v[1:], out=cdf[1:])
        cdf[1:] /= 2.0
        cdf[1:] *= dx
        for j in range(_SAMPLER_STRIDE):
            cdf[j + 1] += cdf[j]
        cdf /= total
        k = np.add.reduce(cdf[1:-1] <= u2, axis=0, dtype=np.intp)
        pick = k * m + np.arange(m)
        f_lo = cdf.ravel()[pick]
        f_hi = cdf.ravel()[pick + m]
        frac = (u2 - f_lo) / np.maximum(f_hi - f_lo, 1e-300)
        y[a : a + chunk] = sites[block * _SAMPLER_STRIDE + k] + frac * dx
    pts = np.column_stack([x, np.clip(y, 0.0, 1.0)])
    return SampleSet(points=pts, density=density.name, seed=seed)


def _gaussian(sq: np.ndarray) -> np.ndarray:
    """Unit-mass 2D Gaussian at squared radius ``sq`` (bandwidth units). It
    is also its own gradient factor: grad K(v) = -v K(|v|^2). The exponent
    is clipped at twice _MIN_EXPONENT, as in `_gauss_factors`."""
    out = sq * -0.5
    np.maximum(out, 2.0 * _MIN_EXPONENT, out=out)
    np.exp(out, out=out)
    out /= 2.0 * np.pi
    return out


def _finite_bandwidth(h: float) -> float:
    if not (math.isfinite(h) and h > 0):
        raise ValidationError(f"bandwidth must be positive and finite, got {h}")
    return float(h)


def _sample_array(samples) -> np.ndarray:
    pts = samples.points if isinstance(samples, SampleSet) else np.asarray(samples, float)
    pts = _as_points(pts)
    if not np.isfinite(pts).all():
        raise ValidationError("sample coordinates must be finite")
    return pts


def _lattice_axes(pts: np.ndarray):
    """``(xs, ys)`` when ``pts`` is the row-major lattice of xs times ys, else None.

    Row-major means x fastest: point ``j * len(xs) + i`` is ``(xs[i], ys[j])``,
    the layout of `spline_knots` and `_mesh_points`. The leading run of points
    sharing the first y gives len(xs); the check is then O(m) and exact.
    """
    m = pts.shape[0]
    if m == 0:
        return None
    off_first_row = np.flatnonzero(pts[:, 1] != pts[0, 1])
    nx = int(off_first_row[0]) if off_first_row.size else m
    if nx == 0 or m % nx:
        return None
    grid = pts.reshape(m // nx, nx, 2)
    xs, ys = grid[0, :, 0], grid[:, 0, 1]
    if (grid[:, :, 0] == xs).all() and (grid[:, :, 1] == ys[:, None]).all():
        return xs, ys
    return None


def _gauss_factors(sites: np.ndarray, coords: np.ndarray, h: float, derivative: bool = False):
    """1D Gaussian factor of the sites against the coordinates.

    Returns g, shape (len(sites), len(coords)), with g[a, i] the unit-mass
    1D Gaussian exp(-t^2 / 2h^2) / (sqrt(2 pi) h) at t = sites[a] -
    coords[i]; with ``derivative``, the pair (g, g'), g' = -t g / h^2. The
    exponent is clipped at _MIN_EXPONENT, so that no exponential, and no
    product of two factors with a bin mass, leaves the normal range:
    subnormal values take a slow path in NumPy and BLAS, several times the
    time per element on x86-64.
    """
    t = np.subtract.outer(sites, coords)
    g = t / h
    g *= g
    g *= -0.5
    np.maximum(g, _MIN_EXPONENT, out=g)
    np.exp(g, out=g)
    g *= 1.0 / (math.sqrt(2.0 * math.pi) * h)
    if not derivative:
        return g
    t *= g
    t *= -1.0 / (h * h)
    return g, t


def _kde_lattice(data: np.ndarray, h: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Gaussian sums (1/n) sum_i g(x - x_i) g(y - y_i) on the lattice xs
    times ys, row-major: Ey Ex^T for the 1D factors Ex and Ey of the
    lattice lines against the samples (`_gauss_factors`), summed over
    sample chunks of at most _FACTOR_BUDGET factors."""
    sums = np.zeros((ys.size, xs.size))
    chunk = max(1, _FACTOR_BUDGET // (xs.size + ys.size))
    for c0 in range(0, data.shape[0], chunk):
        c = data[c0 : c0 + chunk]
        sums += _gauss_factors(ys, c[:, 1], h) @ _gauss_factors(xs, c[:, 0], h).T
    sums /= data.shape[0]
    return sums.ravel()


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances of the points ``a`` to the points ``b``, shape
    (len(a), len(b)), as dx^2 + dy^2: the sums that
    `scipy.spatial.distance.cdist(a, b, "sqeuclidean")` makes."""
    dx = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def kde_evaluate(samples, h: float, points: np.ndarray) -> np.ndarray:
    """Exact Gaussian kernel density estimate at arbitrary points.

    Computes (1/n) sum_i K_h(x - x_i) with K_h(u) = h^-2 K(u/h), K the
    untruncated unit-mass Gaussian. Two paths give the same sums, to
    rounding:

    - lattice, when the points are a tensor lattice in either axis order:
      x fastest, as `spline_knots` and the mesh dumps lay them out, or y
      fastest, as a continuum domain's geometric nodes are (see
      `_lattice_axes`; a y-fastest lattice is summed with x and y swapped,
      which leaves the Gaussian unchanged). The Gaussian factors,
      exp(-(u^2 + v^2) / 2) = exp(-u^2 / 2) exp(-v^2 / 2), so the sums are
      the product Ey Ex^T of the 1D factors of the lattice lines against
      the samples, over chunks of samples of at most 128k factors;
    - dense, for every other point set: squared distances dx^2 + dy^2 of a
      block of points to all samples (`_sq_distances`), about 64k pairs per
      block (a single point to all samples when n is larger).
      `KdeDensityField` takes its gradients in the same blocks.

    Memory is thus bounded, whatever n and h are: by blocks of max(64k, n)
    pairs, and on a lattice by one chunk's 128k factors and the m sums.
    Exponents are clipped at -300 per 1D factor (-600 in the dense
    blocks), which keeps every term in the normal range and moves no value
    above 1e-100 h^-2 beyond rounding.

    Parameters
    ----------
    samples : SampleSet or ndarray
        Sample cloud, shape (n, 2), finite.
    h : float
        Bandwidth, finite and > 0.
    points : ndarray
        Evaluation points, shape (m, 2).

    Returns
    -------
    ndarray, shape (m,)
    """
    h = _finite_bandwidth(h)
    pts = _as_points(points)
    data = _sample_array(samples)
    n = data.shape[0]
    m = pts.shape[0]
    # a y-fastest lattice, such as a continuum domain's geometric nodes, is
    # the row-major lattice of (y, x), and the Gaussian is symmetric in x and
    # y, so the swapped sums come back in the caller's order
    for swap in (slice(None), slice(None, None, -1)):
        axes = _lattice_axes(pts[:, swap])
        if axes is not None:
            return _kde_lattice(data[:, swap], h, *axes)
    scale = 1.0 / (n * h * h)
    out = np.empty(m)
    step = max(1, _DENSE_BLOCK // max(n, 1))
    for start in range(0, m, step):
        d2 = _sq_distances(pts[start : start + step], data)
        out[start : start + step] = _gaussian(d2 / (h * h)).sum(axis=1) * scale
    return out


def _kde_gradient(data: np.ndarray, h: float, pts: np.ndarray) -> np.ndarray:
    n = data.shape[0]
    scale = 1.0 / (n * h**4)
    out = np.empty((pts.shape[0], 2))
    step = max(1, _DENSE_BLOCK // max(n, 1))
    for start in range(0, pts.shape[0], step):
        block = pts[start : start + step]
        diff = block[:, None, :] - data[None, :, :]
        sq = (diff**2).sum(axis=2) / (h * h)
        phi = _gaussian(sq)
        out[start : start + step] = -(diff * phi[:, :, None]).sum(axis=1) * scale
    return out


class KdeDensityField(DensityField):
    """Gaussian kernel density estimate as an evaluable field.

    Values at points are the exact sums of `kde_evaluate` with the
    untruncated Gaussian: summed in 1D Gaussian factors when the points are
    a tensor lattice in either axis order, as the spline knots and a
    continuum domain's geometric nodes are, and in dense distance blocks
    otherwise. Gradients are summed in the same dense blocks. `on_mesh`
    bins the samples linearly onto the uniform D x D mesh, mass M (rows y),
    and returns G M G^T, with G the mesh's D x D 1D Gaussian factor;
    `gradient_on_mesh` puts the derivative factor G' in place of one G
    (G M G'^T in x, G' M G^T in y). The large error studies rely on these
    (the mesh and exact paths are cross-checked in tests). The positivity
    floor is 1e-3, that is 1e-3 times the uniform density, the mean of any
    density on the unit square; it costs no evaluation. The samples must be
    finite and h finite and positive (`ValidationError` otherwise).
    """

    floor = _FLOOR_RATIO

    def __init__(self, samples, h: float):
        self.h = _finite_bandwidth(h)
        self.samples = _sample_array(samples)

    def _values(self, pts):
        return kde_evaluate(self.samples, self.h, pts)

    def _gradients(self, pts):
        return _kde_gradient(self.samples, self.h, pts)

    def _binned_mass(self, mesh_size: int) -> np.ndarray:
        d = mesh_size
        delta = 1.0 / (d - 1)
        g = self.samples / delta
        i0 = np.minimum(np.floor(g[:, 0]).astype(int), d - 2)
        j0 = np.minimum(np.floor(g[:, 1]).astype(int), d - 2)
        fx = g[:, 0] - i0
        fy = g[:, 1] - j0
        w = 1.0 / self.samples.shape[0]
        mass = np.zeros((d, d))
        np.add.at(mass, (j0, i0), w * (1 - fx) * (1 - fy))
        np.add.at(mass, (j0, i0 + 1), w * fx * (1 - fy))
        np.add.at(mass, (j0 + 1, i0), w * (1 - fx) * fy)
        np.add.at(mass, (j0 + 1, i0 + 1), w * fx * fy)
        return mass

    def on_mesh(self, mesh_size: int) -> np.ndarray:
        sites = uniform_mesh(mesh_size)
        g = _gauss_factors(sites, sites, self.h)
        return g @ (self._binned_mass(mesh_size) @ g.T)

    def gradient_on_mesh(self, mesh_size: int) -> np.ndarray:
        sites = uniform_mesh(mesh_size)
        g, dg = _gauss_factors(sites, sites, self.h, derivative=True)
        mass = self._binned_mass(mesh_size)
        out = np.empty((mesh_size, mesh_size, 2))
        out[..., 0] = (g @ mass) @ dg.T
        out[..., 1] = dg @ (mass @ g.T)
        return out


@dataclass(frozen=True)
class SplineConfig:
    """Settings of the spline-smoothed KDE fit.

    ``num_knots`` is the total number of data sites T, required to be a
    perfect square (the sites form a uniform sqrt(T) x sqrt(T) lattice over
    the unit square). ``lam`` weights the squared second-derivative penalty.
    """

    num_knots: int
    lam: float

    def __post_init__(self):
        g = int(round(math.sqrt(self.num_knots)))
        if g * g != self.num_knots:
            raise ValidationError(f"num_knots must be a perfect square, got {self.num_knots}")
        if g < 4:
            raise ValidationError(f"need at least a 4x4 knot lattice, got {g}x{g}")
        if not self.lam > 0:
            raise ValidationError(f"lam must be > 0, got {self.lam}")

    @property
    def grid_size(self) -> int:
        return int(round(math.sqrt(self.num_knots)))


def spline_knots(config: SplineConfig) -> np.ndarray:
    """Data-site lattice of the fit, shape (T, 2), x fastest."""
    return _mesh_points(config.grid_size)


def _open_knot_vector(sites: np.ndarray, degree: int = 3) -> np.ndarray:
    return np.concatenate([np.full(degree, sites[0]), sites, np.full(degree, sites[-1])])


def _bspline_basis(t: np.ndarray, x: np.ndarray, nu: int = 0, degree: int = 3):
    """Knot spans and the nonzero B-spline values, or nu-th derivatives, at x.

    Returns ``(first, b)``: on the span of x[m] only basis functions
    first[m] .. first[m] + degree can be nonzero, and b[r, m] is the nu-th
    derivative of function first[m] + r there, b of shape (degree + 1,
    len(x)). The span is the last knot interval [t[s], t[s+1]) that holds
    x, clamped to the basis' support: the last span is closed at its right
    end, and points beyond the ends take the end polynomials. Cox-de Boor
    recurrence, vectorized over the points: the values of degree - nu, then
    nu differentiation steps up to degree (de Boor, A Practical Guide to
    Splines, 1978; Piegl and Tiller, The NURBS Book, A2.2-A2.3). Every
    divisor t[i + j] - t[i] covers the point's nonempty span, so none is
    zero.
    """
    x = np.asarray(x, dtype=float)
    n = len(t) - degree - 1
    span = np.clip(np.searchsorted(t, x, side="right") - 1, degree, n - 1)
    b = np.ones((1, x.size))
    for j in range(1, degree + 1):
        # w[r] = B_{i,j-1} / (t[i + j] - t[i]) for i = s - j + 1 + r; the
        # degree j function i (row r + 1 of b) takes (x - t[i]) w[r] and
        # function i - 1 (row r) takes (t[i + j] - x) w[r], or +j w[r] and
        # -j w[r] in a differentiation step
        lo = t[span + np.arange(1 - j, 1)[:, None]]
        hi = t[span + np.arange(1, j + 1)[:, None]]
        prev, b = b, np.zeros((j + 1, x.size))
        if j <= degree - nu:
            w = prev / (hi - lo)
            b[:-1] += w * (hi - x)
            b[1:] += w * (x - lo)
        else:
            w = j * prev / (hi - lo)
            b[:-1] -= w
            b[1:] += w
    return span - degree, b


def _bspline_design(t: np.ndarray, x: np.ndarray, nu: int = 0, degree: int = 3) -> np.ndarray:
    """Dense matrix of the nu-th basis derivatives at x, shape (len(x), len(t) - degree - 1)."""
    first, b = _bspline_basis(t, x, nu, degree)
    out = np.zeros((b.shape[1], len(t) - degree - 1))
    np.put_along_axis(out, first[:, None] + np.arange(degree + 1), b.T, axis=1)
    return out


def _bspline_gram(t: np.ndarray, degree: int, deriv: int) -> np.ndarray:
    # Exact Gram matrix of deriv-th basis derivatives via per-span Gauss
    # quadrature (degree+1 points: exact up to degree 2*degree products).
    xg, wg = np.polynomial.legendre.leggauss(degree + 1)
    breaks = np.unique(t)
    xq, wq = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        xq.append(0.5 * (a + b) + 0.5 * (b - a) * xg)
        wq.append(0.5 * (b - a) * wg)
    xq = np.concatenate(xq)
    wq = np.concatenate(wq)
    basis = _bspline_design(t, xq, deriv, degree)
    return basis.T @ (wq[:, None] * basis)


def _spline_normal(t: np.ndarray, b1: np.ndarray, lam: float) -> sp.csc_matrix:
    """The spline fit's normal matrix, CSC, filled in one pass.

    It is kron(D, D) / g^2 + lam (kron(G0, G2) + 2 kron(G1, G1) + kron(G2,
    G0)), with D = B1^T B1 for the g x nb design B1 at the lattice sites
    and Gk the Gram matrix of the k-th basis derivatives. Cubic B-splines
    three or more apart do not overlap, so every 1D factor lies on its 7
    central diagonals, and column (j, l) of each Kronecker product A kron B
    on the 7 x 7 entries (i, k) with |i - j|, |k - l| <= 3, in order: A[i,
    j] B[k, l]. They are combined in the order of the sparse sums this
    replaces, which divide by g^2 as a product with 1 / g^2, and the zeros
    are dropped as those sums drop them, so the matrix is theirs bit for
    bit.
    """
    g, nb = b1.shape
    cols = np.arange(nb)[:, None]
    rows = cols + np.arange(-3, 4)
    inside = (rows >= 0) & (rows < nb)
    rows = np.clip(rows, 0, nb - 1)
    # each factor's band: entry (j, r) is A[j + r - 3, j]
    d, g0, g1, g2 = (np.where(inside, m[rows, cols], 0.0)
                     for m in (b1.T @ b1, *(_bspline_gram(t, 3, k) for k in range(3))))

    def kron(a, b):
        return a[:, None, :, None] * b[None, :, None, :]

    values = kron(d, d) * (1.0 / (g * g))
    penalty = kron(g0, g2) + 2.0 * kron(g1, g1)
    penalty += kron(g2, g0)
    values += lam * penalty
    keep = inside[:, None, :, None] & inside[None, :, None, :] & (values != 0.0)
    indptr = np.zeros(nb * nb + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=(2, 3)), out=indptr[1:])
    indices = (rows[:, None, :, None] * nb + rows[None, :, None, :])[keep].astype(np.int32)
    return sp.csc_matrix((values[keep], indices, indptr), shape=(nb * nb, nb * nb))


class SplineDensityField(DensityField):
    """Penalized tensor-product cubic B-spline fit of gridded density values.

    The field is sum_ij coefs[j, i] B_i(x) B_j(y) over the cubic B-splines
    of the open knot vector t, in both axes; coefs must have shape
    (len(t) - 4, len(t) - 4). Points are clipped to the unit square. On a
    tensor lattice in either axis order (see `_lattice_axes`: the knots and
    mesh dumps are x fastest, a continuum domain's geometric nodes y
    fastest) the values are the product By coefs Bx^T of the 1D basis
    factors, each taken over its 4 nonzero terms a row, and the gradients
    the same with one factor differentiated. Any other point set gathers
    each point's 4 x 4 coefficient block; both paths add the same products
    in the same order, so they agree bit for bit.
    """

    def __init__(self, knot_vector: np.ndarray, coefs: np.ndarray, config: SplineConfig):
        t = np.asarray(knot_vector, dtype=float)
        coefs = np.asarray(coefs, dtype=float)
        nb = len(t) - 4
        if coefs.shape != (nb, nb):
            raise ValidationError(
                f"expected ({nb}, {nb}) spline coefficients for {len(t)} knots, got {coefs.shape}"
            )
        self.t = t
        self.coefs = coefs  # (n_basis_y, n_basis_x)
        self.config = config
        lattice_vals = self._values(spline_knots(config))
        self.floor = _FLOOR_RATIO * float(lattice_vals.max())

    def _values(self, pts):
        return self._tensor(pts, ((0, 0),))[:, 0]

    def _gradients(self, pts):
        return self._tensor(pts, ((1, 0), (0, 1)))

    def _tensor(self, pts, derivs) -> np.ndarray:
        """Columns sum_ij coefs[j, i] B_i^(a)(x) B_j^(b)(y), one per (a, b) in derivs."""
        pts = np.clip(pts, 0.0, 1.0)
        t, c = self.t, self.coefs
        out = np.empty((pts.shape[0], len(derivs)))
        # a y-fastest lattice is the row-major lattice of (y, x); its grid
        # comes back transposed
        for flip in (False, True):
            axes = _lattice_axes(pts[:, ::-1] if flip else pts)
            if axes is not None:
                xs, ys = axes[::-1] if flip else axes
                for col, (a, b) in enumerate(derivs):
                    (fx, bx), (fy, by) = _bspline_basis(t, xs, a), _bspline_basis(t, ys, b)
                    # coefs Bx^T, then By times it, 4 terms a row each
                    cx = sum(c[:, fx + k] * bx[k] for k in range(4))
                    grid = sum(cx[fy + i] * by[i][:, None] for i in range(4))
                    out[:, col] = (grid.T if flip else grid).ravel()
                return out
        for col, (a, b) in enumerate(derivs):
            (fx, bx), (fy, by) = _bspline_basis(t, pts[:, 0], a), _bspline_basis(t, pts[:, 1], b)
            out[:, col] = sum(
                sum(c[fy + i, fx + k] * bx[k] for k in range(4)) * by[i] for i in range(4)
            )
        return out


class SplineFit:
    """The spline fit's operator for one `SplineConfig`, factored once.

    Holds the open knot vector, the 1D design matrix B1 of the basis at the
    lattice sites (the tensor design is B1 kron B1, never formed) and the
    sparse LU factorization of the (SPD) normal matrix, all of which depend
    only on (T, lam). `fit` then costs one right-hand side, vec(B1^T F B1),
    and one pair of triangular solves per value vector. Build one per study;
    it is read-only after construction, so threads may share it.
    """

    def __init__(self, config: SplineConfig):
        g = config.grid_size
        sites = np.linspace(0.0, 1.0, g)
        t = _open_knot_vector(sites)
        b1 = _bspline_design(t, sites)
        try:
            self._lu = spla.splu(_spline_normal(t, b1, config.lam), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SingularSystemError(f"spline normal equations are singular: {exc}") from exc
        self.config = config
        self.knot_vector = t
        self._b1 = b1

    def fit(self, values: np.ndarray) -> SplineDensityField:
        """Spline field fitted to values on the knot lattice (see `skde_fit`)."""
        g = self.config.grid_size
        f = np.asarray(values, dtype=float)
        if f.shape == (g * g,):
            f = f.reshape(g, g)
        if f.shape != (g, g):
            raise ValidationError(f"expected {g * g} values (or a {g}x{g} array), got {f.shape}")
        # the tensor design's transpose applied to f, rows y outer, x inner
        rhs = (self._b1.T @ f @ self._b1).ravel()
        coefs = self._lu.solve(rhs / (g * g))
        if not np.all(np.isfinite(coefs)):
            raise SingularSystemError("spline fit produced non-finite coefficients")
        nb = len(self.knot_vector) - 4
        return SplineDensityField(self.knot_vector, coefs.reshape(nb, nb), self.config)


def skde_fit(
    values: np.ndarray, config: SplineConfig, operator: SplineFit | None = None
) -> SplineDensityField:
    """Fit the smoothing spline to density values on the knot lattice.

    Minimizes (1/T) sum_i (u(t_i) - f_i)^2 + lam * |Hessian u|^2_{L2} over
    tensor-product cubic B-splines on the lattice of `spline_knots`. The
    penalty annihilates affine fields, so affine data is reproduced exactly
    for every lam.

    Parameters
    ----------
    values : ndarray
        Density values at the knot lattice, shape (T,) in knot order or
        (sqrt(T), sqrt(T)) with rows indexing y.
    config : SplineConfig
    operator : SplineFit, optional
        A factored operator for `config`, shared by many fits; without one
        the call builds and factors its own.

    Returns
    -------
    SplineDensityField
    """
    if operator is None:
        operator = SplineFit(config)
    elif operator.config != config:
        raise ValidationError("the spline operator was built for a different SplineConfig")
    return operator.fit(values)


def sigma_eta(p: float, eta: str = "indicator", d: int = 2) -> float:
    """Directional p-th moment of a radial profile over d-space.

    Computes the integral of eta(|x|) |x . e1|^p as the angular factor
    2 pi^((d-1)/2) Gamma((p+1)/2) / Gamma((p+d)/2) times the radial
    integral of eta(r) r^(q-1), q = p + d, both in closed form: the radial
    integral is 1/q for the indicator and 2^(q/2-1) Gamma(q/2) for the
    Gaussian. From (p+d)/2 = 171 on, next to where the Gamma function
    overflows (p = 342 in the plane), the angular ratio is taken in logs, so
    the indicator's moment is finite at every p whose Gamma values lgamma
    can take (p < 1e305).

    Parameters
    ----------
    p : float
        Exponent, >= 1.
    eta : str, optional
        Radial profile: indicator (default, unit ball) or gaussian
        (exp(-r^2/2), integrated over its full support).
    d : int, optional
        Ambient dimension, >= 1 (default 2).

    Returns
    -------
    float

    Raises
    ------
    ValidationError
        If p < 1, d < 1, the profile is unknown, or the moment is out of
        floating-point range (the Gaussian's from p = 301 in the plane).
    """
    if p < 1:
        raise ValidationError(f"exponent p must be >= 1, got {p}")
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    if eta not in ("indicator", "gaussian"):
        raise ValidationError(f"unknown profile {eta!r}; choose indicator or gaussian")
    q = p + d
    a, b = (p + 1) / 2.0, q / 2.0
    sphere = 2.0 * np.pi ** ((d - 1) / 2.0)
    try:
        if b < 171.0:
            angular = sphere * math.gamma(a) / math.gamma(b)
        else:
            angular = sphere * math.exp(math.lgamma(a) - math.lgamma(b))
        radial = 1.0 / q if eta == "indicator" else 2.0 ** (b - 1.0) * math.gamma(b)
        moment = angular * radial
    except OverflowError:
        moment = math.inf
    if not math.isfinite(moment):
        raise ValidationError(f"the {eta} moment of order p = {p} is out of floating-point range")
    return float(moment)
