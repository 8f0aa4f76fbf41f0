"""Constrained continuum p-Dirichlet minimization on patched spectral grids.

The weighted energy  sigma * integral over the unit square of
|grad u|^p rho(x)^2 dx  is discretized in Ritz (spectral-element) form: the
field is a polynomial on each patch, continuous across patches because all
copies of a geometric node share one unknown, and the integral is the
Clenshaw-Curtis sum over every node copy of the per-patch spectral
gradients,

    E(v) = sum_k sigma w_k rho_k^2 |grad u_k|^p,   u = Q v.

Pins fix geometric-node values, so continuity, flux balance across
interfaces and the natural boundary condition need no equations of their
own. The energy is convex in v, and `minimize_continuum` minimizes it by
damped Newton on the driver of `pdirichlet.solver` that the discrete route
also runs. Each Newton system is solved by the driver's conjugate
gradients on the Hessian applied as batched per-patch products, with no
matrix, preconditioned by the sparse LU of the domain's
`PatchedDomain.stiffness` of the curvature's diagonal: the Hessian without
its cross term, whose condition number relative to the Hessian is at most
p - 1 at every resolution, so the iterations per system stay flat in the
points per side.

The module also evaluates the nonlocal relative of the energy,
eps^-p * double integral of eta_eps(|x-z|) |u(x)-u(z)|^p rho(x) rho(z),
by midpoint quadrature on a uniform cell lattice; this functional is only
ever evaluated, never minimized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .chebyshev import _barycentric_weights
from .density import DensityField, sigma_eta, uniform_mesh
from .errors import SingularSystemError, ValidationError
from .patches import PatchedDomain
from .solver import MinimizerResult, _newton

__all__ = [
    "ContinuumProblem",
    "PatchedField",
    "local_energy",
    "nonlocal_energy",
    "minimize_continuum",
]

_NONLOCAL_MAX_CELLS = 3200


@dataclass
class ContinuumProblem:
    """Patched domain, weight density and energy exponent bundled together.

    The attribute ``sigma`` is the kernel surface moment of the indicator
    kernel at the given ``p``; it scales reported energies but not the
    minimizer.
    """

    domain: PatchedDomain
    density: DensityField
    p: float

    def __post_init__(self) -> None:
        if self.p < 2.0:
            raise ValidationError(f"the continuum solver needs p >= 2, got {self.p}")
        self.sigma = sigma_eta(self.p, "indicator")
        # once per geometric node: the copies of a node share its coordinates
        rho = self.density.value_at(self.domain.node_points)[self.domain.node_of]
        if not np.all(rho > 0.0):
            raise ValidationError("density is not strictly positive on the grid")
        # energy weight sigma * w * rho^2 of every node copy, [patch, iy, ix]
        self._weight = (self.sigma * self.domain.quad_weights * rho * rho).reshape(
            self.domain.d1x.shape
        )


def _spectral_gradient(u: np.ndarray, dom: PatchedDomain) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch d/dx and d/dy of node-copy values, both [patch, iy, ix]."""
    u = u.reshape(dom.d1x.shape)
    return u @ dom.d1x.transpose(0, 2, 1), dom.d1y @ u


def _spectral_adjoint(fx: np.ndarray, fy: np.ndarray, dom: PatchedDomain) -> np.ndarray:
    """Per-copy Dx^T fx + Dy^T fy, the adjoint of `_spectral_gradient`, flat."""
    return (fx @ dom.d1x + dom.d1y.transpose(0, 2, 1) @ fy).ravel()


def local_energy(u: np.ndarray, problem: ContinuumProblem) -> float:
    """Weighted p-Dirichlet energy of a field given by its node-copy values.

    Spectral gradients per patch, Clenshaw-Curtis quadrature, no gradient
    regularization (the reported value is the energy itself).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.domain.n_nodes,):
        raise ValidationError(
            f"field has shape {u.shape}, expected ({problem.domain.n_nodes},)"
        )
    gx, gy = _spectral_gradient(u, problem.domain)
    return float(np.vdot(problem._weight, (gx * gx + gy * gy) ** (problem.p / 2.0)))


class _RitzEnergy:
    """The quadrature energy of the geometric-node values as a
    `pdirichlet.solver` problem, with gradient and Hessian over the free
    (unpinned) nodes. The energy is exact, so its bias is 0."""

    bias = 0.0

    def __init__(self, problem: ContinuumProblem):
        self.p = problem.p
        self.free = problem.domain.free_nodes
        self._problem = problem
        self._dom = problem.domain

    def energy(self, v: np.ndarray) -> float:
        return local_energy(v[self._dom.node_of], self._problem)

    def gradient(self, v: np.ndarray, p: float) -> np.ndarray:
        """Gradient of the exponent-p energy over the free nodes: per copy
        Dx^T (q gx) + Dy^T (q gy), q = p weight |g|^(p-2), summed over the
        copies of each node."""
        dom = self._dom
        gx, gy = _spectral_gradient(v[dom.node_of], dom)
        q = p * self._problem._weight * (gx * gx + gy * gy) ** ((p - 2.0) / 2.0)
        per_copy = _spectral_adjoint(q * gx, q * gy, dom)
        return np.bincount(dom.node_of, per_copy, v.size)[self.free]

    def hessian(self, v: np.ndarray, p: float, delta: float):
        """The Newton system of the exponent-p energy: the Hessian
        Q^T D^T M D Q over the free nodes as a product, M the per-copy 2x2
        Hessian a I + b g g^T of weight * |g|^p with |g| floored at
        ``delta`` (a = p weight |g|^(p-2), b = (p - 2) a / |g|^2), and the
        sparse LU of P, the domain's stiffness of diag(M), as its
        preconditioner. As b |g|^2 <= (p - 2) a, every M lies between
        (2/p) diag(M) and (2(p-1)/p) diag(M), so P^-1 H has condition number
        at most p - 1; at p = 2, P = H and one PCG iteration solves the
        system. P is SPD, so it is factored without pivoting."""
        gx, gy = _spectral_gradient(v[self._dom.node_of], self._dom)
        sq = np.maximum(gx * gx + gy * gy, delta * delta)
        a = p * self._problem._weight * sq ** ((p - 2.0) / 2.0)
        b = (p - 2.0) * a / sq
        mxx, mxy, myy = a + b * gx * gx, b * gx * gy, a + b * gy * gy
        try:
            lu = splu(
                self._dom.stiffness(mxx, myy),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SingularSystemError(f"Newton system is singular: {exc}") from exc
        return _Hessian(self._dom, mxx, mxy, myy), lu.solve


class _Hessian:
    """w -> Q^T D^T M D Q w over the free nodes, for the per-copy tensor
    M = [[mxx, mxy], [mxy, myy]] ([patch, iy, ix] each), by the batched
    per-patch products: pinned copies read 0, and the copies' results are
    summed onto their free nodes."""

    def __init__(self, dom: PatchedDomain, mxx, mxy, myy):
        self._dom = dom
        self._m = mxx, mxy, myy

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        free_of = self._dom._free_of
        mxx, mxy, myy = self._m
        gx, gy = _spectral_gradient(np.append(w, 0.0)[free_of], self._dom)
        per_copy = _spectral_adjoint(mxx * gx + mxy * gy, mxy * gx + myy * gy, self._dom)
        return np.bincount(free_of, per_copy, w.size + 1)[:-1]


def minimize_continuum(
    problem: ContinuumProblem,
    tol: float = 1.0e-5,
    max_iter: int = 100,
) -> MinimizerResult:
    """Minimize the quadrature energy over the free node values by damped Newton.

    The run starts from the p = 2 minimizer (one linear solve from the
    pin-mean field, exact at p = 2), then takes full-Hessian Newton steps,
    each solved by conjugate gradients on the Hessian's products,
    preconditioned by one sparse LU factorization of its grid-line part,
    with Armijo backtracking on the energy. It stops when the
    Newton decrement lambda^2 / 2, an estimate of the remaining energy gap
    E - E_min, drops to ``tol * E``, so ``tol`` is a relative energy-gap
    certificate. CG runs to a relative residual of 1e-10, except that the
    start (p != 2) and any step whose decrement provably exceeds ``tol * E``
    end loose once CG's energy-norm progress stalls; the certifying system
    is always solved tight. The certified step is still taken at full
    length when it lowers the energy, unless its predicted decrease is
    within the rounding of E. Exhausting ``max_iter`` accepted steps, or a
    line search that cannot lower the energy, returns the last iterate
    flagged as non-converged rather than raising.

    Returns
    -------
    MinimizerResult
        ``values`` holds the field on every node copy, ``field`` the same
        field as an evaluable `PatchedField`, ``energies`` the energy after
        every accepted step (non-increasing), ``stop_reason`` is
        "converged", "budget" or "stalled", and ``decrement`` the
        lambda^2 / 2 of the last Newton system (exact when converged, else
        possibly a lower bound from a loose solve).
    """
    dom = problem.domain
    v = np.full(dom.node_points.shape[0], float(dom.pin_values.mean()))
    v[dom.pin_nodes] = dom.pin_values
    result = _newton(_RitzEnergy(problem), v, tol, max_iter)
    result.values = result.values[dom.node_of]
    result.field = PatchedField(dom, result.values)
    return result


# -- field evaluation ----------------------------------------------------------


def _bary_matrix(queries: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Rows of barycentric interpolation weights; one-hot on exact node hits."""
    w = _barycentric_weights(nodes.size - 1)
    diff = queries[:, None] - nodes[None, :]
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = w[None, :] / diff
        mat = ratios / ratios.sum(axis=1, keepdims=True)
    if hit_rows.size:
        mat[hit_rows] = 0.0
        mat[hit_rows, hit_cols] = 1.0
    return mat


@dataclass
class PatchedField:
    """A converged field on the patch collocation nodes, evaluable anywhere."""

    domain: PatchedDomain
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.n_nodes,):
            raise ValidationError("field values do not match the domain size")

    def _patch_arrays(self) -> tuple:
        """Per patch its x nodes, y nodes and values [iy, ix]."""
        grid = self.domain.points.reshape(*self.domain.d1x.shape, 2)
        return grid[:, 0, :, 0], grid[:, :, 0, 1], self.values.reshape(grid.shape[:3])

    def _tile_of(self, coords: np.ndarray, lines: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(lines, coords, side="right") - 1, 0, lines.size - 2)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Barycentric interpolation at arbitrary points of the unit square."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"expected points of shape (n, 2), got {pts.shape}")
        if not np.all((pts >= 0.0) & (pts <= 1.0)):
            raise ValidationError("query point outside the unit square")
        dom = self.domain
        ntx = dom.xlines.size - 1
        tiles = self._tile_of(pts[:, 1], dom.ylines) * ntx + self._tile_of(pts[:, 0], dom.xlines)
        nodes_x, nodes_y, values = self._patch_arrays()
        out = np.empty(pts.shape[0])
        for patch in np.unique(tiles):
            sel = np.nonzero(tiles == patch)[0]
            wx = _bary_matrix(pts[sel, 0], nodes_x[patch])
            wy = _bary_matrix(pts[sel, 1], nodes_y[patch])
            out[sel] = np.einsum("kj,ji,ki->k", wy, values[patch], wx)
        return out

    def on_mesh(self, mesh_size: int) -> np.ndarray:
        """Field on the uniform evaluation lattice; rows index y, columns x."""
        axis = uniform_mesh(mesh_size)
        dom = self.domain
        tx = self._tile_of(axis, dom.xlines)
        ty = self._tile_of(axis, dom.ylines)
        nodes_x, nodes_y, values = self._patch_arrays()
        ntx = dom.xlines.size - 1
        # the patches of a tile column share their x nodes and those of a
        # tile row their y nodes, so the weights are built once per column
        # and once per row (empty for a tile no mesh site falls in)
        sx = [np.nonzero(tx == ix)[0] for ix in range(ntx)]
        sy = [np.nonzero(ty == iy)[0] for iy in range(dom.ylines.size - 1)]
        wx = [_bary_matrix(axis[s], nodes_x[ix]) for ix, s in enumerate(sx)]
        wy = [_bary_matrix(axis[s], nodes_y[iy * ntx]) for iy, s in enumerate(sy)]
        out = np.empty((mesh_size, mesh_size))
        for patch in range(values.shape[0]):
            iy, ix = divmod(patch, ntx)
            out[np.ix_(sy[iy], sx[ix])] = wy[iy] @ values[patch] @ wx[ix].T
        return out


# -- nonlocal energy -------------------------------------------------------------


def _eta_profile(name: str) -> tuple:
    if name == "indicator":
        return (lambda t: np.where(t <= 1.0, 1.0, 0.0)), 1.0
    if name == "gaussian":
        return (lambda t: np.exp(-0.5 * t * t)), 5.0
    raise ValidationError(f"unknown kernel profile {name!r}")


def _kernel_weights(
    eta: str, epsilon: float, s: float, reach: int, sub: int = 32
) -> np.ndarray:
    """Cell-averaged kernel value per offset cell, indexed [oy, ox].

    Interior cells of the indicator get weight 1 and outside cells 0 exactly;
    cells straddling the interaction circle are averaged over a sub-midpoint
    grid, which removes the jagged-boundary error of plain center sampling.
    The smooth gaussian profile is sampled at cell centers.
    """
    profile, truncation = _eta_profile(eta)
    o = np.arange(-reach, reach + 1)
    ox, oy = np.meshgrid(o, o)  # rows oy, columns ox
    cx, cy = ox * s, oy * s
    if eta == "indicator":
        near = np.hypot(
            np.maximum(np.abs(cx) - s / 2.0, 0.0),
            np.maximum(np.abs(cy) - s / 2.0, 0.0),
        )
        far = np.hypot(np.abs(cx) + s / 2.0, np.abs(cy) + s / 2.0)
        weights = (far <= epsilon).astype(float)
        t = ((np.arange(sub) + 0.5) / sub - 0.5) * s
        dx, dy = np.meshgrid(t, t)
        for j, i in zip(*np.nonzero((near <= epsilon) & (far > epsilon))):
            r = np.hypot(cx[j, i] + dx, cy[j, i] + dy)
            weights[j, i] = np.mean(r <= epsilon)
    else:
        r = np.hypot(cx, cy)
        weights = np.where(r <= truncation * epsilon, profile(r / epsilon), 0.0)
    weights[reach, reach] = 0.0
    return weights


def nonlocal_energy(
    u,
    density: DensityField,
    epsilon: float,
    p: float = 2.0,
    eta: str = "indicator",
    region: tuple[float, float, float, float] | None = None,
    cells_per_radius: int = 8,
    x_cells: int = 80,
) -> float:
    """Pair-interaction energy at interaction range ``epsilon``.

    Double quadrature on a nested pair of midpoint lattices: the first
    integration variable runs over ``x_cells`` cells per axis, the second
    over a refinement of that lattice whose cell size is close to
    ``epsilon / cells_per_radius``, so the kernel stays resolved as
    ``epsilon`` shrinks without squaring the cost. The refinement factor is
    odd so the coarse centers are also fine centers. ``u`` may be a
    `PatchedField` or any callable mapping (n, 2) points to values.
    ``region`` restricts the first argument of the pair integrand to an
    axis-aligned box (the second still ranges over the whole square), which
    isolates the bulk value from boundary effects.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon}")
    if x_cells < 4:
        raise ValidationError(f"x_cells must be at least 4, got {x_cells}")
    if cells_per_radius < 2:
        raise ValidationError(
            f"cells_per_radius must be at least 2, got {cells_per_radius}"
        )
    _, truncation = _eta_profile(eta)
    k_max = _NONLOCAL_MAX_CELLS // x_cells
    if k_max % 2 == 0:
        k_max -= 1
    k_max = max(k_max, 1)
    k = int(round(cells_per_radius / (epsilon * x_cells)))
    if k % 2 == 0:
        k += 1
    k = min(max(k, 1), k_max)
    m = k * x_cells
    s = 1.0 / m
    if truncation * epsilon < 0.5 * s:
        raise ValidationError(f"epsilon {epsilon} leaves no quadrature resolution")
    # one extra ring so cells straddling the truncation circle are kept
    reach = min(int(np.floor(truncation * epsilon / s)) + 1, m - 1)
    centers = (np.arange(m) + 0.5) * s
    pts = np.column_stack(
        [np.tile(centers, m), np.repeat(centers, m)]
    )  # rows y-major, x fastest
    if isinstance(u, PatchedField):
        fvals = u.evaluate(pts).reshape(m, m)
    else:
        fvals = np.asarray(u(pts), dtype=float).reshape(m, m)
    rho = density.value_at(pts).reshape(m, m)
    c0 = (k - 1) // 2  # fine index of the first coarse center
    coarse = centers[c0::k]
    if region is None:
        xmask = np.ones((x_cells, x_cells), dtype=bool)
    else:
        x0, x1, y0, y1 = region
        inx = (coarse >= x0) & (coarse <= x1)
        iny = (coarse >= y0) & (coarse <= y1)
        xmask = np.outer(iny, inx)
    weights = _kernel_weights(eta, epsilon, s, reach)
    total = 0.0
    for oy in range(-reach, reach + 1):
        iy_lo = max(0, (-(c0 + oy) + k - 1) // k)
        iy_hi = min(x_cells - 1, (m - 1 - c0 - oy) // k)
        if iy_lo > iy_hi:
            continue
        ya = slice(c0 + k * iy_lo, c0 + k * iy_hi + 1, k)
        yb = slice(ya.start + oy, ya.stop + oy, k)
        for ox in range(-reach, reach + 1):
            w = weights[oy + reach, ox + reach]
            if w == 0.0:
                continue
            ix_lo = max(0, (-(c0 + ox) + k - 1) // k)
            ix_hi = min(x_cells - 1, (m - 1 - c0 - ox) // k)
            if ix_lo > ix_hi:
                continue
            xa = slice(c0 + k * ix_lo, c0 + k * ix_hi + 1, k)
            xb = slice(xa.start + ox, xa.stop + ox, k)
            diff = np.abs(fvals[ya, xa] - fvals[yb, xb]) ** p
            contrib = np.sum(
                xmask[iy_lo : iy_hi + 1, ix_lo : ix_hi + 1]
                * diff
                * rho[ya, xa]
                * rho[yb, xb]
            )
            total += w * contrib
    return float(total * (k * s) ** 2 * s**2 / epsilon ** (2.0 + p))
