"""The exact minimizer around a point pin, for tests of both routes."""

from __future__ import annotations

import numpy as np
from scipy import integrate

from pdirichlet.density import sigma_eta


def point_pin_minimizer(p):
    """The exact minimizer around a pin at (0.5, 0.5) with value 0, for p > 2.

    On the uniform density u*(x) = r^a, a = (p - 2) / (p - 1), r = |x - c|,
    is p-harmonic away from c, and a point has positive p-capacity for
    p > 2, so u* is the minimizer on the square with boundary values u* and
    that pin. Returns ``(u*, E*)``, E* = sigma int |grad u*|^p by polar
    quadrature: the radial integral is a^(p-1) R(theta)^a, with R the
    distance to the square's edge, and eight wedges of pi/4 fill the square.
    """
    a = (p - 2.0) / (p - 1.0)

    def u(x, y):
        return np.hypot(x - 0.5, y - 0.5) ** a

    wedge, _ = integrate.quad(lambda t: (0.5 / np.cos(t)) ** a, 0.0, np.pi / 4.0,
                              epsabs=1e-13, epsrel=1e-13)
    return u, sigma_eta(p, "indicator") * a ** (p - 1.0) * 8.0 * wedge
