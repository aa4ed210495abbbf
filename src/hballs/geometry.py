"""Points of the unit ball of C^n and the Mobius maps of its kernel.

The hyperbolic Laplacian Delta_h of this package is the Laplace-Beltrami
operator of the real hyperbolic ball B^{2n}: C^n is read as R^{2n} through
the float view x_1, y_1, ..., x_n, y_n.  Its isometries, which carry
hyperbolic-harmonic functions to hyperbolic-harmonic functions, are the
real Mobius maps (Ahlfors, Mobius Transformations in Several Dimensions,
1981)

    T_a(x) = ((1 - |a|^2)(x - a) - |x - a|^2 a) / (1 - 2 x.a + |x|^2 |a|^2),

with T_a(a) = 0, T_a(0) = -a, (-T_a) an involution, and

    1 - |T_a(x)|^2 = (1 - |a|^2)(1 - |x|^2) / (1 - 2 x.a + |x|^2 |a|^2).

Rudin's complex automorphisms phi_a of the ball of C^n serve M-harmonic
(Bergman) theory instead: at n >= 2 they do not preserve the kernel of
Delta_h, so the package does not use them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["real_mobius"]


def coords_of(p) -> np.ndarray:
    """Coordinate array of a point given as any complex sequence."""
    return np.atleast_1d(np.asarray(p, dtype=complex))


def real_mobius(a, points) -> np.ndarray:
    """T_a at every row of a (P, n) complex batch, on its float view.

    ``a`` must be a finite point of the open unit ball of C^n.  The
    denominator is taken as |x - a|^2 + (1 - |x|^2)(1 - |a|^2), a sum of
    non-negative terms for x in the ball.  A row has the bits of its
    one-row call.
    """
    a = np.ascontiguousarray(coords_of(a))
    points = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=complex)))
    av = a.view(np.float64)
    a2 = np.sum(av * av)
    if not (np.all(np.isfinite(av)) and a2 < 1.0):
        raise ValueError(f"a must be a finite point of the open unit ball, got {a}")
    if points.shape[1] != a.size:
        raise ValueError(f"a has dimension {a.size} and the points {points.shape[1]}")
    x = points.view(np.float64)
    d = x - av
    d2 = np.sum(d * d, axis=1)[:, None]
    den = d2 + (1.0 - np.sum(x * x, axis=1)[:, None]) * (1.0 - a2)
    return (((1.0 - a2) * d - d2 * av) / den).view(complex)
