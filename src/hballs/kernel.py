"""The hyperbolic Poisson kernel of the unit ball of C^n in closed form.

On the unit ball of C^n the hyperbolic Poisson kernel is

    P_h(z, zeta) = ((1 - |z|^2) / |z - zeta|^2)^(2n-1),

strictly positive, equal to 1 at z = 0, and annihilated in z by the
hyperbolic Laplace-Beltrami operator for every boundary zeta.  Its
Wirtinger derivatives have the closed form

    dP_h/dz_k = -(2n-1) (1-|z|^2)^(2n-2)
                [ conj(z_k) |zeta-z|^2 + (1-|z|^2)(conj(z_k)-conj(zeta_k)) ]
                / |z - zeta|^(4n),

with dP_h/dzbar_k its complex conjugate (P_h is real-valued).

For |zeta| = 1 the value fixes the gradient's norm, the identity behind
the extension's gradient errors: sum_k |dP_h/dz_k|^2 = ((2n-1) P_h / (1-|z|^2))^2,
since d log P_h / dz_k = -(2n-1) conj(a_k + b_k), a = z / (1-|z|^2) and
b = (z - zeta) / |z - zeta|^2, and 2 Re<z, z - zeta> = |z|^2 - 1 + |z - zeta|^2
makes |a + b|^2 = 1 / (1-|z|^2)^2.

Powers are evaluated through exp((2n-1) * log(...)) so that large
exponents stay stable as |z| approaches 1.  These per-point forms are the
tests' accuracy reference and are no longer evaluated in tiles: the engine
of ``extension`` recasts the same formulas as BLAS products.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NearSingularEvaluation
from .geometry import coords_of

__all__ = [
    "poisson_h_values",
    "poisson_h_wirtinger_values",
]

_SINGULAR_FLOOR = 1e-300


def _check_distances(d2: np.ndarray, z, nodes):
    small = d2 < _SINGULAR_FLOOR
    if np.any(small):
        idx = int(np.argmax(small))
        raise NearSingularEvaluation(
            "kernel evaluation point collides with a boundary node",
            point=np.array(z), node=np.array(nodes)[idx],
        )


def poisson_h_values(z, nodes: np.ndarray) -> np.ndarray:
    """P_h(z, .) over an (N, n) array of sphere nodes."""
    zc = coords_of(z)
    n = zc.size
    num = 1.0 - float(np.sum(np.abs(zc) ** 2))
    d2 = np.sum(np.abs(np.atleast_2d(nodes) - zc) ** 2, axis=1)
    _check_distances(d2, zc, nodes)
    return np.exp((2 * n - 1) * (np.log(num) - np.log(d2)))


def poisson_h_wirtinger_values(z, nodes: np.ndarray) -> np.ndarray:
    """(N, n) array of dP_h/dz_k over sphere nodes; conjugate for dzbar."""
    zc = coords_of(z)
    n = zc.size
    nodes = np.atleast_2d(nodes)
    num = 1.0 - float(np.sum(np.abs(zc) ** 2))
    diff = nodes - zc
    d2 = np.sum(np.abs(diff) ** 2, axis=1)
    _check_distances(d2, zc, nodes)
    # -(2n-1) (1-|z|^2)^(2n-2) / |z-zeta|^(4n), stable in log space
    pref = -(2 * n - 1) * np.exp((2 * n - 2) * math.log(num) - 2 * n * np.log(d2))
    bracket = np.conj(zc)[None, :] * d2[:, None] + num * (np.conj(zc)[None, :] - np.conj(nodes))
    return pref[:, None] * bracket
