"""Points of the unit ball of C^n and its Mobius geometry.

The unit ball B^n = {z in C^n : |z| < 1} carries the automorphisms

    phi_a(z) = (a - P_a z - sqrt(1 - |a|^2) (z - P_a z)) / (1 - <z, a>),

where P_a z = a <z, a> / <a, a> is the projection of z onto the complex
line through a, and <., .> is the Hermitian inner product.  phi_a swaps
a and 0 and satisfies the identity

    1 - |phi_a(z)|^2 = (1 - |z|^2)(1 - |a|^2) / |1 - <z, a>|^2.

P_a is undefined at a = 0; we take the convention phi_0(z) = -z, the
limit consistent with phi_a(0) = a and the identity above.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, UndefinedProjection

__all__ = [
    "BallPoint",
    "hermitian_inner",
    "projection_onto",
    "mobius",
    "mobius_identity_residual",
]


def coords_of(p) -> np.ndarray:
    """Coordinate array of a point wrapper or any complex sequence."""
    if isinstance(p, BallPoint):
        return p.coords
    return np.atleast_1d(np.asarray(p, dtype=complex))


class BallPoint:
    """A point z in the open unit ball of C^n, immutable after construction."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.array(coords, dtype=complex).reshape(-1)
        if c.size < 1:
            raise ValueError("a ball point needs at least one coordinate")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("ball point coordinates must be finite")
        if np.linalg.norm(c) >= 1.0:
            raise ValueError(f"|z| = {np.linalg.norm(c):.6g} is not < 1")
        c.flags.writeable = False
        self.coords = c

    @property
    def dim(self) -> int:
        return self.coords.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __repr__(self):
        return f"BallPoint({list(self.coords)})"


def hermitian_inner(z, w) -> complex:
    """Hermitian product <z, w> = sum_k z_k conj(w_k)."""
    zc, wc = coords_of(z), coords_of(w)
    if zc.shape != wc.shape:
        raise DimensionMismatch(f"dimensions {zc.size} and {wc.size} differ")
    return complex(np.sum(zc * np.conj(wc)))


def projection_onto(a, z) -> np.ndarray:
    """Orthogonal projection P_a z of z onto the complex line through a != 0."""
    ac, zc = coords_of(a), coords_of(z)
    if ac.shape != zc.shape:
        raise DimensionMismatch(f"dimensions {ac.size} and {zc.size} differ")
    na2 = np.sum(np.abs(ac) ** 2)
    if na2 == 0.0:
        raise UndefinedProjection("projection onto the line through 0 is undefined")
    return ac * (np.sum(zc * np.conj(ac)) / na2)


def mobius(a, z) -> BallPoint:
    """Mobius automorphism phi_a(z); phi_a(a) = 0 and phi_a(0) = a.

    phi_0(z) = -z by convention (see module docstring).
    """
    ac, zc = coords_of(a), coords_of(z)
    if ac.shape != zc.shape:
        raise DimensionMismatch(f"dimensions {ac.size} and {zc.size} differ")
    na2 = float(np.sum(np.abs(ac) ** 2))
    if na2 == 0.0:
        return BallPoint(-zc)
    ip = hermitian_inner(zc, ac)
    pa = projection_onto(ac, zc)
    num = ac - pa - math.sqrt(1.0 - na2) * (zc - pa)
    return BallPoint(num / (1.0 - ip))


def mobius_identity_residual(a, z) -> float:
    """| (1 - |phi_a(z)|^2) - (1-|z|^2)(1-|a|^2)/|1-<z,a>|^2 |, a self-test."""
    ac, zc = coords_of(a), coords_of(z)
    phi = mobius(ac, zc).coords
    lhs = 1.0 - float(np.sum(np.abs(phi) ** 2))
    na2 = float(np.sum(np.abs(ac) ** 2))
    nz2 = float(np.sum(np.abs(zc) ** 2))
    rhs = (1.0 - nz2) * (1.0 - na2) / abs(1.0 - hermitian_inner(zc, ac)) ** 2
    return abs(lhs - rhs)
