"""Wirtinger calculus and real-Jacobian machinery.

Conversions between the real partials of f = u + iv and its Wirtinger
derivatives, per coordinate z_k = x_k + i y_k:

    f_{z_k}    = (u_{x_k} + v_{y_k} + i (v_{x_k} - u_{y_k})) / 2
    f_{zbar_k} = (u_{x_k} - v_{y_k} + i (v_{x_k} + u_{y_k})) / 2

The real Jacobian of a map f = (f_1, ..., f_k) uses the fixed coordinate
order rows (u_1, v_1, ..., u_k, v_k) by columns (x_1, y_1, ..., x_n, y_n);
this is the wire order used everywhere in the package.  The distortion
numbers are the extreme singular values of that matrix:

    Lambda_f = max |J theta| = max over complex unit theta of |f_z theta + f_zbar conj(theta)|
    lambda_f = min |J theta|,

the two maxima ranging over the same set because a complex unit vector and
its real coordinates have equal length.

Numerical derivatives come from one finite-difference engine: central
differences at steps h and h/2 along each real coordinate (x_1, y_1, ...,
x_n, y_n for a complex batch), one Richardson level (4 D(h/2) - D(h)) / 3,
one guard refusing a stencil that reaches the unit sphere, and one
evaluator call per batch.  Its step policies sit side by side below:
Jacobians and Wirtinger data (Bloch functionals, thm24, lemma22), the
Delta_h residual of ``extension`` (guarded at its reach 2h) and the
lemma21 gradient on a ball of radius r in R^m, any m >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, StepTooLarge
from .geometry import coords_of

__all__ = [
    "WirtingerData",
    "RealJacobian",
    "wirtinger_from_real",
    "wirtinger_from_jacobian",
    "real_jacobian_from_wirtinger",
    "jacobian_real",
    "wirtinger_fd",
    "wirtinger_fd_many",
    "fd_partials",
    "operator_norm",
    "lambda_bounds",
    "lambda_bounds_wirtinger",
]

JACOBIAN_STEP_FACTOR = 1e-4  # Jacobians and Wirtinger data: h = factor * (1 - |z|)
LB_STEP_FACTOR = 1e-3        # Delta_h residual: h = factor * (1 - |z|)
GRADIENT_STEP_FACTOR = 1e-5  # lemma21 gradient on a ball of radius r: h = factor * r


@dataclass(frozen=True)
class WirtingerData:
    """Wirtinger derivative matrices at a point.

    ``fz`` holds the rows (df_j/dz_1, ..., df_j/dz_n) and ``fzbar`` the rows
    (df_j/dzbar_1, ...); a scalar function is the k = 1 case.
    """

    fz: np.ndarray
    fzbar: np.ndarray

    def __post_init__(self):
        fz = np.atleast_2d(np.asarray(self.fz, dtype=complex))
        fzbar = np.atleast_2d(np.asarray(self.fzbar, dtype=complex))
        if fz.shape != fzbar.shape:
            raise ValueError("fz and fzbar shapes differ")
        if not (np.all(np.isfinite(fz.view(float))) and np.all(np.isfinite(fzbar.view(float)))):
            raise NonFiniteResult("Wirtinger data must be finite")
        object.__setattr__(self, "fz", fz)
        object.__setattr__(self, "fzbar", fzbar)

    @property
    def out_dim(self) -> int:
        return self.fz.shape[0]

    @property
    def dim(self) -> int:
        return self.fz.shape[1]

    def gradient_norms(self):
        """(|grad f|, |grad fbar|) for the scalar case (k = 1)."""
        if self.out_dim != 1:
            raise ValueError("gradient norms are the scalar-function notion")
        return float(np.linalg.norm(self.fz[0])), float(np.linalg.norm(self.fzbar[0]))


@dataclass(frozen=True)
class RealJacobian:
    """Real Jacobian in the order rows (u_1, v_1, ...) x cols (x_1, y_1, ...)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
            raise ValueError("real Jacobian must have even-by-even shape")
        if not np.all(np.isfinite(m)):
            raise NonFiniteResult("real Jacobian must be finite")
        object.__setattr__(self, "matrix", m)

    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


def wirtinger_from_real(ux, uy, vx, vy):
    """(f_{z_k}, f_{zbar_k}) from the four real partials at one coordinate."""
    fz = 0.5 * (np.asarray(ux) + np.asarray(vy) + 1j * (np.asarray(vx) - np.asarray(uy)))
    fzbar = 0.5 * (np.asarray(ux) - np.asarray(vy) + 1j * (np.asarray(vx) + np.asarray(uy)))
    if np.ndim(fz) == 0:
        return complex(fz), complex(fzbar)
    return fz, fzbar


def wirtinger_from_jacobian(jac: RealJacobian) -> WirtingerData:
    """Convert a real Jacobian to the Wirtinger matrices (f_z, f_zbar)."""
    return WirtingerData(*_wirtinger_from_matrices(jac.matrix))


def _wirtinger_from_matrices(J: np.ndarray):
    """(f_z, f_zbar), each (..., k, n), from real Jacobians (..., 2k, 2n)."""
    return wirtinger_from_real(J[..., 0::2, 0::2], J[..., 0::2, 1::2],
                               J[..., 1::2, 0::2], J[..., 1::2, 1::2])


def real_jacobian_from_wirtinger(data: WirtingerData) -> RealJacobian:
    """Inverse conversion: real Jacobian from (f_z, f_zbar)."""
    a, b = data.fz, data.fzbar
    k, n = a.shape
    J = np.empty((2 * k, 2 * n))
    J[0::2, 0::2] = (a + b).real        # du/dx
    J[0::2, 1::2] = (b - a).imag        # du/dy
    J[1::2, 0::2] = (a + b).imag        # dv/dx
    J[1::2, 1::2] = (a - b).real        # dv/dy
    return RealJacobian(J)


_STENCIL_MOVES = np.array([1.0, -1.0, 0.5, -0.5])   # h, -h, h/2, -h/2


def _stencils(points: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Central-difference stencils (P, 4m, d) of a (P, d) batch: row p moved
    by h, -h, h/2, -h/2 (h = steps[p]) along each of its m real coordinates,
    the float view x_1, y_1, ..., x_n, y_n of a complex batch."""
    xy = np.ascontiguousarray(points).view(np.float64)
    count, m = xy.shape
    moves = steps[:, None] * _STENCIL_MOVES                 # (P, 4)
    offsets = np.zeros((count, 4 * m, m))
    for i in range(m):
        offsets[:, 4 * i:4 * i + 4, i] = moves
    return (xy[:, None, :] + offsets).view(points.dtype)


def _richardson(v: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Partials (4 D(h/2) - D(h)) / 3, (P, m, k), from ``_stencils`` values (P, m, 4, k)."""
    h = steps[:, None, None]
    d_h = (v[:, :, 0] - v[:, :, 1]) / (2.0 * h)
    d_h2 = (v[:, :, 2] - v[:, :, 3]) / h
    return (4.0 * d_h2 - d_h) / 3.0


def fd_partials(f, points: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """First partials (P, m, k) of f along the m real coordinates of a
    (P, d) batch, one evaluator call; values are cast to the batch's dtype,
    so a real function on R^m takes a real batch."""
    stencil = _stencils(points, steps)
    values = np.asarray(f(stencil.reshape(-1, points.shape[1])), dtype=points.dtype)
    return _richardson(values.reshape(len(points), stencil.shape[1] // 4, 4, -1), steps)


def _steps(points: np.ndarray, factor: float) -> np.ndarray:
    """The step policy h = factor * (1 - |z|) of each row of a (P, n) batch."""
    return factor * (1.0 - np.linalg.norm(points, axis=1))


def _check_stencil_reach(points: np.ndarray, reach: np.ndarray) -> None:
    """Refuse a stencil that reaches the sphere: |z| + reach >= 1 at a row."""
    norms = np.linalg.norm(points, axis=1)
    outside = norms + reach >= 1.0
    if np.any(outside):
        i = int(np.argmax(outside))
        raise StepTooLarge(f"stencil reach {reach[i]:g} leaves the ball at |z| = {norms[i]:.4g}")


def _fd_jacobians(f, points: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Real Jacobians (P, 2k, 2n) of f at a (P, n) batch, one evaluator call."""
    _check_stencil_reach(points, steps)
    partials = fd_partials(f, points, steps)                # (P, 2n, k)
    J = np.empty((len(points), 2 * partials.shape[2], partials.shape[1]))
    J[:, 0::2, :] = partials.real.transpose(0, 2, 1)
    J[:, 1::2, :] = partials.imag.transpose(0, 2, 1)
    if not np.all(np.isfinite(J)):
        raise NonFiniteResult("real Jacobian must be finite")
    return J


def jacobian_real(f, z, step: float = None) -> RealJacobian:
    """Central-difference real Jacobian of f at z (with Richardson step pair).

    ``f`` maps a (P, n) batch to (P,) or (P, k) complex values.
    """
    zc = coords_of(z)[None, :]
    steps = _steps(zc, JACOBIAN_STEP_FACTOR) if step is None else np.array([step], dtype=float)
    return RealJacobian(_fd_jacobians(f, zc, steps)[0])


def wirtinger_fd(f, z, step: float = None) -> WirtingerData:
    """Finite-difference Wirtinger derivatives of f at z."""
    return wirtinger_from_jacobian(jacobian_real(f, z, step))


def wirtinger_fd_many(f, points: np.ndarray, step_factor: float = JACOBIAN_STEP_FACTOR):
    """Wirtinger derivatives at every row of ``points``, one evaluator call.

    Returns a list of WirtingerData.  Steps follow the per-point policy
    step = step_factor * (1 - |z|); row i equals ``wirtinger_fd(f, z_i, step_i)``,
    and ``wirtinger_fd(f, z_i)`` at the default factor.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    J = _fd_jacobians(f, points, _steps(points, step_factor))
    return [WirtingerData(fz, fzbar) for fz, fzbar in zip(*_wirtinger_from_matrices(J))]


def operator_norm(matrix) -> float:
    """Largest singular value; equals the max of |A theta| over unit theta."""
    m = np.atleast_2d(np.asarray(matrix))
    return float(np.linalg.svd(m, compute_uv=False)[0])


def lambda_bounds(jac: RealJacobian):
    """(Lambda, lambda): extreme singular values of the real Jacobian."""
    s = np.linalg.svd(jac.matrix, compute_uv=False)
    return float(s[0]), float(s[-1])


def lambda_bounds_wirtinger(data: WirtingerData):
    """(Lambda, lambda) of the real-linear map theta -> f_z theta + f_zbar conj(theta)."""
    return lambda_bounds(real_jacobian_from_wirtinger(data))
