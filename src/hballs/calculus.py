"""Wirtinger calculus: one derivative type and its finite-difference engine.

Derivatives are ``WirtingerData``: the matrices f_z and f_zbar of a map
f = (f_1, ..., f_k), per coordinate z_k = x_k + i y_k related to the real
partials of f_j = u_j + i v_j by

    f_{z_k}    = (u_{x_k} + v_{y_k} + i (v_{x_k} - u_{y_k})) / 2
    f_{zbar_k} = (u_{x_k} - v_{y_k} + i (v_{x_k} + u_{y_k})) / 2.

Where a check needs a number of the real Jacobian, it is derived from that
data as a plain array, rows (u_1, v_1, ..., u_k, v_k) by columns
(x_1, y_1, ..., x_n, y_n), the wire order used everywhere in the package.
The distortion numbers are its extreme singular values:

    Lambda_f = max |J theta| = max over complex unit theta of |f_z theta + f_zbar conj(theta)|
    lambda_f = min |J theta|,

the two maxima ranging over the same set because a complex unit vector and
its real coordinates have equal length.  lambda_f is J's smallest singular
value when k >= n, and 0 when k < n, where J has a kernel.

Derivative data comes in batches, (P, k, n) Wirtinger stacks and
(P, 2k, 2n) Jacobian arrays; norms and singular values take a batch in one
numpy call, each row with the bits of its point taken alone.

Numerical derivatives come from one finite-difference engine: central
differences at steps h and h/2 along each real coordinate (x_1, y_1, ...,
x_n, y_n for a complex batch), one Richardson level (4 D(h/2) - D(h)) / 3,
one guard refusing a stencil that reaches the unit sphere, and one
evaluator call per batch.  Its step policies sit side by side below:
Wirtinger data (Bloch functionals; thm24 and lemma22 on
closed forms, while extensions differentiate their kernel sums), the
Delta_h residual of ``extension`` (guarded at its reach 2h) and the
lemma21 gradient on a ball of radius r in R^m, any m >= 2.  Each factor is
a module constant; those of h = factor (1 - |z|) are below 1/2, so the
guard refuses only points on or outside the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult, StepTooLarge

__all__ = [
    "WirtingerData",
    "real_jacobian_from_wirtinger",
    "wirtinger_fd_many",
    "fd_partials",
    "operator_norm",
    "lambda_bounds_wirtinger",
]

JACOBIAN_STEP_FACTOR = 1e-4  # Wirtinger data: h = factor * (1 - |z|)
LB_STEP_FACTOR = 1e-3        # Delta_h residual: h = factor * (1 - |z|)
GRADIENT_STEP_FACTOR = 1e-5  # lemma21 gradient on a ball of radius r: h = factor * r


@dataclass(frozen=True)
class WirtingerData:
    """Wirtinger derivative matrices at one point or at a batch of points.

    ``fz`` holds the rows (df_j/dz_1, ..., df_j/dz_n) and ``fzbar`` the rows
    (df_j/dzbar_1, ...), each (k, n) at one point and (P, k, n) for a batch
    of P; a scalar function is the k = 1 case.  Indexing indexes both arrays:
    ``data[p]`` is the data at point p, ``data[:, cols]`` the components
    ``cols`` at every point.  A batch is validated once, as a whole.
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

    def __getitem__(self, index) -> "WirtingerData":
        return WirtingerData(self.fz[index], self.fzbar[index])

    @property
    def out_dim(self) -> int:
        return self.fz.shape[-2]

    @property
    def dim(self) -> int:
        return self.fz.shape[-1]

    def gradient_norms(self):
        """(|grad f|, |grad fbar|) for the scalar case (k = 1), per point of a batch."""
        if self.out_dim != 1:
            raise ValueError("gradient norms are the scalar-function notion")
        return _row_norms(self.fz[..., 0, :]), _row_norms(self.fzbar[..., 0, :])


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Norms along the last axis, each summed as ``np.linalg.norm`` sums a lone
    vector (real dot real + imag dot imag), so a row has the bits of its own norm."""
    return np.sqrt(sum(p[..., None, :] @ p[..., :, None] for p in (x.real, x.imag))[..., 0, 0])


def real_jacobian_from_wirtinger(data: WirtingerData) -> np.ndarray:
    """Real Jacobians (..., 2k, 2n) of Wirtinger data (f_z, f_zbar), one or a batch."""
    a, b = data.fz, data.fzbar
    J = np.empty(a.shape[:-2] + (2 * a.shape[-2], 2 * a.shape[-1]))
    J[..., 0::2, 0::2] = (a + b).real        # du/dx
    J[..., 0::2, 1::2] = (b - a).imag        # du/dy
    J[..., 1::2, 0::2] = (a + b).imag        # dv/dx
    J[..., 1::2, 1::2] = (a - b).real        # dv/dy
    return J


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


def wirtinger_fd_many(f, points: np.ndarray):
    """Wirtinger derivatives at every row of ``points``, one evaluator call.

    ``f`` maps a (P, n) batch to (P,) or (P, k) complex values.  Returns one
    WirtingerData batch, (P, k, n); ``real_jacobian_from_wirtinger`` gives the
    real Jacobians.  Steps follow the per-point policy step =
    JACOBIAN_STEP_FACTOR * (1 - |z|), so row i has the bits of the one-row
    call at z_i.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    steps = _steps(points, JACOBIAN_STEP_FACTOR)
    _check_stencil_reach(points, steps)
    partials = fd_partials(f, points, steps)                # (P, 2n, k): d/dx_1, d/dy_1, ...
    u = np.ascontiguousarray(partials.real.transpose(0, 2, 1))   # (P, k, 2n)
    v = np.ascontiguousarray(partials.imag.transpose(0, 2, 1))
    ux, uy, vx, vy = u[..., 0::2], u[..., 1::2], v[..., 0::2], v[..., 1::2]
    return WirtingerData(0.5 * (ux + vy + 1j * (vx - uy)), 0.5 * (ux - vy + 1j * (vx + uy)))


def operator_norm(matrix):
    """Largest singular value of a matrix, or of each of a stack: max |A theta|, |theta| = 1."""
    m = np.atleast_2d(np.asarray(matrix))
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def lambda_bounds_wirtinger(data: WirtingerData):
    """(Lambda, lambda) of theta -> f_z theta + f_zbar conj(theta), per point
    of a batch; lambda is 0 when k < n."""
    s = np.linalg.svd(real_jacobian_from_wirtinger(data), compute_uv=False)
    return s[..., 0], s[..., -1] if data.out_dim >= data.dim else np.zeros_like(s[..., 0])
