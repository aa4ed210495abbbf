"""Dirichlet solver: hyperbolic-harmonic extension of boundary data.

Continuous data psi on the unit sphere extends into the ball through the
Poisson integral

    f(z) = integral of P_h(z, zeta) psi(zeta) dsigma(zeta),

the unique solution of  Delta_h f = 0,  f = psi on the boundary,  where

    Delta_h = (1-|z|^2)^2 * (Euclidean Laplacian)
              + 4(n-1)(1-|z|^2) * sum_k (x_k d/dx_k + y_k d/dy_k).

Once a quadrature rule is fixed the discretized integral is a finite sum
of kernel sections P_h(., zeta_i), each annihilated by Delta_h, so the
discretized extension is itself exactly hyperbolic-harmonic on the open
ball; only its boundary values and sup bound carry quadrature error.
Evaluation is batched: one call against the rule covers a whole stencil or
pair sweep.  Both engines, values and gradients, share one tile walk and
kernel setup: point blocks against the rule's node chunks, each point
reducing over the chunks in index order, so a result does not depend on its
batch.  Every temporary of a tile lives in a buffer made once per call.

Both engines cast a tile as BLAS products (the GEMM form):
|z - zeta|^2 = |z|^2 + |zeta|^2 - 2 Re<z, zeta> is one product of the
points' augmented rows (-2x_1, -2y_1, ..., |z|^2, 1) with the nodes'
augmented columns (x_1, y_1, ..., 1, |zeta|^2), and each output column's
node sums are products of kernel tiles with node operands: kern @ (psi_j w)
for values, with kern^2 @ (|psi_j|^2 w) for their second moments, and for
gradients the kernel's closed-form Wirtinger derivatives split into two
tiles R and Q, so that the column adds R @ (psi_j w) and
Q @ (psi_j w conj(zeta), psi_j w zeta) (see ``HExtension.wirtinger_many``).
OpenBLAS (0.3.31, SkylakeX kernels) gives a row of a product bits that
depend on the product's shape: on its row count M and column count N, and,
with the node operand stored column-major, on the row's place in the block
(rows 60-63 of a 64-row block differed at chunk widths not a multiple of 8).
So the node operands are stored row-major, and every product has the same
shape for every point: the batch is padded with the origin to whole
``_POINT_BLOCK`` blocks, and each output column gets its own products
rather than one product over all columns.  A row's value then depends
neither on its batch nor on the BLAS thread count (1 and 4 threads are
tested), though it does depend on the block size.  The columns of
C^k-valued data share each tile's kernel values, and a column's arithmetic
does not depend on k, so stacking scalar data into one vector extension
gives every component the bits of its own extension at about the cost of
one kernel pass.  Standard errors are kept per column as well: the error
of any set of columns sums their variances in column order, so it has the
bits of the error of an extension holding only those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import (
    LB_STEP_FACTOR,
    WirtingerData,
    _check_stencil_reach,
    _richardson,
    _stencils,
    _steps,
)
from .errors import NearSingularEvaluation
from .geometry import coords_of
# not called here: bench/tracing.py patches this module-level name
from .kernel import poisson_h_wirtinger_values  # noqa: F401
from .quadrature import CHUNK, QuadratureRule

__all__ = [
    "BoundaryFunction",
    "HExtension",
    "h_extend",
    "laplace_beltrami_residual",
    "boundary_registry",
    "vector_boundary",
]

DEFAULT_GUARD_RADIUS = 0.8
SPOT_CHECK_NODES = 4096     # rule nodes a declared sup bound is checked on
SPOT_CHECK_SLACK = 1e-9     # how far those nodes may exceed the bound
# Every product of both engines has _POINT_BLOCK rows; a 64-point block
# makes 512 KB (block x 1024) tiles, two of them (three for gradients) reused
# for every tile.  On a 2-vCPU Xeon with a 2 MB L2 per core and one BLAS
# thread, the stacked four-column n = 2 extension took 53-62 ms for 5760
# points against 1500 nodes in blocks of 32, 64 or 128 (500-520 ms in the
# elementwise form it replaced) and 4.0-5.3 s for 4000 points against 200k
# nodes (32 s before); a one-point call, padded to a whole block, took 36 ms
# against 200k nodes (24 ms before).
_POINT_BLOCK = 64
# Squared distances below this refuse a tile.  The product form
# |z|^2 + |zeta|^2 - 2 Re<z, zeta> rounds a true 0 to about +-1e-16.
_GEMM_FLOOR = 1e-12


def _int_power(x: np.ndarray, k: int, out: np.ndarray = None,
               scratch: np.ndarray = None) -> np.ndarray:
    """x**k by binary powering (k >= 1); exact and cheap for small k.

    ``out`` and ``scratch`` (given together, shaped like x; x may be ``out``)
    take the result and the running square instead of new arrays, with the
    same multiplications.  For k = 1 the result is x itself.
    """
    result = None
    base = x
    while k:
        if k & 1:
            if result is None:
                result = base
                if base is scratch:     # the running square is overwritten below
                    result = out
                    np.copyto(out, base)
            else:
                result = np.multiply(result, base, out=out)
        k >>= 1
        if k:
            base = np.multiply(base, base, out=scratch)
    return result


@dataclass(frozen=True)
class BoundaryFunction:
    """Boundary data psi on the unit sphere of C^n.

    ``values`` maps an (N, n) node array to (N,) scalar or (N, k) vector
    samples.  ``sup_bound`` is a declared bound on |psi| when one is known;
    it is spot-checked at registration.  ``exact_extension``, when present,
    evaluates the known closed-form extension (used as a test oracle).
    """

    label: str
    dim: int
    values: Callable[[np.ndarray], np.ndarray]
    sup_bound: Optional[float] = None
    out_dim: int = 1
    exact_extension: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def spot_check(self, nodes: np.ndarray) -> None:
        if self.sup_bound is None:
            return
        mags = np.abs(np.asarray(self.values(nodes)))
        worst = float(mags.max())
        if worst > self.sup_bound + SPOT_CHECK_SLACK:
            raise ValueError(
                f"boundary data {self.label!r} exceeds its declared bound: "
                f"{worst:.6g} > {self.sup_bound:.6g}"
            )


class HExtension:
    """Poisson-integral extension of boundary data under a fixed rule.

    Callable on a single point or an (P, n) batch; evaluation is refused
    beyond the guard radius, where the kernel mass concentrates and the
    rule's error is no longer meaningful.  Boundary data that is NaN or
    infinite on any rule node is refused at construction.
    """

    def __init__(self, boundary: BoundaryFunction, rule: QuadratureRule,
                 guard_radius: float = DEFAULT_GUARD_RADIUS):
        if rule.dim != boundary.dim:
            raise ValueError("rule and boundary data dimensions differ")
        self.boundary = boundary
        self.rule = rule
        self.guard_radius = float(guard_radius)
        psi = np.asarray(boundary.values(rule.nodes))
        if not np.isfinite(psi).all():
            raise ValueError(f"boundary data {boundary.label!r} is not finite on the rule's nodes")
        # (k, N): one contiguous row of node data per output component
        self._psi_cols = np.ascontiguousarray(psi.reshape(len(rule), -1).T)
        # the (N,) or (N, k) node data, as a view of those rows
        self._psi_nodes = self._psi_cols[0] if psi.ndim == 1 else self._psi_cols.T
        # (2n + 2, N) columns (x_1, y_1, ..., x_n, y_n, 1, |zeta|^2) of the nodes,
        # stored row-major (see the module docstring); a point row
        # (-2x_1, -2y_1, ..., -2y_n, |z|^2, 1) times one is |z - zeta|^2
        xy = np.ascontiguousarray(rule.nodes, dtype=complex).view(np.float64)
        self._node_aug = np.column_stack([xy, np.ones(len(xy)), np.sum(xy * xy, axis=1)]).T.copy()

    @property
    def dim(self) -> int:
        return self.boundary.dim

    def _guarded_rows(self, points) -> np.ndarray:
        """The batch as contiguous (P, n) rows, each finite and within the
        guard radius."""
        pts = np.atleast_2d(np.ascontiguousarray(points, dtype=complex))
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            idx = int(np.argmin(finite))
            raise ValueError(f"evaluation point {idx} is not finite: {pts[idx]}")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms > self.guard_radius):
            idx = int(np.argmax(norms))
            raise NearSingularEvaluation(
                f"|z| = {norms[idx]:.4g} exceeds the guard radius {self.guard_radius}",
                point=pts[idx],
            )
        return pts

    def _kernel_tiles(self, pts: np.ndarray, keep_distances: bool):
        """The tile walk and kernel setup both engines share.

        Per ``_POINT_BLOCK``-row block of ``pts`` (the last padded with the
        origin) and per node chunk in index order, yields (rows, chunk, kern,
        d2, spare): the block's live rows of ``pts`` and three contiguous
        (block, chunk) views of buffers made once per call.  ``kern`` holds
        P_h on the live rows (finite values, never read back, on the others),
        ``d2`` the squared distances if ``keep_distances`` (else it is
        ``kern``), and ``spare`` nothing the caller needs.  A point within
        squared distance ``_GEMM_FLOOR`` of a node is refused.  Inside the
        guard radius the kernel ratio stays in a safe range, so the power is an
        exact multiply chain, not the exp/log form of the kernel module.
        """
        count, n = len(pts), self.dim
        expo = 2 * n - 1
        sq_norm = np.sum(pts.real ** 2 + pts.imag ** 2, axis=1)
        num_pow = _int_power(1.0 - sq_norm, expo)
        # rows (-2x_1, -2y_1, ..., -2y_n, |z|^2, 1); padding rows are the origin
        aug = np.zeros((-(-count // _POINT_BLOCK) * _POINT_BLOCK, 2 * n + 2))
        np.multiply(-2.0, pts.view(np.float64), out=aug[:count, :2 * n])
        aug[:count, 2 * n] = sq_norm
        aug[:, 2 * n + 1] = 1.0
        size = _POINT_BLOCK * min(CHUNK, len(self.rule))
        d2_flat, spare_flat = np.zeros(size), np.zeros(size)
        kern_flat = np.zeros(size) if keep_distances else d2_flat
        for start in range(0, len(aug), _POINT_BLOCK):
            rows = slice(start, min(start + _POINT_BLOCK, count))
            live = rows.stop - start
            for chunk in self.rule.chunks():
                d2, kern, spare = (flat[:_POINT_BLOCK * (chunk.stop - chunk.start)].reshape(
                    _POINT_BLOCK, -1) for flat in (d2_flat, kern_flat, spare_flat))
                np.matmul(aug[start:start + _POINT_BLOCK], self._node_aug[:, chunk], out=d2)
                if d2[:live].min() < _GEMM_FLOOR:
                    i, j = np.unravel_index(int(np.argmin(d2[:live])), (live, d2.shape[1]))
                    raise NearSingularEvaluation(
                        "evaluation point collides with a quadrature node",
                        point=pts[rows][i], node=self.rule.nodes[chunk][j])
                # num^(2n-1) / d2^(2n-1) on the live rows
                power = _int_power(d2[:live], expo, out=kern[:live], scratch=spare[:live])
                np.divide(num_pow[rows, None], power, out=kern[:live])
                yield rows, chunk, kern, d2, spare

    def _abs2_weights(self, chunk: slice, out: np.ndarray) -> np.ndarray:
        """|psi_j|^2 w over a node chunk, one row per output column, in ``out``."""
        psi = self._psi_cols[:, chunk]
        np.add(np.square(psi.real, out=out), np.square(psi.imag), out=out)
        return np.multiply(out, self.rule.weights[chunk], out=out)

    def __call__(self, points) -> np.ndarray:
        return self._moments(points, want_errors=False)[0]

    def _moments(self, points, want_errors: bool):
        """First (and optionally second) moments of the kernel-weighted data,
        in the GEMM form of the module docstring: per tile and output column,
        kern @ (psi_j w), and kern^2 @ (|psi_j|^2 w) for the second moments."""
        pts = self._guarded_rows(points)
        count = len(pts)
        psi = self._psi_cols
        k_out = len(psi)
        w = self.rule.weights
        first = np.zeros((count, k_out), dtype=complex)
        second = np.zeros((count, k_out)) if want_errors else None
        width_max = min(CHUNK, len(w))
        psi_w_buf, abs2_w_buf = np.empty((k_out, width_max), dtype=complex), np.empty((k_out, width_max))
        sums, sums_sq = np.empty((_POINT_BLOCK, 2)), np.empty(_POINT_BLOCK)
        for rows, csl, kern, _, kern_sq in self._kernel_tiles(pts, keep_distances=False):
            width = csl.stop - csl.start
            live = rows.stop - rows.start
            if want_errors:
                np.multiply(kern[:live], kern[:live], out=kern_sq[:live])
                abs2_w = self._abs2_weights(csl, abs2_w_buf[:, :width])
            psi_w = np.multiply(psi[:, csl], w[csl], out=psi_w_buf[:, :width])
            for j in range(k_out):
                np.matmul(kern, psi_w[j].view(np.float64).reshape(width, 2), out=sums)
                first[rows, j] += sums[:live].view(complex)[:, 0]
                if want_errors:
                    np.matmul(kern_sq, abs2_w[j], out=sums_sq)
                    second[rows, j] += sums_sq[:live]
        values = first[:, 0] if self._psi_nodes.ndim == 1 else first
        return values, second

    def _standard_errors(self, variances: np.ndarray, columns):
        """Per-point standard errors from per-column variances (P, k).

        A set of columns gets the root of its variances summed in column
        order over the node count: the root-sum-square of its componentwise
        Monte Carlo standard errors.  ``columns`` is a list of column slices
        and gives one (P,) array per slice; None gives one for all columns.
        """
        errors = []
        for cols in [slice(None)] if columns is None else columns:
            total = np.zeros(len(variances))
            for j in range(variances.shape[1])[cols]:
                total += variances[:, j]
            errors.append(np.sqrt(total / len(self.rule)))
        return errors[0] if columns is None else errors

    def values_with_errors(self, points, columns=None):
        """Batched values plus per-point integrand standard errors.

        One pass over the rule.  The error of a set of output columns is the
        root-sum-square of their componentwise Monte Carlo standard errors
        (0.0 for spectral rules, which skip the second moments); see
        ``_standard_errors`` for ``columns``.
        """
        values, second = self._moments(points, want_errors=self.rule.monte_carlo)
        stacked = values if values.ndim > 1 else values[:, None]
        if second is None:
            variances = np.zeros(stacked.shape)
        else:
            variances = np.maximum(second - np.abs(stacked) ** 2, 0.0)
        return values, self._standard_errors(variances, columns)

    def wirtinger(self, z) -> WirtingerData:
        """Wirtinger derivatives by differentiation under the integral."""
        return self.wirtinger_with_error(z)[0]

    def wirtinger_with_error(self, z):
        """(WirtingerData, standard error) at one point: a one-row batch."""
        data, errors = self.wirtinger_many(coords_of(z)[None, :])
        return data[0], float(errors[0])

    def wirtinger_many(self, points, columns=None):
        """Wirtinger derivatives and their standard errors for a (P, n) batch.

        Returns one ``WirtingerData`` batch, (P, k, n) arrays whose row p has
        the bits of point p taken alone, and a (P,) array holding, per
        row, the root-sum-square of the componentwise Monte Carlo standard
        errors of the derivative integrands (0.0 for spectral rules), or one
        such array per slice in ``columns`` (see ``_standard_errors``).

        The GEMM form on the value engine's tiles: with K = P_h,
        d2 = |z - zeta|^2, Q = K / d2 and R = K / (1 - |z|^2) + Q, the closed
        form of ``kernel`` reads dP_h/dz_k = -(2n-1) [conj(z_k) R -
        Q conj(zeta_k)] and dP_h/dzbar_k = -(2n-1) [z_k R - Q zeta_k], so each
        output column j adds R @ (psi_j w) and Q @ (psi_j w conj(zeta),
        psi_j w zeta) per tile.  On Monte Carlo rules, with m_j = |psi_j|^2 w,
        sum w |psi_j dP_h/dz_k|^2 = (2n-1)^2 [|z_k|^2 (R^2 @ m_j)
        - 2 Re(conj(z_k) (RQ @ m_j zeta_k)) + Q^2 @ (m_j |zeta_k|^2)], the
        R^2, RQ and Q^2 tiles made one at a time.
        """
        pts = self._guarded_rows(points)
        count, n = len(pts), self.dim
        psi = self._psi_cols
        k_out = len(psi)
        w = self.rule.weights
        nodes = self.rule.nodes
        monte_carlo = self.rule.monte_carlo
        # 1 / (1 - |z|^2), NaN on or beyond the sphere (guard radius >= 1): such
        # a point hits a refused collision or gives data WirtingerData refuses
        num = 1.0 - np.sum(pts.real ** 2 + pts.imag ** 2, axis=1)
        inv_num = np.divide(1.0, num, out=np.full(count, np.nan), where=num > 0.0)
        # node sums per point and column: R psi w; Q psi w conj(zeta) and
        # Q psi w zeta; R^2 m; RQ m zeta; Q^2 m |zeta|^2
        r_sum, q_sum, rr_sum, rq_sum, qq_sum = (np.zeros((count, k_out) + shape, dtype) for shape, dtype
                                                in (((), complex), ((2 * n,), complex), ((), float),
                                                    ((n,), complex), ((n,), float)))
        # C-contiguous node operands, built per chunk, and product outputs
        width_max = min(CHUNK, len(w))
        psi_w_buf, m_buf = np.empty((k_out, width_max), dtype=complex), np.empty((k_out, width_max))
        zeta_buf, psi_zeta_buf = (np.empty((width_max, 2 * n), dtype=complex) for _ in range(2))
        m_zeta_buf, zeta_sq_buf, m_zeta_sq_buf = (np.empty((width_max, n), dtype=dtype)
                                                  for dtype in (complex, float, float))
        r_out, q_out = np.empty((_POINT_BLOCK, 2)), np.empty((_POINT_BLOCK, 4 * n))
        rr_out, rq_out, qq_out = (np.empty((_POINT_BLOCK,) + shape) for shape in ((), (2 * n,), (n,)))
        for rows, csl, r_tile, d2, q_tile in self._kernel_tiles(pts, keep_distances=True):
            width = csl.stop - csl.start
            live = rows.stop - rows.start
            r_live, q_live = r_tile[:live], q_tile[:live]
            np.divide(r_live, d2[:live], out=q_live)
            np.add(np.multiply(r_live, inv_num[rows, None], out=r_live), q_live, out=r_live)
            zeta = zeta_buf[:width]
            np.conj(nodes[csl], out=zeta[:, :n])
            zeta[:, n:] = nodes[csl]
            psi_w = np.multiply(psi[:, csl], w[csl], out=psi_w_buf[:, :width])
            psi_zeta = psi_zeta_buf[:width]
            for j in range(k_out):
                np.matmul(r_tile, psi_w[j].view(np.float64).reshape(width, 2), out=r_out)
                r_sum[rows, j] += r_out[:live].view(complex)[:, 0]
                np.multiply(psi_w[j, :, None], zeta, out=psi_zeta)
                np.matmul(q_tile, psi_zeta.view(np.float64), out=q_out)
                q_sum[rows, j] += q_out[:live].view(complex)
            if not monte_carlo:
                continue
            m = self._abs2_weights(csl, m_buf[:, :width])
            zeta_sq = np.square(np.abs(nodes[csl], out=zeta_sq_buf[:width]), out=zeta_sq_buf[:width])
            # the distances are spent: d2 takes the R^2, RQ and Q^2 tiles in
            # turn, against m_j, m_j zeta and m_j |zeta|^2
            for left, right, factor, operand, out, sums in (
                    (r_live, r_live, None, None, rr_out, rr_sum),
                    (r_live, q_live, nodes[csl], m_zeta_buf[:width], rq_out, rq_sum),
                    (q_live, q_live, zeta_sq, m_zeta_sq_buf[:width], qq_out, qq_sum)):
                np.multiply(left, right, out=d2[:live])
                for j in range(k_out):
                    node_op = m[j] if factor is None else np.multiply(
                        m[j, :, None], factor, out=operand).view(np.float64)
                    np.matmul(d2, node_op, out=out)
                    sums[rows, j] += out[:live].view(sums.dtype)
        expo = 2 * n - 1
        zc = np.conj(pts)[:, None, :]
        fz = -expo * (zc * r_sum[:, :, None] - q_sum[:, :, :n])
        fzbar = -expo * (pts[:, None, :] * r_sum[:, :, None] - q_sum[:, :, n:])
        if monte_carlo:
            sq_norms = (pts.real ** 2 + pts.imag ** 2)[:, None, :]
            mean_sq = expo ** 2 * (sq_norms * rr_sum[:, :, None] - 2.0 * (zc * rq_sum).real + qq_sum)
            variances = np.sum(np.maximum(mean_sq - np.abs(fz) ** 2, 0.0), axis=2)
        else:
            variances = np.zeros((count, k_out))
        return WirtingerData(fz, fzbar), self._standard_errors(variances, columns)

    def value_error(self, z) -> float:
        """Empirical standard error of the value integrand (MC rules)."""
        return float(self.values_with_errors(coords_of(z)[None, :])[1][0])


def h_extend(boundary: BoundaryFunction, rule: QuadratureRule,
             guard_radius: float = DEFAULT_GUARD_RADIUS) -> HExtension:
    """Build the Poisson-integral extension of ``boundary`` under ``rule``."""
    boundary.spot_check(rule.nodes[:SPOT_CHECK_NODES])
    return HExtension(boundary, rule, guard_radius)


def laplace_beltrami_residual(f, z, step: float = None) -> complex:
    """Delta_h f at z by central differences with one Richardson level.

    Zero (up to truncation) exactly when f is hyperbolic-harmonic near z.
    ``f`` maps a (P, n) batch of complex points to (P,) complex values.
    Step policy, stencil, drift partials and guard come from ``calculus``;
    the guard is given the reach 2h of the second differences.
    """
    zc = np.ascontiguousarray(coords_of(z))[None, :]
    n = zc.shape[1]
    steps = _steps(zc, LB_STEP_FACTOR) if step is None else np.array([step], dtype=float)
    step = float(steps[0])
    _check_stencil_reach(zc, 2.0 * steps)
    values = np.asarray(f(np.concatenate([_stencils(zc, steps)[0], zc])), dtype=complex)
    f0 = values[-1]
    v = values[:-1].reshape(1, 2 * n, 4, 1)
    lap_h = (v[0, :, 0] - 2.0 * f0 + v[0, :, 1]) / step ** 2
    lap_h2 = (v[0, :, 2] - 2.0 * f0 + v[0, :, 3]) / (step / 2.0) ** 2
    lap = np.sum((4.0 * lap_h2 - lap_h) / 3.0)
    drift = np.sum(zc.view(np.float64)[0] * _richardson(v, steps)[0, :, 0])
    r2 = float(np.linalg.norm(zc)) ** 2
    return complex((1.0 - r2) ** 2 * lap + 4.0 * (n - 1) * (1.0 - r2) * drift)


# ---------------------------------------------------------------------------
# boundary-data registry
# ---------------------------------------------------------------------------

def _constant(c: complex, n: int) -> BoundaryFunction:
    c = complex(c)
    return BoundaryFunction(
        label=f"const:{c.real:g}" if c.imag == 0 else f"const:{c:g}",
        dim=n,
        values=lambda nodes, c=c: np.full(len(np.atleast_2d(nodes)), c),
        sup_bound=abs(c),
        exact_extension=lambda pts, c=c: np.full(len(np.atleast_2d(pts)), c),
    )


def _coordinate_trace(k: int, n: int) -> BoundaryFunction:
    # For n = 1 the extension of zeta^1 is z (classical Poisson integral).
    exact = (lambda pts: np.atleast_2d(pts)[:, 0]) if n == 1 else None
    return BoundaryFunction(
        label=f"coord{k + 1}",
        dim=n,
        values=lambda nodes, k=k: np.atleast_2d(nodes)[:, k],
        sup_bound=1.0,
        exact_extension=exact,
    )


def _re_trace(k: int, n: int) -> BoundaryFunction:
    exact = (lambda pts: np.atleast_2d(pts)[:, 0].real.astype(complex)) if n == 1 else None
    return BoundaryFunction(
        label=f"re{k + 1}",
        dim=n,
        values=lambda nodes, k=k: np.atleast_2d(nodes)[:, k].real.astype(complex),
        sup_bound=1.0,
        exact_extension=exact,
    )


_FOURIER_TERMS = ((0.5, 2, False), (0.25, 3, True), (0.125, 0, False))


def _fourier(n: int) -> BoundaryFunction:
    # psi(zeta) = 0.5 zeta^2 + 0.25 conj(zeta)^3 + 0.125; harmonic extension
    # replaces zeta^k by z^k and conj(zeta)^k by conj(z)^k.
    def values(nodes):
        w = np.atleast_2d(nodes)[:, 0]
        out = np.zeros(len(w), dtype=complex)
        for coef, power, conjugate in _FOURIER_TERMS:
            term = np.conj(w) ** power if conjugate else w ** power
            out += coef * term
        return out

    return BoundaryFunction(
        label="fourier",
        dim=n,
        values=values,
        sup_bound=sum(c for c, _, _ in _FOURIER_TERMS),  # attained at zeta = 1
        exact_extension=values,
    )


def _cross_product(n: int) -> BoundaryFunction:
    # |zeta_1 conj(zeta_2)| <= (|zeta_1|^2 + |zeta_2|^2)/2 = 1/2 on the sphere
    return BoundaryFunction(
        label="crossprod",
        dim=n,
        values=lambda nodes: np.atleast_2d(nodes)[:, 0] * np.conj(np.atleast_2d(nodes)[:, 1]),
        sup_bound=0.5,
    )


def _bump(n: int) -> BoundaryFunction:
    # smooth, strictly positive, bounded by 1; peaks at zeta = e_1
    def values(nodes):
        nodes = np.atleast_2d(nodes)
        d2 = np.sum(np.abs(nodes - np.eye(n, dtype=complex)[0]) ** 2, axis=1)
        return np.exp(-2.0 * d2).astype(complex)

    return BoundaryFunction(label="bump", dim=n, values=values, sup_bound=1.0)


def boundary_registry(n: int) -> list[BoundaryFunction]:
    """Stock boundary data in dimension n, each with a declared sup bound."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    entries = [_constant(1.0, n), _coordinate_trace(0, n), _re_trace(0, n), _bump(n)]
    if n == 1:
        entries.append(_fourier(n))
    if n == 2:
        entries.append(_cross_product(n))
    return entries


def vector_boundary(components: list[BoundaryFunction]) -> BoundaryFunction:
    """Stack scalar boundary data into C^k-valued data.

    The declared bound is the root sum of squares of the component bounds,
    a true bound for |psi| (not necessarily attained).
    """
    if not components:
        raise ValueError("need at least one component")
    n = components[0].dim
    if any(c.dim != n or c.out_dim != 1 for c in components):
        raise ValueError("components must be scalar data in one dimension")
    bound = None
    if all(c.sup_bound is not None for c in components):
        bound = float(np.sqrt(sum(c.sup_bound ** 2 for c in components)))

    def values(nodes, comps=tuple(components)):
        return np.stack([np.asarray(c.values(nodes)) for c in comps], axis=1)

    return BoundaryFunction(
        label="vec(" + ",".join(c.label for c in components) + ")",
        dim=n,
        values=values,
        sup_bound=bound,
        out_dim=len(components),
    )
