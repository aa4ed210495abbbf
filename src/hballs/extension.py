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
pair sweep.  One engine (``HExtension._walk``) serves every call: per
request (values, Wirtinger data, and whether their errors are wanted) it
computes only what was asked, so a row's result depends only on the row,
the rule, the guard radius and the column, neither on its batch nor on the
other outputs requested.  It has two paths, chosen at construction from the
rule and the guard radius alone.

The Fourier path serves an even m-node ``circle_rule`` (n = 1).  There the
kernel is the classical Poisson kernel, sum_k |z|^|k| e^(ik(theta - phi)),
and the rule's sum is exactly the aliased series
f_m(z) = sum_{k >= 0} c_(k mod m) z^k + sum_{k >= 1} c_(-k mod m) conj(z)^k,
c = FFT(psi on the nodes) / m (Axler-Bourdon-Ramey, Harmonic Function
Theory, ch. 1; Trefethen-Weideman, SIAM Rev. 56, 2014).  As |c_k| <=
sup|psi|, keeping |k| < K drops at most sup|psi| T(K) from a value side and
from each Wirtinger side (f_z = sum k c_k z^(k-1), f_zbar = sum k c_(-k)
conj(z)^(k-1)), T(K) = sum_{k >= K} k g^(k-1) within the guard radius g.
The path is taken when the least K with 2 T(K) <= 2^-53 (``_series_terms``,
200 at g = 0.8) is at most m/4, so that the half rule's m/2 coefficients
do not alias within |k| <= K either.  Each column's coefficients are taken
once at construction, from psi on the rule's nodes and on the half rule's
(``QuadratureRule.half_weights > 0``), and every request is answered from
the K powers of each point (``HExtension._series_walk``): values, the
half-rule gap and Wirtinger data, with data errors 0.0; for real data the
value and the half-rule value are real to the bit.  ``circle_rule``'s
nodes are rounded values of exp(2 pi i j / m), at which psi is sampled and
the kernel walk evaluates the kernel, while the series assumes the exact
roots, so the two paths agree to rounding, not to the bit.

Every other extension walks the kernel tiles: Monte Carlo rules, odd m
(which has no half rule, so it answers values and Wirtinger data but no
value errors) and guards too close to 1 for m/4 terms.  A guard radius
lies in (0, 1).  The walk
takes point blocks against the rule's node chunks once, each point reducing
over the chunks in index order.  Every temporary of a tile lives in a
buffer made once per call.

The engine casts a tile as BLAS products (the GEMM form):
|z - zeta|^2 = |z|^2 + |zeta|^2 - 2 Re<z, zeta> is one product of the
points' augmented rows (-2x_1, -2y_1, ..., |z|^2, 1) with the nodes'
augmented columns (x_1, y_1, ..., 1, |zeta|^2), and each output column's
node sums are products of kernel tiles with node operands: kern @ (psi_j w)
for values, with kern^2 @ (|psi_j|^2 w) for their second moments, and for
Wirtinger data the kernel's closed-form derivatives split into two tiles R
and Q, so that the column adds R @ (psi_j w) and
Q @ (psi_j w conj(zeta), psi_j w zeta) (see ``HExtension._walk``).  The
kernel's value fixes its gradient's norm (see ``kernel``), so the data's
Monte Carlo errors take the values' second moments, with no tile of their own.
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
one kernel pass.  Quadrature errors are shaped like the values, one per
column, so a column's error has the bits of its own extension's as well.
The Fourier path keeps the same layout: a 64-row block of power rows
(real parts, then imaginary parts) times one row-major operand per column
and output, the batch padded with the origin.
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
BOUND_SLACK = 1e-9          # how far a rule node may exceed a declared bound
SPHERE_SLACK = 1e-12        # how far a rule node's |zeta|^2 may be from 1
# Every product of the engine has _POINT_BLOCK rows; a 64-point block
# makes 512 KB (block x 1024) tiles, two of them (three with Wirtinger data)
# reused for every tile.  On a 2-vCPU Xeon with a 2 MB L2 per core and one
# BLAS thread, the stacked four-column n = 2 extension took 53-62 ms for 5760
# points against 1500 nodes in blocks of 32, 64 or 128 (500-520 ms in the
# elementwise form it replaced).  Against 200k nodes, five columns took
# 0.54 s for 201 points' values, Wirtinger data and their errors in one
# request, and 29 ms for one point's values, padded to a whole block.
_POINT_BLOCK = 64
# Squared distances below this refuse a tile.  The product form
# |z|^2 + |zeta|^2 - 2 Re<z, zeta> rounds a true 0 to about +-1e-16.
_GEMM_FLOOR = 1e-12
# The Fourier path truncates its series where the tail is below this
# fraction of the data's sup norm: the unit roundoff of double precision.
_SERIES_TAIL = 2.0 ** -53
# Point blocks whose power table the Fourier path builds at once.  lemma21's
# request, 4132 points' values at K = 200, took 7.4, 6.2, 6.6, 8.8 and 11.3 ms
# (min of 15) at 2, 4, 8, 16 and 32 blocks, and 34-36 ms on the kernel walk
# against 4096 nodes, on the machine of the _POINT_BLOCK figures.
_SERIES_BLOCKS = 4


def _series_terms(guard: float, limit: int) -> Optional[int]:
    """The least K <= ``limit`` whose truncation of the circle rule's series is
    exact to below rounding within radius ``guard``, or None.

    With |c_k| <= sup|psi|, every tail the Fourier path drops, the value's two
    sides past |k| = K - 1 and each derivative side past k = K, is at most
    sup|psi| T(K), T(K) = sum_{k >= K} k g^(k-1) = g^(K-1) (K - (K-1) g) /
    (1 - g)^2; K is the least with 2 T(K) <= 2^-53.
    """
    for terms in range(1, limit + 1):
        tail = guard ** (terms - 1) * (terms - (terms - 1) * guard) / (1.0 - guard) ** 2
        if 2.0 * tail <= _SERIES_TAIL:
            return terms
    return None


def _series_operands(psi_cols: np.ndarray, terms: int):
    """Per column, the (2K, 2), (2K, 2) and (2K, 4) right operands that turn a
    row of powers (Re z^0, ..., Re z^(K-1), Im z^0, ..., Im z^(K-1)) into the
    value, the half rule's value and (f_z, f_zbar), as (re, im) pairs.

    c_k = FFT(psi)_k / m on the m nodes (for the half rule, on its m/2), so
    f = sum_{k >= 0} c_k z^k + sum_{k >= 1} c_{-k} conj(z)^k,
    f_z = sum_{k >= 1} k c_k z^(k-1) and f_zbar = sum_{k >= 1} k c_{-k} conj(z)^(k-1).
    """
    k = np.arange(terms)
    value_ops, half_ops, data_ops = (np.zeros((len(psi_cols), 2 * terms, width))
                                     for width in (2, 2, 4))
    for col, value_op, half_op, data_op in zip(psi_cols, value_ops, half_ops, data_ops):
        full = np.fft.fft(col) / len(col)
        for coef, op in ((full, value_op), (np.fft.fft(col[::2]) / (len(col) // 2), half_op)):
            # a_k z^k + b_k conj(z)^k with a_k = c_k, b_k = c_{-k}, b_0 = 0
            a, b = coef[k], np.where(k > 0, coef[-k], 0.0)
            op[:terms, 0], op[terms:, 0] = a.real + b.real, b.imag - a.imag
            op[:terms, 1], op[terms:, 1] = a.imag + b.imag, a.real - b.real
        if not col.imag.any():      # real data: c_(-k) = conj(c_k) to rounding only
            value_op[:, 1] = half_op[:, 1] = 0.0
        alpha, beta = (k + 1) * full[k + 1], (k + 1) * full[-(k + 1)]
        data_op[:terms, 0], data_op[terms:, 0] = alpha.real, -alpha.imag
        data_op[:terms, 1], data_op[terms:, 1] = alpha.imag, alpha.real
        data_op[:terms, 2], data_op[terms:, 2] = beta.real, beta.imag
        data_op[:terms, 3], data_op[terms:, 3] = beta.imag, -beta.real
    return value_ops, half_ops, data_ops


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
    samples.  ``sup_bound`` is a declared bound on |psi| when one is known,
    held on every rule node by the extension (by the bound of each of its
    ``components`` for data stacked by ``vector_boundary``).
    ``exact_extension``, when present, evaluates the known closed-form
    extension, which lemma21 and thm24 take in place of a rule's.
    """

    label: str
    dim: int
    values: Callable[[np.ndarray], np.ndarray]
    sup_bound: Optional[float] = None
    exact_extension: Optional[Callable[[np.ndarray], np.ndarray]] = None
    components: tuple = ()

    @property
    def out_dim(self) -> int:
        return len(self.components) or 1


class HExtension:
    """Poisson-integral extension of boundary data under a fixed rule.

    Callable on a single point or an (P, n) batch; evaluation is refused
    beyond the guard radius, where the kernel mass concentrates and the
    rule's error is no longer meaningful, and a guard radius outside (0, 1)
    is refused at construction.  Boundary data that is NaN or
    infinite on any rule node, or exceeds its declared bound on one, is
    refused at construction, as is a rule with a node off the unit sphere.
    The rule and the guard radius also choose the engine's path (see the
    module docstring): an even circle rule with room for its series' terms
    takes its Fourier coefficients here.
    """

    def __init__(self, boundary: BoundaryFunction, rule: QuadratureRule,
                 guard_radius: float = DEFAULT_GUARD_RADIUS):
        if rule.dim != boundary.dim:
            raise ValueError("rule and boundary data dimensions differ")
        if not 0.0 < guard_radius < 1.0:
            raise ValueError(f"the guard radius must lie in (0, 1), got {guard_radius}")
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
        for part, column in zip(boundary.components or [boundary] * len(self._psi_cols),
                                self._psi_cols):
            worst = float(np.abs(column).max())
            if part.sup_bound is not None and worst > part.sup_bound + BOUND_SLACK:
                raise ValueError(f"boundary data {part.label!r} exceeds its declared bound: "
                                 f"{worst:.6g} > {part.sup_bound:.6g}")
        # (2n + 2, N) columns (x_1, y_1, ..., x_n, y_n, 1, |zeta|^2) of the nodes,
        # stored row-major (see the module docstring); a point row
        # (-2x_1, -2y_1, ..., -2y_n, |z|^2, 1) times one is |z - zeta|^2
        xy = np.ascontiguousarray(rule.nodes, dtype=complex).view(np.float64)
        two_n = xy.shape[1]
        self._node_aug = np.empty((two_n + 2, len(xy)))
        self._node_aug[:two_n] = xy.T
        self._node_aug[two_n] = 1.0
        sq_norms = np.sum(xy * xy, axis=1, out=self._node_aug[two_n + 1])
        # the kernel and the engine's gradient errors hold for |zeta| = 1 only
        off_sphere = float(np.abs(sq_norms - 1.0).max())
        if off_sphere > SPHERE_SLACK:
            raise ValueError(f"quadrature rule {rule.meta.get('kind', '?')!r} ({len(rule)} nodes) "
                             f"has nodes off the unit sphere: ||zeta|^2 - 1| = {off_sphere:.3g}")
        # an even circle rule whose series truncates within m/4 terms takes
        # the Fourier path; every other extension walks the kernel tiles
        terms = None
        if rule.meta.get("kind") == "circle" and len(rule) % 2 == 0:
            terms = _series_terms(self.guard_radius, len(rule) // 4)
        self._series = _series_operands(self._psi_cols, terms) if terms else None

    @property
    def dim(self) -> int:
        return self.boundary.dim

    def _guarded_rows(self, points) -> np.ndarray:
        """The batch as contiguous (P, n) rows of the extension's dimension,
        each finite and within the guard radius."""
        pts = np.atleast_2d(np.ascontiguousarray(points, dtype=complex))
        if pts.shape[1] != self.dim:
            raise ValueError(f"the extension has dimension {self.dim} and the points "
                             f"{pts.shape[1]}")
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

    def _walk(self, points, values: bool, data: bool, errors: bool):
        """The one engine: (values, error sums, data, data errors) of a batch,
        None where not requested, ``errors`` asking for both outputs' errors.
        An extension on the Fourier path answers from ``_series_walk``; the
        rest of this docstring is the kernel walk.

        Per ``_POINT_BLOCK``-row block (the last padded with the origin) and
        node chunk, the distance product and kernel power K = P_h are made
        once; each requested output takes its node sums from them (the GEMM
        form of the module docstring) with the operations it takes alone, so
        it has the bits it has alone.  A point within squared distance
        ``_GEMM_FLOOR`` of a node is refused.  Inside the guard radius the
        kernel ratio stays in a safe range, so the power is an exact multiply
        chain, not the exp/log form of the kernel module.

        Values are shaped like the values, kern @ (psi_j w) per column; their
        error sums (P, k) are the second moments kern^2 @ (|psi_j|^2 w) for a
        Monte Carlo rule and for a spectral rule the half-rule values
        kern @ (psi_j w'), w' the rule's ``half_weights``.  Data is one
        ``WirtingerData`` batch of (P, k, n) arrays: with d2 = |z - zeta|^2,
        Q = K / d2 and R = K / (1 - |z|^2) + Q, the closed form of ``kernel``
        reads dP_h/dz_k = -(2n-1) [conj(z_k) R - Q conj(zeta_k)] and
        dP_h/dzbar_k = -(2n-1) [z_k R - Q zeta_k], so each column adds
        R @ (psi_j w) and Q @ (psi_j w conj(zeta), psi_j w zeta).  Its errors,
        shaped like the values, are per column sqrt(var_j / N), var_j the sum
        over k of the Monte Carlo variances of df_j/dz_k's integrands (0.0
        for spectral rules).  As sum_k |dP_h/dz_k|^2 = ((2n-1) P_h /
        (1 - |z|^2))^2 (see ``kernel``), var_j = max(((2n-1) / (1 - |z|^2))^2
        second_j - sum_k |df_j/dz_k|^2, 0) with second_j the value's second
        moment, taken for data errors even without the values.
        """
        pts = self._guarded_rows(points)
        if self._series is not None:
            return self._series_walk(pts, values, data, errors)
        count, n = len(pts), self.dim
        expo = 2 * n - 1
        psi, w, nodes = self._psi_cols, self.rule.weights, self.rule.nodes
        k_out = len(psi)
        monte_carlo = errors and self.rule.monte_carlo
        half_rule = errors and values and not monte_carlo
        half_weights = self.rule.half_weights if half_rule else None
        sq_norm = np.sum(pts.real ** 2 + pts.imag ** 2, axis=1)
        num = 1.0 - sq_norm
        num_pow = _int_power(num, expo)
        inv_num = 1.0 / num
        # rows (-2x_1, -2y_1, ..., -2y_n, |z|^2, 1); padding rows are the origin
        aug = np.zeros((-(-count // _POINT_BLOCK) * _POINT_BLOCK, 2 * n + 2))
        np.multiply(-2.0, pts.view(np.float64), out=aug[:count, :2 * n])
        aug[:count, 2 * n] = sq_norm
        aug[:, 2 * n + 1] = 1.0
        # per point and column: the value sums and their error sums; R psi w;
        # Q psi w conj(zeta) and Q psi w zeta
        first, second, r_sum, q_sum = (
            np.zeros((count, k_out) + shape, dtype) if wanted else None
            for wanted, shape, dtype in (
                (values, (), complex), (monte_carlo or half_rule, (), complex if half_rule else float),
                (data, (), complex), (data, (2 * n,), complex)))
        # three (block, chunk) tiles, the kernel K (then R), the distances d2
        # and a spare (the power's running square, then K^2, then Q); without
        # data the distances are not read after the power, and K takes their
        # buffer
        width_max = min(CHUNK, len(w))
        size = _POINT_BLOCK * width_max
        d2_flat, spare_flat = np.zeros(size), np.zeros(size)
        kern_flat = np.zeros(size) if data else d2_flat
        # C-contiguous node operands, built per chunk, and product outputs
        psi_w_buf, half_w_buf, m_buf = (np.empty((k_out, width_max), dtype=dtype)
                                        for dtype in (complex, complex, float))
        zeta_buf, psi_zeta_buf = (np.empty((width_max, 2 * n), dtype=complex) for _ in range(2))
        pair_out, q_out = np.empty((_POINT_BLOCK, 2)), np.empty((_POINT_BLOCK, 4 * n))
        real_out = np.empty(_POINT_BLOCK)
        for start in range(0, len(aug), _POINT_BLOCK):
            rows = slice(start, min(start + _POINT_BLOCK, count))
            live = rows.stop - start
            for csl in self.rule.chunks():
                width = csl.stop - csl.start
                d2, kern, spare = (flat[:_POINT_BLOCK * width].reshape(_POINT_BLOCK, -1)
                                   for flat in (d2_flat, kern_flat, spare_flat))
                np.matmul(aug[start:start + _POINT_BLOCK], self._node_aug[:, csl], out=d2)
                if d2[:live].min() < _GEMM_FLOOR:
                    i, j = np.unravel_index(int(np.argmin(d2[:live])), (live, width))
                    raise NearSingularEvaluation(
                        "evaluation point collides with a quadrature node",
                        point=pts[rows][i], node=nodes[csl][j])
                # num^(2n-1) / d2^(2n-1) on the live rows; the others hold
                # finite values, never read back
                k_live, spare_live = kern[:live], spare[:live]
                power = _int_power(d2[:live], expo, out=k_live, scratch=spare_live)
                np.divide(num_pow[rows, None], power, out=k_live)
                psi_w = np.multiply(psi[:, csl], w[csl], out=psi_w_buf[:, :width])
                # the value sums and second moments read K, so they come
                # before R and Q overwrite it and K^2
                if monte_carlo:         # K^2 against m_j = |psi_j|^2 w
                    m = m_buf[:, :width]
                    np.add(np.square(psi[:, csl].real, out=m), np.square(psi[:, csl].imag), out=m)
                    np.multiply(m, w[csl], out=m)
                    np.multiply(k_live, k_live, out=spare_live)
                elif half_rule:
                    half_w = np.multiply(psi[:, csl], half_weights[csl], out=half_w_buf[:, :width])
                for j in range(k_out):
                    if values:
                        np.matmul(kern, psi_w[j].view(np.float64).reshape(width, 2), out=pair_out)
                        first[rows, j] += pair_out[:live].view(complex)[:, 0]
                    if monte_carlo:
                        np.matmul(spare, m[j], out=real_out)
                        second[rows, j] += real_out[:live]
                    elif half_rule:
                        np.matmul(kern, half_w[j].view(np.float64).reshape(width, 2), out=pair_out)
                        second[rows, j] += pair_out[:live].view(complex)[:, 0]
                if not data:
                    continue
                r_live, q_live = k_live, spare_live
                np.divide(r_live, d2[:live], out=q_live)
                np.add(np.multiply(r_live, inv_num[rows, None], out=r_live), q_live, out=r_live)
                zeta = zeta_buf[:width]
                np.conj(nodes[csl], out=zeta[:, :n])
                zeta[:, n:] = nodes[csl]
                psi_zeta = psi_zeta_buf[:width]
                for j in range(k_out):
                    np.matmul(kern, psi_w[j].view(np.float64).reshape(width, 2), out=pair_out)
                    r_sum[rows, j] += pair_out[:live].view(complex)[:, 0]
                    np.multiply(psi_w[j, :, None], zeta, out=psi_zeta)
                    np.matmul(spare, psi_zeta.view(np.float64), out=q_out)
                    q_sum[rows, j] += q_out[:live].view(complex)
        value_sums = self._shaped(first) if values else None
        if not data:
            return value_sums, second, None, None
        fz = -expo * (np.conj(pts)[:, None, :] * r_sum[:, :, None] - q_sum[:, :, :n])
        fzbar = -expo * (pts[:, None, :] * r_sum[:, :, None] - q_sum[:, :, n:])
        variances = np.zeros((count, k_out))
        if monte_carlo:         # sum_k |dP_h/dz_k|^2 = ((2n-1) P_h / (1 - |z|^2))^2
            mean_sq = np.square(expo * inv_num)[:, None] * second
            variances = np.maximum(mean_sq - np.sum(np.square(np.abs(fz)), axis=2), 0.0)
        data_errors = self._shaped(np.sqrt(variances / len(self.rule))) if errors else None
        return value_sums, second, WirtingerData(fz, fzbar), data_errors

    def _series_walk(self, pts: np.ndarray, values: bool, data: bool, errors: bool):
        """``_walk`` on the Fourier path, for guarded (P, 1) rows.

        A table holds each row's powers z^0 .. z^(K-1), real parts then
        imaginary parts, each made from the row's own entries by doubling:
        w = z^s by squaring, then z^(s+i) = z^i w for i < s, one rounded
        real operation at a time.  It is built for ``_SERIES_BLOCKS`` point
        blocks at once (the last padded with the origin).  Per
        ``_POINT_BLOCK``-row block each output column then takes one product
        of the table's rows with each requested operand of
        ``_series_operands``: the value, the half rule's value (the error
        sums) and (f_z, f_zbar).  Data errors are 0.0.
        """
        value_ops, half_ops, data_ops = self._series
        count, k_out = len(pts), len(value_ops)
        terms = value_ops.shape[1] // 2
        half_rule = errors and values
        first, second = (np.zeros((count, k_out), dtype=complex) if wanted else None
                         for wanted in (values, half_rule))
        pairs = np.zeros((count, k_out, 2), dtype=complex) if data else None
        width = min(-(-count // _POINT_BLOCK), _SERIES_BLOCKS) * _POINT_BLOCK
        # one row per power and one column per point: each doubling step is
        # a contiguous (span, width) slab
        table = np.zeros((2 * terms, width))
        re, im = table[:terms], table[terms:]
        re[0] = 1.0
        w_re, w_im, w_sq = np.empty((3, width))
        spare = np.empty((terms // 2 + 1, width))
        block = np.empty((_POINT_BLOCK, 2 * terms))     # the rows of one product
        pair_out, quad_out = np.empty((_POINT_BLOCK, 2)), np.empty((_POINT_BLOCK, 4))
        for base in range(0, count, width):
            live = min(width, count - base)
            re[1, live:] = im[1, live:] = 0.0
            z = pts[base:base + live, 0]
            re[1, :live], im[1, :live] = z.real, z.imag
            np.copyto(w_re, re[1])
            np.copyto(w_im, im[1])
            filled = 2
            while filled < terms:
                # w = z^filled, the square of z^(filled / 2)
                np.multiply(w_re, w_im, out=w_sq)
                np.multiply(w_re, w_re, out=w_re)
                np.subtract(w_re, np.multiply(w_im, w_im, out=w_im), out=w_re)
                np.add(w_sq, w_sq, out=w_im)
                span = min(filled, terms - filled)
                low_re, low_im, tmp = re[:span], im[:span], spare[:span]
                high_re, high_im = re[filled:filled + span], im[filled:filled + span]
                np.subtract(np.multiply(low_re, w_re, out=high_re),
                            np.multiply(low_im, w_im, out=tmp), out=high_re)
                np.add(np.multiply(low_re, w_im, out=high_im),
                       np.multiply(low_im, w_re, out=tmp), out=high_im)
                filled += span
            for start in range(0, live, _POINT_BLOCK):
                rows = slice(base + start, base + min(start + _POINT_BLOCK, live))
                used = rows.stop - rows.start
                np.copyto(block, table[:, start:start + _POINT_BLOCK].T)
                for j in range(k_out):
                    if values:
                        np.matmul(block, value_ops[j], out=pair_out)
                        first[rows, j] = pair_out[:used].view(complex)[:, 0]
                    if half_rule:
                        np.matmul(block, half_ops[j], out=pair_out)
                        second[rows, j] = pair_out[:used].view(complex)[:, 0]
                    if data:
                        np.matmul(block, data_ops[j], out=quad_out)
                        pairs[rows, j] = quad_out[:used].view(complex)
        value_sums = self._shaped(first) if values else None
        if not data:
            return value_sums, second, None, None
        data_errors = self._shaped(np.zeros((count, k_out))) if errors else None
        return value_sums, second, WirtingerData(np.ascontiguousarray(pairs[:, :, :1]),
                                                 np.ascontiguousarray(pairs[:, :, 1:])), data_errors

    def __call__(self, points) -> np.ndarray:
        return self._walk(points, values=True, data=False, errors=False)[0]

    def _shaped(self, stacked: np.ndarray) -> np.ndarray:
        """A (P, k) per-column result in the shape of the values: (P,) for
        scalar data, else (P, k)."""
        return stacked[:, 0] if self._psi_nodes.ndim == 1 else stacked

    def values_with_errors(self, points, wirtinger: bool = False):
        """Batched values plus per-point quadrature error estimates.

        One pass over the rule.  The errors have the values' shape, (P,) or
        (P, k), one per column: for a Monte Carlo rule its standard error
        sqrt(var_j / N); for a spectral rule with m nodes, m even, the gap
        |f_m(z) - f_{m/2}(z)| to the half rule on every second node, which
        tracks the rule's aliasing error, the terms of order |z|^m of its
        kernel sum 1 + 2 sum_{j >= 1} |z|^{jm} cos(j m theta).  With
        ``wirtinger`` the same pass also returns ``wirtinger_many``'s data and
        errors at the same rows: (values, errors, data, data errors).
        """
        values, second, data, data_errors = self._walk(points, values=True, data=wirtinger,
                                                       errors=True)
        if not self.rule.monte_carlo:
            errors = np.abs(values - self._shaped(second))
        else:
            variances = np.maximum(self._shaped(second) - np.abs(values) ** 2, 0.0)
            errors = np.sqrt(variances / len(self.rule))
        return (values, errors, data, data_errors) if wirtinger else (values, errors)

    def wirtinger(self, z) -> WirtingerData:
        """Wirtinger derivatives by differentiation under the integral."""
        return self.wirtinger_many(coords_of(z)[None, :], want_errors=False)[0][0]

    def wirtinger_with_error(self, z):
        """(WirtingerData, standard error) at one point: a one-row batch, the
        error a float for scalar data and (k,) for C^k data."""
        data, errors = self.wirtinger_many(coords_of(z)[None, :])
        return data[0], _row_error(errors)

    def wirtinger_many(self, points, want_errors: bool = True):
        """Wirtinger derivatives and their standard errors for a (P, n) batch.

        Returns one ``WirtingerData`` batch, (P, k, n) arrays whose row p has
        the bits of point p taken alone, and errors shaped like the values,
        (P,) or (P, k) (see ``_walk``).  Without ``want_errors`` the errors
        are None and their sums are not taken; the data keep their bits.
        """
        _, _, data, errors = self._walk(points, values=False, data=True, errors=want_errors)
        return data, errors

    def value_error(self, z):
        """The value's quadrature error (``values_with_errors``) at one point:
        a float for scalar data, (k,) for C^k data."""
        return _row_error(self.values_with_errors(coords_of(z)[None, :])[1])


def _row_error(errors: np.ndarray):
    """Row 0 of a one-row error batch: a float, or its (k,) columns."""
    return float(errors[0]) if errors.ndim == 1 else errors[0]


def h_extend(boundary: BoundaryFunction, rule: QuadratureRule,
             guard_radius: float = DEFAULT_GUARD_RADIUS) -> HExtension:
    """Build the Poisson-integral extension of ``boundary`` under ``rule``."""
    return HExtension(boundary, rule, guard_radius)


def laplace_beltrami_residual(f, z) -> complex:
    """Delta_h f at z by central differences with one Richardson level.

    Zero (up to truncation) exactly when f is hyperbolic-harmonic near z.
    ``f`` maps a (P, n) batch of complex points to (P,) complex values.
    Step policy, stencil, drift partials and guard come from ``calculus``;
    the guard is given the reach 2h of the second differences.
    """
    zc = np.ascontiguousarray(coords_of(z))[None, :]
    n = zc.shape[1]
    steps = _steps(zc, LB_STEP_FACTOR)
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


def _first_coordinate(n: int, real: bool) -> BoundaryFunction:
    # zeta_1 (coord1) or Re zeta_1 (re1); for n = 1 the extension of either
    # is the data itself at z (classical Poisson integral).
    def values(nodes):
        w = np.atleast_2d(nodes)[:, 0]
        return w.real.astype(complex) if real else w

    return BoundaryFunction(label="re1" if real else "coord1", dim=n, values=values,
                            sup_bound=1.0, exact_extension=values if n == 1 else None)


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
    entries = [_constant(1.0, n), _first_coordinate(n, real=False),
               _first_coordinate(n, real=True), _bump(n)]
    if n == 1:
        entries.append(_fourier(n))
    if n == 2:
        entries.append(_cross_product(n))
    return entries


def _stacked(parts) -> Callable[[np.ndarray], np.ndarray]:
    """The (P, k) map whose column j is parts[j] of the same (P, n) batch."""
    return lambda points: np.stack([np.asarray(part(points)) for part in parts], axis=1)


def vector_boundary(components: list[BoundaryFunction]) -> BoundaryFunction:
    """Stack scalar boundary data into C^k-valued data.

    The declared bound is the root sum of squares of the component bounds,
    a true bound for |psi| (not necessarily attained); an extension holds
    each column to its own component's, stricter bound.  The closed-form
    extensions stack as the data do, when every component has one.
    """
    if not components:
        raise ValueError("need at least one component")
    n = components[0].dim
    if any(c.dim != n or c.out_dim != 1 for c in components):
        raise ValueError("components must be scalar data in one dimension")
    bound = None
    if all(c.sup_bound is not None for c in components):
        bound = float(np.sqrt(sum(c.sup_bound ** 2 for c in components)))
    exact = [c.exact_extension for c in components]
    return BoundaryFunction(
        label="vec(" + ",".join(c.label for c in components) + ")",
        dim=n,
        values=_stacked([c.values for c in components]),
        sup_bound=bound,
        exact_extension=_stacked(exact) if None not in exact else None,
        components=tuple(components),
    )
