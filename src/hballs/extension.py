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
pair sweep, and each distinct point of a batch is evaluated once, which
replaces any per-point cache of repeated Poisson integrals.  Points go
through the sum in blocks of 128, so a point-by-node tile and its
temporaries fit in a 2 MB per-core L2 cache.

Gradients come from differentiation under the integral using the kernel's
closed-form Wirtinger derivatives.  They are batched the same way: one call
covers every point of a sweep, points go through the sum in blocks of 32
against the same 1024-node chunks, and the nodes reduce in the value
engine's order, so a gradient does not depend on the batch it arrives in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .calculus import WirtingerData
from .errors import NearSingularEvaluation, StepTooLarge
from .geometry import coords_of
# not called here: bench/tracing.py patches this module-level name
from .kernel import poisson_h_wirtinger_values  # noqa: F401
from .quadrature import CHUNK, QuadratureRule

__all__ = [
    "BoundaryFunction",
    "HExtension",
    "h_extend",
    "h_extend_gradient",
    "laplace_beltrami_residual",
    "boundary_registry",
    "vector_boundary",
]

DEFAULT_GUARD_RADIUS = 0.8
LB_STEP_FACTOR = 1e-3
# 128 points x 1024 nodes of float64 is a 1 MB tile, so the distance tile
# and the temporaries built from it stay in a 2 MB per-core L2 cache.  On a
# Xeon with that L2, an n = 2 batch of 8000 points ran 1.7x faster in
# 128-point blocks than in 512-point blocks (4 MB tiles); 32 to 128 tied.
_POINT_BLOCK = 128
# The gradient engine keeps four complex and three real (block x 1024) tiles
# live.  On the same Xeon, 32-point blocks (2.75 MB of tiles) were the fastest
# at n = 1 and at n = 2; blocks of 8 to 128 points were at most 9% slower at
# n = 2 and 21% slower at n = 1.
_GRADIENT_BLOCK = 32


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k by binary powering (k >= 1); exact and cheap for small k."""
    result = None
    base = x
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
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

    def spot_check(self, nodes: np.ndarray, slack: float = 1e-9) -> None:
        if self.sup_bound is None:
            return
        mags = np.abs(np.asarray(self.values(nodes)))
        worst = float(mags.max())
        if worst > self.sup_bound + slack:
            raise ValueError(
                f"boundary data {self.label!r} exceeds its declared bound: "
                f"{worst:.6g} > {self.sup_bound:.6g}"
            )


class HExtension:
    """Poisson-integral extension of boundary data under a fixed rule.

    Callable on a single point or an (P, n) batch; evaluation is refused
    beyond the guard radius, where the kernel mass concentrates and the
    rule's error is no longer meaningful.
    """

    def __init__(self, boundary: BoundaryFunction, rule: QuadratureRule,
                 guard_radius: float = DEFAULT_GUARD_RADIUS):
        if rule.dim != boundary.dim:
            raise ValueError("rule and boundary data dimensions differ")
        self.boundary = boundary
        self.rule = rule
        self.guard_radius = float(guard_radius)
        self._psi_nodes = np.asarray(boundary.values(rule.nodes))
        # (2n, N) planes x_1, y_1, x_2, ... of the nodes, contiguous per plane
        self._node_xy = np.ascontiguousarray(rule.nodes, dtype=complex).view(np.float64).T.copy()
        self._value_at_zero = None

    @property
    def dim(self) -> int:
        return self.boundary.dim

    def _check_guard(self, pts: np.ndarray) -> None:
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

    def __call__(self, points) -> np.ndarray:
        values, _ = self._moments(points, want_errors=False)
        return values

    def _moments(self, points, want_errors: bool):
        """First (and optionally second) moments of the kernel-weighted data.

        Each distinct row of the batch is evaluated once and the results are
        scattered back, so repeated points (shared stencil centres, pair
        endpoints) cost nothing extra.  Nodes reduce in fixed 1024-node
        chunks in index order; evaluation points are processed in blocks
        purely for cache locality, which does not affect the per-point
        reduction order.  A value therefore does not depend on the batch it
        arrives in, on duplicate rows or on the block size.  Inside the guard
        radius the kernel ratio stays in a safe range, so the power is an
        exact multiply chain rather than the exp/log form of the reference
        kernel module.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        self._check_guard(pts)
        pts, inverse = np.unique(pts, axis=0, return_inverse=True)
        psi = self._psi_nodes if self._psi_nodes.ndim > 1 else self._psi_nodes[:, None]
        k_out = psi.shape[1]
        w = self.rule.weights
        nodes = self.rule.nodes
        pts_re, pts_im = pts.real, pts.imag
        pts_xy = pts.view(np.float64)                          # (P, 2n): x_1, y_1, ...
        num = 1.0 - np.sum(pts_re ** 2 + pts_im ** 2, axis=1)
        expo = 2 * self.dim - 1
        num_pow = _int_power(num, expo)
        first = np.zeros((len(pts), k_out), dtype=complex)
        second = np.zeros((len(pts), k_out)) if want_errors else None
        d2_buf = np.empty((min(_POINT_BLOCK, len(pts)), min(CHUNK, len(nodes))))
        diff_buf = np.empty_like(d2_buf)
        for pstart in range(0, len(pts), _POINT_BLOCK):
            pstop = min(pstart + _POINT_BLOCK, len(pts))
            psl = slice(pstart, pstop)
            for start in range(0, len(nodes), CHUNK):
                stop = min(start + CHUNK, len(nodes))
                d2 = d2_buf[:pstop - pstart, :stop - start]
                diff = diff_buf[:pstop - pstart, :stop - start]
                # d2 = dx_1^2 + dy_1^2 + dx_2^2 + ..., accumulated left to right
                for m in range(2 * self.dim):
                    np.subtract(pts_xy[psl, m, None], self._node_xy[m, None, start:stop],
                                out=diff)
                    if m == 0:
                        np.multiply(diff, diff, out=d2)
                    else:
                        np.multiply(diff, diff, out=diff)
                        np.add(d2, diff, out=d2)
                if np.any(d2 < 1e-300):
                    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
                    raise NearSingularEvaluation(
                        "evaluation point collides with a quadrature node",
                        point=pts[pstart + i], node=nodes[start + j],
                    )
                kern = num_pow[psl][:, None] / _int_power(d2, expo)   # (P, C)
                for j in range(k_out):
                    terms = kern * psi[start:stop, j][None, :]
                    first[psl, j] += np.add.reduce(terms * w[start:stop][None, :], axis=1)
                    if want_errors:
                        second[psl, j] += np.add.reduce(
                            (terms.real ** 2 + terms.imag ** 2) * w[start:stop][None, :], axis=1)
        inverse = inverse.reshape(-1)   # flat on every numpy version
        first = first[inverse]
        if want_errors:
            second = second[inverse]
        values = first[:, 0] if self._psi_nodes.ndim == 1 else first
        return values, second

    def value_at_zero(self) -> np.ndarray:
        """f(0) = plain average of the boundary data (P_h(0, .) = 1)."""
        if self._value_at_zero is None:
            self._value_at_zero = self(np.zeros(self.dim, dtype=complex))[0]
        return self._value_at_zero

    def values_with_errors(self, points):
        """Batched values plus per-point integrand standard errors.

        One pass over the rule; the error is the root-sum-square of the
        componentwise Monte Carlo standard errors (0.0 for spectral rules).
        """
        values, second = self._moments(points, want_errors=True)
        stacked = values if values.ndim > 1 else values[:, None]
        if not self.rule.meta.get("kind", "").endswith("mc"):
            return values, np.zeros(len(stacked))
        variances = np.maximum(second - np.abs(stacked) ** 2, 0.0)
        return values, np.sqrt(np.sum(variances, axis=1) / len(self.rule))

    def wirtinger(self, z) -> WirtingerData:
        """Wirtinger derivatives by differentiation under the integral."""
        return self.wirtinger_with_error(z)[0]

    def wirtinger_with_error(self, z):
        """(WirtingerData, standard error) at one point: a one-row batch."""
        data, errors = self.wirtinger_many(coords_of(z)[None, :])
        return data[0], float(errors[0])

    def wirtinger_many(self, points):
        """Wirtinger derivatives and their standard errors for a (P, n) batch.

        Returns a list of P ``WirtingerData`` and a (P,) array holding, per
        row, the root-sum-square of the componentwise Monte Carlo standard
        errors of the derivative integrands (0.0 for spectral rules).  Each
        point-by-node tile evaluates ``kernel.poisson_h_wirtinger_values``
        element for element, one (block, chunk) plane at a time, and nodes
        reduce in the value engine's order: pairwise within each 1024-node
        chunk, chunks in index order.  A gradient therefore does not depend
        on the batch it arrives in or on the block size.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        self._check_guard(pts)
        n = self.dim
        psi = self._psi_nodes if self._psi_nodes.ndim > 1 else self._psi_nodes[:, None]
        k_out = psi.shape[1]
        w = self.rule.weights
        nodes = self.rule.nodes
        monte_carlo = self.rule.meta.get("kind", "").endswith("mc")
        num = 1.0 - np.sum(np.abs(pts) ** 2, axis=1)
        # The kernel takes the point factor's logarithm with math.log.  A point
        # on the sphere (guard radius >= 1) gets NaN: a node collision is then
        # refused by the tile check, and any other such point yields
        # non-finite data that WirtingerData refuses.
        log_num = np.array([(2 * n - 2) * math.log(x) if x > 0.0 else math.nan for x in num])
        zconj = np.conj(pts)
        fz = np.zeros((len(pts), k_out, n), dtype=complex)
        fzbar = np.zeros_like(fz)
        mean_sq = np.zeros((len(pts), k_out, n))
        shape = (min(_GRADIENT_BLOCK, len(pts)), min(CHUNK, len(nodes)))
        diff_buf, bracket_buf, conj_buf, prod_buf = (
            np.empty(shape, dtype=complex) for _ in range(4))
        d2_buf, pref_buf, sq_buf = (np.empty(shape) for _ in range(3))
        for pstart in range(0, len(pts), _GRADIENT_BLOCK):
            pstop = min(pstart + _GRADIENT_BLOCK, len(pts))
            psl = slice(pstart, pstop)
            for start in range(0, len(nodes), CHUNK):
                stop = min(start + CHUNK, len(nodes))
                csl = slice(start, stop)
                tile = (slice(0, pstop - pstart), slice(0, stop - start))
                diff, bracket, dk_conj, prod = (
                    diff_buf[tile], bracket_buf[tile], conj_buf[tile], prod_buf[tile])
                d2, pref, sq = d2_buf[tile], pref_buf[tile], sq_buf[tile]
                # kernel.poisson_h_wirtinger_values on the tile, keeping its operand
                # order and dtypes so that every element has the kernel's bits
                for k in range(n):
                    np.subtract(nodes[csl, k][None, :], pts[psl, k, None], out=diff)
                    if k == 0:
                        np.square(np.abs(diff, out=d2), out=d2)
                    else:
                        np.square(np.abs(diff, out=sq), out=sq)
                        np.add(d2, sq, out=d2)
                if np.any(d2 < 1e-300):
                    i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
                    raise NearSingularEvaluation(
                        "evaluation point collides with a quadrature node",
                        point=pts[pstart + i], node=nodes[start + j],
                    )
                np.log(d2, out=pref)
                np.multiply(2 * n, pref, out=pref)
                np.subtract(log_num[psl, None], pref, out=pref)
                np.exp(pref, out=pref)
                np.multiply(-(2 * n - 1), pref, out=pref)
                weights = w[csl][None, :]
                for k in range(n):
                    # bracket = conj(z_k) |zeta-z|^2 + (1-|z|^2)(conj(z_k) - conj(zeta_k))
                    np.multiply(zconj[psl, k, None], d2, out=bracket)
                    np.subtract(zconj[psl, k, None], np.conj(nodes[csl, k])[None, :], out=diff)
                    np.multiply(num[psl, None], diff, out=diff)
                    np.add(bracket, diff, out=bracket)
                    dk = np.multiply(pref, bracket, out=bracket)
                    np.conj(dk, out=dk_conj)
                    for j in range(k_out):
                        terms = np.multiply(dk, psi[csl, j][None, :], out=diff)
                        fz[psl, j, k] += np.add.reduce(
                            np.multiply(terms, weights, out=prod), axis=1)
                        if monte_carlo:
                            np.square(np.abs(terms, out=sq), out=sq)
                            mean_sq[psl, j, k] += np.add.reduce(
                                np.multiply(sq, weights, out=sq), axis=1)
                        fzbar[psl, j, k] += np.add.reduce(np.multiply(
                            dk_conj, (psi[csl, j] * w[csl])[None, :], out=prod), axis=1)
        errors = np.zeros(len(pts))
        if monte_carlo:
            per_out = np.sum(np.maximum(mean_sq - np.abs(fz) ** 2, 0.0), axis=2)
            for j in range(k_out):
                errors += per_out[:, j]
            errors = np.sqrt(errors / len(self.rule))
        return [WirtingerData(fz[p], fzbar[p]) for p in range(len(pts))], errors

    def value_error(self, z) -> float:
        """Empirical standard error of the value integrand (MC rules)."""
        return float(self.values_with_errors(coords_of(z)[None, :])[1][0])


def h_extend(boundary: BoundaryFunction, rule: QuadratureRule,
             guard_radius: float = DEFAULT_GUARD_RADIUS) -> HExtension:
    """Build the Poisson-integral extension of ``boundary`` under ``rule``."""
    boundary.spot_check(rule.nodes[: min(len(rule), 4096)])
    return HExtension(boundary, rule, guard_radius)


def h_extend_gradient(ext: HExtension, z) -> WirtingerData:
    """Wirtinger derivatives of an extension at z (see HExtension.wirtinger)."""
    return ext.wirtinger(z)


def laplace_beltrami_residual(f, z, step: float = None) -> complex:
    """Delta_h f at z by central differences with one Richardson level.

    Zero (up to truncation) exactly when f is hyperbolic-harmonic near z.
    ``f`` maps a (P, n) batch of complex points to (P,) complex values.
    """
    zc = coords_of(z)
    n = zc.size
    norm = float(np.linalg.norm(zc))
    if step is None:
        step = LB_STEP_FACTOR * (1.0 - norm)
    if norm + 2.0 * step >= 1.0:
        raise StepTooLarge(f"step {step:g} too large at |z| = {norm:.4g}")
    pts = [zc]
    for k in range(n):
        for unit in (1.0, 1j):
            for s in (step, -step, step / 2.0, -step / 2.0):
                e = np.zeros(n, dtype=complex)
                e[k] = unit * s
                pts.append(zc + e)
    values = np.asarray(f(np.asarray(pts)), dtype=complex)
    f0 = values[0]
    v = values[1:].reshape(n, 2, 4)
    lap_h = (v[:, :, 0] - 2.0 * f0 + v[:, :, 1]) / step ** 2
    lap_h2 = (v[:, :, 2] - 2.0 * f0 + v[:, :, 3]) / (step / 2.0) ** 2
    lap = np.sum((4.0 * lap_h2 - lap_h) / 3.0)
    coord = np.stack([zc.real, zc.imag], axis=1)           # (n, 2): x_k, y_k
    dr_h = (v[:, :, 0] - v[:, :, 1]) / (2.0 * step)
    dr_h2 = (v[:, :, 2] - v[:, :, 3]) / step
    drift = np.sum(coord * (4.0 * dr_h2 - dr_h) / 3.0)
    r2 = norm * norm
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
