"""A value or gradient of the extension does not depend on its batch.

The engine works through the points in 64-row blocks, padding the last
block with the origin, so that every BLAS product it makes has the same
shape.  That may not change a single bit: every row, repeated or not,
must equal its own one-point evaluation and the
engine's arithmetic spelled out one point at a time (``gemm_moments``
below), and the result may not depend on the BLAS thread count.  The
original elementwise loop, kept below as ``reference_moments``, is the
accuracy reference.  Gradients come from the same tiles: every
gradient row must equal its one-point call and ``gemm_wirtinger`` below,
must not depend on the BLAS thread count, and stays within a set tolerance
of the per-point loop over ``kernel.poisson_h_wirtinger_values`` that the
elementwise engine followed, kept below as ``reference_wirtinger``.

An even circle rule whose series truncates within m/4 terms at the guard,
as ``RULES[1]`` does, takes the Fourier path instead of the tiles: the same
properties hold for it, its arithmetic is pinned by ``series_moments`` and
``series_wirtinger``, and the GEMM pins run at n = 1 on the even
``circle_rule(600)``, which is still walked: its m/4 = 150 cannot hold the
series' 200 terms at the guard 0.8.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs.errors import NearSingularEvaluation
from hballs.extension import (
    _POINT_BLOCK,
    _int_power,
    _series_terms,
    boundary_registry,
    h_extend,
    vector_boundary,
)
from hballs.kernel import poisson_h_values, poisson_h_wirtinger_values
from hballs.quadrature import CHUNK, circle_rule, sphere_points, sphere_rule_mc

SRC = str(Path(__file__).resolve().parents[1] / "src")

# sizes off a multiple of the chunk, so the last node chunk is a partial one
RULES = {1: circle_rule(1500), 2: sphere_rule_mc(2, 2500, 11), 3: sphere_rule_mc(3, 2100, 5)}
EXTENSIONS = {
    n: [h_extend(entry, rule) for entry in boundary_registry(n)]
    + [h_extend(vector_boundary(boundary_registry(n)[1:3]), rule)]
    for n, rule in RULES.items()
}
# the extensions that walk the kernel tiles: at n = 1 an even circle rule too
# coarse for the Fourier path
WALKED = {**EXTENSIONS, 1: [h_extend(entry, circle_rule(600)) for entry in boundary_registry(1)]
          + [h_extend(vector_boundary(boundary_registry(1)[1:3]), circle_rule(600))]}
# a guard just below 1: it admits points 1e-9 inside the sphere, so a
# collision with a node reaches the tile check
GUARD_NEAR_ONE = 1.0 - 1e-10


# Measured against ``reference_moments`` over 2000 points per dimension with
# |z| <= 0.79 (a quarter of them at 0.79): at n = 1, 2 first moments within
# 1.0e-14 of the data's sup norm, second moments within 3.3e-14 relative.
# At n = 3 (6000 such points and 8000 at |z| = 0.79) a few nodes near the
# point carry terms up to 21 times the sup norm, and first moments differ by
# up to 4.0e-13 of it but by 3.8e-14 of the node sum of the terms'
# magnitudes, sum w |P_h psi_j|; second moments by 8.4e-14 relative.
# |z - zeta|^2 rounds at the scale (1 + |z|)^2 and the kernel raises it to
# the power 2n - 1, so both bounds grow by (2n - 1) / 3 past n = 2.
VALUE_TOLERANCE = 1e-13
SECOND_MOMENT_TOLERANCE = 1e-13
# Measured against ``reference_wirtinger`` (either node-sum order) over 400
# points per dimension with |z| <= 0.79 (a quarter at 0.79), stacked
# extensions at n = 1, 2, 3: derivatives within 2.9e-14 of the node sum of
# the terms' magnitudes, standard errors within 7.2e-14 relative.
DERIVATIVE_TOLERANCE = 1e-13
GRADIENT_ERROR_TOLERANCE = 1e-12


def half_rule_weights(w):
    """The weights of every second node renormalized to sum 1, 0 at the others."""
    w_half = np.zeros(len(w))
    w_half[::2] = w[::2] / np.sum(w[::2])
    return w_half


def reference_moments(ext, points, want_errors):
    """The elementwise 512-point-block loop that the GEMM form replaced:
    the accuracy reference, one pass per batch.  Its error sums are the
    second moments under a Monte Carlo rule, else the half-rule values.
    Also returns the node sums of the terms' magnitudes, (P, k): the scale
    of the rounding error of any node sum of those terms."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    k_out = psi.shape[1]
    w = ext.rule.weights
    w_half = half_rule_weights(w)
    nodes = ext.rule.nodes
    pts_re, pts_im = pts.real, pts.imag
    num = 1.0 - np.sum(pts_re ** 2 + pts_im ** 2, axis=1)
    expo = 2 * ext.dim - 1
    num_pow = _int_power(num, expo)
    first = np.zeros((len(pts), k_out), dtype=complex)
    magnitudes = np.zeros((len(pts), k_out))
    second = np.zeros((len(pts), k_out), dtype=float if ext.rule.monte_carlo else complex) \
        if want_errors else None
    for pstart in range(0, len(pts), 512):
        pstop = min(pstart + 512, len(pts))
        psl = slice(pstart, pstop)
        for start in range(0, len(nodes), CHUNK):
            stop = min(start + CHUNK, len(nodes))
            block = nodes[start:stop]
            d2 = np.zeros((pstop - pstart, stop - start))
            for k in range(ext.dim):
                dx = pts_re[psl, k][:, None] - block[:, k].real[None, :]
                dy = pts_im[psl, k][:, None] - block[:, k].imag[None, :]
                d2 += dx * dx
                d2 += dy * dy
            kern = num_pow[psl][:, None] / _int_power(d2, expo)
            for j in range(k_out):
                terms = kern * psi[start:stop, j][None, :]
                first[psl, j] += np.add.reduce(terms * w[start:stop][None, :], axis=1)
                magnitudes[psl, j] += np.add.reduce(np.abs(terms) * w[start:stop][None, :], axis=1)
                if want_errors and ext.rule.monte_carlo:
                    second[psl, j] += np.add.reduce(
                        (terms.real ** 2 + terms.imag ** 2) * w[start:stop][None, :], axis=1)
                elif want_errors:
                    second[psl, j] += np.add.reduce(terms * w_half[start:stop][None, :], axis=1)
    values = first[:, 0] if ext._psi_nodes.ndim == 1 else first
    return values, second, magnitudes


def node_columns(ext):
    """The nodes' augmented columns (x_1, y_1, ..., 1, |zeta|^2), row-major."""
    xy = ext.rule.nodes.view(np.float64)
    return np.column_stack([xy, np.ones(len(xy)), np.sum(xy * xy, axis=1)]).T.copy()


def point_block(z):
    """|z|^2 and a block whose row 0 is z's augmented row
    (-2x_1, -2y_1, ..., |z|^2, 1) and whose other rows are the origin's."""
    n = len(z)
    sq_norm = np.sum(z.real ** 2 + z.imag ** 2)
    block = np.zeros((_POINT_BLOCK, 2 * n + 2))
    block[:, -1] = 1.0
    block[0, :2 * n] = -2.0 * z.view(np.float64)
    block[0, 2 * n] = sq_norm
    return sq_norm, block


def gemm_moments(ext, points):
    """The engine's arithmetic one point at a time: the point as row 0 of a
    block whose other rows are the origin, |z - zeta|^2 as one product with
    the nodes' row-major augmented columns, then one product per output
    column and error sum (second moment or half-rule value)."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    n = ext.dim
    expo = 2 * n - 1
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    w = ext.rule.weights
    w_half = half_rule_weights(w)
    monte_carlo = ext.rule.monte_carlo
    cols = node_columns(ext)
    first = np.zeros((len(pts), psi.shape[1]), dtype=complex)
    second = np.zeros((len(pts), psi.shape[1]), dtype=float if monte_carlo else complex)
    for p, z in enumerate(pts):
        sq_norm, block = point_block(z)
        for start in range(0, len(w), CHUNK):
            chunk = slice(start, min(start + CHUNK, len(w)))
            kern = block @ cols[:, chunk]
            kern[0] = _int_power(1.0 - sq_norm, expo) / _int_power(kern[0], expo)
            for j in range(psi.shape[1]):
                psi_w = psi[chunk, j] * w[chunk]
                first[p, j] += (kern @ psi_w.view(np.float64).reshape(-1, 2))[0].view(complex)[0]
                if monte_carlo:
                    abs2_w = (np.square(psi[chunk, j].real) + np.square(psi[chunk, j].imag)) * w[chunk]
                    second[p, j] += ((kern * kern) @ abs2_w)[0]
                else:
                    half_w = psi[chunk, j] * w_half[chunk]
                    second[p, j] += (kern @ half_w.view(np.float64).reshape(-1, 2))[0].view(complex)[0]
    values = first[:, 0] if ext._psi_nodes.ndim == 1 else first
    return values, second


def assert_close_to_reference(ext, batch, values, second=None):
    """Values within VALUE_TOLERANCE of the node sum of the terms' magnitudes
    of the elementwise loop, per point and column, and at n = 1, 2 also of the
    data's sup norm; half-rule values (n = 1) within VALUE_TOLERANCE of the
    sup norm; second moments within SECOND_MOMENT_TOLERANCE relative.  Past
    n = 2 the bounds grow with the kernel's power 2n - 1."""
    ref_values, ref_second, magnitudes = reference_moments(ext, batch,
                                                           want_errors=second is not None)
    sup = np.abs(ext._psi_nodes).max()
    growth = max(1.0, (2 * ext.dim - 1) / 3.0)
    scale = np.minimum(magnitudes, sup) if ext.dim <= 2 else magnitudes
    gap = np.abs(np.reshape(values - ref_values, magnitudes.shape))
    assert np.all(gap <= growth * VALUE_TOLERANCE * scale)
    if second is not None and ext.rule.monte_carlo:
        assert np.all(np.abs(second - ref_second) <= growth * SECOND_MOMENT_TOLERANCE * ref_second)
    elif second is not None:
        assert np.abs(second - ref_second).max() <= VALUE_TOLERANCE * sup


def sequential_chunk_sum(terms):
    """The per-point loop's node sum: column sums of (1024, n) blocks, which
    numpy accumulates row after row when n >= 2."""
    total = np.zeros(terms.shape[1:], dtype=terms.dtype)
    for start in range(0, len(terms), CHUNK):
        total += np.add.reduce(terms[start:start + CHUNK], axis=0)
    return total


def pairwise_chunk_sum(terms):
    """The value engine's node sum: pairwise within each contiguous chunk."""
    total = np.zeros(terms.shape[1:], dtype=terms.dtype)
    for start in range(0, len(terms), CHUNK):
        total += np.add.reduce(np.ascontiguousarray(terms[start:start + CHUNK].T), axis=1)
    return total


def reference_wirtinger(ext, z, chunk_sum):
    """The per-point loop of the elementwise gradient engine, with a given
    node sum: the accuracy reference.  Also returns the largest sum of the
    terms' magnitudes, sum w |psi_j dP_h/dz_k|, the scale of the rounding
    error of any node sum of those terms.  The standard errors are per
    column, shaped like the values."""
    dk = poisson_h_wirtinger_values(z, ext.rule.nodes)   # (N, n)
    w = ext.rule.weights
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    fz = np.empty((psi.shape[1], len(z)), dtype=complex)
    fzbar = np.empty_like(fz)
    variances = np.zeros(psi.shape[1])
    scale = 0.0
    monte_carlo = ext.rule.meta["kind"].endswith("mc")
    for j in range(psi.shape[1]):
        terms = dk * psi[:, j][:, None]
        scale = max(scale, float(chunk_sum(np.abs(terms) * w[:, None]).max()))
        fz[j] = chunk_sum(terms * w[:, None])
        fzbar[j] = chunk_sum(np.conj(dk) * (psi[:, j] * w)[:, None])
        if monte_carlo:
            mean_sq = chunk_sum(np.abs(terms) ** 2 * w[:, None])
            variances[j] = np.sum(np.maximum(mean_sq - np.abs(fz[j]) ** 2, 0.0))
    errors = np.sqrt(variances / len(ext.rule))
    return fz, fzbar, errors if ext._psi_nodes.ndim > 1 else errors[0], scale


def gemm_wirtinger(ext, points):
    """The engine's gradient arithmetic one point at a time: the point as
    row 0 of a block, K, Q = K / d2 and R = K / (1 - |z|^2) + Q from its
    distance row, then per output column one product with R and one with Q
    per chunk.  On Monte Carlo rules the standard errors take the second
    moments of ``gemm_moments``, since sum_k |dP_h/dz_k|^2 =
    ((2n-1) P_h / (1 - |z|^2))^2.  They are per column, shaped like the
    values."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    n = ext.dim
    expo = 2 * n - 1
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    k_out = psi.shape[1]
    w = ext.rule.weights
    nodes = ext.rule.nodes
    cols = node_columns(ext)
    fz = np.empty((len(pts), k_out, n), dtype=complex)
    fzbar = np.empty_like(fz)
    errors = np.zeros((len(pts), k_out))
    for p, z in enumerate(pts):
        sq_norm, block = point_block(z)
        num = 1.0 - sq_norm
        r_sum = np.zeros(k_out, dtype=complex)
        q_sum = np.zeros((k_out, 2 * n), dtype=complex)
        for start in range(0, len(w), CHUNK):
            chunk = slice(start, min(start + CHUNK, len(w)))
            d2 = block @ cols[:, chunk]
            kern = _int_power(num, expo) / _int_power(d2[0], expo)
            q_tile, r_tile = np.ones_like(d2), np.ones_like(d2)
            q_tile[0] = kern / d2[0]
            r_tile[0] = kern * (1.0 / num) + q_tile[0]
            zeta = np.concatenate([np.conj(nodes[chunk]), nodes[chunk]], axis=1)
            for j in range(k_out):
                psi_w = psi[chunk, j] * w[chunk]
                r_sum[j] += (r_tile @ psi_w.view(np.float64).reshape(-1, 2))[0].view(complex)[0]
                q_sum[j] += (q_tile @ (psi_w[:, None] * zeta).view(np.float64))[0].view(complex)
        zc = np.conj(z)[None, :]
        fz[p] = -expo * (zc * r_sum[:, None] - q_sum[:, :n])
        fzbar[p] = -expo * (z[None, :] * r_sum[:, None] - q_sum[:, n:])
        if ext.rule.monte_carlo:
            second = gemm_moments(ext, z[None, :])[1][0]
            mean_sq = np.square(expo * (1.0 / num)) * second
            variances = np.maximum(mean_sq - np.sum(np.square(np.abs(fz[p])), axis=1), 0.0)
            errors[p] = np.sqrt(variances / len(ext.rule))
    return fz, fzbar, errors if ext._psi_nodes.ndim > 1 else errors[:, 0]


def series_operands(ext):
    """K and, per column, the Fourier path's operands spelled out term by term:
    rows k and K + k of the value's and the half rule's operands give Re and
    Im of a_k z^k + b_k conj(z)^k (a_k = c_k, b_k = c_{-k}, b_0 = 0) from Re z^k
    and Im z^k, and those of the data's give f_z's (k+1) c_{k+1} z^k and
    f_zbar's (k+1) c_{-(k+1)} conj(z)^k, with c = FFT(psi) / m on the m nodes
    or on the half rule's m/2.  For real psi the two values' Im rows are 0."""
    m = len(ext.rule)
    terms = _series_terms(ext.guard_radius, m // 4)
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    operands = []
    for col in psi.T:
        col = np.ascontiguousarray(col)
        real = not col.imag.any()
        full, half = np.fft.fft(col) / m, np.fft.fft(col[::2]) / (m // 2)
        value, half_value, data = (np.zeros((2 * terms, width)) for width in (2, 2, 4))
        for k in range(terms):
            for coef, op in ((full, value), (half, half_value)):
                a, b = coef[k], coef[-k] if k else 0j
                op[k] = a.real + b.real, 0.0 if real else a.imag + b.imag
                op[terms + k] = b.imag - a.imag, 0.0 if real else a.real - b.real
            alpha, beta = (k + 1) * full[k + 1], (k + 1) * full[-(k + 1)]
            data[k] = alpha.real, alpha.imag, beta.real, beta.imag
            data[terms + k] = -alpha.imag, alpha.real, beta.imag, -beta.real
        operands.append((value, half_value, data))
    return terms, operands


def power_row(z, terms):
    """(Re z^0, ..., Re z^(K-1), Im z^0, ..., Im z^(K-1)) one scalar at a time,
    by the engine's doubling: w = z^s by squaring, then z^(s+i) = z^i w."""
    re, im = np.zeros(terms), np.zeros(terms)
    re[0], re[1], im[1] = 1.0, z.real, z.imag
    w_re, w_im = re[1], im[1]
    filled = 2
    while filled < terms:
        w_sq = w_re * w_im
        w_re, w_im = w_re * w_re - w_im * w_im, w_sq + w_sq
        span = min(filled, terms - filled)
        for i in range(span):
            re[filled + i] = re[i] * w_re - im[i] * w_im
            im[filled + i] = re[i] * w_im + im[i] * w_re
        filled += span
    return np.concatenate([re, im])


def series_block(z, terms):
    """A block whose row 0 is z's power row and whose other rows are the
    origin's (z^0 = 1, every other power 0)."""
    block = np.zeros((_POINT_BLOCK, 2 * terms))
    block[:, 0] = 1.0
    block[0] = power_row(z, terms)
    return block


def series_moments(ext, points):
    """The Fourier path's values and half-rule values one point at a time:
    the point's power row as row 0 of a block, one product per column and
    output."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    terms, operands = series_operands(ext)
    first = np.zeros((len(pts), len(operands)), dtype=complex)
    second = np.zeros_like(first)
    for p, z in enumerate(pts[:, 0]):
        block = series_block(z, terms)
        for j, (value, half_value, _) in enumerate(operands):
            first[p, j] = (block @ value)[0].view(complex)[0]
            second[p, j] = (block @ half_value)[0].view(complex)[0]
    return (first[:, 0] if ext._psi_nodes.ndim == 1 else first), second


def series_wirtinger(ext, points):
    """The Fourier path's (f_z, f_zbar) one point at a time, with the data
    errors 0.0 that a spectral rule reports."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    terms, operands = series_operands(ext)
    fz = np.empty((len(pts), len(operands), 1), dtype=complex)
    fzbar = np.empty_like(fz)
    for p, z in enumerate(pts[:, 0]):
        block = series_block(z, terms)
        for j, (_, _, data) in enumerate(operands):
            fz[p, j, 0], fzbar[p, j, 0] = (block @ data)[0].view(complex)
    errors = np.zeros((len(pts), len(operands)))
    return fz, fzbar, errors if ext._psi_nodes.ndim > 1 else errors[:, 0]


def bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(bits(actual), bits(expected))


@st.composite
def batches(draw, rules=RULES):
    """(n, batch): points inside the guard radius, then a batch that repeats
    and permutes them, n a dimension of ``rules``.  Drawn coordinates probe
    edge values; seeded filler makes some batches span several point
    blocks."""
    n = draw(st.sampled_from(sorted(rules)))
    coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    drawn = draw(st.lists(st.lists(coord, min_size=2 * n, max_size=2 * n),
                          min_size=1, max_size=20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    filler = rng.uniform(-1.0, 1.0, (draw(st.integers(0, 300)), 2 * n))
    raw = np.concatenate([np.array(drawn), filler])
    base = raw[:, :n] + 1j * raw[:, n:]
    norms = np.linalg.norm(base, axis=1)
    base *= np.minimum(1.0, 0.79 / np.maximum(norms, 1e-300))[:, None]
    picks = rng.integers(0, len(base), draw(st.integers(1, 700)))
    return n, base[picks]


@settings(max_examples=30, deadline=None)
@given(batches(), st.data())
def test_batch_values_equal_row_by_row_and_reference(case, data):
    n, batch = case
    ext = data.draw(st.sampled_from(EXTENSIONS[n]))
    values = ext(batch)
    rows = np.stack([ext(row[None, :])[0] for row in batch])
    assert_same_bits(values, rows)
    assert_close_to_reference(ext, batch, values)


@settings(max_examples=30, deadline=None)
@given(batches(), st.data())
def test_batch_errors_equal_row_by_row_and_reference(case, data):
    n, batch = case
    ext = data.draw(st.sampled_from(EXTENSIONS[n]))
    values, errors = ext.values_with_errors(batch)
    row_pairs = [ext.values_with_errors(row[None, :]) for row in batch]
    assert_same_bits(values, np.stack([v[0] for v, _ in row_pairs]))
    assert_same_bits(errors, np.array([e[0] for _, e in row_pairs]))
    second = ext._walk(batch, values=True, data=False, errors=True)[1]
    assert_close_to_reference(ext, batch, values, second)


@settings(max_examples=20, deadline=None)
@given(batches(), st.data())
def test_batch_gradients_equal_row_by_row_and_reference(case, data):
    n, batch = case
    ext = data.draw(st.sampled_from(EXTENSIONS[n]))
    batch = batch[:80]      # still spans several point blocks
    grads, errors = ext.wirtinger_many(batch)
    assert grads.fz.shape == grads.fzbar.shape == (len(batch), ext.boundary.out_dim, n)
    assert errors.shape == ext(batch).shape
    for p, (row, error) in enumerate(zip(batch, errors)):
        grad = grads[p]
        one, one_error = ext.wirtinger_with_error(row)
        assert_same_bits(grad.fz, one.fz)
        assert_same_bits(grad.fzbar, one.fzbar)
        assert_same_bits(error, np.asarray(one_error, dtype=float))
    pinned = gemm_wirtinger if ext._series is None else series_wirtinger
    fz, fzbar, gemm_errors = pinned(ext, batch[:10])
    for p, (row, error) in enumerate(zip(batch[:10], errors)):
        grad = grads[p]
        # the engine's arithmetic, one point at a time
        assert_same_bits(grad.fz, fz[p])
        assert_same_bits(grad.fzbar, fzbar[p])
        assert_same_bits(error, gemm_errors[p])
        # the kernel's closed form summed node by node, in either order
        for chunk_sum in (pairwise_chunk_sum, sequential_chunk_sum):
            ref_fz, ref_fzbar, ref_error, scale = reference_wirtinger(ext, row, chunk_sum)
            assert np.abs(grad.fz - ref_fz).max() <= DERIVATIVE_TOLERANCE * scale
            assert np.abs(grad.fzbar - ref_fzbar).max() <= DERIVATIVE_TOLERANCE * scale
            assert np.all(np.abs(error - ref_error) <= GRADIENT_ERROR_TOLERANCE * ref_error)


@pytest.mark.parametrize("n", sorted(RULES))   # the circle rule, then Monte Carlo rules
def test_gradients_asked_for_no_error_keep_their_bits(n):
    ext = EXTENSIONS[n][-1]                   # a stacked two-column extension
    batch = 0.79 * sphere_points(np.random.default_rng(n), 150, n) \
        * np.random.default_rng(n + 1).random(150)[:, None]
    with_errors, errors = ext.wirtinger_many(batch)
    without, none = ext.wirtinger_many(batch, want_errors=False)
    assert errors.shape == (150, 2) and none is None
    assert_same_bits(without.fz, with_errors.fz)
    assert_same_bits(without.fzbar, with_errors.fzbar)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(RULES)), st.sampled_from([1, 63, 64, 65, 129]),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_each_output_of_a_request_has_the_bits_it_has_alone(n, count, columns, seed):
    """Values, their errors, Wirtinger data and their errors from one walk,
    under the circle rule (n = 1) and Monte Carlo rules (n = 2, 3), for batches
    on both sides of a point block's edge and 1-3 stacked columns."""
    rng = np.random.default_rng(seed)
    registry = boundary_registry(n)
    entries = [registry[i] for i in rng.choice(len(registry), columns, replace=False)]
    ext = h_extend(entries[0] if columns == 1 else vector_boundary(entries), RULES[n])
    batch = 0.79 * sphere_points(rng, count, n) * rng.random(count)[:, None]
    values, errors, data, data_errors = ext.values_with_errors(batch, wirtinger=True)
    alone_values, alone_errors = ext.values_with_errors(batch)
    alone_data, alone_data_errors = ext.wirtinger_many(batch)
    assert_same_bits(values, ext(batch))
    assert_same_bits(values, alone_values)
    assert_same_bits(errors, alone_errors)
    for part, alone in ((data, alone_data), (ext.wirtinger_many(batch, want_errors=False)[0], data)):
        assert_same_bits(part.fz, alone.fz)
        assert_same_bits(part.fzbar, alone.fzbar)
    assert_same_bits(data_errors, alone_data_errors)
    # the raw error sums: second moments, or half-rule values
    assert_same_bits(ext._walk(batch, values=True, data=True, errors=True)[1],
                     ext._walk(batch, values=True, data=False, errors=True)[1])


# Relative offsets of a point from a node.  The product form rounds the
# squared distance at 1e-9 to 0, so 1e-7 (about 1e-14, positive) is the case
# that tells the 1e-12 floor from a floor near 0.  At offset 0 the point lies
# on the sphere, beyond any guard radius, so the guard refuses it.
COLLISION_OFFSETS = [0.0, 1e-9, 1e-7]


def assert_collision_refused(info, point, node, offset):
    """The refusal names the point, and the node when the tile check fired."""
    assert_same_bits(info.value.point, point)
    if offset:
        assert_same_bits(info.value.node, node)
    else:
        assert info.value.node is None and "guard radius" in str(info.value)


@pytest.mark.parametrize("n", sorted(RULES))
@pytest.mark.parametrize("offset", COLLISION_OFFSETS)
def test_gradient_collision_with_a_node_is_refused(n, offset):
    rule = RULES[n]
    ext = h_extend(boundary_registry(n)[1], rule, guard_radius=GUARD_NEAR_ONE)
    inside = np.flatnonzero(np.linalg.norm(rule.nodes, axis=1) <= 1.0)
    node = rule.nodes[inside[len(inside) // 2]]
    point = node * (1.0 - offset)
    batch = np.concatenate([0.5 * rule.nodes[:40], point[None, :], 0.5 * rule.nodes[40:45]])
    with pytest.raises(NearSingularEvaluation) as info:
        ext.wirtinger_many(batch)
    assert_collision_refused(info, point, node, offset)


@pytest.mark.parametrize("n", sorted(RULES))
def test_values_pin_the_gemm_arithmetic(n):
    rng = np.random.default_rng(7 + n)
    raw = rng.normal(size=(70, 2 * n))
    batch = raw[:, :n] + 1j * raw[:, n:]
    batch *= (0.79 * rng.random(len(batch)) / np.linalg.norm(batch, axis=1))[:, None]
    for ext in WALKED[n]:
        values, second = ext._walk(batch, values=True, data=False, errors=True)[:2]
        ref_values, ref_second = gemm_moments(ext, batch)
        assert_same_bits(values, ref_values)
        assert_same_bits(second, ref_second)


@pytest.mark.parametrize("n", sorted(RULES))
def test_gradients_pin_the_gemm_arithmetic(n):
    rng = np.random.default_rng(11 + n)
    raw = rng.normal(size=(70, 2 * n))
    batch = raw[:, :n] + 1j * raw[:, n:]
    batch *= (0.79 * rng.random(len(batch)) / np.linalg.norm(batch, axis=1))[:, None]
    for ext in WALKED[n]:
        grads, errors = ext.wirtinger_many(batch)
        fz, fzbar, ref_errors = gemm_wirtinger(ext, batch)
        assert_same_bits(grads.fz, fz)
        assert_same_bits(grads.fzbar, fzbar)
        assert_same_bits(errors, ref_errors)


def ball_batch(seed, count, n=1):
    """``count`` seeded points with |z| <= 0.79, a quarter of them at 0.79."""
    rng = np.random.default_rng(seed)
    radii = 0.79 * np.sqrt(rng.random(count))
    radii[:count // 4] = 0.79
    return sphere_points(rng, count, n) * radii[:, None]


def test_values_pin_the_series_arithmetic():
    batch = ball_batch(8, 70)
    for ext in EXTENSIONS[1]:
        assert ext._series is not None
        values, second = ext._walk(batch, values=True, data=False, errors=True)[:2]
        ref_values, ref_second = series_moments(ext, batch)
        assert_same_bits(values, ref_values)
        assert_same_bits(second, ref_second)


def test_gradients_pin_the_series_arithmetic():
    batch = ball_batch(12, 70)
    for ext in EXTENSIONS[1]:
        grads, errors = ext.wirtinger_many(batch)
        fz, fzbar, ref_errors = series_wirtinger(ext, batch)
        assert_same_bits(grads.fz, fz)
        assert_same_bits(grads.fzbar, fzbar)
        assert_same_bits(errors, ref_errors)


def test_series_terms_bound_the_dropped_tail():
    """K(g) is the least K with 2 sum_{k >= K} k g^(k-1) <= 2^-53, summed
    term by term here; 200 terms at the default guard 0.8."""
    def tail(g, terms):
        return sum(k * g ** (k - 1) for k in range(terms, terms + 20000))

    for guard in (0.0, 0.5, 0.79, 0.8, 0.95):
        terms = _series_terms(guard, 10 ** 5)
        assert 2.0 * tail(guard, terms) <= 2.0 ** -53 < 2.0 * tail(guard, terms - 1)
    assert _series_terms(0.8, 10 ** 5) == 200
    assert _series_terms(0.8, 199) is None


@pytest.mark.parametrize("entry", [entry for entry in boundary_registry(1)
                                   if not entry.values(circle_rule(8).nodes).imag.any()]
                         + [vector_boundary(boundary_registry(1)[2:4])],
                         ids=lambda entry: entry.label)
def test_real_data_have_real_series_values(entry):
    """A real column's value and half-rule value are real to the bit on the
    Fourier path: c_(-k) = conj(c_k) holds only to rounding, so the series
    takes no imaginary part from it."""
    ext = h_extend(entry, circle_rule(4096))
    assert ext._series is not None
    values, second = ext._walk(ball_batch(5, 300), values=True, data=False, errors=True)[:2]
    assert not values.imag.any() and not second.imag.any()


# Measured against the kernel sums of ``poisson_h_values`` and
# ``poisson_h_wirtinger_values`` at 400 points with |z| <= 0.79 (a quarter at
# 0.79), m = 1500 and 4096, each n = 1 entry and their stack: values and
# half-rule errors within 1.6e-15 of the data's sup norm, f_z and f_zbar
# within 3.2e-15; most of it is the reference's exp/log rounding.  Closed
# forms agree with the Fourier path within 2.6e-16.
SERIES_TOLERANCE = 1e-14


@pytest.mark.parametrize("m", [1500, 4096])
@pytest.mark.parametrize("entry", boundary_registry(1) + [vector_boundary(boundary_registry(1))],
                         ids=lambda entry: entry.label)
def test_series_extensions_match_the_kernel_sums(m, entry):
    rule = circle_rule(m)
    ext = h_extend(entry, rule)
    assert ext._series is not None
    batch = ball_batch(m, 200)
    values, errors, data, data_errors = ext.values_with_errors(batch, wirtinger=True)
    psi = ext._psi_nodes
    kernel = np.array([poisson_h_values(z, rule.nodes) for z in batch])
    derivative = np.array([poisson_h_wirtinger_values(z, rule.nodes)[:, 0] for z in batch])
    ref_values = (kernel * rule.weights) @ psi
    ref_errors = np.abs(ref_values - (kernel * rule.half_weights) @ psi)
    ref_fz = (derivative * rule.weights) @ psi
    ref_fzbar = (np.conj(derivative) * rule.weights) @ psi
    bound = SERIES_TOLERANCE * np.abs(psi).max()
    assert np.abs(values - ref_values).max() <= bound
    assert np.abs(errors - ref_errors).max() <= bound
    for side, ref in ((data.fz, ref_fz), (data.fzbar, ref_fzbar)):
        assert np.abs(side[:, :, 0].reshape(ref.shape) - ref).max() <= bound
    assert not data_errors.any()
    if entry.exact_extension is not None:
        assert np.abs(values - entry.exact_extension(batch)).max() <= 1e-15


@pytest.mark.parametrize("m, guard, series", [
    (800, 0.8, True), (798, 0.8, False), (801, 0.8, False), (800, 0.79, True),
    (1500, 0.99, False), (64, 0.5, False), (248, 0.5, True)])
def test_the_fourier_path_needs_an_even_rule_with_room_for_its_terms(m, guard, series):
    """K(0.8) = 200 and K(0.5) = 62 terms fit in m/4 from m = 800 and 248."""
    ext = h_extend(boundary_registry(1)[1], circle_rule(m), guard_radius=guard)
    assert (ext._series is not None) == series


@pytest.mark.parametrize("m, guard", [(1499, 0.8), (64, 0.8), (1500, 0.99)],
                         ids=["odd", "too-coarse", "guard-0.99"])
def test_rules_the_series_cannot_serve_keep_the_kernel_walk(m, guard):
    """An odd rule, rules too coarse for their guard and a guard near 1 walk
    the kernel tiles with the GEMM arithmetic, bit for bit.  The odd rule has
    no half rule, so it gives values and Wirtinger data but no value errors."""
    ext = h_extend(vector_boundary(boundary_registry(1)[1:4]), circle_rule(m), guard_radius=guard)
    assert ext._series is None
    batch = ball_batch(m, 70)
    ref_values, ref_second = gemm_moments(ext, batch)
    if m % 2:
        assert_same_bits(ext(batch), ref_values)
        with pytest.raises(ValueError, match=f"{m} nodes, an odd count, has no half rule"):
            ext.values_with_errors(batch)
    else:
        values, second = ext._walk(batch, values=True, data=False, errors=True)[:2]
        assert_same_bits(values, ref_values)
        assert_same_bits(second, ref_second)
    grads, errors = ext.wirtinger_many(batch)
    fz, fzbar, ref_errors = gemm_wirtinger(ext, batch)
    assert_same_bits(grads.fz, fz)
    assert_same_bits(grads.fzbar, fzbar)
    assert_same_bits(errors, ref_errors)


def test_series_product_rows_do_not_depend_on_their_place_in_a_block():
    """The GEMM premise on the Fourier path's operands: a row of the power
    table times each operand has the same bits at every place in a block."""
    ext = EXTENSIONS[1][-1]
    terms, operands = series_operands(ext)
    table = np.stack([power_row(z, terms) for z in ball_batch(3, _POINT_BLOCK)[:, 0]])
    origin = np.zeros_like(table)
    origin[:, 0] = 1.0
    for right in operands[0]:
        full = table @ right
        for r in range(_POINT_BLOCK):
            alone = origin.copy()
            alone[0] = table[r]
            assert_same_bits((alone @ right)[0], full[r])


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_a_one_tile_request_makes_its_products_once(columns, monkeypatch):
    """One distance product per tile, then per column: schwarzpick's request
    (values, errors, data, data errors) one product each for the value, its
    second moment, R and Q; the data with errors alone all but the value's.
    The gradient errors take no product of their own."""
    entries = boundary_registry(2)[1:1 + columns]
    ext = h_extend(entries[0] if columns == 1 else vector_boundary(entries),
                   sphere_rule_mc(2, CHUNK, 3))
    batch = 0.79 * sphere_points(np.random.default_rng(columns), _POINT_BLOCK, 2)
    counted, matmul = [], np.matmul

    def counting_matmul(*args, **kwargs):
        counted.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    ext.values_with_errors(batch, wirtinger=True)
    full = len(counted)
    counted.clear()
    ext.wirtinger_many(batch)
    assert (full, len(counted)) == (1 + 4 * columns, 1 + 3 * columns)


@pytest.mark.parametrize("n", sorted(RULES))
def test_product_rows_do_not_depend_on_their_place_in_a_block(n):
    """The premise of the GEMM form, on the engine's operands: a row of each
    of its products has the same bits at every place in a full block.  The
    rules' last chunks (476, 452 and 52 nodes) are not multiples of 8, where
    distance products with column-major node columns gave rows 60-63 other
    bits."""
    ext = EXTENSIONS[n][0]
    rng = np.random.default_rng(n)
    raw = rng.normal(size=(_POINT_BLOCK, 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.79 * rng.random(len(pts)) / np.linalg.norm(pts, axis=1))[:, None]
    block = np.zeros((_POINT_BLOCK, 2 * n + 2))
    block[:, :2 * n] = -2.0 * pts.view(np.float64)
    block[:, 2 * n] = np.sum(pts.real ** 2 + pts.imag ** 2, axis=1)
    block[:, -1] = 1.0
    origin = np.zeros_like(block)
    origin[:, -1] = 1.0
    for chunk in ext.rule.chunks():
        cols = ext._node_aug[:, chunk]
        kern = 1.0 / (block @ cols) ** (2 * n - 1)
        width = cols.shape[1]
        # the node sums' right operands: (width, 2) and (width,) for values,
        # (width, 4n), (width, 2n) and (width, n) for gradients
        rights = [rng.normal(size=(width, c)) for c in (2, 4 * n, 2 * n, n)]
        for left, right in [(block, cols)] + [(kern, r) for r in rights + [rights[0][:, 0].copy()]]:
            full = left @ right
            for r in range(_POINT_BLOCK):
                alone = (origin if left is block else np.ones_like(left)).copy()
                alone[0] = left[r]
                assert_same_bits((alone @ right)[0], full[r])


BLAS_THREADS_SCRIPT = """
import hashlib, numpy as np
from hballs.extension import boundary_registry, h_extend, vector_boundary
from hballs.quadrature import circle_rule, sphere_rule_mc
rng = np.random.default_rng(3)
digest = hashlib.sha256()
for n, rule in ((1, circle_rule(1500)), (1, circle_rule(600)), (2, sphere_rule_mc(2, 5000, 11)),
                (3, sphere_rule_mc(3, 3000, 2))):
    raw = rng.normal(size=(200, 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.79 * rng.random(len(pts)) / np.linalg.norm(pts, axis=1))[:, None]
    ext = h_extend(vector_boundary(boundary_registry(n)), rule)
    for part in ext._walk(pts, values=True, data=False, errors=True)[:2]:
        digest.update(np.ascontiguousarray(part).tobytes())
    grads, errors = ext.wirtinger_many(pts)
    digest.update(grads.fz.tobytes() + grads.fzbar.tobytes() + errors.tobytes())
    values, value_errors, grads, errors = ext.values_with_errors(pts, wirtinger=True)
    for part in (values, value_errors, grads.fz, grads.fzbar, errors):
        digest.update(part.tobytes())
print(digest.hexdigest())
"""


def test_values_do_not_depend_on_the_blas_thread_count():
    """Values, second moments, Wirtinger data and their errors at n = 1, 2, 3,
    requested apart and in one request; at n = 1 on the Fourier path and on
    the kernel walk."""
    digests = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("n", sorted(RULES))
@pytest.mark.parametrize("offset", COLLISION_OFFSETS)
def test_value_collision_with_a_node_is_refused(n, offset):
    rule = RULES[n]
    ext = h_extend(boundary_registry(n)[1], rule, guard_radius=GUARD_NEAR_ONE)
    inside = np.flatnonzero(np.linalg.norm(rule.nodes, axis=1) <= 1.0)
    node = rule.nodes[inside[len(inside) // 2]]
    point = node * (1.0 - offset)
    batch = np.concatenate([0.5 * rule.nodes[:40], point[None, :], 0.5 * rule.nodes[40:45]])
    for call in (ext, ext.values_with_errors):
        with pytest.raises(NearSingularEvaluation) as info:
            call(batch)
        assert_collision_refused(info, point, node, offset)
