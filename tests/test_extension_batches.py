"""A value or gradient of the extension does not depend on its batch.

The value-sum engine works through the points in 64-row blocks, padding
the last block with the origin, so that every BLAS product it makes has the
same shape.  That may not change a single bit: every row, repeated or not,
must equal its own one-point evaluation and the
engine's arithmetic spelled out one point at a time (``gemm_moments``
below), and the result may not depend on the BLAS thread count.  The
original elementwise loop, kept below as ``reference_moments``, is the
accuracy reference.  The gradient engine works on the same tiles: every
gradient row must equal its one-point call and ``gemm_wirtinger`` below,
must not depend on the BLAS thread count, and stays within a set tolerance
of the per-point loop over ``kernel.poisson_h_wirtinger_values`` that the
elementwise engine followed, kept below as ``reference_wirtinger``.
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
    boundary_registry,
    h_extend,
    vector_boundary,
)
from hballs.kernel import poisson_h_wirtinger_values
from hballs.quadrature import CHUNK, circle_rule, sphere_rule_mc

SRC = str(Path(__file__).resolve().parents[1] / "src")

# sizes off a multiple of the chunk, so the last node chunk is a partial one
RULES = {1: circle_rule(1500), 2: sphere_rule_mc(2, 2500, 11)}
EXTENSIONS = {
    n: [h_extend(entry, rule) for entry in boundary_registry(n)]
    + [h_extend(vector_boundary(boundary_registry(n)[1:3]), rule)]
    for n, rule in RULES.items()
}


# Measured against ``reference_moments`` over 2000 points per dimension with
# |z| <= 0.79 (a quarter of them at 0.79): first moments within 1.0e-14 of
# the data's sup norm, second moments within 3.3e-14 relative.
VALUE_TOLERANCE = 1e-13
SECOND_MOMENT_TOLERANCE = 1e-13
# Measured against ``reference_wirtinger`` (either node-sum order) over 400
# points per dimension with |z| <= 0.79 (a quarter at 0.79), stacked
# extensions at n = 1, 2, 3: derivatives within 2.9e-14 of the node sum of
# the terms' magnitudes, standard errors within 7.2e-14 relative.
DERIVATIVE_TOLERANCE = 1e-13
GRADIENT_ERROR_TOLERANCE = 1e-12


def reference_moments(ext, points, want_errors):
    """The elementwise 512-point-block loop that the GEMM form replaced:
    the accuracy reference, one pass per batch."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    k_out = psi.shape[1]
    w = ext.rule.weights
    nodes = ext.rule.nodes
    pts_re, pts_im = pts.real, pts.imag
    num = 1.0 - np.sum(pts_re ** 2 + pts_im ** 2, axis=1)
    expo = 2 * ext.dim - 1
    num_pow = _int_power(num, expo)
    first = np.zeros((len(pts), k_out), dtype=complex)
    second = np.zeros((len(pts), k_out)) if want_errors else None
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
                if want_errors:
                    second[psl, j] += np.add.reduce(
                        (terms.real ** 2 + terms.imag ** 2) * w[start:stop][None, :], axis=1)
    values = first[:, 0] if ext._psi_nodes.ndim == 1 else first
    return values, second


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
    column and moment."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    n = ext.dim
    expo = 2 * n - 1
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    w = ext.rule.weights
    cols = node_columns(ext)
    first = np.zeros((len(pts), psi.shape[1]), dtype=complex)
    second = np.zeros((len(pts), psi.shape[1]))
    for p, z in enumerate(pts):
        sq_norm, block = point_block(z)
        for start in range(0, len(w), CHUNK):
            chunk = slice(start, min(start + CHUNK, len(w)))
            kern = block @ cols[:, chunk]
            kern[0] = _int_power(1.0 - sq_norm, expo) / _int_power(kern[0], expo)
            for j in range(psi.shape[1]):
                psi_w = psi[chunk, j] * w[chunk]
                first[p, j] += (kern @ psi_w.view(np.float64).reshape(-1, 2))[0].view(complex)[0]
                abs2_w = (np.square(psi[chunk, j].real) + np.square(psi[chunk, j].imag)) * w[chunk]
                second[p, j] += ((kern * kern) @ abs2_w)[0]
    values = first[:, 0] if ext._psi_nodes.ndim == 1 else first
    return values, second


def assert_close_to_reference(ext, batch, values, second=None):
    """Values within VALUE_TOLERANCE of the data's sup norm of the elementwise
    loop, second moments within SECOND_MOMENT_TOLERANCE relative."""
    ref_values, ref_second = reference_moments(ext, batch, want_errors=second is not None)
    scale = np.abs(ext._psi_nodes).max()
    assert np.abs(values - ref_values).max() <= VALUE_TOLERANCE * scale
    if second is not None:
        assert np.all(np.abs(second - ref_second) <= SECOND_MOMENT_TOLERANCE * ref_second)


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
    error of any node sum of those terms."""
    dk = poisson_h_wirtinger_values(z, ext.rule.nodes)   # (N, n)
    w = ext.rule.weights
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    fz = np.empty((psi.shape[1], len(z)), dtype=complex)
    fzbar = np.empty_like(fz)
    var_total = scale = 0.0
    monte_carlo = ext.rule.meta["kind"].endswith("mc")
    for j in range(psi.shape[1]):
        terms = dk * psi[:, j][:, None]
        scale = max(scale, float(chunk_sum(np.abs(terms) * w[:, None]).max()))
        fz[j] = chunk_sum(terms * w[:, None])
        fzbar[j] = chunk_sum(np.conj(dk) * (psi[:, j] * w)[:, None])
        if monte_carlo:
            mean_sq = chunk_sum(np.abs(terms) ** 2 * w[:, None])
            var_total += float(np.sum(np.maximum(mean_sq - np.abs(fz[j]) ** 2, 0.0)))
    error = float(np.sqrt(var_total / len(ext.rule))) if monte_carlo else 0.0
    return fz, fzbar, error, scale


def gemm_wirtinger(ext, points):
    """The gradient engine's arithmetic one point at a time: the point as
    row 0 of a block, K, Q = K / d2 and R = K / (1 - |z|^2) + Q from its
    distance row, then per output column one product with R and one with Q,
    and on Monte Carlo rules one with each of R^2, RQ and Q^2, per chunk."""
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
    errors = np.zeros(len(pts))
    for p, z in enumerate(pts):
        sq_norm, block = point_block(z)
        num = 1.0 - sq_norm
        r_sum = np.zeros(k_out, dtype=complex)
        q_sum = np.zeros((k_out, 2 * n), dtype=complex)
        rr_sum, rq_sum, qq_sum = np.zeros(k_out), np.zeros((k_out, n), dtype=complex), np.zeros((k_out, n))
        for start in range(0, len(w), CHUNK):
            chunk = slice(start, min(start + CHUNK, len(w)))
            d2 = block @ cols[:, chunk]
            kern = _int_power(num, expo) / _int_power(d2[0], expo)
            q_tile, r_tile = np.ones_like(d2), np.ones_like(d2)
            q_tile[0] = kern / d2[0]
            r_tile[0] = kern * (1.0 / num) + q_tile[0]
            zeta = np.concatenate([np.conj(nodes[chunk]), nodes[chunk]], axis=1)
            zeta_sq = np.abs(nodes[chunk]) ** 2
            for j in range(k_out):
                psi_w = psi[chunk, j] * w[chunk]
                r_sum[j] += (r_tile @ psi_w.view(np.float64).reshape(-1, 2))[0].view(complex)[0]
                q_sum[j] += (q_tile @ (psi_w[:, None] * zeta).view(np.float64))[0].view(complex)
                m = (np.square(psi[chunk, j].real) + np.square(psi[chunk, j].imag)) * w[chunk]
                rr_sum[j] += ((r_tile * r_tile) @ m)[0]
                rq_sum[j] += ((r_tile * q_tile) @ (m[:, None] * nodes[chunk]).view(np.float64))[0].view(complex)
                qq_sum[j] += ((q_tile * q_tile) @ (m[:, None] * zeta_sq))[0]
        zc = np.conj(z)[None, :]
        fz[p] = -expo * (zc * r_sum[:, None] - q_sum[:, :n])
        fzbar[p] = -expo * (z[None, :] * r_sum[:, None] - q_sum[:, n:])
        if ext.rule.monte_carlo:
            mean_sq = expo ** 2 * ((z.real ** 2 + z.imag ** 2)[None, :] * rr_sum[:, None]
                                   - 2.0 * (zc * rq_sum).real + qq_sum)
            total = 0.0
            for variance in np.sum(np.maximum(mean_sq - np.abs(fz[p]) ** 2, 0.0), axis=1):
                total += variance
            errors[p] = np.sqrt(total / len(ext.rule))
    return fz, fzbar, errors


def bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(bits(actual), bits(expected))


@st.composite
def batches(draw):
    """(n, batch): points inside the guard radius, then a batch that repeats
    and permutes them.  Drawn coordinates probe edge values; seeded filler
    makes some batches span several point blocks."""
    n = draw(st.sampled_from(sorted(RULES)))
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
    assert_close_to_reference(ext, batch, values, ext._moments(batch, want_errors=True)[1])


@settings(max_examples=20, deadline=None)
@given(batches(), st.data())
def test_batch_gradients_equal_row_by_row_and_reference(case, data):
    n, batch = case
    ext = data.draw(st.sampled_from(EXTENSIONS[n]))
    batch = batch[:80]      # still spans several point blocks
    grads, errors = ext.wirtinger_many(batch)
    assert grads.fz.shape == grads.fzbar.shape == (len(batch), ext.boundary.out_dim, n)
    assert errors.shape == (len(batch),)
    for p, (row, error) in enumerate(zip(batch, errors)):
        grad = grads[p]
        one, one_error = ext.wirtinger_with_error(row)
        assert_same_bits(grad.fz, one.fz)
        assert_same_bits(grad.fzbar, one.fzbar)
        assert_same_bits(error, np.float64(one_error))
    fz, fzbar, gemm_errors = gemm_wirtinger(ext, batch[:10])
    for p, (row, error) in enumerate(zip(batch[:10], errors)):
        grad = grads[p]
        # the engine's arithmetic, one point at a time
        assert_same_bits(grad.fz, fz[p])
        assert_same_bits(grad.fzbar, fzbar[p])
        assert_same_bits(error, np.float64(gemm_errors[p]))
        # the kernel's closed form summed node by node, in either order
        for chunk_sum in (pairwise_chunk_sum, sequential_chunk_sum):
            ref_fz, ref_fzbar, ref_error, scale = reference_wirtinger(ext, row, chunk_sum)
            assert np.abs(grad.fz - ref_fz).max() <= DERIVATIVE_TOLERANCE * scale
            assert np.abs(grad.fzbar - ref_fzbar).max() <= DERIVATIVE_TOLERANCE * scale
            assert abs(error - ref_error) <= GRADIENT_ERROR_TOLERANCE * ref_error


# Relative offsets of a point from a node.  The product form rounds the
# squared distance at 1e-9 to 0, so 1e-7 (about 1e-14, positive) is the case
# that tells the 1e-12 floor from a floor near 0.
COLLISION_OFFSETS = [0.0, 1e-9, 1e-7]


@pytest.mark.parametrize("n", sorted(RULES))
@pytest.mark.parametrize("offset", COLLISION_OFFSETS)
def test_gradient_collision_with_a_node_is_refused(n, offset):
    rule = RULES[n]
    ext = h_extend(boundary_registry(n)[1], rule, guard_radius=1.0)
    inside = np.flatnonzero(np.linalg.norm(rule.nodes, axis=1) <= 1.0)
    node = rule.nodes[inside[len(inside) // 2]]
    point = node * (1.0 - offset)
    batch = np.concatenate([0.5 * rule.nodes[:40], point[None, :], 0.5 * rule.nodes[40:45]])
    with pytest.raises(NearSingularEvaluation) as info:
        ext.wirtinger_many(batch)
    assert_same_bits(info.value.point, point)
    assert_same_bits(info.value.node, node)


@pytest.mark.parametrize("n", sorted(RULES))
def test_values_pin_the_gemm_arithmetic(n):
    rng = np.random.default_rng(7 + n)
    raw = rng.normal(size=(70, 2 * n))
    batch = raw[:, :n] + 1j * raw[:, n:]
    batch *= (0.79 * rng.random(len(batch)) / np.linalg.norm(batch, axis=1))[:, None]
    for ext in EXTENSIONS[n]:
        values, second = ext._moments(batch, want_errors=True)
        ref_values, ref_second = gemm_moments(ext, batch)
        assert_same_bits(values, ref_values)
        assert_same_bits(second, ref_second)


@pytest.mark.parametrize("n", sorted(RULES))
def test_gradients_pin_the_gemm_arithmetic(n):
    rng = np.random.default_rng(11 + n)
    raw = rng.normal(size=(70, 2 * n))
    batch = raw[:, :n] + 1j * raw[:, n:]
    batch *= (0.79 * rng.random(len(batch)) / np.linalg.norm(batch, axis=1))[:, None]
    for ext in EXTENSIONS[n]:
        grads, errors = ext.wirtinger_many(batch)
        fz, fzbar, ref_errors = gemm_wirtinger(ext, batch)
        assert_same_bits(grads.fz, fz)
        assert_same_bits(grads.fzbar, fzbar)
        assert_same_bits(errors, ref_errors)


@pytest.mark.parametrize("n", sorted(RULES))
def test_product_rows_do_not_depend_on_their_place_in_a_block(n):
    """The premise of the GEMM form, on the engine's operands: a row of each
    of its products has the same bits at every place in a full block.  The
    rules' last chunks (476 and 452 nodes) are not multiples of 8, where
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
        # the node sums' right operands: (width, 2) and (width,) in the value
        # engine, (width, 4n), (width, 2n) and (width, n) in the gradient engine
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
for n, rule in ((1, circle_rule(1500)), (2, sphere_rule_mc(2, 5000, 11)), (3, sphere_rule_mc(3, 3000, 2))):
    raw = rng.normal(size=(200, 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.79 * rng.random(len(pts)) / np.linalg.norm(pts, axis=1))[:, None]
    ext = h_extend(vector_boundary(boundary_registry(n)), rule)
    for part in ext._moments(pts, want_errors=True):
        digest.update(np.ascontiguousarray(part).tobytes())
    grads, errors = ext.wirtinger_many(pts)
    digest.update(grads.fz.tobytes() + grads.fzbar.tobytes() + errors.tobytes())
print(digest.hexdigest())
"""


def test_values_do_not_depend_on_the_blas_thread_count():
    """Values, second moments, Wirtinger data and their errors at n = 1, 2, 3."""
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
    ext = h_extend(boundary_registry(n)[1], rule, guard_radius=1.0)
    inside = np.flatnonzero(np.linalg.norm(rule.nodes, axis=1) <= 1.0)
    node = rule.nodes[inside[len(inside) // 2]]
    point = node * (1.0 - offset)
    batch = np.concatenate([0.5 * rule.nodes[:40], point[None, :], 0.5 * rule.nodes[40:45]])
    for call in (ext, ext.values_with_errors):
        with pytest.raises(NearSingularEvaluation) as info:
            call(batch)
        assert_same_bits(info.value.point, point)
        assert_same_bits(info.value.node, node)
