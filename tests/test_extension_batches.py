"""A value or gradient of the extension does not depend on its batch.

The value-sum engine evaluates each distinct row once and works through the
points in cache-sized blocks.  Neither step may change a single bit: every
row must equal its own one-point evaluation and the original 512-point-block
loop, kept below as the reference.  The gradient engine evaluates the
kernel's closed-form Wirtinger derivatives on point-by-node tiles; every row
must equal its one-point call, and the original per-point loop over
``kernel.poisson_h_wirtinger_values``, kept below as the reference, once the
node sum runs in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs.errors import NearSingularEvaluation
from hballs.extension import _int_power, boundary_registry, h_extend, vector_boundary
from hballs.kernel import poisson_h_wirtinger_values
from hballs.quadrature import CHUNK, circle_rule, sphere_rule_mc

# sizes off a multiple of the chunk, so the last node chunk is a partial one
RULES = {1: circle_rule(1500), 2: sphere_rule_mc(2, 2500, 11)}
EXTENSIONS = {
    n: [h_extend(entry, rule) for entry in boundary_registry(n)]
    + [h_extend(vector_boundary(boundary_registry(n)[1:3]), rule)]
    for n, rule in RULES.items()
}


def reference_moments(ext, points, want_errors):
    """The 512-point-block loop the engine replaced, one pass per batch."""
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
    """The per-point gradient loop the engine replaced, with a given node sum."""
    dk = poisson_h_wirtinger_values(z, ext.rule.nodes)   # (N, n)
    w = ext.rule.weights
    psi = ext._psi_nodes if ext._psi_nodes.ndim > 1 else ext._psi_nodes[:, None]
    fz = np.empty((psi.shape[1], len(z)), dtype=complex)
    fzbar = np.empty_like(fz)
    var_total = 0.0
    monte_carlo = ext.rule.meta["kind"].endswith("mc")
    for j in range(psi.shape[1]):
        terms = dk * psi[:, j][:, None]
        fz[j] = chunk_sum(terms * w[:, None])
        fzbar[j] = chunk_sum(np.conj(dk) * (psi[:, j] * w)[:, None])
        if monte_carlo:
            mean_sq = chunk_sum(np.abs(terms) ** 2 * w[:, None])
            var_total += float(np.sum(np.maximum(mean_sq - np.abs(fz[j]) ** 2, 0.0)))
    error = float(np.sqrt(var_total / len(ext.rule))) if monte_carlo else 0.0
    return fz, fzbar, error


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
    assert_same_bits(values, reference_moments(ext, batch, want_errors=False)[0])


@settings(max_examples=30, deadline=None)
@given(batches(), st.data())
def test_batch_errors_equal_row_by_row_and_reference(case, data):
    n, batch = case
    ext = data.draw(st.sampled_from(EXTENSIONS[n]))
    values, errors = ext.values_with_errors(batch)
    row_pairs = [ext.values_with_errors(row[None, :]) for row in batch]
    assert_same_bits(values, np.stack([v[0] for v, _ in row_pairs]))
    assert_same_bits(errors, np.array([e[0] for _, e in row_pairs]))
    ref_values, ref_second = reference_moments(ext, batch, want_errors=True)
    assert_same_bits(values, ref_values)
    assert_same_bits(ext._moments(batch, want_errors=True)[1], ref_second)


@settings(max_examples=20, deadline=None)
@given(batches(), st.data())
def test_batch_gradients_equal_row_by_row_and_reference(case, data):
    n, batch = case
    ext = data.draw(st.sampled_from(EXTENSIONS[n]))
    batch = batch[:80]      # still spans several point blocks
    grads, errors = ext.wirtinger_many(batch)
    assert len(grads) == len(batch) and errors.shape == (len(batch),)
    for row, grad, error in zip(batch, grads, errors):
        one, one_error = ext.wirtinger_with_error(row)
        assert_same_bits(grad.fz, one.fz)
        assert_same_bits(grad.fzbar, one.fzbar)
        assert_same_bits(error, np.float64(one_error))
    for row, grad, error in list(zip(batch, grads, errors))[:10]:
        # the kernel's arithmetic, summed in the value engine's order
        fz, fzbar, ref_error = reference_wirtinger(ext, row, pairwise_chunk_sum)
        assert_same_bits(grad.fz, fz)
        assert_same_bits(grad.fzbar, fzbar)
        assert_same_bits(error, np.float64(ref_error))
        # the replaced loop: the same bits at n = 1, where both sums are pairwise
        fz, fzbar, ref_error = reference_wirtinger(ext, row, sequential_chunk_sum)
        if n == 1:
            assert_same_bits(grad.fz, fz)
            assert_same_bits(grad.fzbar, fzbar)
            assert_same_bits(error, np.float64(ref_error))
        else:
            scale = max(np.abs(fz).max(), np.abs(fzbar).max())
            assert np.abs(grad.fz - fz).max() <= 1e-13 * scale
            assert np.abs(grad.fzbar - fzbar).max() <= 1e-13 * scale
            assert abs(error - ref_error) <= 1e-13 * ref_error


@pytest.mark.parametrize("n", sorted(RULES))
def test_gradient_collision_with_a_node_is_refused(n):
    rule = RULES[n]
    ext = h_extend(boundary_registry(n)[1], rule, guard_radius=1.0)
    inside = np.flatnonzero(np.linalg.norm(rule.nodes, axis=1) <= 1.0)
    node = rule.nodes[inside[len(inside) // 2]]
    batch = np.concatenate([0.5 * rule.nodes[:40], node[None, :], 0.5 * rule.nodes[40:45]])
    with pytest.raises(NearSingularEvaluation) as info:
        ext.wirtinger_many(batch)
    assert_same_bits(info.value.point, node)
