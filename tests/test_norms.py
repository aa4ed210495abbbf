import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs.calculus import WirtingerData, lambda_bounds_wirtinger
from hballs.errors import DegeneratePair, EmptySampleSet
from hballs.extension import boundary_registry, h_extend, vector_boundary
from hballs.norms import (
    _grid_sups,
    all_pairs_lipschitz,
    alpha_bloch_seminorm,
    ball_grid,
    bloch_seminorm,
    pair_samples,
    sphere_directions,
    uniform_ball,
    weighted_lipschitz_sup,
)
from hballs.quadrature import STREAM_PAIRS, rng_stream, sphere_rule_mc


def identity_map(pts):
    return np.asarray(pts)


def identity_scalar(pts):
    return np.asarray(pts)[:, 0]


def shear_scalar(pts):
    z = np.asarray(pts)[:, 0]
    return z + 0.5 * np.conj(z)


class TestSampleSets:
    def test_sphere_directions_are_unit(self):
        for n in (1, 2, 3):
            dirs = sphere_directions(n, 64)
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_halton_bases_are_the_first_primes(self):
        # one base per real dimension; the first eight are the bases the
        # directions at n <= 4 have always used
        from hballs.norms import _primes

        assert _primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_ball_grid_directions_span_every_real_dimension(self, n):
        # with eight bases cycled, real dimensions d and d + 8 repeated and
        # the 16 directions had real rank 8 at n = 5 and 6
        dirs = sphere_directions(n, 16)
        assert np.linalg.matrix_rank(dirs.view(np.float64)) == 2 * n

    def test_ball_grid_keeps_origin_once(self):
        grid = ball_grid(2)
        zero_rows = np.sum(np.all(grid == 0.0, axis=1))
        assert zero_rows == 1
        assert len(grid) == 1 + 7 * 16

    def test_pair_samples_are_reproducible(self):
        a = pair_samples(2, 100, seed=9)
        b = pair_samples(2, 100, seed=9)
        assert np.array_equal(a, b)
        assert np.all(np.linalg.norm(a[:, 0] - a[:, 1], axis=1) > 0.0)

    def test_pair_floor_scales_with_the_radius(self):
        # an absolute 1e-9 floor dropped every pair below rmax = 1e-9
        small = pair_samples(1, 50, seed=9, rmax=1e-12)
        assert len(small) == 50
        np.testing.assert_allclose(small, pair_samples(1, 50, seed=9, rmax=1.0) * 1e-12,
                                   rtol=1e-12, atol=0.0)


class TestBlochSeminorm:
    def test_constant_is_zero(self):
        est = bloch_seminorm(lambda pts: np.full(len(pts), 3.0 + 1j), ball_grid(1))
        assert est.value <= 1e-12

    def test_identity_attains_one_at_origin(self):
        est = bloch_seminorm(identity_scalar, ball_grid(1))
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(est.witness) <= 1e-14

    def test_shear_is_three_halves(self):
        # |f_z| + |f_zbar| = 3/2 everywhere, and the weight is 1 at the origin
        assert bloch_seminorm(shear_scalar, ball_grid(1)).value == pytest.approx(1.5, abs=1e-9)

    def test_monotone_in_the_sample_set(self):
        large = ball_grid(1)
        small = large[:1 + 2 * 16]   # the origin and the shells 0.1 and 0.2
        f = shear_scalar
        assert bloch_seminorm(f, small).value <= bloch_seminorm(f, large).value + 1e-15

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySampleSet):
            bloch_seminorm(identity_scalar, np.zeros((0, 1), dtype=complex))
        with pytest.raises(EmptySampleSet):
            bloch_seminorm(identity_scalar, [])

    def test_accepts_ball_points(self):
        # a sequence of points, each a coordinate sequence or a scalar at n = 1
        est = bloch_seminorm(identity_scalar, [[0.0], 0.5])
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_witness_value_recomputable(self):
        from hballs.calculus import wirtinger_fd_many

        est = bloch_seminorm(shear_scalar, ball_grid(1))
        data = wirtinger_fd_many(shear_scalar, [est.witness])[0]
        weight = 1.0 - float(np.linalg.norm(est.witness)) ** 2
        recomputed = weight * sum(data.gradient_norms())
        assert recomputed == pytest.approx(est.value, abs=1e-12)


class TestAlphaBloch:
    def test_identity_alpha_one(self):
        est = alpha_bloch_seminorm(identity_map, 1.0, ball_grid(2))
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(est.witness) <= 1e-14

    def test_weight_rescaling_at_fixed_point(self):
        # at fixed z the alpha = 2 value is (1 - |z|^2) times the alpha = 1 value
        z = np.array([[0.5 + 0.2j]])
        one = alpha_bloch_seminorm(identity_map, 1.0, z)
        two = alpha_bloch_seminorm(identity_map, 2.0, z)
        weight = 1.0 - float(np.linalg.norm(z[0])) ** 2
        assert two.value == pytest.approx(weight * one.value, rel=1e-9)

    def test_constant_map_is_zero(self):
        est = alpha_bloch_seminorm(
            lambda pts: np.ones_like(np.asarray(pts)), 1.0, ball_grid(2))
        assert est.value <= 1e-12

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            alpha_bloch_seminorm(identity_map, 0.0, ball_grid(1))
        with pytest.raises(ValueError):
            alpha_bloch_seminorm(identity_map, -1.0, ball_grid(1))


@st.composite
def scalar_data(draw):
    """(points, WirtingerData): P points with |z| <= 0.7 in C^n, n <= 4, and
    scalar data of one scale, some rows with f_z or f_zbar zero, or both."""
    n, count = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = uniform_ball(n, count, rng, 0.7)
    a, b = (10.0 ** draw(st.floats(-6, 6)) * (rng.standard_normal((count, 1, n))
                                             + 1j * rng.standard_normal((count, 1, n)))
            for _ in range(2))
    a[rng.random(count) < 0.25] = 0.0
    b[rng.random(count) < 0.25] = 0.0
    return points, WirtingerData(a, b)


@settings(max_examples=200, deadline=None)
@given(scalar_data())
def test_derivative_limit_is_the_weighted_jacobian_norm_and_u_star_attains_it(case):
    points, data = case
    limit = _grid_sups(points, data)[1]
    weights = 1.0 - np.linalg.norm(points, axis=1) ** 2
    # the reference: Lambda as the real Jacobian's largest singular value
    want = float(np.max(weights * lambda_bounds_wirtinger(data)[0]))
    assert limit.value == pytest.approx(want, rel=1e-13, abs=0.0)
    z, u = limit.witness
    i = int(np.flatnonzero(np.all(points == z, axis=1))[0])
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
    moved = data.fz[i, 0] @ u + data.fzbar[i, 0] @ np.conj(u)
    assert weights[i] * abs(moved) == pytest.approx(limit.value, rel=1e-13, abs=0.0)
    if limit.value == 0.0:
        assert np.array_equal(u, np.eye(points.shape[1], 1)[:, 0])


def one_pair(z, w):
    return np.array([[z, w]], dtype=complex)


def near_diagonal(points, delta=1e-4, n_phases=32):
    """Pairs (z, z + delta theta e_1) over n_phases phases theta, point by
    point, for points with |z| < 1 - delta."""
    phases = np.exp(2j * np.pi * np.arange(n_phases) / n_phases)
    z = np.repeat(points, n_phases, axis=0)
    w = z.copy()
    w[:, 0] += delta * np.tile(phases, len(points))
    return np.stack([z, w], axis=1)


class TestWeightedLipschitz:
    def test_constant_is_zero(self):
        est = weighted_lipschitz_sup(lambda pts: np.ones(len(pts)), one_pair([0.3], [0.1]))
        assert est.value == 0.0

    def test_identity_half_point(self):
        # sqrt(1 - 0.25) * sqrt(1) * 0.5 / 0.5 = sqrt(0.75)
        value = weighted_lipschitz_sup(identity_scalar, one_pair([0.5], [0.0])).value
        assert value == pytest.approx(np.sqrt(0.75), rel=1e-14)
        assert value == pytest.approx(0.8660254037844386, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            z *= 0.9 * rng.random() / np.linalg.norm(z)
            w *= 0.9 * rng.random() / np.linalg.norm(w)
            a = weighted_lipschitz_sup(identity_map, one_pair(z, w)).value
            b = weighted_lipschitz_sup(identity_map, one_pair(w, z)).value
            assert a == pytest.approx(b, abs=1e-15)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegeneratePair):
            weighted_lipschitz_sup(identity_scalar, one_pair([0.2], [0.2]))

    def test_sup_for_identity_approaches_one(self):
        grid = ball_grid(1)
        pairs = np.concatenate(
            [near_diagonal(grid), pair_samples(1, 2000, seed=8)], axis=0)
        est = weighted_lipschitz_sup(identity_scalar, pairs)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_sup_bounded_by_bloch_necessity(self):
        # pair sup <= pi sqrt(n) * Bloch sup for smooth registry functions
        grid = ball_grid(1)
        pairs = np.concatenate(
            [near_diagonal(grid), pair_samples(1, 3000, seed=10)], axis=0)
        for f in (identity_scalar, shear_scalar):
            pair_est = weighted_lipschitz_sup(f, pairs)
            bloch_est = bloch_seminorm(f, grid)
            assert pair_est.value <= np.pi * bloch_est.value + 1e-8


def reference_all_pairs(points, values):
    """``all_pairs_lipschitz`` over np.triu_indices pairs, with its arithmetic:
    sums over real coordinates in order, the squared quotient
    ((dRe^2 + dIm^2) * ((w_i w_j) / d2)), the sqrt of the maximum only."""
    points = np.ascontiguousarray(points, dtype=complex)
    cols = np.asarray(values).reshape(len(points), -1)
    xy = points.view(np.float64)
    i, j = np.triu_indices(len(points), 1)
    sq_norms, d2 = np.zeros(len(points)), np.zeros(len(i))
    for r in range(xy.shape[1]):
        sq_norms += xy[:, r] * xy[:, r]
        gap = xy[i, r] - xy[j, r]
        d2 += gap * gap
    weights = 1.0 - sq_norms
    keep = d2 > (1e-9 * 0.7) ** 2
    i, j, d2 = i[keep], j[keep], d2[keep]
    factor = weights[i] * weights[j] / d2
    out = []
    for c in range(cols.shape[1]):
        d_re, d_im = cols[i, c].real - cols[j, c].real, cols[i, c].imag - cols[j, c].imag
        q2 = (d_re * d_re + d_im * d_im) * factor
        if len(q2):
            best = int(np.argmax(q2))
            out.append((float(np.sqrt(q2[best])), points[[i[best], j[best]]]))
    return out, len(i)


@st.composite
def point_sets(draw):
    """(points, values): P points with |z| <= 0.7 in C^n, some rows repeated
    (pairs the floor drops), and k value columns, some constant (all ties)."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = draw(st.sampled_from([2, 63, 64, 65, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = uniform_ball(n, count, rng, 0.7)
    repeats = draw(st.integers(0, count // 2))
    points[rng.integers(0, count, repeats)] = points[rng.integers(0, count, repeats)]
    values = rng.standard_normal((count, k)) + 1j * rng.standard_normal((count, k))
    values[:, rng.random(k) < 0.25] = 1.0
    return points, values


@settings(max_examples=60, deadline=None)
@given(point_sets())
def test_all_pairs_walk_equals_the_triu_reference_bit_for_bit(case):
    points, values = case
    want, want_pairs = reference_all_pairs(points, values)
    if want_pairs == 0:
        with pytest.raises(EmptySampleSet):
            all_pairs_lipschitz(points, values)
        return
    got, pairs = all_pairs_lipschitz(points, values)
    assert pairs == want_pairs
    assert len(got) == values.shape[1]
    for est, (value, witness) in zip(got, want):
        assert np.float64(est.value).tobytes() == np.float64(value).tobytes()
        assert np.array_equal(est.witness.view(np.uint8), witness.view(np.uint8))


def test_all_pairs_walk_drops_repeated_points_and_matches_the_pair_form():
    points = np.array([[0.1], [0.1], [0.5j], [-0.3]], dtype=complex)
    (est,), pairs = all_pairs_lipschitz(points, points[:, 0] ** 2)
    assert pairs == 5                     # 6 pairs, one of them a repeated point
    i, j = np.triu_indices(4, 1)
    kept = [k for k in range(6) if points[i[k], 0] != points[j[k], 0]]
    pairs_form = weighted_lipschitz_sup(lambda p: np.asarray(p)[:, 0] ** 2,
                                        np.stack([points[i[kept]], points[j[kept]]], axis=1))
    assert est.value == pytest.approx(pairs_form.value, rel=1e-14)
    assert np.array_equal(est.witness, pairs_form.witness)


def test_pair_walk_allocates_less_than_the_value_call_it_follows():
    # thm24's point set at n = 2 (grid + 200 points) and its five value
    # columns: the walk's block buffers stay below the extension engine's tiles
    ruled = [entry for entry in boundary_registry(2) if entry.exact_extension is None]
    ext = h_extend(vector_boundary(ruled), sphere_rule_mc(2, 1500, 1))
    points = np.concatenate([ball_grid(2), uniform_ball(2, 200, rng_stream(1, STREAM_PAIRS), 0.7)])
    columns = np.column_stack([np.ones(len(points)), ext(points)])
    peaks = []
    for call in (lambda: ext(points), lambda: all_pairs_lipschitz(points, columns)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    value_peak, walk_peak = peaks
    assert walk_peak < value_peak
