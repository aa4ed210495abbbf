import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs.errors import DegeneratePair, EmptySampleSet
from hballs.norms import (
    alpha_bloch_seminorm,
    ball_grid,
    bloch_seminorm,
    near_diagonal_pairs,
    pair_samples,
    sphere_directions,
    weighted_lipschitz_sup,
)


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

    def test_ball_grid_keeps_origin_once(self):
        grid = ball_grid(2, radii=(0.0, 0.3, 0.6), n_dirs=8)
        zero_rows = np.sum(np.all(grid == 0.0, axis=1))
        assert zero_rows == 1
        assert len(grid) == 1 + 2 * 8

    def test_pair_samples_are_reproducible(self):
        a = pair_samples(2, 100, seed=9)
        b = pair_samples(2, 100, seed=9)
        assert np.array_equal(a, b)
        assert np.all(np.linalg.norm(a[:, 0] - a[:, 1], axis=1) > 0.0)

    def test_near_diagonal_pairs_stay_inside(self):
        pairs = near_diagonal_pairs(ball_grid(1), delta=1e-4, n_phases=8)
        assert np.all(np.abs(pairs[:, 1, 0]) < 1.0)


def reference_near_diagonal_pairs(points, delta=1e-4, n_phases=32):
    """The double loop near_diagonal_pairs ran before it was one broadcast."""
    points = np.atleast_2d(points)
    phases = np.exp(2j * np.pi * np.arange(n_phases) / n_phases)
    out = []
    for z in points:
        for ph in phases:
            w = z.copy()
            w[0] += delta * ph
            if np.linalg.norm(w) < 1.0:
                out.append((z, w))
    return np.asarray(out)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 30), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-4, 0.04]), st.integers(1, 40))
def test_near_diagonal_pairs_equal_the_loop_bit_for_bit(n, count, seed, delta, n_phases):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (count, 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.95 * rng.random(count) / np.linalg.norm(pts, axis=1))[:, None]
    # a last row so close to the sphere that part of its partners leave the ball
    edge = np.zeros((1, n), dtype=complex)
    edge[0, 0] = 1.0 - delta / 2.0
    pts = np.concatenate([pts, edge])
    got = near_diagonal_pairs(pts, delta, n_phases)
    want = reference_near_diagonal_pairs(pts, delta, n_phases)
    assert got.shape == want.shape
    assert len(want) < (count + 1) * n_phases
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


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
        small = ball_grid(1, radii=(0.0, 0.2), n_dirs=8)
        large = ball_grid(1, radii=(0.0, 0.2, 0.4, 0.6), n_dirs=16)
        f = shear_scalar
        assert bloch_seminorm(f, small).value <= bloch_seminorm(f, large).value + 1e-15

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySampleSet):
            bloch_seminorm(identity_scalar, np.zeros((0, 1), dtype=complex))
        with pytest.raises(EmptySampleSet):
            bloch_seminorm(identity_scalar, [])

    def test_accepts_ball_points(self):
        from hballs.geometry import BallPoint

        est = bloch_seminorm(identity_scalar, [BallPoint([0.0]), BallPoint([0.5])])
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_witness_value_recomputable(self):
        from hballs.calculus import wirtinger_fd

        est = bloch_seminorm(shear_scalar, ball_grid(1))
        data = wirtinger_fd(shear_scalar, est.witness)
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


def one_pair(z, w):
    return np.array([[z, w]], dtype=complex)


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
            [near_diagonal_pairs(grid), pair_samples(1, 2000, seed=8)], axis=0)
        est = weighted_lipschitz_sup(identity_scalar, pairs)
        assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_sup_bounded_by_bloch_necessity(self):
        # pair sup <= pi sqrt(n) * Bloch sup for smooth registry functions
        grid = ball_grid(1)
        pairs = np.concatenate(
            [near_diagonal_pairs(grid), pair_samples(1, 3000, seed=10)], axis=0)
        for f in (identity_scalar, shear_scalar):
            pair_est = weighted_lipschitz_sup(f, pairs)
            bloch_est = bloch_seminorm(f, grid)
            assert pair_est.value <= np.pi * bloch_est.value + 1e-8
