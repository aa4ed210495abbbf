import numpy as np
import pytest

from hballs.errors import DimensionMismatch, UndefinedProjection
from hballs.geometry import (
    BallPoint,
    hermitian_inner,
    mobius,
    mobius_identity_residual,
    projection_onto,
)


def random_ball_point(rng, n, rmax=0.99):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z * (rmax * rng.random() ** (1.0 / (2 * n)) / np.linalg.norm(z))


class TestPoints:
    def test_ball_point_rejects_boundary(self):
        with pytest.raises(ValueError):
            BallPoint([1.0])
        with pytest.raises(ValueError):
            BallPoint([0.8, 0.7])

    def test_ball_point_is_read_only(self):
        p = BallPoint([0.3, 0.4j])
        with pytest.raises(ValueError):
            p.coords[0] = 0.0


class TestHermitianInner:
    def test_unit_basis(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        assert hermitian_inner(e1, e1) == 1.0

    def test_norm_squared(self):
        z = np.array([0.3, 0.4j])
        assert hermitian_inner(z, z) == pytest.approx(0.25, abs=1e-15)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert hermitian_inner(z, w) == pytest.approx(
                np.conj(hermitian_inner(w, z)), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hermitian_inner([1.0, 0.0], [1.0])


class TestProjection:
    def test_coordinate_projection(self):
        p = projection_onto([1.0, 0.0], [0.2, 0.3])
        np.testing.assert_allclose(p, [0.2, 0.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = random_ball_point(rng, 3)
            z = random_ball_point(rng, 3)
            once = projection_onto(a, z)
            twice = projection_onto(a, once)
            np.testing.assert_allclose(twice, once, atol=1e-14)

    def test_fixed_point(self):
        a = np.array([0.2, 0.1j, 0.05])
        np.testing.assert_allclose(projection_onto(a, a), a, atol=1e-15)

    def test_zero_is_undefined(self):
        with pytest.raises(UndefinedProjection):
            projection_onto([0.0, 0.0], [0.1, 0.1])


class TestMobius:
    def test_maps_a_to_zero(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            a = random_ball_point(rng, n, 0.9)
            assert mobius(a, a).norm() <= 1e-14

    def test_maps_zero_to_a(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            a = random_ball_point(rng, n, 0.9)
            np.testing.assert_allclose(mobius(a, np.zeros(n)).coords, a, atol=1e-14)

    def test_scalar_formula(self):
        # one-variable form (a - z) / (1 - conj(a) z), the independent oracle
        a, z = 0.5, 0.25
        expected = (a - z) / (1.0 - a * z)
        got = mobius([a], [z]).coords[0]
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.2857142857142857, rel=1e-12)

    def test_zero_convention(self):
        z = np.array([0.3, -0.2j])
        np.testing.assert_allclose(mobius(np.zeros(2), z).coords, -z, atol=0.0)

    def test_stays_in_ball(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = random_ball_point(rng, n)
            z = random_ball_point(rng, n)
            assert mobius(a, z).norm() < 1.0

    def test_contraction_chain(self):
        # |phi_a(z)| <= |z - a| / (1 - |a|)
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            a = random_ball_point(rng, n, 0.95)
            z = random_ball_point(rng, n, 0.95)
            bound = np.linalg.norm(z - a) / (1.0 - np.linalg.norm(a))
            assert mobius(a, z).norm() <= bound + 1e-12


class TestMobiusIdentity:
    def test_zero_center_exact(self):
        z = np.array([0.3, 0.4j])
        assert mobius_identity_residual(np.zeros(2), z) == 0.0

    def test_at_fixed_point(self):
        a = np.array([0.5, 0.2j])
        assert mobius_identity_residual(a, a) <= 1e-15

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a = random_ball_point(rng, n)
            z = random_ball_point(rng, n)
            assert mobius_identity_residual(a, z) <= 1e-12
