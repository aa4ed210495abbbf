import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hballs.extension import boundary_registry, h_extend, laplace_beltrami_residual
from hballs.geometry import real_mobius
from hballs.quadrature import sphere_rule_mc


@st.composite
def ball_points(draw, n, rmax=0.99):
    """A point of the closed ball of radius rmax in C^n: any direction, any radius."""
    coords = draw(arrays(np.float64, 2 * n, elements=st.floats(-1.0, 1.0)))
    radius = draw(st.floats(0.0, rmax))
    z = coords[:n] + 1j * coords[n:]
    norm = np.linalg.norm(z)
    return z * (radius / norm) if norm > 0.0 else z


def on_line_through(a):
    """Points t a / |a|, |t| <= 0.99, of the real line through a (a if a = 0)."""
    norm = np.linalg.norm(a)
    return st.floats(-0.99, 0.99).map(lambda t: t * a / norm if norm > 0.0 else a)


@st.composite
def point_pairs(draw):
    n = draw(st.integers(1, 3))
    a = draw(ball_points(n))
    # x independent of a, on the real line through a (where the denominator
    # gets smallest), or a itself
    x = draw(st.one_of(ball_points(n), st.just(a), on_line_through(a)))
    return a, x


def real_dot(z, w):
    return float(np.dot(np.asarray(z, dtype=complex).view(np.float64),
                        np.asarray(w, dtype=complex).view(np.float64)))


def random_ball_point(rng, n, rmax=0.99):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z * (rmax * rng.random() ** (1.0 / (2 * n)) / np.linalg.norm(z))


def identity_error(a, x):
    """|(1 - |T_a x|^2) - (1-|a|^2)(1-|x|^2)/d| in units of s / d.

    The rhs divides by d = 1 - 2 x.a + |x|^2 |a|^2, a difference of terms
    summing to s = 1 + 2|x.a| + |x|^2 |a|^2, so it is rounded at the scale
    s / d (up to 1e4 at |a| = |x| = 0.99).
    """
    t = real_mobius(a, np.asarray(x, dtype=complex)[None, :])[0]
    xa, x2, a2 = real_dot(x, a), real_dot(x, x), real_dot(a, a)
    d = 1.0 - 2.0 * xa + x2 * a2
    rhs = (1.0 - a2) * (1.0 - x2) / d
    return abs(1.0 - real_dot(t, t) - rhs) * d / (1.0 + 2.0 * abs(xa) + x2 * a2)


# Measured: identity_error at most 9.4e-16 over 1.5e5 pairs with |a|, |x| <=
# 0.99, half of them on the line through a; unscaled, up to 1.1e-12 there.
IDENTITY_TOLERANCE = 4e-15


class TestPoints:
    def test_ball_point_rejects_boundary(self):
        with pytest.raises(ValueError, match="open unit ball"):
            real_mobius([1.0], np.zeros((1, 1)))
        with pytest.raises(ValueError, match="open unit ball"):
            real_mobius([0.8, 0.7], np.zeros((1, 2)))

    @pytest.mark.parametrize("a", [[np.nan, 0.0], [np.inf], [0.1 + np.nan * 1j]])
    def test_rejects_non_finite_center(self, a):
        with pytest.raises(ValueError, match="open unit ball"):
            real_mobius(a, np.zeros((1, len(a))))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            real_mobius([0.1, 0.2], np.zeros((3, 1), dtype=complex))


class TestMobius:
    def test_maps_a_to_zero(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            a = random_ball_point(rng, n, 0.9)
            assert np.all(real_mobius(a, a[None, :]) == 0.0)

    def test_maps_zero_to_a(self):
        # -T_a takes 0 to a; measured: |T_a(0) + a| at most 1.3e-16 over 6e4
        # points with |a| <= 0.99
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            a = random_ball_point(rng, n, 0.99)
            np.testing.assert_allclose(-real_mobius(a, np.zeros((1, n)))[0], a, rtol=0.0, atol=5e-16)

    def test_scalar_formula(self):
        # n = 1: T_a(x) = (x - a) / (1 - conj(a) x), the independent oracle
        a, x = 0.5, 0.25
        got = real_mobius([a], [[x]])[0, 0]
        assert got == pytest.approx((x - a) / (1.0 - a * x), rel=1e-15)
        assert got == pytest.approx(-0.2857142857142857, rel=1e-12)
        a = 0.3 + 0.4j
        x = np.array([[0.1 - 0.5j], [0.7 + 0.1j], [-0.2 + 0.0j]])
        expected = (x[:, 0] - a) / (1.0 - np.conj(a) * x[:, 0])
        np.testing.assert_allclose(real_mobius([a], x)[:, 0], expected, rtol=0.0, atol=1e-15)

    def test_zero_convention(self):
        # no convention is needed: T_0 is the identity, bit for bit
        z = np.array([[0.3, -0.2j], [0.1 + 0.6j, -0.05]])
        assert np.array_equal(real_mobius(np.zeros(2), z), z)

    def test_stays_in_ball(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            a = random_ball_point(rng, n)
            z = random_ball_point(rng, n)
            assert np.linalg.norm(real_mobius(a, z[None, :])) < 1.0

    def test_contraction_chain(self):
        # |T_a(x)| = |x - a| / (1 - 2 x.a + |x|^2 |a|^2)^(1/2) <= |x - a| / (1 - |a|)
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(1, 4))
            a = random_ball_point(rng, n, 0.95)
            z = random_ball_point(rng, n, 0.95)
            bound = np.linalg.norm(z - a) / (1.0 - np.linalg.norm(a))
            assert np.linalg.norm(real_mobius(a, z[None, :])) <= bound + 1e-12


class TestMobiusIdentity:
    def test_zero_center_exact(self):
        z = np.array([0.3, 0.4j])
        assert identity_error(np.zeros(2), z) == 0.0

    def test_at_fixed_point(self):
        a = np.array([0.5, 0.2j])
        assert identity_error(a, a) <= IDENTITY_TOLERANCE

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            a = random_ball_point(rng, n)
            z = random_ball_point(rng, n)
            assert identity_error(a, z) <= IDENTITY_TOLERANCE


@settings(max_examples=300, deadline=None)
@given(point_pairs())
def test_mobius_identity_holds_to_rounding(pair):
    assert identity_error(*pair) <= IDENTITY_TOLERANCE


@settings(max_examples=200, deadline=None)
@given(point_pairs())
def test_minus_t_a_is_an_involution(pair):
    a, x = pair
    back = -real_mobius(a, -real_mobius(a, x[None, :]))[0]
    # measured: at most 2.8e-14 over 6e4 pairs with |a|, |x| <= 0.99
    np.testing.assert_allclose(back, x, rtol=0.0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
def test_batch_rows_equal_one_row_calls_bit_for_bit(n, count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, (count + 1, 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.99 * rng.random(count + 1) / np.linalg.norm(pts, axis=1))[:, None]
    a, batch = pts[0], pts[1:]
    rows = real_mobius(a, batch)
    assert rows.shape == batch.shape
    for row, x in zip(rows, batch):
        assert np.array_equal(row.view(np.uint8), real_mobius(a, x[None, :])[0].view(np.uint8))


A = np.array([0.3 + 0.2j, -0.1 + 0.25j])
POINTS = ([0.1 - 0.2j, 0.3 + 0.1j], [-0.25 + 0.05j, 0.0 - 0.3j])


@pytest.mark.parametrize("label", ["coord1", "re1", "bump", "crossprod"])
def test_composition_with_t_a_stays_hyperbolic_harmonic(label):
    # Measured on this rule: |Delta_h (f o T_a)| at most 2.5e-8, the FD floor;
    # the dilation f(z / 2), no isometry, at least 2.2e-2
    entry = next(b for b in boundary_registry(2) if b.label == label)
    f = h_extend(entry, sphere_rule_mc(2, 4000, 4))
    for z in POINTS:
        assert abs(laplace_beltrami_residual(lambda p: f(real_mobius(A, p)), z)) <= 1e-7
        assert abs(laplace_beltrami_residual(lambda p: f(0.5 * p), z)) >= 1e-2
