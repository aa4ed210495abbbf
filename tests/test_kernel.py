import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs.errors import NearSingularEvaluation
from hballs.extension import _constant, h_extend
from hballs.kernel import poisson_h_values, poisson_h_wirtinger_values
from hballs.quadrature import circle_rule, integrate_with_error, sphere_rule_mc


def random_sphere(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_interior(rng, n, rmax):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z * (rmax * rng.random() ** (1.0 / (2 * n)) / np.linalg.norm(z))


class TestPoissonKernel:
    def test_unit_at_origin(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            zeta = random_sphere(rng, n)
            assert poisson_h_values(np.zeros(n), zeta[None, :])[0] == pytest.approx(1.0, abs=1e-14)

    def test_disk_value(self):
        # n = 1: ((1 - 0.25) / |0.5 - 1|^2)^1 = 3
        assert poisson_h_values([0.5], [[1.0]])[0] == pytest.approx(3.0, rel=1e-14)

    def test_positivity_and_bounds(self):
        # |z - zeta| between 1-|z| and 1+|z| pins the kernel between the ratios
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            z = random_interior(rng, n, 0.95)
            zeta = random_sphere(rng, n)
            r = np.linalg.norm(z)
            value = poisson_h_values(z, zeta[None, :])[0]
            lower = ((1.0 - r) / (1.0 + r)) ** (2 * n - 1)
            upper = ((1.0 + r) / (1.0 - r)) ** (2 * n - 1)
            assert lower - 1e-12 <= value <= upper + 1e-12

    def test_normalization_circle(self):
        rule = circle_rule(4096)
        for r in (0.0, 0.3, 0.5, 0.8):
            z = np.array([r + 0.0j])
            total = integrate_with_error(rule, lambda nodes: poisson_h_values(z, nodes))[0]
            assert total.real == pytest.approx(1.0, abs=1e-10)

    def test_normalization_mc(self):
        rule = sphere_rule_mc(2, 30000, 5)
        z = np.array([0.35 + 0.2j, -0.1 + 0.4j])
        total, err = integrate_with_error(rule, lambda nodes: poisson_h_values(z, nodes))
        assert abs(total.real - 1.0) <= 5.0 * err

    def test_normalization_trivial_at_origin(self):
        # P_h(0, .) is identically 1, so any normalized rule integrates it to 1
        rule = sphere_rule_mc(2, 1000, 8)
        z = np.zeros(2, dtype=complex)
        total = integrate_with_error(rule, lambda nodes: poisson_h_values(z, nodes))[0]
        assert total.real == pytest.approx(1.0, abs=1e-12)

    def test_near_singular_guard(self):
        zeta = np.array([1.0 + 0.0j])
        with pytest.raises(NearSingularEvaluation):
            poisson_h_values(zeta - 1e-200, zeta.reshape(1, 1))

    def test_accepts_wrapped_points(self):
        # a point given as a plain sequence, not an array
        z = (0.3, 0.4j)
        zeta = np.array([0.6, 0.8j])
        nodes = zeta[None, :]
        assert poisson_h_values(z, nodes)[0] == poisson_h_values(np.array(z), nodes)[0]


class TestPoissonWirtinger:
    def test_at_origin(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3):
            zeta = random_sphere(rng, n)
            dz = poisson_h_wirtinger_values(np.zeros(n), zeta[None, :])[0]
            np.testing.assert_allclose(dz, (2 * n - 1) * np.conj(zeta), rtol=1e-12)

    def test_matches_finite_differences(self):
        # central-difference oracle with step 1e-5, relative error <= 1e-7
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(30):
            n = int(rng.integers(1, 3))
            z = random_interior(rng, n, 0.8)
            zeta = random_sphere(rng, n)
            nodes = zeta.reshape(1, -1)
            closed = poisson_h_wirtinger_values(z, nodes)[0]

            def kernel(w):
                return poisson_h_values(w, nodes)[0]

            for k in range(n):
                ex = np.zeros(n, dtype=complex)
                ex[k] = h
                ey = np.zeros(n, dtype=complex)
                ey[k] = 1j * h
                fx = (kernel(z + ex) - kernel(z - ex)) / (2 * h)
                fy = (kernel(z + ey) - kernel(z - ey)) / (2 * h)
                oracle = 0.5 * (fx - 1j * fy)
                assert abs(closed[k] - oracle) <= 1e-7 * max(abs(oracle), 1.0)

    def test_derivative_integrates_to_zero(self):
        # the constant-1 extension has vanishing derivative, so the kernel
        # derivative itself must average to ~0 against the rule
        rule = circle_rule(2048)
        z = np.array([0.4 - 0.3j])
        total = integrate_with_error(
            rule, lambda nodes: poisson_h_wirtinger_values(z, nodes)[:, 0])[0]
        assert abs(total) <= 1e-10
        rule2 = sphere_rule_mc(2, 20000, 6)
        z2 = np.array([0.2 + 0.1j, -0.3 + 0.0j])
        for k in range(2):
            total, err = integrate_with_error(
                rule2, lambda nodes, k=k: poisson_h_wirtinger_values(z2, nodes)[:, k])
            assert abs(total) <= 5.0 * max(err, 1e-12)


# Measured over n = 1..6, |z| < 0.95, 200 points x 50 nodes each: the
# largest relative gap was 1.6e-14.
GRADIENT_NORM_TOLERANCE = 1e-13


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.floats(0.0, 0.95), st.integers(0, 2 ** 32 - 1))
def test_gradient_norm_is_fixed_by_the_value(n, radius, seed):
    """On the sphere sum_k |dP_h/dz_k|^2 = ((2n-1) P_h / (1 - |z|^2))^2: the
    score d log P_h / dz has norm (2n-1) / (1 - |z|^2) whatever the node."""
    rng = np.random.default_rng(seed)
    z = radius * random_sphere(rng, n)
    nodes = np.stack([random_sphere(rng, n) for _ in range(50)])
    lhs = np.sum(np.abs(poisson_h_wirtinger_values(z, nodes)) ** 2, axis=1)
    rhs = ((2 * n - 1) * poisson_h_values(z, nodes) / (1.0 - np.linalg.norm(z) ** 2)) ** 2
    assert np.all(np.abs(lhs - rhs) <= GRADIENT_NORM_TOLERANCE * rhs)


# Measured over 3000 points with |z| <= 0.8 per rule size: the kernel module
# summed to 1 within 4.5 ulp of 1 and the extension engine (a constant
# boundary) within 10 ulp.  The circle rule's aliasing error, about 2|z|^m,
# is below 1e-24 at m >= 256.
NORMALIZATION_TOLERANCE = 32 * np.finfo(float).eps
NORMALIZATION_RULES = {m: circle_rule(m) for m in (256, 1024, 4096)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(NORMALIZATION_RULES)), st.floats(0.0, 0.8),
       st.floats(0.0, 2.0 * np.pi))
def test_circle_rule_sums_the_kernel_to_one(m, radius, angle):
    rule = NORMALIZATION_RULES[m]
    z = np.array([radius * np.exp(1j * angle)])
    total = integrate_with_error(rule, lambda nodes: poisson_h_values(z, nodes))[0]
    assert abs(total - 1.0) <= NORMALIZATION_TOLERANCE
    # the same sum in the extension engine: a constant's extension is itself
    ext = h_extend(_constant(1.0, 1), rule, guard_radius=0.9)
    assert abs(ext(z)[0] - 1.0) <= NORMALIZATION_TOLERANCE
