import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs.errors import NearSingularEvaluation
from hballs.kernel import poisson_h_values
from hballs.quadrature import (
    STREAM_MC_RULE,
    QuadratureRule,
    circle_rule,
    integrate_with_error,
    real_circle_rule,
    real_sphere_rule_mc,
    rng_stream,
    sphere_points,
    sphere_rule_mc,
)


class TestRuleInvariants:
    def test_weight_sum_and_positivity(self):
        for rule in (circle_rule(128), sphere_rule_mc(2, 1000, 3), real_sphere_rule_mc(3, 500, 4)):
            assert abs(np.sum(rule.weights) - 1.0) <= 1e-12
            assert np.all(rule.weights > 0.0)
            assert len(rule.nodes) == len(rule.weights)

    def test_nodes_on_the_sphere(self):
        rule = sphere_rule_mc(3, 2000, 9)
        np.testing.assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            circle_rule(3)
        with pytest.raises(ValueError):
            sphere_rule_mc(2, 50, 0)
        with pytest.raises(ValueError):
            QuadratureRule(np.ones((4, 1)), np.array([0.5, 0.5, 0.5, -0.5]))
        with pytest.raises(ValueError):
            QuadratureRule(np.ones((4, 1)), np.full(4, 0.3))


class TestCircleRule:
    def test_constant(self):
        rule = circle_rule(64)
        value = integrate_with_error(rule, lambda nodes: np.ones(len(nodes)))[0]
        assert value == pytest.approx(1.0, abs=0.0)

    def test_odd_symmetry(self):
        rule = circle_rule(64)
        value = integrate_with_error(rule, lambda nodes: nodes[:, 0].real)[0]
        assert abs(value) <= 1e-15

    def test_cosine_squared(self):
        # int |Re zeta|^2 dsigma = 1/2 on the circle
        rule = circle_rule(256)
        value = integrate_with_error(rule, lambda nodes: np.abs(nodes[:, 0].real) ** 2)[0]
        assert value.real == pytest.approx(0.5, abs=1e-14)

    def test_poisson_normalization(self):
        # the kernel has unit mean against the normalized measure
        rule = circle_rule(4096)
        z = np.array([0.5 + 0.0j])
        value = integrate_with_error(rule, lambda nodes: poisson_h_values(z, nodes))[0]
        assert value.real == pytest.approx(1.0, abs=1e-10)


class TestMonteCarloRule:
    def test_seed_determinism(self):
        a = sphere_rule_mc(2, 5000, 42)
        b = sphere_rule_mc(2, 5000, 42)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.weights, b.weights)
        c = sphere_rule_mc(2, 5000, 43)
        assert not np.array_equal(a.nodes, c.nodes)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coordinate_moment(self, n):
        # |zeta_1|^2 has mean 1/n by symmetry; n = 1 is the constant case
        rule = sphere_rule_mc(n, 20000, 7)
        value, err = integrate_with_error(rule, lambda nodes: np.abs(nodes[:, 0]) ** 2)
        assert abs(value.real - 1.0 / n) <= max(3.0 * err, 1e-12)
        if n > 1:
            assert err > 0.0

    def test_meta_records_seed(self):
        rule = sphere_rule_mc(2, 1000, 5)
        assert rule.meta["seed"] == 5
        assert rule.meta["count"] == 1000


class TestIntegrate:
    def test_weighted_mean_of_constant(self):
        rule = sphere_rule_mc(2, 1000, 1)
        value = integrate_with_error(rule, lambda nodes: np.full(len(nodes), 2.0 + 1.0j))[0]
        assert value == pytest.approx(2.0 + 1.0j, rel=1e-14)

    def test_linearity(self):
        rule = circle_rule(512)
        g1 = lambda nodes: nodes[:, 0] ** 2
        g2 = lambda nodes: np.abs(nodes[:, 0].real)
        lhs = integrate_with_error(rule, lambda nodes: g1(nodes) + g2(nodes))[0]
        rhs = integrate_with_error(rule, g1)[0] + integrate_with_error(rule, g2)[0]
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_reduction_is_stable(self):
        rule = sphere_rule_mc(2, 30000, 11)
        g = lambda nodes: np.abs(nodes[:, 0]) ** 4
        assert integrate_with_error(rule, g)[0] == integrate_with_error(rule, g)[0]

    def test_propagates_failures_with_node(self):
        rule = circle_rule(64)
        z = rule.nodes[3]  # exactly on a node

        def g(nodes):
            return poisson_h_values(z, nodes)

        with pytest.raises(NearSingularEvaluation) as err:
            integrate_with_error(rule, g)[0]
        assert err.value.node is not None

    def test_spectral_rules_report_zero_error(self):
        rule = circle_rule(256)
        _, err = integrate_with_error(rule, lambda nodes: nodes[:, 0].real ** 2)
        assert err == 0.0


class TestRngStream:
    def test_streams_are_independent_and_reproducible(self):
        a = rng_stream(1, 0).standard_normal(4)
        b = rng_stream(1, 0).standard_normal(4)
        c = rng_stream(1, 1).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRealRules:
    def test_real_circle_arc_mean(self):
        # mean of |t_1| over the unit circle is 2/pi
        rule = real_circle_rule(2048)
        value = integrate_with_error(rule, lambda nodes: np.abs(nodes[:, 0]))[0]
        assert value.real == pytest.approx(2.0 / np.pi, abs=1e-5)

    def test_real_sphere_norms(self):
        rule = real_sphere_rule_mc(4, 1000, 2)
        np.testing.assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)


def reference_sphere_draw(rng, count, n):
    """The draw sphere_rule_mc, uniform_ball and extend's grid each wrote inline."""
    g = rng.standard_normal((count, 2 * n))
    z = g[:, :n] + 1j * g[:, n:]
    z /= np.linalg.norm(g, axis=1)[:, None]
    return z


def bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(1, 300), st.integers(1, 4))
def test_sphere_points_are_the_inline_draw_and_a_function_of_their_inputs(seed, stream, count, n):
    pts = sphere_points(rng_stream(seed, stream), count, n)
    assert pts.shape == (count, n)
    assert np.array_equal(bits(pts), bits(reference_sphere_draw(rng_stream(seed, stream), count, n)))
    # seed determinism: a fresh generator of the same stream gives the same bits
    assert np.array_equal(bits(pts), bits(sphere_points(rng_stream(seed, stream), count, n)))
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    nodes = max(count, 100)
    assert np.array_equal(bits(sphere_rule_mc(n, nodes, seed).nodes),
                          bits(sphere_points(rng_stream(seed, STREAM_MC_RULE), nodes, n)))
