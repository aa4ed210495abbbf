import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hballs.errors import NearSingularEvaluation, StepTooLarge
from hballs.extension import (
    BoundaryFunction,
    _constant,
    _int_power,
    boundary_registry,
    h_extend,
    laplace_beltrami_residual,
    vector_boundary,
)
from hballs.quadrature import QuadratureRule, circle_rule, integrate_with_error, sphere_rule_mc


def interior_points(rng, n, count, rmax):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    radii = rmax * rng.random(count) ** (1.0 / (2 * n))
    return z * (radii / np.linalg.norm(z, axis=1))[:, None]


def registry_map(n):
    return {entry.label: entry for entry in boundary_registry(n)}


class TestExtensionValues:
    def test_constant_data_extends_to_constant(self):
        rng = np.random.default_rng(31)
        for n, rule in ((1, circle_rule(512)), (2, sphere_rule_mc(2, 5000, 1))):
            ext = h_extend(registry_map(n)["const:1"], rule)
            zs = interior_points(rng, n, 20, 0.8)
            values, errors = ext.values_with_errors(zs)
            for value, err in zip(values, errors):
                assert abs(value - 1.0) <= max(5.0 * err, 1e-12)

    def test_disk_extension_of_re_is_re(self):
        # classical Poisson identity: the harmonic extension of Re zeta is Re z
        rule = circle_rule(4096)
        ext = h_extend(registry_map(1)["re1"], rule)
        rng = np.random.default_rng(32)
        zs = interior_points(rng, 1, 50, 0.8)
        np.testing.assert_allclose(ext(zs), zs[:, 0].real, atol=1e-8)

    def test_value_at_zero_is_boundary_average(self):
        # P_h(0, .) = 1, so f(0) is the plain average of the boundary data
        for n, rule in ((1, circle_rule(512)), (2, sphere_rule_mc(2, 2000, 2))):
            entry = registry_map(n)["bump"]
            ext = h_extend(entry, rule)
            average = integrate_with_error(rule, entry.values)[0]
            assert ext(np.zeros(n, dtype=complex))[0] == pytest.approx(average, abs=1e-13)

    def test_linearity(self):
        rule = circle_rule(1024)
        reg = registry_map(1)
        alpha = 0.7 - 0.2j

        def combined(nodes):
            return alpha * reg["coord1"].values(nodes) + reg["bump"].values(nodes)

        combo = BoundaryFunction("combo", 1, combined)
        rng = np.random.default_rng(33)
        zs = interior_points(rng, 1, 10, 0.7)
        lhs = h_extend(combo, rule)(zs)
        rhs = alpha * h_extend(reg["coord1"], rule)(zs) + h_extend(reg["bump"], rule)(zs)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_guard_radius(self):
        ext = h_extend(registry_map(1)["re1"], circle_rule(256), guard_radius=0.8)
        with pytest.raises(NearSingularEvaluation):
            ext(np.array([[0.9 + 0.0j]]))

    def test_non_finite_points_refused(self):
        ext = h_extend(registry_map(1)["re1"], circle_rule(256))
        for bad in (np.nan, np.inf, complex(0.1, np.nan)):
            batch = np.array([[0.1 + 0.0j], [bad], [np.nan]])
            with pytest.raises(ValueError, match="point 1 is not finite"):
                ext(batch)
            with pytest.raises(ValueError, match="point 1 is not finite"):
                ext.values_with_errors(batch)

    @pytest.mark.parametrize("rule", [circle_rule(8192), sphere_rule_mc(2, 6000, 3)],
                             ids=["n1", "n2"])
    @settings(max_examples=20, deadline=None)
    @given(index=st.integers(0, 5999))
    @example(index=5000)
    def test_declared_bound_is_checked_on_every_node(self, rule, index):
        # 2.0 on one node, found by its value, 0.5 on the others
        spike = rule.nodes[index]

        def values(nodes):
            return np.where(np.all(nodes == spike, axis=1), 2.0, 0.5).astype(complex)

        data = BoundaryFunction("spike", rule.dim, values, sup_bound=1.0)
        with pytest.raises(ValueError, match="'spike' exceeds its declared bound: 2 > 1"):
            h_extend(data, rule)

    def test_non_finite_data_refused(self):
        # NaN only where Re zeta > 0.9; a NaN exceeds no bound, so only the
        # finite check can see it
        def values(nodes):
            return np.where(nodes[:, 0].real > 0.9, np.nan, 0.5).astype(complex)

        data = BoundaryFunction("cap-nan", 1, values, sup_bound=1.0)
        with pytest.raises(ValueError, match="'cap-nan' is not finite"):
            h_extend(data, circle_rule(256))
        with pytest.raises(ValueError, match="'const:nan' is not finite"):
            h_extend(_constant(np.nan, 2), sphere_rule_mc(2, 500, 1))

    @pytest.mark.parametrize("rule", [circle_rule(256), sphere_rule_mc(2, 500, 1)],
                             ids=["n1", "n2"])
    def test_rule_off_the_unit_sphere_is_refused_by_name(self, rule):
        # the kernel, and the gradient errors read from the value's second
        # moments, hold for |zeta| = 1 only
        inner = QuadratureRule(0.9 * rule.nodes, rule.weights, rule.meta)
        kind = rule.meta["kind"]
        with pytest.raises(ValueError, match=f"rule '{kind}' \\(.* off the unit sphere"):
            h_extend(registry_map(rule.dim)["coord1"], inner)

    @pytest.mark.parametrize("method", ["__call__", "wirtinger_many"])
    def test_points_of_another_dimension_are_refused_by_name(self, method):
        # once numpy's "operands could not be broadcast together"
        ext = h_extend(registry_map(2)["coord1"], sphere_rule_mc(2, 500, 1))
        for dim in (1, 3):
            with pytest.raises(ValueError, match=f"has dimension 2 and the points {dim}$"):
                getattr(ext, method)(np.zeros((3, dim)))

    def test_values_with_errors_spectral_rule(self):
        # the error is the gap to the half rule on every second node, here
        # circle_rule(16) against circle_rule(8), and covers the true error
        fourier = registry_map(1)["fourier"]
        z = np.array([[0.5 + 0.3j]])
        ext = h_extend(fourier, circle_rule(16))
        values, errors = ext.values_with_errors(z)
        gap = abs(values[0] - h_extend(fourier, circle_rule(8))(z)[0])
        assert errors[0] == pytest.approx(gap, rel=1e-9)
        assert errors[0] >= abs(values[0] - fourier.exact_extension(z)[0]) > 0.0
        assert values[0] == pytest.approx(ext(z)[0], abs=0.0)


class TestExtensionGradient:
    def test_constant_has_zero_gradient(self):
        ext = h_extend(registry_map(2)["const:1"], sphere_rule_mc(2, 5000, 3))
        data, err = ext.wirtinger_with_error(np.array([0.2 + 0.1j, -0.3 + 0.0j]))
        assert np.max(np.abs(data.fz)) <= 5.0 * err
        assert np.max(np.abs(data.fzbar)) <= 5.0 * err

    def test_disk_re_gradient_is_half_half(self):
        # Re z has Wirtinger derivatives (1/2, 1/2)
        ext = h_extend(registry_map(1)["re1"], circle_rule(4096))
        data = ext.wirtinger(np.array([0.3 - 0.25j]))
        assert data.fz[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert data.fzbar[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_matches_finite_differences(self):
        # differentiation under the integral vs central differences
        from hballs.calculus import wirtinger_fd_many

        rng = np.random.default_rng(34)
        for n, rule in ((1, circle_rule(1024)), (2, sphere_rule_mc(2, 4000, 4))):
            for label in ("fourier",) if n == 1 else ("crossprod", "bump"):
                ext = h_extend(registry_map(n)[label], rule)
                z = interior_points(rng, n, 1, 0.6)[0]
                exact = ext.wirtinger(z)
                fd = wirtinger_fd_many(ext, [z])[0]
                np.testing.assert_allclose(fd.fz, exact.fz, atol=1e-6)
                np.testing.assert_allclose(fd.fzbar, exact.fzbar, atol=1e-6)

    def test_vector_boundary_gradient_shape(self):
        reg = boundary_registry(2)
        vec = vector_boundary([reg[1], reg[2]])
        ext = h_extend(vec, sphere_rule_mc(2, 2000, 5))
        data = ext.wirtinger(np.array([0.1 + 0.0j, 0.2 - 0.1j]))
        assert data.fz.shape == (2, 2)
        assert data.fzbar.shape == (2, 2)


class TestLaplaceBeltrami:
    def test_constant_is_annihilated(self):
        res = laplace_beltrami_residual(
            lambda pts: np.full(len(pts), 2.5 + 1.0j), np.array([0.3 + 0.1j]))
        assert res == 0.0

    def test_planar_harmonic(self):
        # n = 1 has no drift term, so Re z is annihilated
        res = laplace_beltrami_residual(
            lambda pts: pts[:, 0].real.astype(complex), np.array([0.4 - 0.2j]))
        assert abs(res) <= 1e-9

    def test_coordinate_is_not_h_harmonic_for_n2(self):
        # Delta_h z_1 = 4 (n-1) (1-|z|^2) z_1; at z = (0.3, 0) this is 1.092
        res = laplace_beltrami_residual(
            lambda pts: pts[:, 0], np.array([0.3 + 0.0j, 0.0 + 0.0j]))
        assert res == pytest.approx(1.092, abs=1e-6)

    def test_kernel_section_is_h_harmonic(self):
        # P_h(., zeta) is annihilated by the operator for each boundary zeta
        from hballs.kernel import poisson_h_values

        zeta = np.array([0.6, 0.8j])
        zeta /= np.linalg.norm(zeta)

        def section(pts):
            pts = np.atleast_2d(pts)
            return np.array(
                [poisson_h_values(p, zeta.reshape(1, -1))[0] for p in pts], dtype=complex)

        res = laplace_beltrami_residual(section, np.array([0.2 + 0.1j, -0.1 + 0.3j]))
        assert abs(res) <= 1e-6

    def test_extensions_are_h_harmonic(self):
        rng = np.random.default_rng(35)
        for n, rule in ((1, circle_rule(1024)), (2, sphere_rule_mc(2, 8000, 6))):
            for entry in boundary_registry(n):
                ext = h_extend(entry, rule)
                zs = interior_points(rng, n, 5, 0.7)
                for z in zs:
                    assert abs(laplace_beltrami_residual(ext, z)) <= 1e-4

    def test_step_guard(self):
        # the reach 2h = 2 LB_STEP_FACTOR (1 - |z|) stays inside the ball at |z| < 1
        for point in (1.0, 1.5j):
            with pytest.raises(StepTooLarge):
                laplace_beltrami_residual(lambda pts: pts[:, 0], np.array([point]))


class TestRegistry:
    def test_dimensions_and_bounds(self):
        for n in (1, 2, 3):
            for entry in boundary_registry(n):
                assert entry.dim == n
                assert entry.sup_bound is not None

    def test_fourier_only_in_dimension_one(self):
        assert "fourier" in registry_map(1)
        assert "fourier" not in registry_map(2)
        assert "crossprod" in registry_map(2)
        assert "crossprod" not in registry_map(1)

    def test_exact_extensions_match_boundary_limits(self):
        # closed forms agree with the quadrature extension in the interior
        rng = np.random.default_rng(36)
        rule = circle_rule(4096)
        for label in ("const:1", "coord1", "re1", "fourier"):
            entry = registry_map(1)[label]
            ext = h_extend(entry, rule)
            zs = interior_points(rng, 1, 10, 0.8)
            np.testing.assert_allclose(
                ext(zs), entry.exact_extension(zs), atol=1e-8)

    def test_vector_boundary_bound(self):
        reg = boundary_registry(2)
        vec = vector_boundary([reg[1], reg[2]])
        assert vec.out_dim == 2
        assert vec.sup_bound == pytest.approx(np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("k", range(1, 9))
def test_int_power_into_buffers_keeps_the_bits(k):
    x = np.random.default_rng(k).uniform(0.1, 4.0, (5, 7))
    expected = _int_power(x, k)
    out, scratch = np.empty_like(x), np.empty_like(x)
    result = _int_power(x.copy(), k, out=out, scratch=scratch)
    assert np.array_equal(result.view(np.uint8), expected.view(np.uint8))
    # the input may double as the output buffer
    y = x.copy()
    result = _int_power(y, k, out=y, scratch=scratch)
    assert np.array_equal(result.view(np.uint8), expected.view(np.uint8))
