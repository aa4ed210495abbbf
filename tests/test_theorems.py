import math

import numpy as np
import pytest

from hballs.extension import boundary_registry, h_extend
from hballs.norms import ball_grid, near_diagonal_pairs, pair_samples
from hballs.quadrature import circle_rule, real_circle_rule, sphere_rule_mc
from hballs.theorems import (
    AffineMapping,
    CheckReport,
    HarnessConfig,
    check_lemma21,
    check_lemma22,
    check_lemmaB,
    check_lemma33,
    check_schwarz_pick_gradient,
    check_schwarz_pick_value,
    check_thm24_necessity,
    covered_ball_probe,
    landau_constants,
    make_report,
    mapping_registry,
    run_suite,
    univalence_probe,
)


def registry_map(n):
    return {entry.label: entry for entry in boundary_registry(n)}


class TestCheckReport:
    def test_pass_rule(self):
        rep = make_report("demo", 1.0, 2.0)
        assert rep.passed and rep.margin == 1.0
        rep = make_report("demo", 2.0, 1.0)
        assert not rep.passed

    def test_tolerance_composition(self):
        rep = make_report("demo", 1.0, 1.0 - 5e-9, quad_error=1e-9, fd_error=0.0)
        assert rep.tolerance == pytest.approx(1e-8)
        assert rep.passed
        assert rep.tol_breakdown["quadrature"] == pytest.approx(1e-8)

    def test_strict_mode(self):
        assert not make_report("demo", 0.0, 0.0, strict=True).passed
        assert make_report("demo", 0.0, 1e-9, strict=True).passed

    def test_serialization_keys(self):
        rep = make_report("demo", 0.5, 1.0, inputs={"n": 1}, rule={"kind": "circle"})
        doc = rep.to_dict()
        assert set(doc) == {"check_id", "lhs", "rhs", "margin", "pass", "tolerance",
                            "tolerance_breakdown", "strict", "inputs", "rule"}
        assert doc["pass"] is True
        assert doc["margin"] == pytest.approx(0.5)


class TestLemma21:
    def test_constant_function(self):
        rule = real_circle_rule(512)
        rep = check_lemma21(lambda pts: np.zeros(len(np.atleast_2d(pts))),
                            np.zeros(2), 0.5, rule)
        assert rep.passed
        assert rep.lhs <= 1e-8

    def test_coordinate_function_worked_example(self):
        # m=2, f = x_1, a=0, r=0.5: lhs = 1, rhs = 4 sqrt(2) / pi
        rule = real_circle_rule(4096)
        rep = check_lemma21(lambda pts: np.atleast_2d(pts)[:, 0], np.zeros(2), 0.5, rule)
        assert rep.lhs == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, rel=1e-6)
        assert rep.passed

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError):
            check_lemma21(lambda pts: np.zeros(len(pts)), np.zeros(1), 0.5,
                          real_circle_rule(64))

    def test_boundary_evaluated_once(self):
        # the half-rule error estimate reuses every second boundary value
        rule = real_circle_rule(512)
        seen = []

        def f(pts):
            pts = np.atleast_2d(pts)
            seen.append(len(pts))
            return pts[:, 0] ** 2 - pts[:, 1] ** 2

        check_lemma21(f, np.array([0.1, -0.2]), 0.3, rule)
        assert sorted(seen) == [1, 8, 512]

    def test_harness_sweep_passes(self):
        cfg = HarnessConfig(n=1, nodes=1024, seed=3)
        reports = run_suite("lemma21", cfg)
        assert len(reports) == 20
        assert all(rep.passed for rep in reports)


class TestLemma22:
    def test_example_achieves_strict_inequality(self):
        # f(z) = z^2 + conj(z) at 0: lhs = 1 while rhs = 2
        def f(pts):
            z = np.asarray(pts)[:, 0]
            return z ** 2 + np.conj(z)

        rep = check_lemma22(f, np.zeros(1, dtype=complex), label="square+conj")
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)
        assert rep.passed

    def test_coordinate_function_values(self):
        # f = z_1 in C^2: |grad f| = 1, |grad u| = |grad v| = 1
        rep = check_lemma22(lambda pts: np.asarray(pts)[:, 0],
                            np.array([0.1 + 0.2j, -0.1 + 0.0j]), label="coord")
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)
        assert rep.passed

    def test_real_valued_equality_case(self):
        # f = z + conj(z) = 2x: both sides equal 2
        def f(pts):
            z = np.asarray(pts)[:, 0]
            return z + np.conj(z)

        rep = check_lemma22(f, np.array([0.2 - 0.1j]), label="2x")
        assert rep.lhs == pytest.approx(2.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)
        assert rep.passed

    def test_registry_sweep(self):
        for n in (1, 2):
            cfg = HarnessConfig(n=n, nodes=1024, mc_nodes=4000, seed=5)
            reports = run_suite("lemma22", cfg)
            assert all(rep.passed for rep in reports)
            assert all(rep.inputs["failures"] == 0 for rep in reports)


class TestThm24:
    def test_constant(self):
        pairs = pair_samples(1, 100, seed=1)
        grid = ball_grid(1)
        rep = check_thm24_necessity(
            lambda pts: np.zeros(len(pts)), pairs, grid, n=1, label="const")
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_identity_estimates(self):
        grid = ball_grid(1)
        pairs = np.concatenate(
            [near_diagonal_pairs(grid), pair_samples(1, 2000, seed=2)], axis=0)
        rep = check_thm24_necessity(
            lambda pts: np.asarray(pts)[:, 0], pairs, grid, n=1, label="id")
        assert rep.lhs == pytest.approx(1.0, abs=1e-4)
        assert rep.rhs == pytest.approx(math.pi, abs=1e-6)
        assert rep.passed


class TestSchwarzPick:
    def test_value_at_origin_is_trivial(self):
        ext = h_extend(registry_map(1)["re1"], circle_rule(512))
        rep = check_schwarz_pick_value(ext, np.zeros(1, dtype=complex))
        assert rep.lhs <= 1e-12 and rep.rhs == 0.0 and rep.passed

    def test_constant_data_attains_equality(self):
        ext = h_extend(registry_map(1)["const:1"], circle_rule(512))
        rep = check_schwarz_pick_value(ext, np.array([0.6 + 0.1j]))
        assert abs(rep.margin) <= 1e-12
        assert rep.passed

    def test_gradient_bound_for_re_at_origin(self):
        # grad bound at 0 with M = 1 is 2(2n-1) = 2; Lambda(Re z) = 1
        ext = h_extend(registry_map(1)["re1"], circle_rule(2048))
        rep = check_schwarz_pick_gradient(ext, np.zeros(1, dtype=complex))
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.rhs == pytest.approx(2.0, rel=1e-14)
        assert rep.passed

    def test_needs_declared_bound(self):
        from hballs.extension import BoundaryFunction

        anon = BoundaryFunction("anon", 1, lambda nodes: nodes[:, 0])
        ext = h_extend(anon, circle_rule(256))
        with pytest.raises(ValueError):
            check_schwarz_pick_value(ext, np.array([0.1 + 0j]))
        with pytest.raises(ValueError):
            check_schwarz_pick_gradient(ext, np.array([0.1 + 0j]))

    def test_suite_passes_for_both_dimensions(self):
        for n, kwargs in ((1, dict(nodes=2048)), (2, dict(mc_nodes=8000))):
            cfg = HarnessConfig(n=n, seed=4, samples=40, **kwargs)
            reports = run_suite("schwarzpick", cfg)
            assert all(rep.passed for rep in reports)


class TestLemma33:
    def test_zero_point_equality(self):
        rep = check_lemma33(
            lambda z: np.zeros((2, 2), dtype=complex), 0.5, 1.0,
            np.zeros(2, dtype=complex), n=2)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_suite_construction_passes(self):
        for n, kwargs in ((1, dict(nodes=1024)), (2, dict(mc_nodes=4000))):
            cfg = HarnessConfig(n=n, seed=6, **kwargs)
            reports = run_suite("lemma33", cfg)
            assert len(reports) == 2
            assert all(rep.passed for rep in reports)

    def test_point_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            check_lemma33(lambda z: np.eye(2, dtype=complex), 0.5, 1.0,
                          np.array([0.6 + 0j, 0.0 + 0j]), n=2)


class TestLemmaB:
    def test_identity_equality(self):
        rep = check_lemmaB(np.eye(3))
        assert rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(1.0)
        assert rep.passed

    def test_diagonal_equality(self):
        # singular values {2, 0.5}: lhs = 1 * 2^(-1) = 0.5 = sigma_min
        rep = check_lemmaB(np.diag([2.0, 0.5]))
        assert rep.lhs == pytest.approx(0.5, rel=1e-14)
        assert rep.rhs == pytest.approx(0.5, rel=1e-14)
        assert abs(rep.margin) <= 1e-12

    def test_random_matrices_all_pass(self):
        rng = np.random.default_rng(44)
        for n in (2, 3, 4):
            mats = rng.standard_normal((500, n, n)) + 1j * rng.standard_normal((500, n, n))
            for A in mats:
                assert check_lemmaB(A).passed

    def test_suite_counts(self):
        cfg = HarnessConfig(trials=1000, seed=7)
        reports = run_suite("lemmaB", cfg)
        assert len(reports) == 6   # aggregate + diagonal equality per dimension
        assert all(rep.passed for rep in reports)
        assert all(rep.inputs.get("failures", 0) == 0
                   for rep in reports if "trials" in rep.inputs)


class TestLandauConstants:
    def test_reference_values(self):
        c = landau_constants(1, 1.0, 1.0)
        assert c.rho == pytest.approx(3.0 / 28.0, rel=1e-15)
        assert c.half_rho == pytest.approx(3.0 / 56.0, rel=1e-15)
        assert c.r_lower == pytest.approx(3.0 / 112.0, rel=1e-15)
        assert landau_constants(2, 1.0, 1.0).rho == pytest.approx(3.0 / 112.0, rel=1e-15)

    def test_monotonicity(self):
        rhos_m = [landau_constants(1, 1.0, m).rho for m in (1.0, 1.5, 2.0, 4.0)]
        assert all(a > b for a, b in zip(rhos_m, rhos_m[1:]))
        rhos_n = [landau_constants(n, 1.0, 1.0).rho for n in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(rhos_n, rhos_n[1:]))
        rhos_a = [landau_constants(1, a, 1.0).rho for a in (0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(rhos_a, rhos_a[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            landau_constants(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            landau_constants(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            landau_constants(1, 1.0, 0.5)


class TestUnivalenceProbe:
    def test_identity_has_unit_ratio(self):
        pairs = pair_samples(1, 500, seed=8, rmax=0.4)
        rep = univalence_probe(lambda pts: np.asarray(pts), 0.5, pairs, 0.0)
        assert rep.passed
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)

    def test_squaring_map_fails_on_antipodes(self):
        pairs = np.array([[[0.3 + 0.0j], [-0.3 + 0.0j]]])
        rep = univalence_probe(lambda pts: np.asarray(pts) ** 2, 0.5, pairs, 0.0)
        assert not rep.passed
        assert rep.rhs == 0.0

    def test_pairs_must_lie_in_ball(self):
        pairs = np.array([[[0.6 + 0.0j], [0.1 + 0.0j]]])
        with pytest.raises(ValueError):
            univalence_probe(lambda pts: np.asarray(pts), 0.5, pairs, 0.0)


class TestMappingRegistry:
    def test_registered_maps_are_normalized(self):
        from hballs.calculus import real_jacobian_from_wirtinger

        for n in (1, 2):
            for mapping in mapping_registry(n):
                det = real_jacobian_from_wirtinger(mapping.wirtinger()).det()
                assert det == pytest.approx(1.0, rel=1e-12)
                assert mapping.bound >= 1.0

    def test_covered_ball_probe_identity(self):
        consts = landau_constants(1, 1.0, 1.0)
        rep = covered_ball_probe(lambda pts: np.asarray(pts), consts, 100, 3)
        assert rep.passed
        # |F(zeta)| = rho for the identity, floor is rho/2
        assert rep.rhs == pytest.approx(consts.rho, rel=1e-12)
        assert rep.lhs == pytest.approx(consts.rho / 2.0, rel=1e-12)

    def test_landau_suite(self):
        for n in (1, 2):
            cfg = HarnessConfig(n=n, seed=9, pairs=500)
            reports = run_suite("landau", cfg)
            assert all(rep.passed for rep in reports)
            ids = [rep.check_id for rep in reports]
            assert any("negative_control" in cid for cid in ids)


class TestSuiteRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope", HarnessConfig())

    def test_config_refuses_empty_sweeps(self):
        for field in ("samples", "trials", "pairs"):
            with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
                HarnessConfig(**{field: 0})

    def test_all_concatenates(self):
        cfg = HarnessConfig(n=1, nodes=512, seed=2, samples=20, trials=200, pairs=200)
        reports = run_suite("all", cfg)
        assert len(reports) > 30
        assert all(isinstance(rep, CheckReport) for rep in reports)
        assert all(rep.passed for rep in reports)
