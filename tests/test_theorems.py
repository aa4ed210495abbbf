import json
import math
import re
import threading
from dataclasses import replace

import numpy as np
import pytest

from hballs import cli, theorems
from hballs.calculus import (
    GRADIENT_STEP_FACTOR,
    WirtingerData,
    fd_partials,
    lambda_bounds_wirtinger,
    wirtinger_fd_many,
)
from hballs.errors import EmptySampleSet, NonFiniteResult
from hballs.extension import boundary_registry, h_extend
from hballs.norms import all_pairs_lipschitz, ball_grid, pair_samples, uniform_ball
from hballs.quadrature import (
    STREAM_MATRICES,
    circle_rule,
    real_circle_rule,
    real_sphere_rule_mc,
    rng_stream,
)
from hballs.theorems import (
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
    lemma21_rows,
    make_report,
    mapping_registry,
    run_suite,
    univalence_probe,
)


def registry_map(n):
    return {entry.label: entry for entry in boundary_registry(n)}


def lemma22_at(f, z, label):
    """check_lemma22 on f's Wirtinger data at one point, by finite differences."""
    return check_lemma22(wirtinger_fd_many(f, np.atleast_2d(z)), label=label)


def thm24_of(f, points, grid, label):
    """check_thm24_necessity on f's sup over all pairs of the points, with
    f differentiated by finite differences on the grid."""
    (sup,), pairs = all_pairs_lipschitz(points, f(points))
    return check_thm24_necessity(sup, pairs, grid, wirtinger_fd_many(f, grid),
                                 label=label, fd_error=theorems._FD_TRUNCATION)


def schwarz_value_at(ext, zs):
    values, errors = ext.values_with_errors(np.vstack([zs, np.zeros(zs.shape[1])]))
    return check_schwarz_pick_value(zs, values[:-1], values[-1], errors[:-1],
                                    bound=ext.boundary.sup_bound)


def schwarz_gradient_at(ext, zs):
    data, errors = ext.wirtinger_many(zs)
    return check_schwarz_pick_gradient(zs, lambda_bounds_wirtinger(data)[0], errors,
                                       bound=ext.boundary.sup_bound)


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


def lemma21_of(f, a, r, rule, **kwargs):
    """check_lemma21 on f evaluated once at the rows of lemma21_rows(a, r, rule)."""
    a = np.asarray(a, dtype=float)
    values = np.asarray(f(lemma21_rows(a, r, rule)), dtype=float)
    m = a.size
    return check_lemma21(values[:4 * m], values[4 * m], values[4 * m + 1:], a, r, rule, **kwargs)


def lemma21_reference(f, a, r, rule, check_id):
    """The check as it took a callable: Richardson partials through fd_partials,
    then f(a), then the boundary, three evaluator calls."""
    a = np.asarray(a, dtype=float).reshape(-1)
    m = a.size
    fd_step = GRADIENT_STEP_FACTOR * r
    lhs = float(np.linalg.norm(fd_partials(f, a[None, :], np.array([fd_step], dtype=float))))
    fa = float(np.asarray(f(a.reshape(1, -1)))[0])
    gaps = np.abs(np.asarray(f(a + r * rule.nodes), dtype=float) - fa)
    means = [float(np.sum(rule.weights[::s] * gaps[::s]) / np.sum(rule.weights[::s]))
             for s in (1, 2)]
    prefactor = 2.0 * (m - 1) * math.sqrt(m) / r
    return make_report(
        check_id, lhs, prefactor * means[0], quad_error=prefactor * abs(means[0] - means[1]),
        fd_error=1e-9, inputs={"m": m, "a": list(map(float, a)), "r": float(r), "f(a)": fa,
                               "fd_step": fd_step},
        rule=dict(rule.meta))


def disk_part(ext, take_real):
    """A disk function as a real function on R^2, as the lemma21 suite reads it."""
    def f(xy):
        vals = ext((xy[:, 0] + 1j * xy[:, 1]).reshape(-1, 1))
        return vals.real if take_real else vals.imag
    return f


class TestLemma21:
    def test_constant_function(self):
        rule = real_circle_rule(512)
        rep = lemma21_of(lambda pts: np.zeros(len(np.atleast_2d(pts))), np.zeros(2), 0.5, rule)
        assert rep.passed
        assert rep.lhs <= 1e-8

    def test_coordinate_function_worked_example(self):
        # m=2, f = x_1, a=0, r=0.5: lhs = 1, rhs = 4 sqrt(2) / pi
        rule = real_circle_rule(4096)
        rep = lemma21_of(lambda pts: np.atleast_2d(pts)[:, 0], np.zeros(2), 0.5, rule)
        assert rep.lhs == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs == pytest.approx(4.0 * math.sqrt(2.0) / math.pi, rel=1e-6)
        assert rep.passed

    def test_odd_real_dimension(self):
        # m = 3 is no C^n; f = x_1 + 2 x_3 has |grad f| = sqrt(5)
        rule = real_sphere_rule_mc(3, 4000, 2)
        rep = lemma21_of(lambda pts: pts[:, 0] + 2.0 * pts[:, 2],
                         np.array([0.1, -0.2, 0.3]), 0.4, rule)
        assert rep.inputs["m"] == 3
        assert rep.lhs == pytest.approx(math.sqrt(5.0), abs=1e-8)
        assert rep.passed

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError):
            lemma21_of(lambda pts: np.zeros(len(pts)), np.zeros(1), 0.5, real_circle_rule(64))

    def test_boundary_evaluated_once(self, monkeypatch):
        # one evaluator call per registry function, at the stencil, centre and
        # boundary rows of all its cases; only bump is built under the rule
        calls, builds = {}, []

        def counted(label, f):
            def wrapper(pts):
                calls.setdefault(label, []).append(len(pts))
                return f(pts)
            return wrapper

        def registry(n):
            return [replace(entry, exact_extension=counted(entry.label, entry.exact_extension))
                    if entry.exact_extension else entry for entry in boundary_registry(n)]

        def build(entry, rule, guard_radius):
            builds.append(entry.label)
            return counted(entry.label, h_extend(entry, rule, guard_radius=guard_radius))

        monkeypatch.setattr(theorems, "boundary_registry", registry)
        monkeypatch.setattr(theorems, "h_extend", build)
        reports = theorems.suite_lemma21(HarnessConfig(n=2, nodes=512, seed=3))
        assert len(reports) == theorems.LEMMA21_CASES
        assert builds == ["bump"]
        rows = 8 + 1 + 1024                     # per case: stencil, centre, boundary
        assert calls == {label: [4 * rows] for label in ("const:1", "coord1", "re1", "bump", "fourier")}

    def test_rule_based_rows_equal_the_callable_reference_to_the_bit(self):
        cfg = HarnessConfig(n=1, nodes=1024, seed=3)
        reports = theorems.suite_lemma21(cfg)
        bump = next(entry for entry in boundary_registry(1) if entry.label == "bump")
        ext = h_extend(bump, circle_rule(cfg.nodes), guard_radius=cfg.rmax)
        checked = 0
        for case, rep in enumerate(reports):
            if "f=bump." not in rep.check_id:
                continue
            a, r = np.array(rep.inputs["a"]), rep.inputs["r"]
            ref = lemma21_reference(disk_part(ext, case % 2 == 0), a, r, real_circle_rule(1024),
                                    rep.check_id)
            assert json.dumps(rep.to_dict()) == json.dumps(ref.to_dict())
            checked += 1
        assert checked == 4

    def test_constant_rows_take_the_closed_form(self):
        reports = theorems.suite_lemma21(HarnessConfig(n=1, nodes=1024, seed=1))
        const = [rep for rep in reports if "f=const:1." in rep.check_id]
        assert len(const) == 4
        assert all(rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed for rep in const)

    def test_rule_based_constant_passes_through_its_finite_difference_term(self):
        # case 0 at seed 1 on the rule-based constant extension: rounding in the
        # kernel sum gives lhs 2.3e-10 against rhs 2.6e-15, inside only 10 * 1e-9.
        # Guard 1.0 keeps the kernel walk; at the guard 0.8 the Fourier path's
        # constant is exactly 1, and both sides are 0
        reports = theorems.suite_lemma21(HarnessConfig(n=1, seed=1))
        case0 = reports[0]
        assert case0.check_id == "lemma21[m=2,f=const:1.re,case=0]"
        const = boundary_registry(1)[0]
        a, r, rule = np.array(case0.inputs["a"]), case0.inputs["r"], real_circle_rule(1024)
        ext = h_extend(const, circle_rule(4096), guard_radius=1.0)
        rep = lemma21_of(disk_part(ext, True), a, r, rule, check_id="const")
        ref = lemma21_reference(disk_part(ext, True), a, r, rule, "const")
        assert json.dumps(rep.to_dict()) == json.dumps(ref.to_dict())
        assert rep.lhs / rep.rhs > 1e4
        assert rep.lhs > rep.rhs + rep.tol_breakdown["quadrature"]
        assert rep.passed and rep.lhs <= rep.rhs + rep.tolerance
        ext = h_extend(const, circle_rule(4096), guard_radius=0.8)
        rep = lemma21_of(disk_part(ext, True), a, r, rule, check_id="const")
        assert rep.lhs == rep.rhs == 0.0 and rep.passed

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

        rep = lemma22_at(f, np.zeros(1, dtype=complex), "square+conj")
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)
        assert rep.passed

    def test_coordinate_function_values(self):
        # f = z_1 in C^2: |grad f| = 1, |grad u| = |grad v| = 1
        rep = lemma22_at(lambda pts: np.asarray(pts)[:, 0],
                         np.array([0.1 + 0.2j, -0.1 + 0.0j]), "coord")
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)
        assert rep.passed

    def test_real_valued_equality_case(self):
        # f = z + conj(z) = 2x: both sides equal 2
        def f(pts):
            z = np.asarray(pts)[:, 0]
            return z + np.conj(z)

        rep = lemma22_at(f, np.array([0.2 - 0.1j]), "2x")
        assert rep.lhs == pytest.approx(2.0, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-9)
        assert rep.passed

    def test_registry_sweep(self):
        # the suite: random pairs, then the real and imaginary equality cases
        for n in (1, 2):
            reports = run_suite("lemma22", HarnessConfig(n=n, seed=5))
            assert [rep.check_id for rep in reports] == [
                f"lemma22[n={n},f=random]", f"lemma22.equality[n={n},f=real]",
                f"lemma22.equality[n={n},f=imaginary]"]
            assert all(rep.passed for rep in reports)
            assert all(rep.inputs["failures"] == 0 for rep in reports)

    def test_equality_case_catches_a_scaled_conjugate(self, monkeypatch):
        # negative control: real data whose f_zbar is (1 + 1e-9) conj f_z still
        # satisfies the inequality, but misses equality by about 5e-10 of rhs
        check = theorems.check_lemma22

        def scaled(data, *, label, equality=False):
            if label == "real":
                data = WirtingerData(data.fz, (1.0 + 1e-9) * data.fzbar)
                assert check(data, label=label).passed
            return check(data, label=label, equality=equality)

        monkeypatch.setattr(theorems, "check_lemma22", scaled)
        reports = run_suite("lemma22", HarnessConfig(n=2, seed=1))
        assert [rep.passed for rep in reports] == [True, False, True]
        assert reports[1].inputs["failures"] == HarnessConfig().samples
        # the drift shows in the stack's largest relative gap, not in the witness
        assert 1e-10 < reports[1].inputs["max_rel_gap"] < 1e-9
        assert reports[2].inputs["max_rel_gap"] < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equality_reports_give_the_largest_relative_gap(self, n):
        reports = run_suite("lemma22", HarnessConfig(n=n, seed=1))
        assert "max_rel_gap" not in reports[0].inputs
        for rep in reports[1:]:
            # rounding only, and at least the witness's own gap
            assert 0.0 < rep.inputs["max_rel_gap"] < 1e-13
            assert rep.inputs["max_rel_gap"] >= rep.lhs / (rep.rhs / 1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_seed_replays_the_report_and_another_seed_moves_the_witness(self, n):
        def reports(seed):
            return run_suite("lemma22", HarnessConfig(n=n, seed=seed))

        first = reports(4)
        assert (json.dumps([rep.to_dict() for rep in first])
                == json.dumps([rep.to_dict() for rep in reports(4)]))
        assert all(rep.inputs["fz"] != other.inputs["fz"]
                   for rep, other in zip(first, reports(5)))
        # the witness's pair alone replays its sides
        fz, fzbar = ([[[complex(*c) for c in first[0].inputs[key]]]] for key in ("fz", "fzbar"))
        again = check_lemma22(WirtingerData(fz, fzbar), label="random")
        assert (again.lhs, again.rhs) == (first[0].lhs, first[0].rhs)

    def test_samples_flag_sizes_the_stack(self, tmp_path):
        out = tmp_path / "lemma22.json"
        assert cli.main(["verify", "--suite", "lemma22", "--n", "3", "--samples", "37",
                         "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert [check["inputs"]["samples"] for check in checks] == [37] * 3

    @pytest.mark.parametrize("n", [1, 2])
    def test_suite_builds_no_rule_and_no_extension(self, n, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("lemma22 evaluates no function")

        monkeypatch.setattr(theorems, "rule_for", refused)
        monkeypatch.setattr(theorems, "h_extend", refused)
        reports = run_suite("lemma22", HarnessConfig(n=n, seed=2))
        assert len(reports) == 3 and all(rep.passed for rep in reports)


class TestThm24:
    def test_constant(self):
        points = uniform_ball(1, 100, np.random.default_rng(1), 0.7)
        grid = ball_grid(1)
        rep = thm24_of(lambda pts: np.zeros(len(pts)), points, grid, "const")
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_identity_estimates(self):
        grid = ball_grid(1)
        points = np.concatenate([grid, uniform_ball(1, 200, np.random.default_rng(2), 0.7)])
        rep = thm24_of(lambda pts: np.asarray(pts)[:, 0], points, grid, "id")
        assert rep.lhs == pytest.approx(1.0, abs=1e-4)
        assert rep.rhs == pytest.approx(math.pi, abs=1e-6)
        assert rep.passed


class TestSchwarzPick:
    def test_value_at_origin_is_trivial(self):
        ext = h_extend(registry_map(1)["re1"], circle_rule(512))
        rep = schwarz_value_at(ext, np.zeros((1, 1), dtype=complex))
        assert rep.lhs <= 1e-12 and rep.rhs == 0.0 and rep.passed

    def test_constant_data_attains_equality(self):
        ext = h_extend(registry_map(1)["const:1"], circle_rule(512))
        rep = schwarz_value_at(ext, np.array([[0.6 + 0.1j]]))
        assert abs(rep.margin) <= 1e-12
        assert rep.passed

    def test_gradient_bound_for_re_at_origin(self):
        # grad bound at 0 with M = 1 is 2(2n-1) = 2; Lambda(Re z) = 1
        ext = h_extend(registry_map(1)["re1"], circle_rule(2048))
        rep = schwarz_gradient_at(ext, np.zeros((1, 1), dtype=complex))
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.rhs == pytest.approx(2.0, rel=1e-14)
        assert rep.passed

    def test_suite_passes_for_both_dimensions(self):
        for n, kwargs in ((1, dict(nodes=2048)), (2, dict(mc_nodes=8000))):
            cfg = HarnessConfig(n=n, seed=4, samples=40, **kwargs)
            reports = run_suite("schwarzpick", cfg)
            assert all(rep.passed for rep in reports)


class TestLemma33:
    def test_zero_point_equality(self):
        rep = check_lemma33(np.zeros((1, 2, 2), dtype=complex),
                            np.zeros((1, 2), dtype=complex), 0.5)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed

    def test_suite_construction_passes(self):
        for n, kwargs in ((1, dict(nodes=1024)), (2, dict(mc_nodes=4000))):
            cfg = HarnessConfig(n=n, seed=6, **kwargs)
            reports = run_suite("lemma33", cfg)
            assert len(reports) == 2
            assert all(rep.passed for rep in reports)

    def test_point_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            check_lemma33(np.eye(2, dtype=complex)[None], np.array([[0.6 + 0j, 0.0 + 0j]]), 0.5)


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
        assert rep.margin == 0.0          # README's diagonal equality case
        # one matrix is a stack of one
        assert rep.inputs == {"n": 2, "worst_index": 0, "sigma_max": 2.0, "sigma_min": 0.5,
                              "max_rel_gap": 0.0, "samples": 1, "failures": 0,
                              "worst_margin": 0.0}

    def test_singular_matrix_passes_with_no_gap(self):
        # a product of singular values of 0 gives no relative gap, and no warning
        rep = check_lemmaB(np.diag([1.0, 0.0]))
        assert rep.passed and rep.lhs == rep.rhs == 0.0
        assert rep.inputs["max_rel_gap"] == 0.0

    def test_random_matrices_all_pass(self):
        rng = np.random.default_rng(44)
        for n in (2, 3, 4):
            mats = rng.standard_normal((500, n, n)) + 1j * rng.standard_normal((500, n, n))
            for A in mats:
                assert check_lemmaB(A).passed

    def test_suite_counts(self):
        cfg = HarnessConfig(samples=1000, seed=7)
        reports = run_suite("lemmaB", cfg)
        assert len(reports) == 6   # aggregate + diagonal equality per dimension
        assert [rep.check_id for rep in reports] == [
            cid for n in (2, 3, 4) for cid in (f"lemmaB[n={n}]", f"lemmaB.diagonal[n={n}]")]
        assert all(rep.passed and rep.inputs["failures"] == 0 for rep in reports)
        # each dimension's whole stack is checked
        assert [rep.inputs["samples"] for rep in reports] == [1000, 1] * 3

    def test_stack_reports_its_witness(self):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3))
        rep = check_lemmaB(mats)
        assert rep.passed
        assert rep.inputs["samples"] == 400 and rep.inputs["failures"] == 0
        witness = mats[rep.inputs["worst_index"]]
        s = np.linalg.svd(witness, compute_uv=False)
        assert rep.inputs["sigma_max"] == pytest.approx(s[0], rel=1e-14)
        assert rep.inputs["sigma_min"] == rep.rhs == pytest.approx(s[-1], rel=1e-14)
        # no matrix of the stack has a smaller margin, by more than a tie
        assert min(check_lemmaB(A).margin for A in mats) >= rep.margin - 1e-12

    def test_trials_equal_the_summed_draws_to_the_bit(self, monkeypatch):
        # the stacks are drawn in place; the reference sums two separate draws
        cfg = HarnessConfig(samples=300, seed=11)
        rng = rng_stream(cfg.seed, STREAM_MATRICES)
        stacks = []

        def recording(matrices, **kwargs):
            if np.ndim(matrices) == 3:
                stacks.append(np.array(matrices))
            return check_lemmaB(matrices, **kwargs)

        monkeypatch.setattr(theorems, "check_lemmaB", recording)
        reports = theorems.suite_lemmaB(cfg)
        assert [stack.shape for stack in stacks] == [(cfg.samples, n, n) for n in (2, 3, 4)]
        for stack, rep in zip(stacks, reports[::2]):
            n = stack.shape[1]
            mats = (rng.standard_normal((cfg.samples, n, n))
                    + 1j * rng.standard_normal((cfg.samples, n, n)))
            assert stack.tobytes() == mats.tobytes()
            expected = check_lemmaB(mats, check_id=rep.check_id).to_dict()
            expected["inputs"]["seed"] = cfg.seed
            assert rep.to_dict() == expected

    def test_n2_stack_shows_the_identity_to_rounding(self):
        # |det A| = prod sigma_i at every n; at n = 2 it is the lemma itself
        cfg = HarnessConfig(seed=3)
        reports = run_suite("lemmaB", cfg)
        assert all(0.0 <= rep.inputs["max_rel_gap"] < 1e-13 for rep in reports)
        # the n = 2 stack's gap has the bits of sigma_max sigma_min from a second SVD
        mats = np.empty((cfg.samples, 2, 2), dtype=complex)
        rng = rng_stream(cfg.seed, STREAM_MATRICES)
        mats.real = rng.standard_normal(mats.shape)
        mats.imag = rng.standard_normal(mats.shape)
        s = np.linalg.svd(mats, compute_uv=False)
        product = s[:, 0] * s[:, 1]
        gap = np.max(np.abs(np.abs(np.linalg.det(mats)) - product) / product)
        assert reports[0].check_id == "lemmaB[n=2]" and reports[0].inputs["max_rel_gap"] == gap

    def test_default_stacks_catch_a_determinant_error_at_n2(self, monkeypatch):
        # the fault class the random stacks see: at n = 2 a relative error of
        # 1e-9 in det breaks the identity, as it breaks every equality case
        true_det = np.linalg.det
        monkeypatch.setattr(theorems.np.linalg, "det", lambda a: (1.0 + 1e-9) * true_det(a))
        failed = {rep.check_id for rep in run_suite("lemmaB", HarnessConfig()) if not rep.passed}
        assert failed == {"lemmaB[n=2]", "lemmaB.diagonal[n=2]", "lemmaB.diagonal[n=3]",
                          "lemmaB.diagonal[n=4]"}


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

    @pytest.mark.parametrize("n, alpha, bound", [
        (1, 800.0, 1.0), (2, 1.0, 1e80),      # 3^alpha and (2M)^(2n) overflow
        (3, 1.0, 1e40)])                      # r_lower underflows to 0
    def test_constants_beyond_double_range_are_refused_by_name(self, n, alpha, bound):
        with pytest.raises(ValueError, match=re.escape(
                f"Landau constants at n={n}, alpha={alpha:g}, M={bound:g} do not fit")):
            landau_constants(n, alpha, bound)

    def test_config_refuses_what_the_landau_suite_cannot_compute(self):
        # whatever the suite: M = 1e20 fits every sweep, 1e25 does not (r_lower at n = 4)
        assert all(rep.passed for rep in theorems.suite_landau(HarnessConfig(m=1e20, pairs=50)))
        with pytest.raises(ValueError, match=re.escape(
                "beyond the landau suite's range: Landau constants at n=4, alpha=1, M=1e+25")):
            HarnessConfig(m=1e25)

    # 508 - ulp is the largest alpha the config accepts at n = 1: beyond it
    # the n sweep's n = 4 constant overflows
    @pytest.mark.parametrize("alpha", [25.0, 100.0, float(np.nextafter(508.0, 0.0))])
    def test_suite_passes_at_large_alpha(self, alpha):
        reports = theorems.suite_landau(HarnessConfig(alpha=alpha, pairs=200))
        assert [rep.check_id for rep in reports if not rep.passed] == []

    def test_consistency_check_catches_a_perturbed_route(self, monkeypatch):
        # a 1e-13 relative error in one of the two routes to rho
        exact = theorems.landau_constants
        monkeypatch.setattr(theorems, "landau_constants", lambda *args: replace(
            exact(*args), rho=exact(*args).rho * (1.0 + 1e-13)))
        for alpha in (1.0, 25.0, 100.0):
            constants = theorems.suite_landau(HarnessConfig(alpha=alpha, pairs=20))[0]
            assert constants.check_id.startswith("landau.constants")
            assert not constants.passed

    def test_nan_is_refused_by_its_own_field(self):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            landau_constants(1, math.nan, 1.0)
        with pytest.raises(ValueError, match="^the norm bound M must be >= 1$"):
            landau_constants(1, 1.0, math.nan)

    def test_infinity_is_refused_by_its_own_field(self):
        # alpha = inf gave rho = inf / inf and M = inf gave rho = 0, both blamed on the constants
        with pytest.raises(ValueError, match="^alpha must be finite, got inf$"):
            landau_constants(1, math.inf, 1.0)
        with pytest.raises(ValueError, match="^the norm bound M must be finite, got inf$"):
            landau_constants(1, 1.0, math.inf)


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

    def test_empty_pair_set_is_refused_by_name(self):
        with pytest.raises(EmptySampleSet, match="^univalence probe over an empty pair set$"):
            univalence_probe(lambda pts: np.asarray(pts), 0.5, np.zeros((0, 2, 1)), 0.0)

    def test_pairs_must_lie_in_ball(self):
        pairs = np.array([[[0.6 + 0.0j], [0.1 + 0.0j]]])
        with pytest.raises(ValueError):
            univalence_probe(lambda pts: np.asarray(pts), 0.5, pairs, 0.0)


class TestMappingRegistry:
    def test_registered_maps_are_normalized(self):
        from hballs.calculus import real_jacobian_from_wirtinger

        for n in (1, 2):
            for mapping in mapping_registry(n):
                det = np.linalg.det(real_jacobian_from_wirtinger(mapping.wirtinger()))
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
        for field in ("samples", "pairs", "n"):
            with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
                HarnessConfig(**{field: 0})

    def test_config_refuses_rules_too_small_for_their_constructors(self):
        for field, least in (("nodes", 4), ("mc_nodes", 100)):
            HarnessConfig(**{field: least})
            with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {least - 1}$"):
                HarnessConfig(**{field: least - 1})

    def test_config_refuses_non_finite_alpha_and_m(self):
        for field in ("alpha", "m"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}"):
                    HarnessConfig(**{field: value})

    def test_config_refuses_alpha_and_m_outside_their_ranges(self):
        # every suite, not only landau, sees alpha > 0 and m >= 1
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"^alpha must be > 0, got {value}$"):
                HarnessConfig(alpha=value)
        for value in (0.5, 0.0, -2.0):
            with pytest.raises(ValueError, match=f"^m must be >= 1, got {value}$"):
                HarnessConfig(m=value)
        assert HarnessConfig(alpha=1e-3, m=1.0).m == 1.0

    def test_config_refuses_rmax_outside_unit_interval(self):
        for rmax in (1.5, 1.0, 0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=r"^rmax must lie in \(0, 1\)"):
                HarnessConfig(rmax=rmax)

    def test_all_concatenates(self):
        for cfg in (HarnessConfig(n=1, nodes=512, seed=2, samples=20, pairs=200),
                    HarnessConfig(n=2, mc_nodes=1100, seed=2, samples=8, pairs=40)):
            reports = run_suite("all", cfg)
            assert len(reports) > 30
            assert all(isinstance(rep, CheckReport) for rep in reports)
            assert all(rep.passed for rep in reports)
            alone = [rep for name in theorems.SUITES for rep in run_suite(name, cfg)]
            assert [rep.to_dict() for rep in reports] == [rep.to_dict() for rep in alone]

    def test_all_starts_no_thread(self, monkeypatch):
        before = threading.active_count()
        seen = []
        for name in list(theorems.SUITES):
            monkeypatch.setitem(theorems.SUITES, name,
                                lambda cfg, *rest: seen.append(threading.active_count()) or [])
        assert run_suite("all", HarnessConfig()) == []
        assert seen == [before] * len(theorems.SUITES)

    def test_all_raises_the_failure_of_lemmaB_trials(self, monkeypatch, capsys):
        def fail(cfg):
            raise NonFiniteResult("singular values must be finite")

        monkeypatch.setitem(theorems.SUITES, "lemmaB", fail)
        cfg = HarnessConfig(n=1, nodes=256, samples=5, pairs=20)
        with pytest.raises(NonFiniteResult, match="^singular values must be finite$"):
            run_suite("all", cfg)
        code = cli.main(["verify", "--suite", "all", "--nodes", "256", "--samples", "5",
                         "--pairs", "20"])
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: singular values must be finite\n"
