"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Criteria run at desk scale: spectral circle rules back every n = 1 check,
seeded Monte Carlo rules back n = 2, and formula checks extend to n = 4.
Monte Carlo tolerances consume the rule's own reported standard error.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hballs.calculus import real_jacobian_from_wirtinger, wirtinger_fd_many
from hballs.extension import boundary_registry, h_extend, laplace_beltrami_residual
from hballs.geometry import real_mobius
from hballs.kernel import poisson_h_values
from hballs.norms import pair_samples
from hballs.quadrature import circle_rule, integrate_with_error, sphere_rule_mc
from hballs.theorems import (
    HarnessConfig,
    covered_ball_probe,
    landau_constants,
    mapping_registry,
    run_suite,
    univalence_probe,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def interior_points(rng, n, count, rmax):
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    radii = rmax * rng.random(count) ** (1.0 / (2 * n))
    return z * (radii / np.linalg.norm(z, axis=1))[:, None]


def test_criterion_1_kernel_normalization():
    started = time.monotonic()
    rule = circle_rule(4096)
    worst = 0.0
    for r in (0.0, 0.3, 0.5, 0.8):
        z = np.array([r + 0.0j])
        total = integrate_with_error(rule, lambda nodes: poisson_h_values(z, nodes))[0]
        worst = max(worst, abs(total.real - 1.0))
    ok_disk = worst <= 1e-8

    rule2 = sphere_rule_mc(2, 200000, seed=0)
    z2 = np.array([0.8 + 0.0j, 0.0 + 0.0j])
    total, err = integrate_with_error(rule2, lambda nodes: poisson_h_values(z2, nodes))
    deviation = abs(total.real - 1.0)
    ok_mc = deviation <= 5.0 * err
    elapsed = time.monotonic() - started
    report(
        "criterion 1 (normalization)",
        ok_disk and ok_mc and elapsed < 10.0,
        f"disk worst |I-1|={worst:.2e}; MC dev={deviation:.3e} vs 5*SE={5 * err:.3e}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_dirichlet_correctness():
    started = time.monotonic()
    reg = {b.label: b for b in boundary_registry(1)}
    ext = h_extend(reg["re1"], circle_rule(4096))
    rng = np.random.default_rng(202)
    zs = interior_points(rng, 1, 50, 0.8)
    worst = float(np.max(np.abs(ext(zs) - zs[:, 0].real)))
    elapsed = time.monotonic() - started
    report(
        "criterion 2 (Dirichlet correctness)",
        worst <= 1e-8 and elapsed < 5.0,
        f"max |f(z) - Re z| = {worst:.2e} over 50 points; {elapsed:.1f}s",
    )


def test_criterion_3_h_harmonicity():
    rng = np.random.default_rng(203)
    worst = 0.0
    for n, rule in ((1, circle_rule(2048)), (2, sphere_rule_mc(2, 20000, 3))):
        for entry in boundary_registry(n):
            ext = h_extend(entry, rule)
            for z in interior_points(rng, n, 50 // 10, 0.7):
                worst = max(worst, abs(laplace_beltrami_residual(ext, z)))
    # 50 points per dimension spread over the registry entries
    for n, rule in ((1, circle_rule(2048)), (2, sphere_rule_mc(2, 20000, 3))):
        entry = boundary_registry(n)[1]
        ext = h_extend(entry, rule)
        for z in interior_points(rng, n, 45, 0.7):
            worst = max(worst, abs(laplace_beltrami_residual(ext, z)))
    ok_residual = worst <= 1e-4

    control = laplace_beltrami_residual(
        lambda pts: pts[:, 0], np.array([0.3 + 0.0j, 0.0 + 0.0j]))
    ok_control = abs(control - 1.092) <= 1e-6
    report(
        "criterion 3 (h-harmonicity)",
        ok_residual and ok_control,
        f"worst residual {worst:.2e} <= 1e-4; control Delta_h z_1 = {control:.9f}",
    )


def mobius_identity_residual(a, x):
    """|(1 - |T_a x|^2) - (1-|a|^2)(1-|x|^2) / (1 - 2 x.a + |x|^2 |a|^2)|."""
    av, xv = a.view(np.float64), x.view(np.float64)
    t = real_mobius(a, x[None, :]).view(np.float64)[0]
    rhs = (1.0 - av @ av) * (1.0 - xv @ xv) / (1.0 - 2.0 * (xv @ av) + (xv @ xv) * (av @ av))
    return abs(1.0 - t @ t - rhs)


def test_criterion_4_mobius_identity():
    started = time.monotonic()
    rng = np.random.default_rng(204)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(1000):
            a = interior_points(rng, n, 1, 0.99)[0]
            z = interior_points(rng, n, 1, 0.99)[0]
            worst = max(worst, mobius_identity_residual(a, z))
    elapsed = time.monotonic() - started
    report(
        "criterion 4 (real Mobius identity)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst residual {worst:.2e} over 3000 pairs, n in {{1,2,3}}; {elapsed:.2f}s",
    )


def test_criterion_5_wirtinger_example():
    def f(pts):
        z = np.asarray(pts)[:, 0]
        return z ** 2 + np.conj(z)

    data = wirtinger_fd_many(f, np.zeros((1, 1), dtype=complex))[0]
    lhs = abs(data.fz[0, 0]) + abs(data.fzbar[0, 0])
    J = real_jacobian_from_wirtinger(data)
    rhs = float(np.linalg.norm(J[0]) + np.linalg.norm(J[1]))
    report(
        "criterion 5 (Wirtinger example)",
        abs(lhs - 1.0) <= 1e-9 and abs(rhs - 2.0) <= 1e-9,
        f"|f_z(0)|+|f_zbar(0)| = {lhs:.12f}, |grad u(0)|+|grad v(0)| = {rhs:.12f}",
    )


def test_criterion_6_lemma22_suite():
    all_pass = True
    failures = 0
    for n in (1, 2):
        reports = run_suite("lemma22", HarnessConfig(n=n, seed=6))
        all_pass &= all(rep.passed for rep in reports)
        failures += sum(rep.inputs["failures"] for rep in reports)
    report(
        "criterion 6 (Wirtinger vs real gradients)",
        all_pass and failures == 0,
        f"200 random Wirtinger pairs and their real and imaginary equality cases, "
        f"n in {{1,2}}: {failures} pointwise failures",
    )


def test_criterion_7_weighted_lipschitz_vs_bloch():
    all_pass = True
    worst_margin = np.inf
    for n, kwargs in ((1, dict(nodes=2048)), (2, dict(mc_nodes=20000, pairs=1000))):
        reports = run_suite("thm24", HarnessConfig(n=n, seed=7, **kwargs))
        all_pass &= all(rep.passed for rep in reports)
        worst_margin = min(worst_margin, min(rep.margin for rep in reports))
    report(
        "criterion 7 (pair sup vs pi sqrt(n) Bloch sup)",
        all_pass,
        f"every registry function, n in {{1,2}}; worst margin {worst_margin:.3f}",
    )


def test_criterion_8_schwarz_pick():
    all_pass = True
    eq_margin = {}
    for n, kwargs in ((1, dict(nodes=4096)), (2, dict(mc_nodes=20000))):
        reports = run_suite("schwarzpick", HarnessConfig(n=n, seed=8, samples=200, **kwargs))
        all_pass &= all(rep.passed for rep in reports)
        eq = next(rep for rep in reports if "equality" in rep.check_id)
        eq_margin[n] = (eq.lhs, eq.rhs)   # worst |margin| vs 10*rule error
        all_pass &= eq.passed
    report(
        "criterion 8 (Schwarz-Pick value/gradient)",
        all_pass,
        "200 z per function; equality gap vs allowance: "
        + ", ".join(f"n={n}: {gap:.2e} <= {tol:.2e}" for n, (gap, tol) in eq_margin.items()),
    )


def test_criterion_9_det_vs_singular_value():
    reports = run_suite("lemmaB", HarnessConfig(samples=10000, seed=9))
    aggregate = [rep for rep in reports if rep.check_id.startswith("lemmaB[")]
    diagonal = [rep for rep in reports if "diagonal" in rep.check_id]
    failures = sum(rep.inputs["failures"] for rep in aggregate)
    diag_ok = all(abs(rep.margin) <= 1e-12 for rep in diagonal)
    report(
        "criterion 9 (det vs smallest singular value)",
        failures == 0 and diag_ok and all(rep.passed for rep in reports),
        f"3 x 10^4 seeded matrices, n in {{2,3,4}}: {failures} failures; "
        f"diagonal equality margins <= 1e-12: {diag_ok}",
    )


def test_criterion_10_landau_constants():
    c1 = landau_constants(1, 1.0, 1.0)
    exact = (
        abs(c1.rho - 3.0 / 28.0) <= 1e-15 * (3.0 / 28.0)
        and abs(c1.r_lower - 3.0 / 112.0) <= 1e-15 * (3.0 / 112.0)
    )
    rho_m = [landau_constants(1, 1.0, m).rho for m in (1.0, 1.5, 2.0)]
    rho_n = [landau_constants(n, 1.0, 1.0).rho for n in (1, 2, 3, 4)]
    rho_a = [landau_constants(1, a, 1.0).rho for a in (0.5, 1.0, 2.0)]
    monotone = all(
        all(x > y for x, y in zip(seq, seq[1:])) for seq in (rho_m, rho_n, rho_a))
    report(
        "criterion 10 (Landau constants)",
        exact and monotone,
        f"rho(1,1,1) = {c1.rho!r} (= 3/28), r_lower = {c1.r_lower!r} (= 3/112); "
        f"strictly decreasing in M, n, alpha: {monotone}",
    )


def test_criterion_11_univalence_probes():
    all_ok = True
    details = []
    for n in (1, 2):
        for mapping in mapping_registry(n):
            consts = landau_constants(n, 1.0, max(mapping.bound, 1.0))
            pairs = pair_samples(n, 1000, seed=11, rmax=consts.half_rho * 0.999)
            probe = univalence_probe(mapping, consts.half_rho, pairs, 0.0,
                                     label=mapping.label)
            covered = covered_ball_probe(mapping, consts, 100, 11, label=mapping.label)
            all_ok &= probe.passed and covered.passed
        details.append(f"n={n} ok")
    neg_pairs = np.array([[[0.3 + 0.0j], [-0.3 + 0.0j]]])
    neg = univalence_probe(lambda pts: np.asarray(pts) ** 2, 0.5, neg_pairs, 0.0)
    all_ok &= not neg.passed
    report(
        "criterion 11 (univalence and covered-ball probes)",
        all_ok,
        "; ".join(details) + f"; squaring control failed as required: {not neg.passed}",
    )


def reports_under_blas_threads(tmp_path, *flags):
    """``verify --suite all --seed 1`` report bytes with 1 and with 4 BLAS threads."""
    outputs = []
    for run, threads in ((0, "1"), (1, "4")):
        out = tmp_path / f"report{run}.json"
        env = dict(os.environ, PYTHONPATH=SRC,
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env.pop("HBALLS_SEED", None)
        proc = subprocess.run(
            [sys.executable, "-m", "hballs", "verify", "--suite", "all",
             "--seed", "1", *flags, "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(out.read_bytes())
    return outputs


def test_criterion_12_reproducibility(tmp_path):
    started = time.monotonic()
    outputs = reports_under_blas_threads(tmp_path)
    elapsed = time.monotonic() - started
    identical = outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    report(
        "criterion 12 (reproducibility)",
        identical and elapsed < 300.0 and doc["summary"]["failed"] == 0,
        f"two runs (1 vs 4 BLAS threads) byte-identical: {identical}; "
        f"{doc['summary']['passed']}/{doc['summary']['total']} checks passed; "
        f"wall {elapsed:.0f}s < 300s",
    )


def test_criterion_12_reproducibility_at_n2(tmp_path):
    # every suite on the Monte Carlo rule, at a reduced size
    outputs = reports_under_blas_threads(tmp_path, "--n", "2", "--mc-nodes", "5000",
                                         "--samples", "40", "--pairs", "300")
    identical = outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    report(
        "criterion 12 (reproducibility, n = 2)",
        identical and doc["summary"]["failed"] == 0,
        f"two runs (1 vs 4 BLAS threads) byte-identical: {identical}; "
        f"{doc['summary']['passed']}/{doc['summary']['total']} checks passed",
    )
