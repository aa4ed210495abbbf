"""Each batch check equals its per-sample reference to the bit.

A pointwise check takes arrays evaluated at a (P, n) sample batch and
returns one report.  The references below take the same inequality one
sample at a time with scalar formulas, build one ``make_report`` per sample
and keep the worst one by the tie rule; a batch check must serialize to
the same bytes, for the whole batch and for each sample as a one-row batch
(a report shows only its witness, so this reaches the bits of every sample).
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hballs import theorems
from hballs.calculus import (
    lambda_bounds_wirtinger,
    operator_norm,
    real_jacobian_from_wirtinger,
    wirtinger_fd_many,
)
from hballs.extension import boundary_registry, h_extend, vector_boundary
from hballs.norms import uniform_ball
from hballs.quadrature import circle_rule, sphere_rule_mc
from hballs.theorems import (
    check_lemma22,
    check_lemma33,
    check_schwarz_pick_gradient,
    check_schwarz_pick_value,
    make_report,
)

TIE = 1e-12


def cplx(z):
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(z)]


def reference_reduce(reports, check_id):
    """The first report, by index, whose margin + tolerance is within TIE of
    the least, with the batch's sample and failure counts."""
    slack = [rep.margin + rep.tolerance for rep in reports]
    least = min(slack)
    worst = reports[next(i for i, s in enumerate(slack) if s <= least + TIE)]
    inputs = {**worst.inputs, "samples": len(reports),
              "failures": sum(0 if rep.passed else 1 for rep in reports),
              "worst_margin": worst.margin}
    return replace(worst, check_id=check_id, inputs=inputs,
                   passed=all(rep.passed for rep in reports))


def lemma22_samples(data, zs, label, fd_error):
    reports = []
    for i, z in enumerate(zs):
        point = data[i]
        lhs = np.linalg.norm(point.fz[0]) + np.linalg.norm(point.fzbar[0])
        J = real_jacobian_from_wirtinger(point).matrix
        rhs = np.linalg.norm(J[0]) + np.linalg.norm(J[1])
        reports.append(make_report("sample", lhs, rhs, analytic=1e-12, fd_error=fd_error,
                                   inputs={"f": label, "z": cplx(z)}))
    return reports


def schwarz_value_samples(zs, values, f0, errors, bound, label, rule):
    n = zs.shape[1]
    reports = []
    for z, v, err in zip(zs, values, errors):
        norm_z = float(np.linalg.norm(z))
        kappa = ((1.0 - norm_z) / (1.0 + norm_z)) ** (2 * n - 1)
        lhs = float(np.linalg.norm(np.atleast_1d(v - kappa * f0)))
        reports.append(make_report(
            "sample", lhs, bound * (1.0 - kappa), analytic=1e-12,
            quad_error=(1.0 + bound) * float(err),
            inputs={"f": label, "n": n, "M": bound, "z": cplx(z), "kappa": kappa},
            rule=dict(rule)))
    return reports


def schwarz_gradient_samples(zs, data, errors, bound, label, rule):
    n = zs.shape[1]
    reports = []
    for i, (z, err) in enumerate(zip(zs, errors)):
        norm_z = float(np.linalg.norm(z))
        big_lambda = lambda_bounds_wirtinger(data[i])[0]
        reports.append(make_report(
            "sample", big_lambda, 2.0 * (2 * n - 1) * bound / (1.0 - norm_z) ** 2,
            analytic=1e-12, quad_error=float(err),
            inputs={"f": label, "n": n, "M": bound, "z": cplx(z)}, rule=dict(rule)))
    return reports


def lemma33_samples(matrices, zs, r, bound, label, quad_errors):
    n = zs.shape[1]
    reports = []
    for A, z, err in zip(matrices, zs, quad_errors):
        norm_z = float(np.linalg.norm(z))
        ratio = ((r - norm_z) / (r + norm_z)) ** (2 * n - 1)
        reports.append(make_report(
            "sample", operator_norm(A), bound * (1.0 - ratio), analytic=1e-12,
            quad_error=float(err),
            inputs={"A": label, "n": n, "r": float(r), "M": float(bound), "z": cplx(z)}))
    return reports


def same_bytes(report, expected):
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())


def assert_matches_reference(check, samples, count, check_id):
    """``check(rows)`` and ``samples(rows)`` take the rows ``rows`` of the
    batch; compare the whole batch, then each row alone."""
    for rows in [slice(None)] + [slice(i, i + 1) for i in range(count)]:
        same_bytes(check(rows), reference_reduce(samples(rows), check_id))


RULES = {1: circle_rule(700), 2: sphere_rule_mc(2, 1500, 4), 3: sphere_rule_mc(3, 1200, 4)}


def sample_points(n, count=30, rmax=0.8, seed=2):
    return uniform_ball(n, count, np.random.default_rng(seed), rmax)


def bounded_entries(n):
    """The schwarzpick entries: every bounded scalar, and at n >= 2 their vector."""
    entries = [entry for entry in boundary_registry(n) if entry.sup_bound]
    if n >= 2:
        entries.append(vector_boundary(entries[1:1 + n]))
    return entries


@pytest.mark.parametrize("n", sorted(RULES))
def test_schwarz_pick_checks_equal_their_references(n):
    zs = sample_points(n)
    rule = RULES[n]
    for entry in bounded_entries(n):
        ext = h_extend(entry, rule)
        values, v_errors = ext.values_with_errors(np.vstack([zs, np.zeros(n)]))
        data, g_errors = ext.wirtinger_many(zs)
        big_lambda = lambda_bounds_wirtinger(data)[0]
        args = dict(bound=entry.sup_bound, label=entry.label, rule=rule.meta)
        ref = (entry.sup_bound, entry.label, rule.meta)
        assert_matches_reference(
            lambda p: check_schwarz_pick_value(zs[p], values[:-1][p], values[-1],
                                               v_errors[:-1][p], **args),
            lambda p: schwarz_value_samples(zs[p], values[:-1][p], values[-1], v_errors[:-1][p],
                                            *ref),
            len(zs), f"schwarzpick.value[n={n},f={entry.label}]")
        assert_matches_reference(
            lambda p: check_schwarz_pick_gradient(zs[p], big_lambda[p], g_errors[p], **args),
            lambda p: schwarz_gradient_samples(zs[p], data[p], g_errors[p], *ref),
            len(zs), f"schwarzpick.gradient[n={n},f={entry.label}]")


@pytest.mark.parametrize("n", sorted(RULES))
def test_lemma22_check_equals_its_reference(n):
    zs = sample_points(n, rmax=0.7)
    for entry in boundary_registry(n):
        # exact kernel derivatives, and finite differences of a closed form
        paths = [(h_extend(entry, RULES[n]).wirtinger_many(zs)[0], 0.0)]
        if entry.exact_extension is not None:
            paths.append((wirtinger_fd_many(entry.exact_extension, zs), theorems._FD_TRUNCATION))
        for data, fd_error in paths:
            assert_matches_reference(
                lambda p: check_lemma22(data[p], zs[p], label=entry.label, fd_error=fd_error),
                lambda p: lemma22_samples(data[p], zs[p], entry.label, fd_error),
                len(zs), f"lemma22[n={n},f={entry.label}]")


@pytest.mark.parametrize("n", sorted(RULES))
def test_lemma33_check_equals_its_reference(n):
    r = 0.9
    zs = sample_points(n, rmax=0.95 * r * 0.8)   # as the suite: |z / r| < 0.8
    ext = h_extend(next(b for b in boundary_registry(n) if b.label == "re1"), RULES[n])
    values, errors = ext.values_with_errors(np.vstack([zs / r, np.zeros(n)]))
    quad = errors[:-1] * 0.5 * 2
    rng = np.random.default_rng(7)
    stacks = {  # the suite's diagonal maps, and full complex matrices
        "diag": 0.5 * (values[:-1] - values[-1])[:, None, None] * np.eye(n, dtype=complex),
        "full": 0.1 * (rng.standard_normal((len(zs), n, n))
                       + 1j * rng.standard_normal((len(zs), n, n))),
    }
    for label, matrices in stacks.items():
        assert_matches_reference(
            lambda p: check_lemma33(matrices[p], zs[p], r, label=label, quad_error=quad[p]),
            lambda p: lemma33_samples(matrices[p], zs[p], r, 1.0, label, quad[p]),
            len(zs), f"lemma33[n={n},r={r}]")


def batch(check_id, lhs, rhs, **kwargs):
    return theorems._batch_report(check_id, np.asarray(lhs, dtype=float),
                                  np.asarray(rhs, dtype=float), lambda i: {"i": i}, **kwargs)


def per_sample(check_id, lhs, rhs, quad=None, **kwargs):
    quad = [0.0] * len(lhs) if quad is None else quad
    return reference_reduce([make_report("sample", a, b, quad_error=q, inputs={"i": i}, **kwargs)
                             for i, (a, b, q) in enumerate(zip(lhs, rhs, quad))], check_id)


@pytest.mark.parametrize("gap, witness", [(5e-13, 0), (2e-12, 1)])
def test_witness_is_the_first_sample_within_the_tie(gap, witness):
    # sample 1 has the least slack; sample 0 trails it by ``gap``
    lhs, rhs = [1.0, 1.0 + gap, 0.5], [2.0, 2.0, 2.0]
    rep = batch("tie", lhs, rhs)
    assert rep.inputs["i"] == witness
    assert rep.passed and rep.inputs["failures"] == 0
    same_bytes(rep, per_sample("tie", lhs, rhs))


def test_failures_count_the_samples_over_their_tolerance():
    # the quadrature term lets sample 1 through; samples 0 and 3 fail
    lhs, rhs, quad = [3.0, 2.5, 1.0, 5.0], [2.0, 2.0, 2.0, 2.0], [0.0, 0.1, 0.0, 0.0]
    rep = batch("fail", lhs, rhs, analytic=1e-12, quad_error=np.array(quad), fd_error=1e-9)
    assert not rep.passed
    assert rep.inputs["failures"] == 2 and rep.inputs["samples"] == 4
    assert rep.inputs["i"] == 3 and rep.inputs["worst_margin"] == -3.0
    same_bytes(rep, per_sample("fail", lhs, rhs, quad, analytic=1e-12, fd_error=1e-9))


def test_a_nan_side_is_a_failure():
    rep = batch("nan", [math.nan, 1.0], [2.0, 2.0])
    assert not rep.passed and rep.inputs["failures"] == 1


@pytest.mark.parametrize("lhs, passed", [(0.5, True), (1.5, False)])
def test_one_row_batch_is_its_sample_report(lhs, passed):
    rep = batch("one", [lhs], [1.0], analytic=1e-12, quad_error=0.01)
    expected = make_report("one", lhs, 1.0, analytic=1e-12, quad_error=0.01,
                           inputs={"i": 0, "samples": 1, "failures": int(not passed),
                                   "worst_margin": 1.0 - lhs})
    assert rep.passed is passed
    same_bytes(rep, expected)
