"""The registry's rule-based functions share one kernel pass per batch.

thm24 and lemma22 evaluate every rule-based registry entry as a column of
one stacked extension, and schwarzpick every entry with a declared bound.
That may not change a single bit: a column must equal the entry's own
extension, and each suite must equal its checks run one function at a time.
Each entry is still held to its own declared bound.  The checks are the
batch functions the suites call, fed each function's own evaluations; the
per-sample references they equal are in test_batch_checks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs import theorems
from hballs.calculus import lambda_bounds_wirtinger, wirtinger_fd_many
from hballs.extension import boundary_registry, h_extend, vector_boundary
from hballs.quadrature import circle_rule, sphere_rule_mc
from hballs.theorems import (
    HarnessConfig,
    check_lemma22,
    check_schwarz_pick_gradient,
    check_schwarz_pick_value,
    check_thm24_necessity,
    rule_for,
    suite_lemma21,
    suite_lemma22,
    suite_schwarzpick,
    suite_thm24,
)
from test_batch_checks import schwarz_value_samples

# sizes off a multiple of the 1024-node chunk, so the last chunk is partial
RULES = {1: circle_rule(1500), 2: sphere_rule_mc(2, 2500, 11)}
SCALARS = {n: [h_extend(entry, rule) for entry in boundary_registry(n)]
           for n, rule in RULES.items()}
STACKED = {n: h_extend(vector_boundary(boundary_registry(n)), rule)
           for n, rule in RULES.items()}
# coord1, re1 and bump: stacked columns 1 to 3
TRIPLES = {n: h_extend(vector_boundary(boundary_registry(n)[1:4]), rule)
           for n, rule in RULES.items()}


def bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(bits(actual), bits(expected))


@st.composite
def batches(draw, max_size):
    """(n, points): up to ``max_size`` points inside the guard radius, with
    repeats, so that large batches span several point blocks."""
    n = draw(st.sampled_from(sorted(RULES)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    raw = rng.uniform(-1.0, 1.0, (draw(st.integers(1, max_size)), 2 * n))
    pts = raw[:, :n] + 1j * raw[:, n:]
    pts *= (0.75 * rng.random(len(pts)) / np.linalg.norm(pts, axis=1))[:, None]
    picks = rng.integers(0, len(pts), draw(st.integers(1, max_size)))
    return n, pts[picks]


@settings(max_examples=25, deadline=None)
@given(batches(300))
def test_stacked_columns_equal_scalar_values_and_second_moments(case):
    n, batch = case
    values, second = STACKED[n]._moments(batch, want_errors=True)
    assert_same_bits(STACKED[n](batch), values)
    for j, ext in enumerate(SCALARS[n]):
        one_values, one_second = ext._moments(batch, want_errors=True)
        assert_same_bits(values[:, j], one_values)
        assert_same_bits(second[:, j], one_second[:, 0])
        assert_same_bits(ext(batch), one_values)


@settings(max_examples=15, deadline=None)
@given(batches(40))
def test_column_set_errors_equal_their_own_extensions(case):
    n, batch = case
    sets = [slice(j, j + 1) for j in range(len(SCALARS[n]))] + [slice(1, 4)]
    _, value_errors = STACKED[n].values_with_errors(batch, sets)
    _, grad_errors = STACKED[n].wirtinger_many(batch, sets)
    for ext, v_errors, g_errors in zip(SCALARS[n] + [TRIPLES[n]], value_errors, grad_errors):
        assert_same_bits(v_errors, ext.values_with_errors(batch)[1])
        assert_same_bits(g_errors, ext.wirtinger_many(batch)[1])
    if n >= 2:
        # Monte Carlo: the variances of the set summed in column order, over N
        values, second = TRIPLES[n]._moments(batch, want_errors=True)
        variances = np.maximum(second - np.abs(values) ** 2, 0.0)
        total = (variances[:, 0] + variances[:, 1]) + variances[:, 2]
        assert_same_bits(value_errors[-1], np.sqrt(total / len(RULES[n])))


@settings(max_examples=15, deadline=None)
@given(batches(30))
def test_stacked_columns_equal_scalar_fd_derivatives(case):
    n, batch = case
    stacked = wirtinger_fd_many(STACKED[n], batch)
    for j, ext in enumerate(SCALARS[n]):
        one = wirtinger_fd_many(ext, batch)
        assert_same_bits(stacked.fz[:, j:j + 1], one.fz)
        assert_same_bits(stacked.fzbar[:, j:j + 1], one.fzbar)


def one_at_a_time(cfg):
    """(label, evaluator) per registry entry, each with its own extension."""
    rule = rule_for(cfg)
    return [(entry.label, entry.exact_extension
             or h_extend(entry, rule, guard_radius=cfg.rmax))
            for entry in boundary_registry(cfg.n)]


SMALL = {1: dict(n=1, nodes=1500, pairs=60, seed=3),
         2: dict(n=2, mc_nodes=1300, pairs=60, seed=3)}


@pytest.mark.parametrize("n", sorted(SMALL))
def test_thm24_suite_equals_per_function_checks(n):
    cfg = HarnessConfig(**SMALL[n])
    grid = theorems.ball_grid(n)
    pairs = theorems.pair_samples(n, cfg.pairs, cfg.seed, rmax=0.7)
    endpoints = np.concatenate([pairs[:, 0, :], pairs[:, 1, :]])
    expected = [check_thm24_necessity(pairs, f(endpoints), grid, theorems._wirtinger_data(f, grid),
                                      label=label, fd_error=theorems._fd_error(f)).to_dict()
                for label, f in one_at_a_time(cfg)]
    assert [rep.to_dict() for rep in suite_thm24(cfg)] == expected
    assert_derivative_path(cfg, expected)


def assert_derivative_path(cfg, reports):
    """Rule-based entries take exact kernel derivatives (no FD term);
    closed forms keep finite differences."""
    for entry, rep in zip(boundary_registry(cfg.n), reports):
        fd = rep["tolerance_breakdown"]["finite_difference"]
        assert fd == (0.0 if entry.exact_extension is None else 10 * theorems._FD_TRUNCATION)


@pytest.mark.parametrize("n", sorted(SMALL))
def test_lemma22_suite_equals_per_function_checks(n):
    cfg = HarnessConfig(**SMALL[n])
    zs = theorems._sample_ball(cfg, 100, 0.7)
    expected = [check_lemma22(theorems._wirtinger_data(f, zs), zs, label=label,
                              fd_error=theorems._fd_error(f)).to_dict()
                for label, f in one_at_a_time(cfg)]
    assert [rep.to_dict() for rep in suite_lemma22(cfg)] == expected
    assert_derivative_path(cfg, expected)


POINTWISE = {1: dict(n=1, nodes=1500, samples=15, seed=3),
             2: dict(n=2, mc_nodes=2500, samples=12, seed=3),
             3: dict(n=3, mc_nodes=1500, samples=10, seed=3)}


@pytest.mark.parametrize("n", sorted(POINTWISE))
def test_schwarzpick_suite_equals_per_entry_checks(n):
    cfg = HarnessConfig(**POINTWISE[n])
    rule = rule_for(cfg)
    zs = theorems._sample_ball(cfg, cfg.samples, cfg.rmax)
    entries = [entry for entry in boundary_registry(n) if entry.sup_bound]
    if n >= 2:
        entries.append(vector_boundary(entries[1:1 + n]))
    expected, const_values = [], None
    for entry in entries:
        # the rule-based extension even where a closed form exists
        ext = h_extend(entry, rule, guard_radius=cfg.rmax)
        values, v_errors = ext.values_with_errors(np.vstack([zs, np.zeros(n)]))
        data, g_errors = ext.wirtinger_many(zs)
        args = dict(bound=entry.sup_bound, label=entry.label, rule=rule.meta)
        expected.append(check_schwarz_pick_value(zs, values[:-1], values[-1], v_errors[:-1], **args))
        expected.append(check_schwarz_pick_gradient(zs, lambda_bounds_wirtinger(data)[0], g_errors,
                                                    **args))
        const_values = const_values or schwarz_value_samples(
            zs[:20], values[:20], values[-1], v_errors[:20], entry.sup_bound, entry.label,
            rule.meta)
    # the vector entry carries the root-sum-square SE of its components
    if n >= 2:
        assert expected[-2].tol_breakdown["quadrature"] > 0.0
    expected.append(theorems.make_report(
        f"schwarzpick.equality[n={n}]", max(abs(rep.margin) for rep in const_values),
        max(rep.tolerance for rep in const_values), analytic=1e-12,
        inputs={"f": entries[0].label, "points": len(const_values),
                "note": "constant data attains the value bound"},
        rule=dict(rule.meta)))
    assert [rep.to_dict() for rep in suite_schwarzpick(cfg)] == [rep.to_dict() for rep in expected]


@pytest.mark.parametrize("suite", [suite_thm24, suite_lemma22, suite_schwarzpick])
def test_entry_over_its_own_bound_is_refused_when_stacked(suite, monkeypatch):
    cfg = HarnessConfig(**SMALL[2])
    # |coord1| reaches about 1 on the sphere; declare 0.9 instead
    registry = [dataclasses.replace(entry, sup_bound=0.9) if entry.label == "coord1" else entry
                for entry in boundary_registry(2)]
    ruled = [entry for entry in registry if entry.exact_extension is None]
    # the stacked bound alone (root sum of squares) would let it through, both for
    # the rule-based entries (thm24, lemma22) and for all of them (schwarzpick)
    for stacked in (ruled, registry):
        vector_boundary(stacked).spot_check(rule_for(cfg).nodes)
    monkeypatch.setattr(theorems, "boundary_registry", lambda n: registry)
    with pytest.raises(ValueError, match="'coord1' exceeds its declared bound"):
        suite(cfg)


@pytest.mark.parametrize("suite", [suite_thm24, suite_lemma22, suite_lemma21])
def test_fixed_radius_suites_do_not_read_rmax(suite):
    # thm24 and lemma22 sample out to |z| = 0.7 and lemma21's rows reach 0.75,
    # whatever --rmax says; their extensions take the default guard radius
    for n in sorted(SMALL):
        reports = suite(HarnessConfig(**SMALL[n], rmax=0.5))
        assert all(rep.passed for rep in reports)
        assert ([rep.to_dict() for rep in reports]
                == [rep.to_dict() for rep in suite(HarnessConfig(**SMALL[n]))])
