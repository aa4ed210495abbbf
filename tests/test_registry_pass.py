"""The registry's rule-based functions share one kernel pass per batch.

thm24 evaluates every rule-based registry entry as a column of one stacked
extension, and schwarzpick every entry with a declared bound.
That may not change a single bit: a column must equal the entry's own
extension, and each suite must equal its checks run one function at a time.
Each entry is still held to its own declared bound, and its data is
evaluated once per extension built.  The checks are the batch functions the
suites call, fed each function's own evaluations; the per-sample references
they equal are in test_batch_checks.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hballs import theorems
from hballs.calculus import lambda_bounds_wirtinger, wirtinger_fd_many
from hballs.extension import _constant, boundary_registry, h_extend, vector_boundary
from hballs.norms import all_pairs_lipschitz, uniform_ball
from hballs.calculus import WirtingerData
from hballs.quadrature import (
    STREAM_PAIRS,
    STREAM_SAMPLES,
    STREAM_WIRTINGER,
    circle_rule,
    rng_stream,
    sphere_rule_mc,
)
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
    values, second = STACKED[n]._walk(batch, values=True, data=False, errors=True)[:2]
    assert_same_bits(STACKED[n](batch), values)
    for j, ext in enumerate(SCALARS[n]):
        one_values, one_second = ext._walk(batch, values=True, data=False, errors=True)[:2]
        assert_same_bits(values[:, j], one_values)
        assert_same_bits(second[:, j], one_second[:, 0])
        assert_same_bits(ext(batch), one_values)


@settings(max_examples=15, deadline=None)
@given(batches(40))
def test_stacked_columns_equal_scalar_standard_errors(case):
    """Errors are shaped like values: column j of the stacked extension's value
    and gradient errors has the bits of entry j's own (P,) errors."""
    n, batch = case
    values, value_errors = STACKED[n].values_with_errors(batch)
    _, grad_errors = STACKED[n].wirtinger_many(batch)
    assert value_errors.shape == grad_errors.shape == values.shape
    for j, ext in enumerate(SCALARS[n]):
        assert_same_bits(value_errors[:, j], ext.values_with_errors(batch)[1])
        assert_same_bits(grad_errors[:, j], ext.wirtinger_many(batch)[1])


@settings(max_examples=15, deadline=None)
@given(batches(30))
def test_stacked_columns_equal_scalar_fd_derivatives(case):
    n, batch = case
    stacked = wirtinger_fd_many(STACKED[n], batch)
    for j, ext in enumerate(SCALARS[n]):
        one = wirtinger_fd_many(ext, batch)
        assert_same_bits(stacked.fz[:, j:j + 1], one.fz)
        assert_same_bits(stacked.fzbar[:, j:j + 1], one.fzbar)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_closed_forms_equal_each_closed_form(n):
    """The stack of closed forms thm24 evaluates has, column by column, the
    bits of each closed form alone, in values and in finite-difference data;
    a constant of its own makes a stack of two at n >= 2."""
    closed = [entry for entry in boundary_registry(n) if entry.exact_extension] + [_constant(0.5j, n)]
    stacked = vector_boundary(closed).exact_extension
    rng = np.random.default_rng(n)
    points = uniform_ball(n, 150, rng, 0.7)
    grid = theorems.ball_grid(n)
    values, data = stacked(points), wirtinger_fd_many(stacked, grid)
    assert values.shape == (len(points), len(closed))
    for j, entry in enumerate(closed):
        assert_same_bits(values[:, j], np.asarray(entry.exact_extension(points), dtype=complex))
        one = wirtinger_fd_many(entry.exact_extension, grid)
        assert_same_bits(data.fz[:, j:j + 1], one.fz)
        assert_same_bits(data.fzbar[:, j:j + 1], one.fzbar)
    # a stack with one rule-based component has no closed form
    assert vector_boundary(boundary_registry(n)).exact_extension is None


def one_at_a_time(cfg, points, grid):
    """(label, values at the points, Wirtinger data at the grid, FD term) per
    registry entry, each evaluated alone: a closed form by finite differences,
    else its own extension, differentiated exactly."""
    rule = rule_for(cfg)
    for entry in boundary_registry(cfg.n):
        f = entry.exact_extension
        if f is not None:
            yield entry.label, f(points), wirtinger_fd_many(f, grid), theorems._FD_TRUNCATION
        else:
            ext = h_extend(entry, rule, guard_radius=cfg.rmax)
            yield entry.label, ext(points), ext.wirtinger_many(grid)[0], 0.0


SMALL = {1: dict(n=1, nodes=1500, samples=60, seed=3),
         2: dict(n=2, mc_nodes=1300, samples=60, seed=3)}


@pytest.mark.parametrize("n", sorted(SMALL))
def test_thm24_suite_equals_per_function_checks(n):
    # each function's own walk over the point set, its own gradients at the grid
    cfg = HarnessConfig(**SMALL[n])
    grid = theorems.ball_grid(n)
    points = np.concatenate(
        [grid, uniform_ball(n, cfg.samples, rng_stream(cfg.seed, STREAM_PAIRS), 0.7)])
    expected = []
    for label, values, data, fd_error in one_at_a_time(cfg, points, grid):
        (sup,), pairs = all_pairs_lipschitz(points, values)
        expected.append(check_thm24_necessity(sup, pairs, grid, data, label=label,
                                              fd_error=fd_error).to_dict())
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
    # its "functions" are data: the seeded pairs, then the real and imaginary
    # equality cases of their f_z; no registry entry is evaluated
    cfg = HarnessConfig(**SMALL[n])
    rng = rng_stream(cfg.seed, STREAM_WIRTINGER)
    real, imag = rng.standard_normal((2, 2, cfg.samples, 1, n))
    fz, fzbar = real + 1j * imag
    expected = [check_lemma22(WirtingerData(fz, fzbar), label="random"),
                check_lemma22(WirtingerData(fz, np.conj(fz)), label="real", equality=True),
                check_lemma22(WirtingerData(fz, -np.conj(fz)), label="imaginary", equality=True)]
    for rep in expected:
        rep.inputs["seed"] = cfg.seed
    assert [rep.to_dict() for rep in suite_lemma22(cfg)] == [rep.to_dict() for rep in expected]


POINTWISE = {1: dict(n=1, nodes=1500, samples=15, seed=3),
             2: dict(n=2, mc_nodes=2500, samples=12, seed=3),
             3: dict(n=3, mc_nodes=1500, samples=10, seed=3)}


@pytest.mark.parametrize("n", sorted(POINTWISE))
def test_schwarzpick_suite_equals_per_entry_checks(n):
    cfg = HarnessConfig(**POINTWISE[n])
    rule = rule_for(cfg)
    zs = uniform_ball(n, cfg.samples, rng_stream(cfg.seed, STREAM_SAMPLES), cfg.rmax)
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


@pytest.mark.parametrize("suite", [suite_thm24, suite_schwarzpick])
def test_entry_over_its_own_bound_is_refused_when_stacked(suite, monkeypatch):
    cfg = HarnessConfig(**SMALL[2])
    # |coord1| reaches about 1 on the sphere; declare 0.9 instead
    registry = [dataclasses.replace(entry, sup_bound=0.9) if entry.label == "coord1" else entry
                for entry in boundary_registry(2)]
    ruled = [entry for entry in registry if entry.exact_extension is None]
    # the stacked bound alone (root sum of squares) would let it through, both for
    # the rule-based entries (thm24) and for all of them (schwarzpick)
    nodes = rule_for(cfg).nodes
    for stacked in (ruled, registry):
        vec = vector_boundary(stacked)
        assert np.linalg.norm(vec.values(nodes), axis=1).max() <= vec.sup_bound
    monkeypatch.setattr(theorems, "boundary_registry", lambda n: registry)
    with pytest.raises(ValueError, match="'coord1' exceeds its declared bound"):
        suite(cfg)


@pytest.mark.parametrize("suite, n, expected", [
    ("schwarzpick", 2, {"const:1": 1, "coord1": 1, "re1": 1, "bump": 1, "crossprod": 1}),
    ("thm24", 2, {"coord1": 1, "re1": 1, "bump": 1, "crossprod": 1}),
    ("lemma22", 2, {}),        # random pairs: no boundary data, no extension
    # lemma21 and thm24 each extend bump, lemma33 re1, schwarzpick all five
    ("all", 1, {"const:1": 1, "coord1": 1, "re1": 2, "bump": 3, "fourier": 1}),
], ids=["schwarzpick-n2", "thm24-n2", "lemma22-n2", "all-n1"])
def test_boundary_data_is_evaluated_once_per_extension(suite, n, expected, monkeypatch):
    counts = {}

    def counted(entry):
        def values(nodes):
            counts[entry.label] = counts.get(entry.label, 0) + 1
            return entry.values(nodes)
        return dataclasses.replace(entry, values=values)

    monkeypatch.setattr(theorems, "boundary_registry",
                        lambda dim: [counted(entry) for entry in boundary_registry(dim)])
    theorems.run_suite(suite, HarnessConfig(**SMALL[n]))
    assert counts == expected


@pytest.mark.parametrize("suite", [suite_thm24, suite_lemma22, suite_lemma21])
def test_fixed_radius_suites_do_not_read_rmax(suite):
    # thm24 samples out to |z| = 0.7 and lemma21's rows reach 0.75, whatever
    # --rmax says, and their extensions take the default guard radius; lemma22
    # samples no point
    for n in sorted(SMALL):
        reports = suite(HarnessConfig(**SMALL[n], rmax=0.5))
        assert all(rep.passed for rep in reports)
        assert ([rep.to_dict() for rep in reports]
                == [rep.to_dict() for rep in suite(HarnessConfig(**SMALL[n]))])
