"""thm24 differentiates rule-based extensions exactly; lemma22 differentiates nothing.

An HExtension's Wirtinger data come from the closed-form kernel derivatives
(``wirtinger_many``), so those reports carry no finite-difference term, and
thm24 takes the weighted Lipschitz quotient's derivative limits from the
same data instead of evaluating near-diagonal pairs.  The work-count guards
pin how many rows and which outputs each suite asks of the engine, so that
a refactor cannot fall back to finite differences, or walk the same tiles
twice, unnoticed.  lemma22 checks random Wirtinger pairs and asks nothing.
"""

import dataclasses

import numpy as np
import pytest

from hballs import theorems
from hballs.calculus import wirtinger_fd_many
from hballs.extension import HExtension, boundary_registry, h_extend, vector_boundary
from hballs.norms import (
    _grid_sups,
    all_pairs_lipschitz,
    ball_grid,
    uniform_ball,
    weighted_lipschitz_sup,
)
from hballs.quadrature import (
    STREAM_PAIRS,
    STREAM_PROBE,
    QuadratureRule,
    rng_stream,
    sphere_points,
    sphere_rule_mc,
)
from hballs.theorems import (
    HarnessConfig,
    check_thm24_necessity,
    covered_ball_probe,
    landau_constants,
    mapping_registry,
    suite_lemma22,
    suite_schwarzpick,
    suite_thm24,
)

RULE = sphere_rule_mc(2, 2500, 11)
STACKED = h_extend(vector_boundary(boundary_registry(2)), RULE)
BUMP = h_extend(next(b for b in boundary_registry(2) if b.label == "bump"), RULE)


def test_exact_wirtinger_data_agree_with_finite_differences():
    # every grid radius and 16 directions: 113 points with |z| <= 0.7
    grid = ball_grid(2)
    exact = STACKED.wirtinger_many(grid)[0]
    fd = wirtinger_fd_many(STACKED, grid)
    # per point: the largest gap over the largest entry of the exact data
    scale = np.maximum(np.abs(exact.fz).max(axis=(1, 2)), np.abs(exact.fzbar).max(axis=(1, 2)))
    gap = np.maximum(np.abs(exact.fz - fd.fz).max(axis=(1, 2)),
                     np.abs(exact.fzbar - fd.fzbar).max(axis=(1, 2)))
    worst = float(np.max(gap / scale))
    # measured 2.4e-11 here and 2.1e-11 at 50k nodes: the FD rounding floor
    assert worst <= 1e-10


def test_derivative_limit_is_the_limit_of_pair_quotients():
    # an engine cross-check: at the grid's limit witness (z, u*) the same
    # discretized extension's pair quotients converge to the limit taken
    # from its kernel derivatives
    grid = ball_grid(2)
    limit = _grid_sups(grid, BUMP.wirtinger_many(grid)[0])[1]
    z, direction = limit.witness
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)
    one_sided, centred = [], []
    for t in (1e-2, 1e-3, 1e-4, 1e-5):
        for gaps, pair in ((one_sided, [z, z + t * direction]),
                           (centred, [z - 0.5 * t * direction, z + 0.5 * t * direction])):
            gaps.append(abs(weighted_lipschitz_sup(BUMP, np.array([pair])).value - limit.value))
    assert one_sided[0] <= 2e-2 * limit.value and centred[0] <= 1e-3 * limit.value
    # O(t) for (z, z + t u*); O(t^2) for the centred pair, down to rounding
    # (measured 8.9e-5, 8.9e-7, 8.9e-9, 5.6e-11)
    assert all(later <= 0.2 * gap for gap, later in zip(one_sided, one_sided[1:]))
    assert all(later <= 0.02 * gap for gap, later in zip(centred[:3], centred[1:3]))
    assert centred[3] <= 1e-9


def thm24_of(f, points, grid):
    """check_thm24_necessity on f's sup over all pairs of the points, with FD
    data on the grid."""
    (sup,), pairs = all_pairs_lipschitz(points, f(points))
    return check_thm24_necessity(sup, pairs, grid, wirtinger_fd_many(f, grid),
                                 fd_error=theorems._FD_TRUNCATION)


def test_limits_are_counted_and_witnessed_apart_from_pairs():
    grid = ball_grid(2)
    points = uniform_ball(2, 20, rng_stream(2, STREAM_PAIRS), 0.7)
    coord1 = thm24_of(lambda pts: np.asarray(pts)[:, 0], points, grid)
    # the limit at the origin is exactly 1, along e_1, above any pair of 20
    # sampled points
    assert coord1.inputs["lhs_from"] == "limit"
    assert coord1.lhs == coord1.inputs["limit_sup"] == pytest.approx(1.0, abs=1e-9)
    assert coord1.inputs["limit_witness"] == {"point": [[0.0, 0.0], [0.0, 0.0]],
                                              "direction": [[1.0, 0.0], [0.0, 0.0]]}
    assert coord1.inputs["pairs"] == 20 * 19 // 2
    assert coord1.inputs["limits"] == len(grid)
    # z_2^2 has zero derivative at the origin, the only grid point, so its one
    # limit is 0, witnessed along e_1, and a pair wins
    origin = np.zeros((1, 2), dtype=complex)
    square2 = thm24_of(lambda pts: np.asarray(pts)[:, 1] ** 2, points, origin)
    assert square2.inputs["lhs_from"] == "pair"
    assert square2.inputs["limit_sup"] == 0.0 and square2.inputs["limits"] == 1
    assert square2.inputs["limit_witness"]["direction"] == [[1.0, 0.0], [0.0, 0.0]]
    assert square2.lhs == square2.inputs["pair_sup"] > 0.0
    # the one-point grid sees no Bloch norm either, so that report fails
    assert square2.inputs["bloch_sup"] == 0.0 and not square2.passed


def test_thm24_takes_no_svd(monkeypatch):
    # the every-direction limit is in closed form: no LAPACK SVD on the path
    def refused(*args, **kwargs):
        raise AssertionError("thm24 called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", refused)
    reports = suite_thm24(HarnessConfig(n=2, mc_nodes=300, samples=10))
    assert all(rep.inputs["limits"] == len(ball_grid(2)) for rep in reports)


@pytest.fixture
def engine_rows(monkeypatch):
    """(rows, outputs asked for) of each request to the HExtension engine
    (``_walk``), the outputs named among values, data and errors; the rows
    of each call of a stack of registry closed forms (``vector_boundary``'s
    ``exact_extension``), finite-difference stencils included; and the rows
    of each ``theorems.wirtinger_fd_many`` call."""
    calls = {"requests": [], "closed_form_values": [], "fd": []}
    walk, stack, fd = HExtension._walk, theorems.vector_boundary, theorems.wirtinger_fd_many

    def counted_walk(self, points, values, data, errors):
        asked = (("values", values), ("data", data), ("errors", errors))
        calls["requests"].append((len(np.atleast_2d(points)),
                                  tuple(name for name, wanted in asked if wanted)))
        return walk(self, points, values, data, errors)

    def counted_stack(components):
        stacked = stack(components)
        closed_form = stacked.exact_extension
        if closed_form is None:
            return stacked

        def counted_closed_form(points):
            calls["closed_form_values"].append(len(np.atleast_2d(points)))
            return closed_form(points)

        return dataclasses.replace(stacked, exact_extension=counted_closed_form)

    def counted_fd(f, points):
        calls["fd"].append(len(points))
        return fd(f, points)

    monkeypatch.setattr(HExtension, "_walk", counted_walk)
    monkeypatch.setattr(theorems, "vector_boundary", counted_stack)
    monkeypatch.setattr(theorems, "wirtinger_fd_many", counted_fd)
    return calls


SMALL = dict(n=2, mc_nodes=1100, samples=40, seed=5)


def test_lemma22_sends_only_its_samples_to_the_gradient_engine(engine_rows):
    reports = suite_lemma22(HarnessConfig(**SMALL))
    assert all(rep.passed for rep in reports)
    # its samples are random Wirtinger pairs: nothing is sent to an evaluator
    assert engine_rows == {"requests": [], "closed_form_values": [], "fd": []}


def test_thm24_sends_one_point_set_and_its_grid(engine_rows):
    assert_thm24_calls(HarnessConfig(**SMALL), engine_rows)


def test_thm24_evaluates_its_closed_forms_as_one_stack(engine_rows):
    # four closed forms at n = 1, one value call and one FD call for all
    assert_thm24_calls(HarnessConfig(n=1, samples=40, seed=5), engine_rows)


def assert_thm24_calls(cfg, engine_rows):
    reports = suite_thm24(cfg)
    assert all(rep.passed for rep in reports)
    grid = len(ball_grid(cfg.n))
    # one value call for the grid and the samples per stack: the closed forms
    # (const:1 alone at n = 2; const:1, coord1, re1 and fourier at n = 1) and
    # the stacked extension; the data at the grid alone, for the closed forms
    # one finite-difference call, which evaluates them once on its 8n
    # stencil rows per grid point
    assert engine_rows == {"requests": [(grid + cfg.samples, ("values",)), (grid, ("data",))],
                           "closed_form_values": [grid + cfg.samples, 8 * cfg.n * grid],
                           "fd": [grid]}
    assert all(rep.inputs["pairs"] == (grid + cfg.samples) * (grid + cfg.samples - 1) // 2
               for rep in reports)


def test_schwarzpick_asks_one_request_for_everything_it_reads(engine_rows):
    # the values and their errors at the samples and the origin, the data and
    # their errors at the same rows
    cfg = HarnessConfig(**SMALL)
    reports = suite_schwarzpick(cfg)
    assert all(rep.passed for rep in reports)
    assert engine_rows == {"requests": [(cfg.samples + 1, ("values", "data", "errors"))],
                           "closed_form_values": [], "fd": []}


def test_schwarzpick_walks_its_tiles_once(monkeypatch):
    chunk_walks = []
    chunks = QuadratureRule.chunks

    def counted_chunks(self):
        chunk_walks.append(len(self))
        return chunks(self)

    monkeypatch.setattr(QuadratureRule, "chunks", counted_chunks)
    cfg = HarnessConfig(**SMALL)
    assert all(rep.passed for rep in suite_schwarzpick(cfg))
    # the 41 rows are one point block, so the rule's chunks are walked once
    assert chunk_walks == [cfg.mc_nodes]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covered_ball_probe_draws_sphere_points(n):
    for mapping in mapping_registry(n):
        consts = landau_constants(n, 1.0, max(mapping.bound, 1.0))
        rep = covered_ball_probe(mapping, consts, 50, 7)
        zeta = consts.rho * sphere_points(rng_stream(7, STREAM_PROBE), 50, n)
        big_f = 2.0 * mapping(zeta / 2.0)
        assert rep.rhs == float(np.min(np.linalg.norm(big_f, axis=1)))
