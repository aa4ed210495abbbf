"""thm24 and lemma22 differentiate rule-based extensions exactly.

An HExtension's Wirtinger data come from the closed-form kernel derivatives
(``wirtinger_many``), so those reports carry no finite-difference term, and
thm24 takes the weighted Lipschitz quotient's derivative limits from the
same data instead of evaluating near-diagonal pairs.  The work-count guards
pin how many rows each engine receives, so that a refactor cannot fall back
to finite differences unnoticed.
"""

import numpy as np
import pytest

from hballs import theorems
from hballs.calculus import wirtinger_fd_many
from hballs.extension import HExtension, boundary_registry, h_extend, vector_boundary
from hballs.norms import (
    _lipschitz_limits_from_data,
    ball_grid,
    pair_samples,
    sphere_directions,
    weighted_lipschitz_sup,
)
from hballs.quadrature import STREAM_PROBE, rng_stream, sphere_points, sphere_rule_mc
from hballs.theorems import (
    HarnessConfig,
    check_thm24_necessity,
    covered_ball_probe,
    landau_constants,
    mapping_registry,
    suite_lemma22,
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
    points = 0.45 * sphere_directions(2, 16)
    data = BUMP.wirtinger_many(points)[0]
    limit = _lipschitz_limits_from_data(points, data)
    z, direction = limit.witness
    assert np.isclose(abs(direction[0]), 1.0) and np.all(direction[1:] == 0.0)
    gaps = []
    for delta in (1e-3, 1e-4, 1e-5):
        pair = np.array([[z, z + delta * direction]])
        gaps.append(abs(weighted_lipschitz_sup(BUMP, pair).value - limit.value))
    assert gaps[0] <= 1e-2 * limit.value
    # O(delta): each tenfold smaller step shrinks the gap about tenfold
    assert gaps[1] <= 0.2 * gaps[0] and gaps[2] <= 0.2 * gaps[1]


def thm24_of(f, pairs, grid):
    """check_thm24_necessity on f at the pair endpoints, with FD data on the grid."""
    endpoints = np.concatenate([pairs[:, 0, :], pairs[:, 1, :]])
    return check_thm24_necessity(pairs, f(endpoints), grid, wirtinger_fd_many(f, grid),
                                 fd_error=theorems._FD_TRUNCATION)


def test_limits_are_counted_and_witnessed_apart_from_pairs():
    grid = ball_grid(2)
    pairs = pair_samples(2, 20, seed=2)
    coord1 = thm24_of(lambda pts: np.asarray(pts)[:, 0], pairs, grid)
    # the limit at the origin is exactly 1, above any of 20 sampled pairs
    assert coord1.inputs["lhs_from"] == "limit"
    assert coord1.lhs == coord1.inputs["limit_sup"] == pytest.approx(1.0, abs=1e-9)
    assert coord1.inputs["limit_witness"]["point"] == [[0.0, 0.0], [0.0, 0.0]]
    assert coord1.inputs["pairs"] == len(pairs)
    assert coord1.inputs["limits"] == 32 * len(grid)
    # z_2 does not move along e_1, so every limit is 0 and a pair wins
    coord2 = thm24_of(lambda pts: np.asarray(pts)[:, 1], pairs, grid)
    assert coord2.inputs["lhs_from"] == "pair"
    assert coord2.inputs["limit_sup"] == 0.0
    assert coord2.lhs == coord2.inputs["pair_sup"] > 0.0
    assert coord2.passed


@pytest.fixture
def engine_rows(monkeypatch):
    """Rows each HExtension engine receives: the value engine (``_moments``)
    and the gradient engine (``wirtinger_many``)."""
    rows = {"values": 0, "gradients": 0}
    moments, wirtinger_many = HExtension._moments, HExtension.wirtinger_many

    def counted_moments(self, points, want_errors):
        rows["values"] += len(np.atleast_2d(points))
        return moments(self, points, want_errors)

    def counted_wirtinger_many(self, points, columns=None):
        rows["gradients"] += len(np.atleast_2d(points))
        return wirtinger_many(self, points, columns)

    monkeypatch.setattr(HExtension, "_moments", counted_moments)
    monkeypatch.setattr(HExtension, "wirtinger_many", counted_wirtinger_many)
    return rows


SMALL = dict(n=2, mc_nodes=1100, pairs=40, seed=5)


def test_lemma22_sends_only_its_samples_to_the_gradient_engine(engine_rows):
    reports = suite_lemma22(HarnessConfig(**SMALL))
    assert all(rep.passed for rep in reports)
    assert engine_rows == {"values": 0, "gradients": theorems.LEMMA22_SAMPLES}


def test_thm24_sends_pair_endpoints_and_grid_points(engine_rows):
    cfg = HarnessConfig(**SMALL)
    reports = suite_thm24(cfg)
    assert all(rep.passed for rep in reports)
    pairs = pair_samples(cfg.n, cfg.pairs, cfg.seed, rmax=0.7)
    assert engine_rows == {"values": 2 * len(pairs), "gradients": len(ball_grid(cfg.n))}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covered_ball_probe_draws_sphere_points(n):
    for mapping in mapping_registry(n):
        consts = landau_constants(n, 1.0, max(mapping.bound, 1.0))
        rep = covered_ball_probe(mapping, consts, 50, 7)
        zeta = consts.rho * sphere_points(rng_stream(7, STREAM_PROBE), 50, n)
        big_f = 2.0 * mapping(zeta / 2.0)
        assert rep.rhs == float(np.min(np.linalg.norm(big_f, axis=1)))
