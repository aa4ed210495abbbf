"""Quadrature rules for the normalized surface measure on spheres.

Rules pair node arrays with positive weights summing to one.  Two rule
families cover the needs of the harness:

* ``circle_rule``: equally spaced nodes on the unit circle (the sphere of
  C^1), exact for trigonometric polynomials below the node count;
* ``sphere_rule_mc``: seeded Monte Carlo nodes on the unit sphere of C^n,
  obtained by normalizing 2n-dimensional standard Gaussian draws from a
  PCG64 generator (``numpy.random.default_rng``).  Identical seeds give
  bit-identical rules.

Integration reduces in fixed 1024-node chunks, summed in index order, so
results do not depend on how the evaluation work is scheduled.  Child
random streams are derived with ``SeedSequence(seed, spawn_key=(stream,))``
so every consumer of randomness is reproducible from the one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuadratureRule",
    "circle_rule",
    "sphere_rule_mc",
    "sphere_points",
    "real_circle_rule",
    "real_sphere_rule_mc",
    "integrate",
    "integrate_with_error",
    "rng_stream",
]

CHUNK = 1024

# fixed stream indices for seed splitting; keep this table append-only
STREAM_MC_RULE = 0
STREAM_SAMPLES = 1
STREAM_PAIRS = 2
STREAM_MATRICES = 3
STREAM_PROBE = 4
STREAM_GEOMETRY = 5


def rng_stream(seed: int, stream: int) -> np.random.Generator:
    """Child generator `stream` of the master seed (splittable, reproducible)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating a normalized surface measure.

    ``nodes`` has shape (N, n): complex entries for sphere rules in C^n,
    float entries for real spheres.  ``meta`` records the rule kind, node
    count and seed so any report can be replayed.
    """

    nodes: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.nodes.ndim != 2:
            raise ValueError("nodes must be an (N, n) array")
        if len(self.nodes) != len(self.weights):
            raise ValueError("node and weight counts differ")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 (normalized measure)")
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def monte_carlo(self) -> bool:
        """Monte Carlo rules carry a sample standard error; spectral rules do not."""
        return self.meta.get("kind", "").endswith("mc")

    def chunks(self):
        """Slices of the fixed 1024-node chunks in index order; every node
        sum of the package reduces chunk by chunk in this order."""
        for start in range(0, len(self), CHUNK):
            yield slice(start, min(start + CHUNK, len(self)))


def circle_rule(m: int) -> QuadratureRule:
    """Equally spaced nodes exp(2*pi*i*j/m) with weights 1/m.

    Exact for trigonometric polynomials of degree < m, which makes it the
    default rule in one complex dimension.
    """
    if m < 4:
        raise ValueError("circle rule needs at least 4 nodes")
    nodes = np.exp(2j * np.pi * np.arange(m) / m).reshape(-1, 1)
    weights = np.full(m, 1.0 / m)
    return QuadratureRule(nodes, weights, {"kind": "circle", "count": m})


def sphere_rule_mc(complex_dim: int, count: int, seed: int) -> QuadratureRule:
    """Seeded uniform Monte Carlo nodes on the unit sphere of C^n.

    The nodes are ``sphere_points`` of the rule's own random stream.
    """
    if complex_dim < 1:
        raise ValueError("complex dimension must be >= 1")
    if count < 100:
        raise ValueError("Monte Carlo rule needs at least 100 nodes")
    nodes = sphere_points(rng_stream(seed, STREAM_MC_RULE), count, complex_dim)
    weights = np.full(count, 1.0 / count)
    meta = {"kind": "sphere-mc", "n": complex_dim, "count": count, "seed": seed,
            "generator": "pcg64"}
    return QuadratureRule(nodes, weights, meta)


def sphere_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n) uniform points on the unit sphere of C^n.

    Each row draws 2n standard normals, reads the first n as real parts and
    the last n as imaginary parts, and divides by the norm of the real row.
    """
    g = rng.standard_normal((count, 2 * n))
    return (g[:, :n] + 1j * g[:, n:]) / np.linalg.norm(g, axis=1)[:, None]


def real_circle_rule(m: int) -> QuadratureRule:
    """Equally spaced nodes on the unit circle of R^2 (real sphere, m = 2)."""
    if m < 4:
        raise ValueError("circle rule needs at least 4 nodes")
    theta = 2.0 * np.pi * np.arange(m) / m
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(m, 1.0 / m)
    return QuadratureRule(nodes, weights, {"kind": "real-circle", "count": m})


def real_sphere_rule_mc(real_dim: int, count: int, seed: int) -> QuadratureRule:
    """Seeded uniform Monte Carlo nodes on the unit sphere of R^m."""
    if real_dim < 2:
        raise ValueError("real sphere dimension must be >= 2")
    if count < 100:
        raise ValueError("Monte Carlo rule needs at least 100 nodes")
    g = rng_stream(seed, STREAM_MC_RULE).standard_normal((count, real_dim))
    nodes = g / np.linalg.norm(g, axis=1)[:, None]
    weights = np.full(count, 1.0 / count)
    meta = {"kind": "real-sphere-mc", "m": real_dim, "count": count, "seed": seed,
            "generator": "pcg64"}
    return QuadratureRule(nodes, weights, meta)


def integrate(rule: QuadratureRule, evaluator) -> complex:
    """Sum of w_i * g(node_i) in fixed chunk order.

    ``evaluator`` receives an (C, n) slice of nodes and returns (C,) values.
    The reduction order is independent of any parallel evaluation, so a
    given rule and evaluator always produce bit-identical results.
    """
    return integrate_with_error(rule, evaluator)[0]


def integrate_with_error(rule: QuadratureRule, evaluator):
    """Integral plus an empirical standard error.

    For Monte Carlo rules the error is the usual sample standard error of
    the weighted mean; deterministic rules report 0.0 (their aliasing error
    is far below any tolerance used here).
    """
    total = 0.0 + 0.0j
    total_sq = 0.0
    for chunk in rule.chunks():
        w = rule.weights[chunk]
        values = np.asarray(evaluator(rule.nodes[chunk]))
        total += complex(np.add.reduce(w * values))
        total_sq += float(np.add.reduce(w * np.abs(values) ** 2))
    if rule.monte_carlo:
        n = len(rule)
        variance = max(total_sq - abs(total) ** 2, 0.0)
        return total, float(np.sqrt(variance / n))
    return total, 0.0
