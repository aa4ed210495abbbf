"""Bloch, alpha-Bloch and weighted-Lipschitz functionals.

All sup-type functionals are reported as SupEstimate values: the maximum
of the functional over an explicit sample array, together with the witness
attaining it, the row of that array (a point, or a (2, n) pair) at the
maximum.  An estimate is a certified lower bound of the true
supremum; nothing here claims the supremum itself.

Sample sets combine a radial grid (the Bloch weight peaks at the origin)
with directions from a deterministic low-discrepancy sphere sequence,
plus seeded uniform pairs.  Ties in the maximum break toward the lowest
sample index.

The weighted Lipschitz quotient

    (1-|z|^2)^(1/2) (1-|w|^2)^(1/2) |f(z) - f(w)| / |z - w|

is always taken over an array of pairs; one pair is a one-pair array.  In
the disk the Lipschitz number sup |f(z) - f(w)| / arctanh|phi_z(w)| equals
the Bloch seminorm, so it is taken in that derivative form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .calculus import operator_norm, wirtinger_fd_many
from .errors import DegeneratePair, EmptySampleSet
from .geometry import coords_of
from .quadrature import STREAM_PAIRS, rng_stream, sphere_points

__all__ = [
    "SupEstimate",
    "ball_grid",
    "pair_samples",
    "near_diagonal_pairs",
    "bloch_seminorm",
    "alpha_bloch_seminorm",
    "weighted_lipschitz_sup",
]

DEFAULT_RADII = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass(frozen=True)
class SupEstimate:
    """Lower bound for a sup-type functional, with its attaining witness."""

    value: float
    witness: Any


def _halton(index: np.ndarray, base: int) -> np.ndarray:
    """Radical-inverse (van der Corput) sequence in the given base."""
    out = np.zeros(len(index), dtype=float)
    f = 1.0 / base
    i = index.copy()
    while np.any(i > 0):
        out += f * (i % base)
        i //= base
        f /= base
    return out


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def sphere_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere of C^n.

    n = 1 uses equally spaced angles; higher dimensions map Halton points
    through Box-Muller to Gaussians and normalize.
    """
    if n == 1:
        return np.exp(2j * np.pi * np.arange(count) / count).reshape(-1, 1)
    dims = 2 * n
    idx = np.arange(1, count + 1)
    u = np.stack([_halton(idx, _PRIMES[d % len(_PRIMES)]) for d in range(dims)], axis=1)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    # Box-Muller on consecutive column pairs
    g = np.empty_like(u)
    for d in range(0, dims, 2):
        r = np.sqrt(-2.0 * np.log(u[:, d]))
        g[:, d] = r * np.cos(2.0 * np.pi * u[:, d + 1])
        g[:, d + 1] = r * np.sin(2.0 * np.pi * u[:, d + 1])
    z = g[:, :n] + 1j * g[:, n:]
    return z / np.linalg.norm(z, axis=1)[:, None]


def ball_grid(n: int, radii=DEFAULT_RADII, n_dirs: int = 16) -> np.ndarray:
    """Tensor grid radii x directions inside the ball (origin kept once)."""
    dirs = sphere_directions(n, n_dirs)
    pts = [np.zeros((1, n), dtype=complex)] if 0.0 in radii else []
    for r in radii:
        if r == 0.0:
            continue
        pts.append(r * dirs)
    return np.concatenate(pts, axis=0)


def uniform_ball(n: int, count: int, rng: np.random.Generator, rmax: float) -> np.ndarray:
    z = sphere_points(rng, count, n)   # drawn before the radii
    return z * (rmax * rng.random(count) ** (1.0 / (2 * n)))[:, None]


def pair_samples(n: int, count: int, seed: int, rmax: float = 0.7) -> np.ndarray:
    """Seeded uniform pairs inside the ball of radius rmax, shape (P, 2, n)."""
    rng = rng_stream(seed, STREAM_PAIRS)
    z = uniform_ball(n, count, rng, rmax)
    w = uniform_ball(n, count, rng, rmax)
    keep = np.linalg.norm(z - w, axis=1) > 1e-9
    return np.stack([z[keep], w[keep]], axis=1)


def near_diagonal_pairs(points: np.ndarray, delta: float = 1e-4,
                        n_phases: int = 32) -> np.ndarray:
    """Pairs (z, z + delta * phase * e_1) probing the derivative limit."""
    points = np.atleast_2d(points)
    phases = np.exp(2j * np.pi * np.arange(n_phases) / n_phases)
    z = np.repeat(points, n_phases, axis=0)
    w = z.copy()
    w[:, 0] += delta * np.tile(phases, len(points))
    keep = np.linalg.norm(w, axis=1) < 1.0
    return np.stack([z[keep], w[keep]], axis=1)


def _argmax_estimate(values: np.ndarray, samples: np.ndarray) -> SupEstimate:
    if len(values) == 0:
        raise EmptySampleSet("sup estimate over an empty sample set")
    idx = int(np.argmax(values))   # lowest index wins ties
    return SupEstimate(float(values[idx]), samples[idx])


def _points_array(samples) -> np.ndarray:
    """Coerce an (S, n) array or a sequence of points/BallPoints, refusing an empty one."""
    if not isinstance(samples, np.ndarray):
        samples = [coords_of(p) for p in samples]
    points = np.atleast_2d(np.asarray(samples, dtype=complex))
    if points.size == 0:
        raise EmptySampleSet("sup estimate over an empty sample set")
    return points


def bloch_seminorm(f, samples) -> SupEstimate:
    """max over samples of (1-|z|^2) (|grad f| + |grad fbar|), scalar f."""
    samples = _points_array(samples)
    return _bloch_from_data(samples, wirtinger_fd_many(f, samples))


def _bloch_from_data(samples: np.ndarray, data) -> SupEstimate:
    """The Bloch sup from Wirtinger data already evaluated at the samples."""
    weights = 1.0 - np.linalg.norm(samples, axis=1) ** 2
    values = np.array([w * sum(d.gradient_norms()) for w, d in zip(weights, data)])
    return _argmax_estimate(values, samples)


def alpha_bloch_seminorm(f, alpha: float, samples) -> SupEstimate:
    """max over samples of (1-|z|^2)^alpha (|f_z| + |f_zbar|), operator norms."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    samples = _points_array(samples)
    data = wirtinger_fd_many(f, samples)
    weights = (1.0 - np.linalg.norm(samples, axis=1) ** 2) ** alpha
    values = np.array([
        w * (operator_norm(d.fz) + operator_norm(d.fzbar))
        for w, d in zip(weights, data)
    ])
    return _argmax_estimate(values, samples)


def _pair_endpoints(pairs: np.ndarray) -> np.ndarray:
    """The (2P, n) endpoints z_1, ..., z_P, w_1, ..., w_P of valid pairs."""
    pairs = np.asarray(pairs, dtype=complex)
    if pairs.size == 0:
        raise EmptySampleSet("sup estimate over an empty sample set")
    z, w = pairs[:, 0, :], pairs[:, 1, :]
    if np.any(np.linalg.norm(z - w, axis=1) == 0.0):
        raise DegeneratePair("weighted Lipschitz quotient needs z != w")
    return np.concatenate([z, w], axis=0)


def weighted_lipschitz_sup(f, pairs: np.ndarray) -> SupEstimate:
    """max of the weighted Lipschitz quotient over sampled pairs."""
    return _lipschitz_from_values(pairs, f(_pair_endpoints(pairs)))


def _lipschitz_from_values(pairs: np.ndarray, vals) -> SupEstimate:
    """The weighted Lipschitz sup from values already evaluated at the
    ``_pair_endpoints`` of the pairs, shaped (2P,) or (2P, k)."""
    pairs = np.asarray(pairs, dtype=complex)
    z, w = pairs[:, 0, :], pairs[:, 1, :]
    gaps = np.linalg.norm(z - w, axis=1)
    vals = np.asarray(vals).reshape(2 * len(pairs), -1)
    fz, fw = vals[: len(z)], vals[len(z):]
    diff = np.linalg.norm(fz - fw, axis=1)
    wz = np.sqrt(1.0 - np.linalg.norm(z, axis=1) ** 2)
    ww = np.sqrt(1.0 - np.linalg.norm(w, axis=1) ** 2)
    return _argmax_estimate(wz * ww * diff / gaps, pairs)
