"""Bloch, alpha-Bloch and weighted-Lipschitz functionals.

All sup-type functionals are reported as SupEstimate values: the maximum
of the functional over an explicit sample array, together with the witness
attaining it, the row of that array (a point, or a (2, n) pair) at the
maximum.  An estimate is a certified lower bound of the true
supremum; nothing here claims the supremum itself.

Sample sets are one fixed grid, ``ball_grid``: the origin (the Bloch
weight peaks there) and 16 directions of a deterministic low-discrepancy
sphere sequence at each of the radii 0.1, ..., 0.7, plus seeded uniform
points and pairs.  Ties in the maximum break toward the lowest sample index.

The weighted Lipschitz quotient

    (1-|z|^2)^(1/2) (1-|w|^2)^(1/2) |f(z) - f(w)| / |z - w|

is taken over an array of pairs (``weighted_lipschitz_sup``; one pair is a
one-pair array), or over every pair of one point set from the values at
its points (``all_pairs_lipschitz``): P points evaluated once give
P(P-1)/2 pairs.  In the disk the Lipschitz number
sup |f(z) - f(w)| / arctanh|phi_z(w)| equals the Bloch seminorm, so it is
taken in that derivative form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .calculus import WirtingerData, operator_norm, wirtinger_fd_many
from .errors import DegeneratePair, EmptySampleSet
from .extension import _POINT_BLOCK
from .geometry import coords_of
from .quadrature import STREAM_PAIRS, rng_stream, sphere_points

__all__ = [
    "SupEstimate",
    "ball_grid",
    "pair_samples",
    "all_pairs_lipschitz",
    "bloch_seminorm",
    "alpha_bloch_seminorm",
    "weighted_lipschitz_sup",
]

GRID_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)   # ball_grid's shells around the origin
LIMIT_PHASES = 32   # phases theta of the derivative-limit directions theta e_1
# all_pairs_lipschitz drops pairs closer than this: pair_samples' floor
# 1e-9 rmax at thm24's sampling radius 0.7
_PAIR_FLOOR = 1e-9 * 0.7


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


def _primes(count: int) -> list[int]:
    """The first ``count`` primes."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def sphere_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere of C^n.

    n = 1 uses equally spaced angles; higher dimensions map Halton points,
    one prime base per real dimension, through Box-Muller to Gaussians and
    normalize.
    """
    if n == 1:
        return np.exp(2j * np.pi * np.arange(count) / count).reshape(-1, 1)
    dims = 2 * n
    idx = np.arange(1, count + 1)
    u = np.stack([_halton(idx, base) for base in _primes(dims)], axis=1)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    # Box-Muller on consecutive column pairs
    g = np.empty_like(u)
    for d in range(0, dims, 2):
        r = np.sqrt(-2.0 * np.log(u[:, d]))
        g[:, d] = r * np.cos(2.0 * np.pi * u[:, d + 1])
        g[:, d + 1] = r * np.sin(2.0 * np.pi * u[:, d + 1])
    z = g[:, :n] + 1j * g[:, n:]
    return z / np.linalg.norm(z, axis=1)[:, None]


def ball_grid(n: int) -> np.ndarray:
    """The origin, then 16 directions at each of ``GRID_RADII``, radius by radius."""
    dirs = sphere_directions(n, 16)
    return np.concatenate([np.zeros((1, n), dtype=complex)] + [r * dirs for r in GRID_RADII])


def uniform_ball(n: int, count: int, rng: np.random.Generator, rmax: float) -> np.ndarray:
    z = sphere_points(rng, count, n)   # drawn before the radii
    return z * (rmax * rng.random(count) ** (1.0 / (2 * n)))[:, None]


def pair_samples(n: int, count: int, seed: int, rmax: float = 0.7) -> np.ndarray:
    """Seeded uniform pairs inside the ball of radius rmax, shape (P, 2, n),
    without those closer than 1e-9 rmax."""
    rng = rng_stream(seed, STREAM_PAIRS)
    z = uniform_ball(n, count, rng, rmax)
    w = uniform_ball(n, count, rng, rmax)
    keep = np.linalg.norm(z - w, axis=1) > 1e-9 * rmax
    return np.stack([z[keep], w[keep]], axis=1)


def _argmax_estimate(values: np.ndarray, samples: np.ndarray) -> SupEstimate:
    if len(values) == 0:
        raise EmptySampleSet("sup estimate over an empty sample set")
    idx = int(np.argmax(values))   # lowest index wins ties
    return SupEstimate(float(values[idx]), samples[idx])


def _points_array(samples) -> np.ndarray:
    """Coerce an (S, n) array or a sequence of points, refusing an empty one."""
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


def _bloch_from_data(samples: np.ndarray, data: WirtingerData) -> SupEstimate:
    """The Bloch sup from the Wirtinger data batch evaluated at the samples."""
    weights = 1.0 - np.linalg.norm(samples, axis=1) ** 2
    grad, grad_bar = data.gradient_norms()
    return _argmax_estimate(weights * (grad + grad_bar), samples)


def alpha_bloch_seminorm(f, alpha: float, samples) -> SupEstimate:
    """max over samples of (1-|z|^2)^alpha (|f_z| + |f_zbar|), operator norms."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    samples = _points_array(samples)
    data = wirtinger_fd_many(f, samples)
    weights = (1.0 - np.linalg.norm(samples, axis=1) ** 2) ** alpha
    norm_z, norm_zbar = operator_norm(np.stack([data.fz, data.fzbar]))   # one stacked SVD
    return _argmax_estimate(weights * (norm_z + norm_zbar), samples)


def _lipschitz_limits_from_data(points: np.ndarray, data: WirtingerData) -> SupEstimate:
    """The weighted Lipschitz quotient's limits along theta e_1, from the
    Wirtinger data batch evaluated at the points.

    At (z, z + delta theta e_1) the quotient tends, as delta -> 0, to
    (1-|z|^2) |f_{z_1} theta + f_{zbar_1} conj(theta)|, each a limit of
    pair quotients and so a lower bound of their sup.  The theta are the
    ``LIMIT_PHASES`` phases exp(2 pi i m / LIMIT_PHASES), m = 0, 1, ..., taken
    point by point, phases within, so the lowest such index wins ties; the
    witness is the (2, n) row (z, theta e_1).
    """
    points = np.atleast_2d(points)
    if points.size == 0:
        raise EmptySampleSet("sup estimate over an empty sample set")
    phases = np.exp(2j * np.pi * np.arange(LIMIT_PHASES) / LIMIT_PHASES)
    fz, fzbar = data.fz[..., 0], data.fzbar[..., 0]        # (P, k)
    moved = (fz[:, None, :] * phases[None, :, None]
             + fzbar[:, None, :] * np.conj(phases)[None, :, None])
    weights = 1.0 - np.linalg.norm(points, axis=1) ** 2
    values = (weights[:, None] * np.linalg.norm(moved, axis=2)).reshape(-1)
    idx = int(np.argmax(values))   # lowest index wins ties
    witness = np.zeros((2, points.shape[1]), dtype=complex)
    witness[0] = points[idx // LIMIT_PHASES]
    witness[1, 0] = phases[idx % LIMIT_PHASES]
    return SupEstimate(float(values[idx]), witness)


def weighted_lipschitz_sup(f, pairs: np.ndarray) -> SupEstimate:
    """max of the weighted Lipschitz quotient over a (P, 2, n) array of pairs."""
    pairs = np.asarray(pairs, dtype=complex)
    if pairs.size == 0:
        raise EmptySampleSet("sup estimate over an empty sample set")
    z, w = pairs[:, 0, :], pairs[:, 1, :]
    gaps = np.linalg.norm(z - w, axis=1)
    if np.any(gaps == 0.0):
        raise DegeneratePair("weighted Lipschitz quotient needs z != w")
    vals = np.asarray(f(np.concatenate([z, w]))).reshape(2 * len(pairs), -1)
    diff = np.linalg.norm(vals[: len(z)] - vals[len(z):], axis=1)
    wz = np.sqrt(1.0 - np.linalg.norm(z, axis=1) ** 2)
    ww = np.sqrt(1.0 - np.linalg.norm(w, axis=1) ** 2)
    return _argmax_estimate(wz * ww * diff / gaps, pairs)


def all_pairs_lipschitz(points: np.ndarray, values) -> tuple[list[SupEstimate], int]:
    """The weighted Lipschitz sup of each column of ``values`` over every pair
    i < j of the (P, n) ``points``, and the number of pairs taken.

    ``values`` holds the functions at the points, (P,) or (P, k), one column
    per function.  Pairs closer than ``_PAIR_FLOOR`` are dropped.  The
    quotient is taken squared, (1-|z_i|^2) (1-|z_j|^2) (Re^2 + Im^2 of
    f(z_i) - f(z_j)) / |z_i - z_j|^2, the two parts summed as
    ``np.linalg.norm`` sums them, and the square root only of the maximum.
    The walk takes ``_POINT_BLOCK`` rows at a time against the rows after
    them; a block's squared gaps, weight products and drop mask are built
    once for all columns.  Ties go to the lowest (i, j) in row-major order,
    and the witness is the (2, n) pair (z_i, z_j).
    """
    points = np.atleast_2d(np.ascontiguousarray(points, dtype=complex))
    count = len(points)
    cols = np.asarray(values).reshape(count, -1)
    re, im = (np.ascontiguousarray(part.T) for part in (cols.real, cols.imag))   # (k, P)
    xy = np.ascontiguousarray(points.view(np.float64).T)                         # (2n, P)
    weights = 1.0 - sum(x * x for x in xy)
    best, witness, pairs = np.full(len(re), -np.inf), [None] * len(re), 0
    # one contiguous buffer per block array, made once and viewed per block
    flats = [np.empty(_POINT_BLOCK * max(count - 1, 0)) for _ in range(4)]
    for start in range(0, count - 1, _POINT_BLOCK):
        rows = slice(start, min(start + _POINT_BLOCK, count - 1))
        later = slice(start + 1, count)
        shape = (rows.stop - start, count - later.start)
        d2, factor, t, q2 = (flat[:shape[0] * shape[1]].reshape(shape) for flat in flats)
        d2.fill(0.0)
        for x in xy:
            np.subtract(x[rows, None], x[None, later], out=t)
            d2 += np.multiply(t, t, out=t)
        keep = (np.arange(later.start, count)[None, :] > np.arange(start, rows.stop)[:, None]) \
            & (d2 > _PAIR_FLOOR ** 2)
        block_pairs = int(np.count_nonzero(keep))
        if block_pairs == 0:
            continue
        pairs += block_pairs
        drop = ~keep
        np.multiply(weights[rows, None], weights[None, later], out=factor)
        np.divide(factor, d2, out=factor, where=keep)
        for c in range(len(re)):
            np.subtract(re[c, rows, None], re[c, None, later], out=t)
            np.multiply(t, t, out=t)
            np.subtract(im[c, rows, None], im[c, None, later], out=q2)
            np.multiply(q2, q2, out=q2)
            np.multiply(np.add(t, q2, out=q2), factor, out=q2)
            np.copyto(q2, -1.0, where=drop)
            idx = int(np.argmax(q2))     # row-major: the lowest (i, j) wins ties
            if q2.flat[idx] > best[c]:
                i, j = divmod(idx, q2.shape[1])
                best[c], witness[c] = q2.flat[idx], (start + i, later.start + j)
    if pairs == 0:
        raise EmptySampleSet("sup estimate over an empty pair set")
    return [SupEstimate(float(np.sqrt(value)), points[[i, j]])
            for value, (i, j) in zip(best, witness)], pairs
