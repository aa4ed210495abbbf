"""Verification harness: every final inequality becomes a replayable check.

Each check produces a CheckReport holding both sides of the inequality,
the tolerance that was granted and where it came from, and enough input
metadata (function label, points, seed, rule) to replay the check
bit-identically.  The evaluators evaluate and the checks compare: a pointwise
inequality (the Schwarz-Pick value and gradient bounds, lemma33) is one
function that takes arrays already evaluated at a (P, n) sample batch
(values with f(0) and their quadrature errors, Lambda, or a matrix stack),
computes lhs, rhs and tolerance as (P,) arrays and returns one report for
the batch: the worst sample's, with the sample count and the number of
failing samples.  lemma22 and lemmaB do the same for a seeded stack of
random Wirtinger pairs (lemma22 is algebra in the pair, true for any
function) or matrices.  thm24 takes each function's pair sup over one point
set and the Wirtinger data at its grid the same way, and lemma21 the values
of one ball's stencil, centre and boundary.
Tolerances follow one policy:

    tolerance = analytic slack
              + 10 * (quadrature error: MC standard error or half-rule gap)
              + 10 * (finite-difference truncation estimate),

with the three parts recorded separately.  Every evaluator answers the same
calls: ``f(points)``, and ``f.wirtinger_many(points)`` with its quadrature
error shaped like its values (None when ``want_errors=False`` asks for
none) and ``f.fd_error``, its finite-difference term:
0 for an HExtension, whose kernel derivatives are exact, and 1e-9 for a registry
closed form (``_ClosedForm``), which has no quadrature error.  thm24 reads
only ``fd_error``, the discretized extension being exactly h-harmonic;
schwarzpick and lemma33 only the quadrature error.  A strict
inequality (the separation probe) uses a strict comparison, not a slack.

A suite that differentiates evaluates one WirtingerData batch, (P, k, n)
arrays, per function and sweep (Lambda by one stacked SVD in schwarzpick,
in closed form for thm24's scalar limits), and f(0) as one more row of a
value batch it already evaluates, since a row's value does not depend on
its batch.  schwarzpick asks an extension for its values, Wirtinger data
and their errors in one request, so it walks the kernel tiles once.
lemma21 evaluates each function once per sweep, at the rows of all its
balls, and takes the registry's closed form where it has one.

Suites group the checks the way the command line exposes them: lemma21
(gradient-versus-boundary-mean bound on real balls), lemma22 (Wirtinger
versus real gradient norms), thm24 (weighted-Lipschitz versus Bloch),
schwarzpick (value and gradient bounds for bounded h-harmonic maps),
lemma33 (growth of vanishing matrix-valued maps), lemmaB (determinant
versus smallest singular value), landau (univalence-radius constants and
probes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import (
    GRADIENT_STEP_FACTOR,
    _richardson,
    _row_norms,
    _stencils,
    lambda_bounds_wirtinger,
    operator_norm,
    real_jacobian_from_wirtinger,
    wirtinger_fd_many,
    WirtingerData,
)
from .errors import EmptySampleSet
from .extension import (
    DEFAULT_GUARD_RADIUS,
    boundary_registry,
    h_extend,
    vector_boundary,
)
from .norms import (
    SupEstimate,
    _grid_sups,
    all_pairs_lipschitz,
    ball_grid,
    # not called here: bench/tracing.py patches these module-level names
    bloch_seminorm,  # noqa: F401
    pair_samples,
    uniform_ball,
    weighted_lipschitz_sup,  # noqa: F401
)
from .quadrature import (
    STREAM_GEOMETRY,
    STREAM_MATRICES,
    STREAM_PAIRS,
    STREAM_PROBE,
    STREAM_SAMPLES,
    STREAM_WIRTINGER,
    QuadratureRule,
    circle_rule,
    real_circle_rule,
    rng_stream,
    sphere_points,
    sphere_rule_mc,
)

__all__ = [
    "CheckReport",
    "LandauConstants",
    "HarnessConfig",
    "landau_constants",
    "lemma21_rows",
    "check_lemma21",
    "check_lemma22",
    "check_thm24_necessity",
    "check_schwarz_pick_value",
    "check_schwarz_pick_gradient",
    "check_lemma33",
    "check_lemmaB",
    "univalence_probe",
    "covered_ball_probe",
    "AffineMapping",
    "mapping_registry",
    "run_suite",
    "SUITES",
]

_FD_TRUNCATION = 1e-9   # Richardson-extrapolated central differences at our steps
_WITNESS_TIE = 1e-12    # margins this close count as one worst margin
# fixed sweep sizes (--samples sets none): lemma21 balls, lemma33 points per radius
LEMMA21_CASES = 20
LEMMA33_POINTS = 25


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one inequality check.

    ``passed`` is lhs <= rhs + tolerance, or lhs < rhs when ``strict``
    (used by the separation probe, where equality must count as failure).
    """

    check_id: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    tol_breakdown: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    rule: dict = field(default_factory=dict)
    strict: bool = False

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "tolerance_breakdown": dict(self.tol_breakdown),
            "strict": self.strict,
            "inputs": dict(self.inputs),
            "rule": dict(self.rule),
        }


def make_report(check_id: str, lhs: float, rhs: float, *, analytic: float = 0.0,
                quad_error: float = 0.0, fd_error: float = 0.0, inputs: dict = None,
                rule: dict = None, strict: bool = False) -> CheckReport:
    tolerance = _tolerance(analytic, quad_error, fd_error)
    lhs, rhs = float(lhs), float(rhs)
    passed = lhs < rhs if strict else lhs <= rhs + tolerance
    return CheckReport(
        check_id=check_id, lhs=lhs, rhs=rhs, tolerance=float(tolerance),
        passed=bool(passed),
        tol_breakdown={"analytic": analytic, "quadrature": 10.0 * quad_error,
                       "finite_difference": 10.0 * fd_error},
        inputs=inputs or {}, rule=rule or {}, strict=strict,
    )


def _tolerance(analytic, quad_error, fd_error):
    """The tolerance policy, for one sample or elementwise for a batch."""
    return analytic + 10.0 * quad_error + 10.0 * fd_error


def _cplx(vec) -> list:
    """JSON-friendly [re, im] pairs for a complex vector."""
    v = np.atleast_1d(np.asarray(vec, dtype=complex))
    return [[float(c.real), float(c.imag)] for c in v]


# ---------------------------------------------------------------------------
# Landau constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LandauConstants:
    """Univalence-ball constants for normalized alpha-Bloch maps.

    rho = 3^alpha / ((2M)^(2n) (3^alpha + 4^alpha)); the map is univalent on
    the ball of radius rho/2 and its range covers a ball of radius at least
    r_lower = rho / (4 M^(2n-1)).
    """

    n: int
    alpha: float
    bound: float
    rho: float
    half_rho: float
    r_lower: float

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0 and self.half_rho > 0.0 and self.r_lower > 0.0):
            raise ValueError("Landau constants must be positive with rho < 1")


def landau_constants(n: int, alpha: float, bound: float) -> LandauConstants:
    """Evaluate the univalence-ball constants for dimension n, weight alpha.

    ``bound`` is the alpha-Bloch norm bound M; the normalization det J = 1
    at the origin forces M >= 1, so smaller values are rejected.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if not bound >= 1.0:
        raise ValueError("the norm bound M must be >= 1")
    if math.isinf(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if math.isinf(bound):
        raise ValueError(f"the norm bound M must be finite, got {bound}")
    try:
        rho = 3.0 ** alpha / ((2.0 * bound) ** (2 * n) * (3.0 ** alpha + 4.0 ** alpha))
        return LandauConstants(
            n=n, alpha=float(alpha), bound=float(bound),
            rho=rho, half_rho=rho / 2.0, r_lower=rho / (4.0 * bound ** (2 * n - 1)),
        )
    except (OverflowError, ValueError):   # a power overflows, or rho or r_lower underflows
        raise ValueError(f"Landau constants at n={n}, alpha={alpha:g}, M={bound:g} "
                         "do not fit in double precision") from None


def _landau_sweeps(n: int, alpha: float, bound: float):
    """The landau suite's monotonicity sweeps: (varying input, [(n, alpha, M), ...])."""
    return (("M", [(n, alpha, m) for m in (1.0, 1.5, 2.0)]),
            ("n", [(k, alpha, bound) for k in (1, 2, 3, 4)]),
            ("alpha", [(n, a, bound) for a in (0.5, 1.0, 2.0)]))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def lemma21_rows(a, r: float, rule: QuadratureRule) -> np.ndarray:
    """The points of R^m at which ``check_lemma21`` reads f for the ball
    B(a, r), stacked: the 4m ``calculus._stencils`` rows at step
    GRADIENT_STEP_FACTOR * r, the centre a, then the boundary a + r * nodes."""
    a = np.asarray(a, dtype=float).reshape(-1)
    stencil = _stencils(a[None, :], np.array([GRADIENT_STEP_FACTOR * r], dtype=float))[0]
    return np.vstack([stencil, a, a + r * rule.nodes])


def check_lemma21(stencil_values, fa: float, boundary_values, a, r: float,
                  rule: QuadratureRule, *, check_id: str = "lemma21") -> CheckReport:
    """Gradient bound |grad f(a)| <= (2(m-1) sqrt(m) / (m V(m) r^m)) * I.

    I is the integral of |f(a) - f(t)| over the boundary sphere of B(a, r)
    in the UNNORMALIZED surface measure; with the normalized rule this is
    surface_area * mean, and the bound collapses to
    (2(m-1) sqrt(m) / r) * mean|f(a) - f(t)|.  The real values of f, which
    must be h-harmonic on the ball, come already evaluated at the rows of
    ``lemma21_rows(a, r, rule)``: the 4m stencil values, f(a) and the values
    at the boundary, where ``rule`` lives on the unit sphere of R^m.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    m = a.size
    if m < 2:
        raise ValueError("the bound is degenerate below real dimension 2")
    fd_step = GRADIENT_STEP_FACTOR * r
    stencil = np.asarray(stencil_values, dtype=float).reshape(1, m, 4, 1)
    lhs = float(np.linalg.norm(_richardson(stencil, np.array([fd_step], dtype=float))))

    fa = float(fa)
    gaps = np.abs(np.asarray(boundary_values, dtype=float) - fa)

    mean_full = float(np.sum(rule.weights * gaps) / np.sum(rule.weights))
    # quadrature error estimate: the gap to the half rule, summed over its nodes
    mean_half = float(np.sum(rule.half_weights[::2] * gaps[::2]))
    prefactor = 2.0 * (m - 1) * math.sqrt(m) / r
    rhs = prefactor * mean_full
    quad_err = prefactor * abs(mean_full - mean_half)
    return make_report(
        check_id, lhs, rhs, quad_error=quad_err, fd_error=_FD_TRUNCATION,
        inputs={"m": m, "a": list(map(float, a)), "r": float(r), "f(a)": fa,
                "fd_step": fd_step},
        rule=dict(rule.meta),
    )


def _pow(base: np.ndarray, exponent: int) -> np.ndarray:
    """base ** exponent by libm's pow, element by element: numpy runs float
    powers through SIMD code on some CPUs, which rounds differently."""
    return np.array([b ** exponent for b in base.tolist()])


def _batch_report(check_id: str, lhs: np.ndarray, rhs: np.ndarray, inputs, *,
                  analytic: float = 0.0, quad_error=0.0, fd_error: float = 0.0,
                  rule: dict = None) -> CheckReport:
    """One report for lhs <= rhs + tolerance at every sample of a (P,) batch.

    The tolerance is make_report's, taken per sample (``quad_error`` is a
    scalar or (P,)).  The witness is the first sample, by index, whose
    margin + tolerance is within _WITNESS_TIE of the least, so rounding-level
    ties (two sides equal in exact arithmetic) do not pick it.  The report is
    the witness's, with inputs ``inputs(witness)`` plus the sample count, the
    number of failing samples and the witness's margin; it passes when no
    sample fails.  An empty batch is refused.
    """
    if len(lhs) == 0:
        raise EmptySampleSet(f"{check_id} over an empty sample set")
    quad = np.broadcast_to(np.asarray(quad_error, dtype=float), lhs.shape)
    tolerance = _tolerance(analytic, quad, fd_error)
    slack = (rhs - lhs) + tolerance
    witness = int(np.argmax(slack <= np.min(slack) + _WITNESS_TIE))
    failures = int(np.count_nonzero(~(lhs <= rhs + tolerance)))
    report = make_report(check_id, lhs[witness], rhs[witness], analytic=analytic,
                         quad_error=float(quad[witness]), fd_error=fd_error,
                         inputs=inputs(witness), rule=rule)
    report.inputs.update(samples=len(lhs), failures=failures, worst_margin=report.margin)
    return replace(report, passed=failures == 0)


def check_lemma22(data: WirtingerData, *, label: str = "f",
                  equality: bool = False) -> CheckReport:
    """|grad f| + |grad fbar| <= |grad u| + |grad v| for f = u + iv, on a
    scalar Wirtinger data batch (P, 1, n) of any pairs (f_z, f_zbar); the
    witness's pair is in its inputs.  With ``equality``: lhs = rhs to 1e-12
    relative, as for real f (f_zbar = conj f_z) or imaginary f (-conj f_z),
    and the inputs also give the largest relative gap |lhs - rhs| / rhs over
    the stack (``max_rel_gap``, 0 for a pair whose rhs is 0)."""
    grad, grad_bar = data.gradient_norms()
    J = real_jacobian_from_wirtinger(data)  # rows (u, v) x cols (x1, y1, ...)
    lhs, rhs = grad + grad_bar, _row_norms(J[..., 0, :]) + _row_norms(J[..., 1, :])
    gaps = None
    if equality:   # |lhs - rhs| <= 1e-12 rhs, with no other slack
        gaps = np.divide(np.abs(lhs - rhs), rhs, out=np.zeros_like(rhs), where=rhs > 0)
        lhs, rhs = np.abs(lhs - rhs), 1e-12 * rhs

    def inputs(i):
        fields = {"f": label, "fz": _cplx(data.fz[i, 0]), "fzbar": _cplx(data.fzbar[i, 0])}
        if equality:
            fields["max_rel_gap"] = float(np.max(gaps))
        return fields

    return _batch_report(f"lemma22{'.equality' if equality else ''}[n={data.dim},f={label}]",
                         lhs, rhs, inputs, analytic=0.0 if equality else 1e-12)


def check_thm24_necessity(pair_est: SupEstimate, pairs: int, grid: np.ndarray,
                          data: WirtingerData, *, label: str = "f",
                          fd_error: float = 0.0) -> CheckReport:
    """Weighted Lipschitz sup vs pi sqrt(n) * Bloch sup.

    ``pair_est`` is f's weighted Lipschitz sup over ``pairs`` pairs, its
    witness a (2, n) pair, and ``data`` f's Wirtinger data batch at the grid
    points; ``fd_error`` is the data's finite-difference term.  The lhs is
    the larger of two lower bounds of the true pair sup: ``pair_est``, and
    the quotient's derivative limits at the grid points over every unit
    direction u, (1-|z|^2) Lambda_f(z), each the limit of the quotient at
    (z, z + delta u*) as delta -> 0 for the direction u* attaining it
    (``norms._grid_sups``, in closed form).  Pairs and limits are counted and
    witnessed separately; the limits and the Bloch sup share the grid data.
    The qualitative converse (finite pair-sup alongside finite
    derivative-sup) is recorded in the inputs rather than checked
    quantitatively.
    """
    n = grid.shape[1]
    bloch_est, limit_est = _grid_sups(grid, data)
    from_limit = limit_est.value > pair_est.value
    lhs = limit_est.value if from_limit else pair_est.value
    rhs = math.pi * math.sqrt(n) * bloch_est.value
    point, direction = limit_est.witness
    return make_report(
        f"thm24[n={n},f={label}]", lhs, rhs, fd_error=fd_error,
        inputs={
            "f": label, "n": n, "pairs": int(pairs), "limits": len(grid),
            "grid": len(grid), "lhs_from": "limit" if from_limit else "pair",
            "pair_sup": pair_est.value, "limit_sup": limit_est.value,
            "bloch_sup": bloch_est.value,
            "pair_witness": [_cplx(w) for w in pair_est.witness],
            "limit_witness": {"point": _cplx(point), "direction": _cplx(direction)},
            "bloch_witness": _cplx(bloch_est.witness),
            "both_finite": bool(np.isfinite(lhs) and np.isfinite(rhs)),
        },
    )


def _schwarz_value_sides(zs: np.ndarray, values: np.ndarray, f0: np.ndarray, errors,
                         bound: float):
    """(lhs, rhs, quadrature error, kappa) of the value bound, each (P,)."""
    norm_z = _row_norms(zs)
    kappa = _pow((1.0 - norm_z) / (1.0 + norm_z), 2 * zs.shape[1] - 1)
    lhs = _row_norms(values.reshape(len(zs), -1) - kappa[:, None] * f0)
    errors = _row_norms(np.reshape(errors, (len(zs), -1)))   # a one-column row keeps its bits
    # lhs carries the integrand's error, rhs the bound times the normalization error
    return lhs, bound * (1.0 - kappa), (1.0 + bound) * errors, kappa


def check_schwarz_pick_value(zs: np.ndarray, values: np.ndarray, f0: np.ndarray, errors, *,
                             bound: float, label: str = "f", rule: dict = None) -> CheckReport:
    """|f(z) - kappa f(0)| <= M (1 - kappa), kappa the boundary kernel ratio
    ((1-|z|)/(1+|z|))^(2n-1), at the (P, n) points ``zs``, from the values
    there ((P,) or (P, k)), f(0) and the values' standard errors, shaped like
    the values."""
    n = zs.shape[1]
    lhs, rhs, quad, kappa = _schwarz_value_sides(zs, values, f0, errors, bound)
    return _batch_report(
        f"schwarzpick.value[n={n},f={label}]", lhs, rhs,
        lambda i: {"f": label, "n": n, "M": bound, "z": _cplx(zs[i]), "kappa": float(kappa[i])},
        analytic=1e-12, quad_error=quad, rule=rule)


def check_schwarz_pick_gradient(zs: np.ndarray, big_lambda: np.ndarray, errors, *,
                                bound: float, label: str = "f",
                                rule: dict = None) -> CheckReport:
    """Lambda_f(z) <= 2 (2n-1) M / (1 - |z|)^2 at the (P, n) points ``zs``,
    from Lambda there and the gradients' standard errors, (P,) or (P, k)."""
    n = zs.shape[1]
    rhs = 2.0 * (2 * n - 1) * bound / _pow(1.0 - _row_norms(zs), 2)
    return _batch_report(
        f"schwarzpick.gradient[n={n},f={label}]", big_lambda, rhs,
        lambda i: {"f": label, "n": n, "M": bound, "z": _cplx(zs[i])},
        analytic=1e-12, quad_error=_row_norms(np.reshape(errors, (len(zs), -1))), rule=rule)


def check_lemma33(matrices: np.ndarray, zs: np.ndarray, r: float, *, bound: float = 1.0,
                  label: str = "A", quad_error=0.0) -> CheckReport:
    """|A(z)| <= M [1 - ((r-|z|)/(r+|z|))^(2n-1)] for A(0) = 0, |A| <= M on
    B(r), at the (P, n) points ``zs`` from the (P, k, k) stack of A(z)."""
    n = zs.shape[1]
    norm_z = _row_norms(zs)
    if np.any(norm_z >= r):
        raise ValueError("z must lie inside the ball of radius r")
    ratio = _pow((r - norm_z) / (r + norm_z), 2 * n - 1)
    return _batch_report(
        f"lemma33[n={n},r={r}]", operator_norm(matrices), bound * (1.0 - ratio),
        lambda i: {"A": label, "n": n, "r": float(r), "M": float(bound), "z": _cplx(zs[i])},
        analytic=1e-12, quad_error=quad_error)


def check_lemmaB(matrices, *, check_id: str = "lemmaB") -> CheckReport:
    """|det A| |A|^(1-n) <= smallest singular value of A, for one n x n
    matrix or each of a (T, n, n) stack.

    Stated over all unit directions theta as |A theta| >= |det A| |A|^(1-n);
    the minimum of |A theta| is the smallest singular value, so one SVD
    settles the whole family.  The witness's index in the stack and its
    extreme singular values are in the inputs, with the largest relative
    gap of the identity |det A| = prod sigma_i over the stack
    (``max_rel_gap``, 0 for a matrix whose product is 0), which is rounding.
    """
    A = np.reshape(matrices, (-1,) + np.shape(matrices)[-2:])
    n = A.shape[-1]
    s = np.linalg.svd(A, compute_uv=False)
    det = np.abs(np.linalg.det(A))
    lhs = det * s[:, 0] ** (1 - n)
    product = np.prod(s, axis=1)
    gaps = np.divide(np.abs(det - product), product, out=np.zeros_like(product),
                     where=product > 0)
    return _batch_report(
        check_id, lhs, s[:, -1],
        lambda i: {"n": n, "worst_index": i, "sigma_max": float(s[i, 0]),
                   "sigma_min": float(s[i, -1]), "max_rel_gap": float(np.max(gaps))},
        analytic=1e-12)


def univalence_probe(f, radius: float, pairs: np.ndarray, separation_floor: float,
                     *, label: str = "f", check_id: str = None) -> CheckReport:
    """Evidence of injectivity: every sampled pair must stay separated.

    Passes when the worst ratio |f(z') - f(z'')| / |z' - z''| over the pairs
    strictly exceeds the floor, so a floor of zero demands genuine
    separation.  Sampling evidence only, not a univalence proof.
    """
    pairs = np.asarray(pairs, dtype=complex)
    if len(pairs) == 0:
        raise EmptySampleSet("univalence probe over an empty pair set")
    z, w = pairs[:, 0, :], pairs[:, 1, :]
    if np.any(np.linalg.norm(z, axis=1) >= radius) or np.any(np.linalg.norm(w, axis=1) >= radius):
        raise ValueError("probe pairs must lie inside the probed ball")
    gaps = np.linalg.norm(z - w, axis=1)
    flat = np.concatenate([z, w], axis=0)
    vals = np.asarray(f(flat)).reshape(len(flat), -1)
    sep = np.linalg.norm(vals[: len(z)] - vals[len(z):], axis=1)
    ratios = sep / gaps
    worst = int(np.argmin(ratios))
    cid = check_id or f"univalence[{label}]"
    return make_report(
        cid, separation_floor, float(ratios[worst]), strict=True,
        inputs={"f": label, "radius": float(radius), "pairs": int(len(pairs)),
                "worst_pair": [_cplx(z[worst]), _cplx(w[worst])],
                "worst_ratio": float(ratios[worst])},
    )


def covered_ball_probe(f, constants: LandauConstants, count: int, seed: int, *,
                       label: str = "f", check_id: str = None) -> CheckReport:
    """Sampled |F(zeta)| >= rho / (2 M^(2n-1)) on |zeta| = rho, F = 2 f(./2)."""
    n = constants.n
    zeta = constants.rho * sphere_points(rng_stream(seed, STREAM_PROBE), count, n)
    big_f = 2.0 * np.asarray(f(zeta / 2.0)).reshape(len(zeta), -1)
    rhs = float(np.min(np.linalg.norm(big_f, axis=1)))
    lhs = constants.rho / (2.0 * constants.bound ** (2 * n - 1))
    cid = check_id or f"covered_ball[{label}]"
    return make_report(
        cid, lhs, rhs,
        inputs={"f": label, "n": n, "rho": constants.rho, "M": constants.bound,
                "count": int(count), "seed": int(seed)},
    )


# ---------------------------------------------------------------------------
# mapping registry for the univalence checks
# ---------------------------------------------------------------------------

class AffineMapping:
    """f(z) = c (A z + B conj(z)), scaled so det J = 1 at the origin.

    Affine maps have h-harmonic (constant) partial derivatives, exact
    Wirtinger data (c A, c B) and an exactly known alpha-Bloch norm
    c (|A| + |B|), so they satisfy the univalence theorem's hypotheses
    with no numerical slack.
    """

    def __init__(self, label: str, a_matrix, b_matrix):
        A = np.atleast_2d(np.asarray(a_matrix, dtype=complex))
        B = np.atleast_2d(np.asarray(b_matrix, dtype=complex))
        if A.shape != B.shape or A.shape[0] != A.shape[1]:
            raise ValueError("need square matrices of equal shape")
        self.label = label
        self.n = A.shape[0]
        det = np.linalg.det(real_jacobian_from_wirtinger(WirtingerData(A, B)))
        if det <= 0.0:
            raise ValueError("orientation-reversing or degenerate map")
        scale = det ** (-1.0 / (2 * self.n))
        self.a_matrix = scale * A
        self.b_matrix = scale * B
        self.bound = operator_norm(self.a_matrix) + operator_norm(self.b_matrix)

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=complex))
        out = np.zeros_like(pts)
        for j in range(self.n):
            for k in range(self.n):
                out[:, j] += self.a_matrix[j, k] * pts[:, k]
                out[:, j] += self.b_matrix[j, k] * np.conj(pts[:, k])
        return out

    def wirtinger(self) -> WirtingerData:
        return WirtingerData(self.a_matrix, self.b_matrix)


def mapping_registry(n: int) -> list[AffineMapping]:
    """Normalized mappings satisfying the univalence theorem's hypotheses."""
    identity = AffineMapping("identity", np.eye(n), np.zeros((n, n)))
    shear_b = np.zeros((n, n), dtype=complex)
    if n == 1:
        shear_b[0, 0] = 0.1
    else:
        shear_b[0, 1] = 0.1
    shear = AffineMapping("shear", np.eye(n), shear_b)
    return [identity, shear]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass
class HarnessConfig:
    """Resolved configuration of one run: every default and check.  Flags,
    config files and reports name each field as itself."""

    n: int = 1
    nodes: int = 4096          # circle-rule nodes (n = 1)
    mc_nodes: int = 200000     # Monte Carlo nodes (n >= 2)
    seed: int = 0
    rmax: float = 0.8          # schwarzpick and lemma33 sampling and guard radius
    samples: int = 200         # sampled z per pointwise sweep; thm24's points beyond the grid;
                               # lemma22's random Wirtinger pairs; lemmaB's matrices per n
    pairs: int = 2000          # landau's univalence pairs per mapping
    alpha: float = 1.0
    m: float = 1.0             # the norm bound M

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.rmax < 1.0:
            raise ValueError(f"rmax must lie in (0, 1), got {self.rmax}")
        for name, least in (("nodes", 4), ("mc_nodes", 100), ("samples", 1), ("pairs", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("alpha", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.m < 1.0:
            raise ValueError(f"m must be >= 1, got {self.m}")
        # every constant the landau suite takes; its probes' bounds (at most 2) are
        # covered by the M sweep, since rho and r_lower decrease in M
        try:
            landau_constants(self.n, self.alpha, self.m)
            for _, inputs in _landau_sweeps(self.n, self.alpha, self.m):
                for args in inputs:
                    landau_constants(*args)
        except ValueError as exc:
            raise ValueError(f"n={self.n}, alpha={self.alpha:g} and m={self.m:g} are beyond "
                             f"the landau suite's range: {exc}") from None


def rule_for(cfg: HarnessConfig) -> QuadratureRule:
    """Default rule in the configured dimension (spectral circle or seeded MC)."""
    if cfg.n == 1:
        return circle_rule(cfg.nodes)
    return sphere_rule_mc(cfg.n, cfg.mc_nodes, cfg.seed)


def suite_lemma21(cfg: HarnessConfig) -> list[CheckReport]:
    """Real-ball gradient bound on restrictions of disk functions (m = 2).

    The cases cycle through the n = 1 registry, alternating real and
    imaginary parts.  Each entry is one function, its closed-form extension
    where the registry has one and else its extension under the circle rule,
    evaluated once at the ``lemma21_rows`` of all its cases.
    """
    rule = circle_rule(cfg.nodes)
    boundary_rule = real_circle_rule(1024)
    rng = rng_stream(cfg.seed, STREAM_GEOMETRY)
    registry = boundary_registry(1)
    balls = []
    for _ in range(LEMMA21_CASES):
        center = uniform_ball(1, 1, rng, 0.4)[0]
        balls.append((np.array([center[0].real, center[0].imag]), 0.1 + 0.25 * float(rng.random())))
    reports = [None] * LEMMA21_CASES
    for k, entry in enumerate(registry):
        f = entry.exact_extension or h_extend(entry, rule, guard_radius=DEFAULT_GUARD_RADIUS)
        cases = range(k, LEMMA21_CASES, len(registry))
        xy = np.vstack([lemma21_rows(*balls[case], boundary_rule) for case in cases])
        values = np.asarray(f((xy[:, 0] + 1j * xy[:, 1]).reshape(-1, 1))).reshape(len(cases), -1)
        for case, v in zip(cases, values):     # per case: 8 stencil values, f(a), the boundary
            part, v = ("re", v.real) if case % 2 == 0 else ("im", v.imag)
            reports[case] = check_lemma21(
                v[:8], v[8], v[9:], *balls[case], boundary_rule,
                check_id=f"lemma21[m=2,f={entry.label}.{part},case={case}]")
    return reports


def suite_lemma22(cfg: HarnessConfig) -> list[CheckReport]:
    """lemma22 on ``cfg.samples`` seeded standard complex Gaussian pairs
    (f_z, f_zbar) in C^n, drawn like lemmaB's stacks, then its equality cases
    on the same f_z: real and imaginary data.  No function is evaluated."""
    rng = rng_stream(cfg.seed, STREAM_WIRTINGER)
    pairs = np.empty((2, cfg.samples, 1, cfg.n), dtype=complex)     # the f_z and f_zbar stacks
    pairs.real = rng.standard_normal(pairs.shape)
    pairs.imag = rng.standard_normal(pairs.shape)
    fz, fzbar = pairs
    cases = (("random", fzbar), ("real", fz.conj()), ("imaginary", -fz.conj()))
    reports = [check_lemma22(WirtingerData(fz, bar), label=label, equality=label != "random")
               for label, bar in cases]
    for report in reports:
        report.inputs["seed"] = cfg.seed
    return reports


class _ClosedForm:
    """A registry closed form with ``HExtension``'s calls: its values, and
    Richardson finite differences of them by this module's
    ``wirtinger_fd_many``, looked up per call, with no quadrature error."""

    fd_error = _FD_TRUNCATION

    def __init__(self, f):
        self._f = f

    def __call__(self, points):
        return self._f(points)

    def wirtinger_many(self, points, want_errors: bool = True):
        return wirtinger_fd_many(self._f, points), (np.zeros(len(points)) if want_errors else None)


def suite_thm24(cfg: HarnessConfig) -> list[CheckReport]:
    """Weighted-Lipschitz sup (every pair of one point set, and derivative
    limits at the grid points) against pi sqrt(n) times the Bloch sup on
    the grid.

    The point set is the grid followed by ``cfg.samples`` seeded uniform
    points with |z| <= 0.7; each function is evaluated there once, and one
    walk takes every function's sup over all pairs of it.  The rule-based
    entries are the columns of one stacked extension: each column has the
    bits of the entry's own extension and is held to the entry's own bound.
    """
    grid = ball_grid(cfg.n)
    points = np.concatenate(
        [grid, uniform_ball(cfg.n, cfg.samples, rng_stream(cfg.seed, STREAM_PAIRS), 0.7)])
    registry = boundary_registry(cfg.n)
    ruled = [entry for entry in registry if entry.exact_extension is None]
    stacked = h_extend(vector_boundary(ruled), rule_for(cfg))
    ruled_values, ruled_data = stacked(points), stacked.wirtinger_many(grid, want_errors=False)[0]
    columns, grid_data = [], []
    for entry in registry:
        if entry.exact_extension is None:
            j = ruled.index(entry)
            f, values, data = stacked, ruled_values[:, j:j + 1], ruled_data[:, j:j + 1]
        else:
            f = _ClosedForm(entry.exact_extension)
            values, data = f(points), f.wirtinger_many(grid, want_errors=False)[0]
        columns.append(np.reshape(values, (len(points), -1)))
        grid_data.append((entry.label, data, f.fd_error))
    sups, pairs = all_pairs_lipschitz(points, np.hstack(columns))
    return [check_thm24_necessity(sup, pairs, grid, data, label=label, fd_error=fd_error)
            for (label, data, fd_error), sup in zip(grid_data, sups)]


def suite_schwarzpick(cfg: HarnessConfig) -> list[CheckReport]:
    """Value and gradient bounds for bounded extensions, plus equality case.

    Every registry entry with a declared bound is a column of one stacked
    extension; at n >= 2 the vector entry reads the columns of its scalar
    components, values and standard errors alike, and each check reduces the
    error rows as it reduces the value rows.  Closed forms are not used, so
    every check runs under the rule.
    """
    rule = rule_for(cfg)
    zs = uniform_ball(cfg.n, cfg.samples, rng_stream(cfg.seed, STREAM_SAMPLES), cfg.rmax)
    boundaries = [b for b in boundary_registry(cfg.n) if b.sup_bound]
    # (label, declared bound, columns of the stacked extension) per checked entry
    entries = [(b.label, b.sup_bound, slice(j, j + 1)) for j, b in enumerate(boundaries)]
    ext = h_extend(vector_boundary(boundaries), rule, guard_radius=cfg.rmax)
    if cfg.n >= 2:
        vec = vector_boundary(boundaries[1:1 + cfg.n])
        entries.append((vec.label, vec.sup_bound, slice(1, 1 + cfg.n)))
    # one walk: all at zs and at the origin, in the last block's padding
    values, v_se, data, g_se = ext.values_with_errors(np.vstack([zs, np.zeros(cfg.n)]),
                                                      wirtinger=True)
    f0, data, g_se = values[-1], data[:-1], g_se[:-1]
    reports = []
    for label, bound, cols in entries:
        reports.append(check_schwarz_pick_value(zs, values[:-1, cols], f0[cols], v_se[:-1, cols],
                                                bound=bound, label=label, rule=rule.meta))
        big_lambda = lambda_bounds_wirtinger(data[:, cols])[0]   # one stacked SVD
        reports.append(check_schwarz_pick_gradient(zs, big_lambda, g_se[:, cols], bound=bound,
                                                   label=label, rule=rule.meta))
    # equality case: constant boundary data M makes the value bound tight.  The
    # registry lists the constant first.
    label, bound, cols = entries[0]
    eq = min(20, len(zs))
    lhs, rhs, quad, _ = _schwarz_value_sides(zs[:eq], values[:eq, cols], f0[cols],
                                             v_se[:eq, cols], bound)
    reports.append(make_report(
        f"schwarzpick.equality[n={cfg.n}]", np.max(np.abs(rhs - lhs)),
        np.max(_tolerance(1e-12, quad, 0.0)), analytic=1e-12,
        inputs={"f": label, "points": eq, "note": "constant data attains the value bound"},
        rule=dict(rule.meta),
    ))
    return reports


def suite_lemma33(cfg: HarnessConfig) -> list[CheckReport]:
    """Growth bound for diagonal matrix maps built from vanishing extensions."""
    rule = rule_for(cfg)
    reports = []
    entry = next(b for b in boundary_registry(cfg.n) if b.label == "re1")
    ext = h_extend(entry, rule, guard_radius=cfg.rmax)
    scale = 1.0 / (2.0 * entry.sup_bound)
    rng = rng_stream(cfg.seed, STREAM_SAMPLES)
    radii = (0.5, 0.9)
    sets = [uniform_ball(cfg.n, LEMMA33_POINTS, rng, 0.95) * (r * cfg.rmax) for r in radii]
    # one pass for both radii, f(0) its last row; A(z) = scale (f(z/r) - f(0)) I
    values, errors = ext.values_with_errors(
        np.vstack([zs / r for zs, r in zip(sets, radii)] + [np.zeros((1, cfg.n))]))
    for i, (zs, r) in enumerate(zip(sets, radii)):
        rows = slice(i * LEMMA33_POINTS, (i + 1) * LEMMA33_POINTS)
        gaps = scale * (values[rows] - values[-1])
        reports.append(check_lemma33(gaps[:, None, None] * np.eye(cfg.n, dtype=complex), zs, r,
                                     label=f"diag({entry.label})",
                                     quad_error=errors[rows] * scale * 2))
    return reports


def suite_lemmaB(cfg: HarnessConfig) -> list[CheckReport]:
    """Determinant vs smallest singular value: for n = 2, 3, 4,
    ``check_lemmaB`` over a stack of ``cfg.samples`` seeded complex n x n
    matrices, then its equality case.

    At n = 2 the lemma is the identity |det A| = sigma_max sigma_min, so
    that stack sees a determinant or SVD error of rounding size.  Each stack
    is drawn into one complex array, real parts and then imaginary parts, so
    it holds the bits of ``x + 1j * y`` for the same two draws without their
    temporaries.
    """
    rng = rng_stream(cfg.seed, STREAM_MATRICES)
    reports = []
    for n in (2, 3, 4):
        mats = np.empty((cfg.samples, n, n), dtype=complex)
        mats.real = rng.standard_normal(mats.shape)
        mats.imag = rng.standard_normal(mats.shape)
        report = check_lemmaB(mats, check_id=f"lemmaB[n={n}]")
        report.inputs["seed"] = cfg.seed
        reports.append(report)
        # equality needs every middle singular value equal to the largest
        reports.append(check_lemmaB(np.diag([2.0] * (n - 1) + [0.5]),
                                    check_id=f"lemmaB.diagonal[n={n}]"))
    return reports


def suite_landau(cfg: HarnessConfig) -> list[CheckReport]:
    """Constants, their monotonicity, and the univalence/covered-ball probes."""
    reports = []
    consts = landau_constants(cfg.n, cfg.alpha, cfg.m)
    # consistency: same constant through an algebraically different route.  The
    # rounding of 4/3 (relative error up to u = 2^-53) grows alpha-fold in
    # (4/3)^alpha; the other roundings of both routes stay within 8u.
    alt_rho = 1.0 / ((2.0 * cfg.m) ** (2 * cfg.n) * (1.0 + (4.0 / 3.0) ** cfg.alpha))
    reports.append(make_report(
        f"landau.constants[n={cfg.n},alpha={cfg.alpha:g},M={cfg.m:g}]",
        abs(consts.rho - alt_rho), (cfg.alpha + 8.0) * 2.0 ** -53 * consts.rho,
        inputs={"n": cfg.n, "alpha": cfg.alpha, "M": cfg.m, "rho": consts.rho,
                "half_rho": consts.half_rho, "r_lower": consts.r_lower},
    ))
    # strict monotonicity in M, n and alpha
    for name, inputs in _landau_sweeps(cfg.n, cfg.alpha, cfg.m):
        values = [landau_constants(*args).rho for args in inputs]
        gaps = np.diff(values)
        reports.append(make_report(
            f"landau.monotone[{name}]", float(np.max(gaps)), 0.0, strict=True,
            inputs={"rhos": [float(v) for v in values], "varying": name},
        ))
    # probes on the mapping registry
    for mapping in mapping_registry(cfg.n):
        m_bound = max(mapping.bound, 1.0)
        c = landau_constants(cfg.n, cfg.alpha, m_bound)
        pairs = pair_samples(cfg.n, cfg.pairs, cfg.seed, rmax=c.half_rho * 0.999)
        lam_origin = lambda_bounds_wirtinger(mapping.wirtinger())[1]
        reports.append(univalence_probe(
            mapping, c.half_rho, pairs, 0.0, label=mapping.label,
            check_id=f"landau.univalence[n={cfg.n},f={mapping.label}]"))
        covered = covered_ball_probe(
            mapping, c, 100, cfg.seed, label=mapping.label,
            check_id=f"landau.covered[n={cfg.n},f={mapping.label}]")
        covered.inputs["lambda_at_origin"] = float(lam_origin)
        covered.inputs["lambda_floor_ok"] = bool(lam_origin >= m_bound ** (1 - 2 * cfg.n) - 1e-12)
        reports.append(covered)
    # negative control: z^2 collapses antipodal pairs
    square_pairs = np.array([[[0.3 + 0.0j], [-0.3 + 0.0j]]])

    def square(pts):
        return np.asarray(pts) ** 2

    neg = univalence_probe(square, 0.5, square_pairs, 0.0, label="z^2",
                           check_id="landau.negative_control[z^2]")
    reports.append(make_report(
        "landau.negative_control[z^2]", neg.rhs, 0.0, analytic=1e-15,
        inputs={"note": "separation probe must fail on the squaring map",
                "probe_ratio": neg.rhs},
    ))
    return reports


SUITES = {
    "lemma21": suite_lemma21,
    "lemma22": suite_lemma22,
    "thm24": suite_thm24,
    "schwarzpick": suite_schwarzpick,
    "lemma33": suite_lemma33,
    "lemmaB": suite_lemmaB,
    "landau": suite_landau,
}


def run_suite(name: str, cfg: HarnessConfig) -> list[CheckReport]:
    """Run one named suite, or all of them in the order of ``SUITES``."""
    if name == "all":
        return [rep for suite in SUITES.values() for rep in suite(cfg)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](cfg)
