"""Hyperbolic-harmonic function theory on the unit ball of C^n.

A numerical library plus a verification harness: Poisson-kernel Dirichlet
solver, Mobius geometry of the ball, Bloch and weighted-Lipschitz
functionals, Jacobian operator norms, and desk-scale checks of the final
inequalities those objects satisfy.
"""

__version__ = "0.1.0"

from .geometry import real_mobius
from .quadrature import (
    QuadratureRule,
    circle_rule,
    sphere_rule_mc,
    integrate_with_error,
)
from .extension import (
    BoundaryFunction,
    HExtension,
    h_extend,
    laplace_beltrami_residual,
    boundary_registry,
)
from .calculus import (
    WirtingerData,
    lambda_bounds_wirtinger,
    operator_norm,
)
from .norms import (
    SupEstimate,
    bloch_seminorm,
    alpha_bloch_seminorm,
    weighted_lipschitz_sup,
)
from .theorems import (
    CheckReport,
    LandauConstants,
    HarnessConfig,
    landau_constants,
    lemma21_rows,
    check_lemma21,
    check_lemma22,
    check_thm24_necessity,
    check_schwarz_pick_value,
    check_schwarz_pick_gradient,
    check_lemma33,
    check_lemmaB,
    univalence_probe,
    covered_ball_probe,
    run_suite,
)
