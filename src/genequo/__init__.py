"""Numerical toolkit for generalized equations F(x) inside a closed convex cone."""

from .geometry import (
    Ball,
    Cone,
    Enlargement,
    ExcessValue,
    FinitePoints,
    NonnegHalfLine,
    NonposHalfLine,
    Orthant,
    PlusCone,
    PolyhedralCone,
    SetRep,
    ball_excess,
    cone_as_setrep,
    dist_to_cone,
    dist_to_set,
    excess,
    excess_sampled,
    excess_to_cone,
    normalize,
    orthant_depth,
    project_to_cone,
    refute_enlargement_inclusion,
)
from .increase import (
    CertificationRefused,
    IncreaseCertificate,
    IncreaseEstimate,
    certify_linear_orthant,
    certify_local_nonlinear,
    check_increase_inclusion,
    empirical_certificate,
    estimate_increase_bound,
    openness_bound_linear,
    perturbation_bound,
)
from .mappings import (
    Residual,
    SetValuedMap,
    affine_plus_cone,
    evaluate,
    image_shift,
    is_feasible,
    linear_map,
    phi,
    semi_infinite,
    semicontinuity_probe,
    single_valued,
    sum_map,
    vi_residual,
)
from .penalty import (
    ConstrainedProblem,
    PenaltyVerdict,
    exactness_experiment,
    lipschitz_estimate,
    penalty_threshold,
    penalty_value,
    strict_global_check,
)
from .solver import (
    BoundCheck,
    SolveReport,
    descent_step,
    solution_set_probe,
    solve,
    verify_global_error_bound,
    verify_local_error_bound,
)
from .vecopt import (
    IdealReport,
    VectorProblem,
    ideal_efficient_set,
    ideal_residual,
    pareto_cross_check,
)

__version__ = "0.1.0"
