"""Numerical verification toolkit for superpositions of fundamental
solutions of the p-Laplace equation."""

from .core import Params, fundamental_profile
from .concave import (
    AffineMinTerm,
    ConcaveTerm,
    MollifiedTerm,
    QuadraticTerm,
    criterion_sum,
    eigenvalue_criterion,
    operator_term,
)
from .superpose import (
    EvalResult,
    PoleSet,
    SignClass,
    delta_p_closed_form,
    delta_p_direct,
    delta_p_fd,
    delta_p_scale,
    evaluate,
    sign_region,
)
from .comparison import (
    ComparisonReport,
    GridDomain,
    comparison_check,
    solve_p_harmonic,
    superposition_grid,
)
from .evolution import (
    BARENBLATT,
    HOMOGENEOUS,
    EvolutionKernel,
    barenblatt_defect,
    barenblatt_defect_fd,
    kernel_spatial_gradient,
    kernel_time_derivative,
    kernel_value,
    sign_change_radius,
    support_radius,
    two_bump_defect,
    two_bump_defect_fd,
    two_bump_gradient,
    two_bump_value,
)
from . import errors

__all__ = [
    "Params",
    "fundamental_profile",
    "ConcaveTerm",
    "QuadraticTerm",
    "AffineMinTerm",
    "MollifiedTerm",
    "criterion_sum",
    "eigenvalue_criterion",
    "operator_term",
    "PoleSet",
    "EvalResult",
    "SignClass",
    "evaluate",
    "delta_p_direct",
    "delta_p_closed_form",
    "delta_p_fd",
    "delta_p_scale",
    "sign_region",
    "GridDomain",
    "ComparisonReport",
    "solve_p_harmonic",
    "superposition_grid",
    "comparison_check",
    "EvolutionKernel",
    "BARENBLATT",
    "HOMOGENEOUS",
    "kernel_value",
    "kernel_time_derivative",
    "kernel_spatial_gradient",
    "support_radius",
    "sign_change_radius",
    "barenblatt_defect",
    "barenblatt_defect_fd",
    "two_bump_value",
    "two_bump_gradient",
    "two_bump_defect",
    "two_bump_defect_fd",
    "errors",
]

__version__ = "0.1.0"
