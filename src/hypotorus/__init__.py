"""Theta-kernel integral solvers for hypocomplex vector fields on the
2-torus: first integrals, the Cauchy-Pompeiu transform, and global
solvability of Lu = f, Lu = Au, and Lu = Au + B*conj(u)."""

from .core import (GridFunction, HypotorusError, Lattice, RegularityParams,
                   TorusPoint, grid_centers, lattice_reduce, regularity_from)
from .field import (BUILTIN_NAMES, FieldSpec, NormalizedField,
                    SigmaComponent, ZEvaluator, build_field, char_set_info,
                    first_integral, normalize, periods)
from .kernel import (KernelContext, kernel_context, kernel_m, operator_matrix,
                     t_omega, t_omega_point)
from .solvers import (FixedPointState, SolveReport, lattice_project,
                      mean_integral, nu_estimates, pk_apply, pk_fixed_point,
                      similarity_check, solve_a, solve_ab, solve_f)
from .theta import (PoleProximityError, ThetaContext, theta_context,
                    theta_eval, theta_log_deriv)
from .verify import (ResidualReport, apply_l_fd, convergence_study,
                     residual_report)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES", "FieldSpec", "FixedPointState", "GridFunction",
    "HypotorusError", "KernelContext", "Lattice", "NormalizedField",
    "PoleProximityError", "RegularityParams", "ResidualReport",
    "SigmaComponent", "SolveReport", "ThetaContext", "TorusPoint",
    "ZEvaluator", "apply_l_fd", "build_field", "char_set_info",
    "convergence_study", "first_integral", "grid_centers", "kernel_context",
    "kernel_m", "lattice_project", "lattice_reduce", "mean_integral",
    "normalize", "nu_estimates", "operator_matrix", "periods",
    "pk_apply", "pk_fixed_point", "regularity_from", "residual_report",
    "similarity_check", "solve_a", "solve_ab", "solve_f", "t_omega",
    "t_omega_point", "theta_context", "theta_eval", "theta_log_deriv",
]
