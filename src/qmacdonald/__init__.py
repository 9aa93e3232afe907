"""Numerical engine for the Macdonald system of q-difference equations.

Builds the n!-dimensional basis of asymptotic series solutions, verifies
the eigen-equations for the commuting difference operators, implements
the underlying q-special functions, connection (braiding) matrices,
residue-summation integral oracles, and the terminating Macdonald
polynomial cases.
"""

from .errors import (ConvergenceError, DomainError, NondegeneracyError,
                     PoleError, QMacdonaldError, ResonanceError,
                     SingularConfigurationError, ZoneError)
from .qcore import (QParams, XRMode, XRParams, bracket_v, double_pochhammer,
                    fq, g1, kernel_s, kernel_t, qbinomial_series, qgamma,
                    qpochhammer_inf, theta)
from .operators import (LaurentPoly, SpectralData, dominance_ideal,
                        dominance_leq, duality_check, eigenvalue_c,
                        macdonald_apply_numeric, macdonald_apply_poly,
                        monomial_symmetric, staircase)
from .hcseries import (HCSolution, eigen_residual, evaluate,
                       integral_rep_fq, leading_coefficient,
                       residue_integral_prop6, solve_basis,
                       solve_coefficients, solution_from_json,
                       solution_to_json)
from .continuation import (BoltzmannWeights, ConnectionMatrix, boltzmann_w,
                           boltzmann_exchange_matrix, braid_matrix,
                           braid_action, fq_connection,
                           verify_braid_relations)
from .macpoly import (as_partition, degeneration_check, macdonald_a1,
                      macdonald_poly)

__version__ = "0.2.0"

__all__ = [
    "QMacdonaldError", "DomainError", "PoleError", "ZoneError",
    "SingularConfigurationError", "ResonanceError", "NondegeneracyError",
    "ConvergenceError",
    "QParams", "XRParams", "XRMode", "qpochhammer_inf", "qgamma", "theta",
    "double_pochhammer", "g1", "kernel_s", "kernel_t", "bracket_v", "fq",
    "qbinomial_series",
    "SpectralData", "LaurentPoly", "staircase", "eigenvalue_c",
    "macdonald_apply_numeric", "macdonald_apply_poly", "duality_check",
    "monomial_symmetric", "dominance_leq", "dominance_ideal",
    "HCSolution", "solve_coefficients", "solve_basis",
    "leading_coefficient",
    "evaluate", "eigen_residual", "residue_integral_prop6",
    "integral_rep_fq", "solution_to_json", "solution_from_json",
    "ConnectionMatrix", "BoltzmannWeights", "fq_connection", "braid_matrix",
    "braid_action", "verify_braid_relations", "boltzmann_w",
    "boltzmann_exchange_matrix",
    "as_partition", "macdonald_a1", "macdonald_poly", "degeneration_check",
]
