"""The public names of the package: a removal or rename must be a
deliberate edit of this list."""

import dataclasses

import qmacdonald

PUBLIC_API = [
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


def test_all_is_pinned():
    assert qmacdonald.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    for name in PUBLIC_API:
        assert getattr(qmacdonald, name) is not None, name


def test_solution_fields_are_pinned():
    # a solution holds what the solver computes; the leading coefficients
    # are derived from spectral and params where they are needed
    assert [f.name for f in dataclasses.fields(qmacdonald.HCSolution)] == [
        "spectral", "params", "max_degree", "coeffs"]
