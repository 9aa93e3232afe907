"""The public names of the package: a removal or rename must be a
deliberate edit of this list."""

import dataclasses
import inspect

import pytest

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


def test_params_fields_are_pinned():
    # the truncation tolerance is qcore.DEFAULT_EPS, and the mode only
    # chooses r in XRParams.from_qparams
    assert [f.name for f in dataclasses.fields(qmacdonald.QParams)] == [
        "q", "k"]
    assert [f.name for f in dataclasses.fields(qmacdonald.XRParams)] == [
        "x", "r"]


SIGNATURES = {
    qmacdonald.qpochhammer_inf: ["z", "q"],
    qmacdonald.double_pochhammer: ["z", "p1", "p2"],
    qmacdonald.fq: ["a", "b", "c", "z", "q"],
    qmacdonald.qbinomial_series: ["a", "z", "q"],
    qmacdonald.operators.conjugation_identity_residual: ["y", "p"],
    qmacdonald.operators.gauge_transform_residual: ["z", "p"],
}


@pytest.mark.parametrize("func", list(SIGNATURES), ids=lambda f: f.__name__)
def test_parameters_are_pinned(func):
    assert list(inspect.signature(func).parameters) == SIGNATURES[func]
