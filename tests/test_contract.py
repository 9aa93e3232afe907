"""The contract of the public functions: each returns a finite value or
raises a typed QMacdonaldError, never NaN and never a bare Python error.
Each case is a call that broke the contract before its guard."""

import math
import re

import pytest

from qmacdonald import (ConvergenceError, DomainError, QParams,
                        SingularConfigurationError, XRParams, ZoneError,
                        boltzmann_w, double_pochhammer, eigenvalue_c, fq,
                        integral_rep_fq, kernel_s, kernel_t, qgamma,
                        qpochhammer_inf)
from qmacdonald.operators import (conjugation_identity_residual,
                                  gauge_transform_residual)
from qmacdonald.qcore import _cpow, bracket_v, qbinomial_series

P = QParams(q=0.5, k=0.4)
XR = XRParams(0.5, 2.7)


@pytest.mark.parametrize("call, error", [
    # the pole test of an exponent rounded its real part
    (lambda: qgamma(math.inf, 0.5), DomainError),
    (lambda: qgamma(math.nan, 0.5), DomainError),
    (lambda: fq(math.inf, 0.5, 1.2, 0.3, 0.5), DomainError),
    (lambda: fq(0.3, 0.5, math.nan, 0.3, 0.5), DomainError),
    # the lattice test of a theta argument took the log of 0 or NaN
    (lambda: boltzmann_w(0.3, math.inf, XR, 2), ZoneError),
    (lambda: boltzmann_w(0.3, 1e300, XR, 2), ZoneError),
    (lambda: boltzmann_w(math.nan, 0.2, XR, 2), ZoneError),
], ids=["qgamma-inf", "qgamma-nan", "fq-a-inf", "fq-c-nan",
        "boltzmann-v-inf", "boltzmann-v-huge", "boltzmann-mu-nan"])
def test_lattice_guards_on_non_finite_input(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda: qpochhammer_inf(1e200j, 0.5), ConvergenceError),
    (lambda: qgamma(-300.5, 0.5), ConvergenceError),
    (lambda: eigenvalue_c((math.nan, 0.0), 1, P), DomainError),
    (lambda: integral_rep_fq((0.1, -0.1), 1.0, 0.0, P), DomainError),
], ids=["qpochhammer-not-finite", "qgamma-not-finite", "eigenvalue-nan",
        "integral-z2-zero"])
def test_no_nan_and_no_zero_division(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", [
    lambda: qpochhammer_inf(0.99, 0.999),
    lambda: double_pochhammer(0.9, 0.999, 0.5),
    lambda: kernel_s(0.9, QParams(0.999, 0.4)),
    lambda: kernel_t(0.9, QParams(0.999, 0.4)),
    lambda: kernel_s(0.9, QParams(0.9995, 0.4)),
    lambda: kernel_t(0.9, QParams(0.9995, 0.4)),
], ids=["qpochhammer", "double-pochhammer", "kernel-s", "kernel-t",
        "kernel-s-nearer-one", "kernel-t-nearer-one"])
def test_underflow_is_a_convergence_error(call):
    # these returned 0j, or 1+0j and 0j from two products that underflow,
    # or raised a bare ZeroDivisionError
    with pytest.raises(ConvergenceError, match="underflows the float range"):
        call()


def test_kernel_t_divides_before_it_scales():
    # (1 - z) times the numerator overflowed before the division, and
    # the value, about -1e240, read -inf+nanj
    assert kernel_t(1e300, QParams(1e-300, 0.4)) == pytest.approx(
        -1e240, rel=1e-12)


def test_an_exact_zero_factor_is_kept():
    # 1 - 4 * 0.5^2 is exactly 0, as the terminating connection needs
    assert qpochhammer_inf(4.0, 0.5) == 0


@pytest.mark.parametrize("call", [
    lambda: qgamma(complex(1, math.nan), 0.5),
    lambda: qgamma(complex(1, math.inf), 0.5),
    lambda: fq(complex(0.3, math.inf), 0.5, 1.2, 0.3, 0.5),
    lambda: fq(0.3, 0.5, complex(1.2, math.nan), 0.3, 0.5),
    lambda: fq(0.3, 0.5, 1.2, complex(math.nan, 0), 0.5),
    lambda: qbinomial_series(complex(0.3, math.nan), 0.5, 0.5),
    lambda: qbinomial_series(0.3, complex(math.nan, 0), 0.5),
], ids=["qgamma-imag-nan", "qgamma-imag-inf", "fq-a-imag-inf",
        "fq-c-imag-nan", "fq-z-nan", "qbinomial-a-imag-nan",
        "qbinomial-z-nan"])
def test_non_finite_argument_is_a_domain_error(call):
    # these ran to a term cap on NaN terms and raised ConvergenceError
    with pytest.raises(DomainError, match="not finite"):
        call()


def test_finite_values_at_a_non_finite_argument_are_kept():
    # a sum of no terms is 1, and q^inf = 0 leaves 1/(z;q)_inf
    assert fq(0, 0.5, complex(1, math.nan), 0.3, 0.5) == 1
    assert qbinomial_series(math.inf, 0.3, 0.5) == pytest.approx(
        1 / qpochhammer_inf(0.3, 0.5), rel=1e-14)


@pytest.mark.parametrize("call", [
    lambda: _cpow(0.1, 1 - 1.5e308),
    lambda: qgamma(1.5e308, 0.9),
    lambda: qgamma(complex(1.5e308, 1.5e308), 0.9),
], ids=["cpow", "qgamma-huge", "qgamma-huge-complex"])
def test_power_past_the_float_range_is_a_domain_error(call):
    # expo * log(base) overflowed to a real part of +inf: the power came
    # back as inf, qgamma as NaN, and with a complex exponent cmath.exp
    # raised a bare ValueError
    with pytest.raises(DomainError, match="overflows the floating-point"):
        call()


@pytest.mark.parametrize("v, words", [
    (2000.0, "0.5**4000 underflows"), (1e300, "underflows"),
    (-2000.0, "0.5**-4000 overflows")])
def test_bracket_names_the_theta_argument_out_of_range(v, words):
    # x^(2v) underflowed to 0 and theta blamed a z = 0 never passed
    with pytest.raises(DomainError, match=re.escape(words)):
        bracket_v(v, XR)


@pytest.mark.parametrize("call", [
    lambda: conjugation_identity_residual((1.0, 0.5), P),
    lambda: conjugation_identity_residual((1.0, 2.0), P),
    lambda: conjugation_identity_residual((2.0, 1.0), P),
    lambda: conjugation_identity_residual((1.0, 0.5, 0.25), P),
    lambda: gauge_transform_residual((1.0, 1.0), P),
], ids=["conjugation-1-0.5", "conjugation-1-2", "conjugation-2-1",
        "conjugation-1-0.5-0.25", "gauge-1-1"])
def test_coinciding_coordinates_are_singular(call):
    # the conjugation identity weights each q-shifted point, so two
    # coordinates q apart made a weight divide by zero, as two equal ones
    # did in the gauge identity: a bare ZeroDivisionError
    with pytest.raises(SingularConfigurationError, match="coincide"):
        call()
