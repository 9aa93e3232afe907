"""The contract of the public functions: each returns a finite value or
raises a typed QMacdonaldError, never NaN and never a bare Python error.
Each case is a call that broke the contract before its guard."""

import math
import re

import pytest

from qmacdonald import (ConvergenceError, DomainError, QParams, XRParams,
                        ZoneError, boltzmann_w, eigenvalue_c, fq,
                        integral_rep_fq, qgamma, qpochhammer_inf)
from qmacdonald.qcore import bracket_v, qbinomial_series

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


@pytest.mark.parametrize("v, words", [
    (2000.0, "0.5**4000 underflows"), (1e300, "underflows"),
    (-2000.0, "0.5**-4000 overflows")])
def test_bracket_names_the_theta_argument_out_of_range(v, words):
    # x^(2v) underflowed to 0 and theta blamed a z = 0 never passed
    with pytest.raises(DomainError, match=re.escape(words)):
        bracket_v(v, XR)
