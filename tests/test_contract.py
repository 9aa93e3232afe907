"""The contract of the public functions: each returns a finite value or
raises a typed QMacdonaldError, never NaN and never a bare Python error.
Each case is a call that broke the contract before its guard."""

import math

import pytest

from qmacdonald import (ConvergenceError, DomainError, QParams, XRParams,
                        ZoneError, boltzmann_w, eigenvalue_c, fq,
                        integral_rep_fq, qgamma, qpochhammer_inf)

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
