"""The contract of the public functions: each returns a finite value or
raises a typed QMacdonaldError, never NaN and never a bare Python error.
Each case is a call that broke the contract before its guard."""

import cmath
import math
import random
import re

import pytest

from qmacdonald import (ConvergenceError, DomainError, QMacdonaldError,
                        QParams, ResonanceError, SingularConfigurationError,
                        XRMode, XRParams, ZoneError, boltzmann_exchange_matrix,
                        boltzmann_w, double_pochhammer, eigenvalue_c, fq, g1,
                        integral_rep_fq, kernel_s, kernel_t,
                        macdonald_apply_numeric, qgamma, qpochhammer_inf)
from qmacdonald.continuation import boltzmann_r1
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


@pytest.mark.parametrize("call, words", [
    # 16 = x^-4 puts the factor 1 - p2 z of a denominator product at 0
    (lambda: g1(16.0, 0.5, 2.7, 2), "denominator of g_1 vanishes"),
    # at v = -1, z = x^-2 puts the factor 1 - x^2 z of g_1(z) at 0
    (lambda: boltzmann_r1(-1, XR, 2), "g_1(z) vanishes"),
    (lambda: boltzmann_w(1.3, -1, XR, 2), "g_1(z) vanishes"),
    (lambda: boltzmann_exchange_matrix(
        1, 50, XRParams.from_qparams(QParams(0.7146, 0.8634), XRMode.A), 2),
     "denominator of g_1 vanishes"),
], ids=["g1-denominator", "r1-g1-zero", "boltzmann-w-g1-zero",
        "exchange-matrix-v50"])
def test_vanishing_double_product_is_resonant(call, words):
    # each divided by an exact zero: a bare ZeroDivisionError
    with pytest.raises(ResonanceError, match=re.escape(words)):
        call()


def test_exchange_matrix_sweep_raises_only_typed_errors():
    # integer v puts the double products of g_1 on their lattice in about
    # one draw in twelve; each draw returns finite entries or raises a
    # QMacdonaldError, never a bare ZeroDivisionError
    rng = random.Random(7)
    resonant = 0
    for _ in range(400):
        xr = XRParams.from_qparams(
            QParams(rng.uniform(0.3, 0.95), rng.uniform(0.1, 0.9)),
            rng.choice([XRMode.A, XRMode.B]))
        mu = rng.choice([1, 2, 3]) * rng.choice([1, -1])
        v = rng.randint(-60, 60)
        try:
            m = boltzmann_exchange_matrix(mu, v, xr, 2)
        except ResonanceError:
            resonant += 1
        except QMacdonaldError:
            pass
        else:
            assert all(cmath.isfinite(e) for e in m.ravel()), (mu, v, xr)
    assert resonant > 0


def test_non_finite_coordinate_is_checked_before_coincidence():
    # the tolerance scaled by the largest modulus, inf, made coordinates
    # 0 and 1 coincide
    with pytest.raises(DomainError, match="is not finite"):
        macdonald_apply_numeric(sum, 1, (1, 2, math.inf), P)


@pytest.mark.parametrize("z, value", [
    ((1, 2, 1e300), 1.5498451015777474e300),
    ((1e-12, 2e-12, 1), 1.549845101582397)])
def test_coordinates_far_apart_do_not_coincide(z, value):
    # each pair is compared with its own moduli: 1 and 2 are not within
    # 1e-10 of 1e300, nor 1e-12 and 2e-12 of 1
    assert macdonald_apply_numeric(sum, 1, z, P) == pytest.approx(
        value, rel=1e-13)


def test_gauge_identity_far_apart():
    # the weights are finite now, and at 1e300 a side overflows, which a
    # NaN residual hid
    assert gauge_transform_residual((1, 2, 1e100), P) < 1e-13
    with pytest.raises(ConvergenceError, match="not finite"):
        gauge_transform_residual((1, 2, 1e300), P)
