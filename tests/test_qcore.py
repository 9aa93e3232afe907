"""Unit and property tests for the scalar q-special-function kernel."""

import cmath
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmacdonald import (ConvergenceError, DomainError, PoleError, QParams,
                        XRMode, XRParams, bracket_v, double_pochhammer, fq,
                        g1, kernel_s, kernel_t, qbinomial_series, qgamma,
                        qpochhammer_inf, theta)
from qmacdonald import qcore
from qmacdonald.qcore import (_brackets, _cpow, _log_theta_of, _terms,
                              _theta_ratio)

from conftest import mp_theta, theta_exponent

EPS = np.finfo(float).eps


def _log_theta(z, q):
    """log Theta_q(z) from the kernel, c^2 / (2 eps) + s, as a complex."""
    c, s = _log_theta_of(q)(z)
    return c * c / (-2.0 * math.log(q)) + s


def _log_error(mp, log, z, q):
    """|log - log Theta_q(z)| against the 150-digit reference, the
    imaginary part taken modulo 2 pi."""
    with mp.workdps(40):
        diff = complex(mp.mpc(log) - mp.log(mp_theta(mp, z, q)))
    return abs(complex(diff.real, math.remainder(diff.imag, 2 * math.pi)))


def _rel_error(mp, value, ref):
    with mp.workdps(40):
        return float(abs(mp.mpc(value) - ref) / abs(ref))


def _mp_log_double(mp, w, p1, p2):
    """log (w; p1, p2)_inf = -sum_m w^m / (m (1 - p1^m)(1 - p2^m)) for
    |w| < 1, summed in mpmath to 1e-32."""
    log, m, wm, p1m, p2m = mp.mpc(0), 1, w, p1, p2
    while abs(wm) > mp.mpf("1e-32"):
        log -= wm / (m * (1 - p1m) * (1 - p2m))
        m, wm, p1m, p2m = m + 1, wm * w, p1m * p1, p2m * p2
    return log


def brute_pochhammer(z, q, terms=600):
    out = 1.0 + 0.0j
    for i in range(terms):
        out *= 1.0 - z * q ** i
    return out


class TestQPochhammer:
    def test_zero_argument(self):
        assert qpochhammer_inf(0.0, 0.5) == 1.0

    def test_against_brute_force(self):
        for z in (0.3, -0.8, 0.4 + 0.7j, 2.5, -3.0 + 1.0j):
            got = qpochhammer_inf(z, 0.5)
            ref = brute_pochhammer(z, 0.5)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))

    @given(st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                              allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_peel_off(self, z):
        q = 0.5
        lhs = qpochhammer_inf(z, q)
        rhs = (1.0 - z) * qpochhammer_inf(q * z, q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_rejects_large_base(self):
        with pytest.raises(DomainError):
            qpochhammer_inf(0.3, 1.2)

    def test_term_cap(self):
        # (0.5; 0.9999)_inf is about e^-5822; a |z| with over 200k factors
        # above the cut is refused before any loop, with the message of
        # _terms
        with pytest.raises(ConvergenceError, match="underflows"):
            qpochhammer_inf(0.5, 0.9999)
        with pytest.raises(ConvergenceError, match="within the cap"):
            qpochhammer_inf(1e10, 0.9999)

    @pytest.mark.parametrize("z", (math.inf, math.nan))
    def test_zero_base(self, z):
        # (w; 0)_inf is the one factor 1 - w; a z that is not finite
        # passes the term counts of a zero base, and its product is not
        # finite
        assert qpochhammer_inf(0.3 + 0.2j, 0.0) == 1 - (0.3 + 0.2j)
        for call in (lambda: qpochhammer_inf(z, 0.0),
                     lambda: double_pochhammer(z, 0.0, 0.0)):
            with pytest.raises(ConvergenceError):
                call()

    def test_modulus_past_the_float_range(self):
        # abs(z) overflows; the error is that of an inf |z|
        z = 1.5e308 + 1.5e308j
        with pytest.raises(ConvergenceError) as ref:
            _terms(math.inf, 0.5, 1e-14)
        for call in (lambda: qpochhammer_inf(z, 0.5),
                     lambda: qpochhammer_inf(z, 0.97),
                     lambda: double_pochhammer(z, 0.5, 0.3)):
            with pytest.raises(ConvergenceError) as exc:
                call()
            assert str(exc.value) == str(ref.value)
        # log z is finite there, so theta has a log, and its value
        # overflows the float range
        with pytest.raises(ConvergenceError, match="not finite"):
            theta(z, 0.5)
        mp = pytest.importorskip("mpmath")
        for q in (0.5, 0.97):
            # an inf argument raises, and leaves the evaluator as it was
            log_theta = _log_theta_of(q)
            with pytest.raises(ConvergenceError, match="not finite"):
                log_theta(complex(math.inf, 0.0))
            assert [log_theta(x) for x in (0.7, 0.3j)] == [
                _log_theta_of(q)(x) for x in (0.7, 0.3j)]
            for x in (0.7, 0.3j):
                assert _rel_error(mp, theta(x, q), mp_theta(mp, x, q)) <= (
                    TestThetaReference.THETA_BOUND * EPS
                    * (1 + theta_exponent(x, q)))


class TestAgainstMpmath:
    """qpochhammer_inf, theta and qgamma against mpmath at 30 digits."""

    ZS = [r * cmath.exp(1j * phi) for r in (0.2, 1.0, 2.9)
          for phi in (0.7, 2.0, -2.6)]
    AS = (0.3, 1.7 + 0.4j, 2.5 - 0.8j, -0.6 + 0.3j)

    @pytest.fixture
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            yield mpmath

    @staticmethod
    def rel(got, ref):
        return abs(got - complex(ref)) / abs(complex(ref))

    @pytest.mark.parametrize("q", (0.3, 0.5, 0.9, 0.96))
    def test_products_and_gamma(self, mp, q):
        mq = mp.mpf(q)
        qq = mp.qp(mq, mq)
        for z in self.ZS:
            mz = mp.mpc(z)
            poch = mp.qp(mz, mq)
            assert self.rel(qpochhammer_inf(z, q), poch) < 1e-13
            ref = poch * mp.qp(mq / mz, mq) * qq
            assert self.rel(theta(z, q), ref) < 1e-13
        for a in self.AS:
            assert self.rel(qgamma(a, q), mp.qgamma(mp.mpc(a), mq)) < 1e-13


class TestQGamma:
    def test_gamma_one_and_two(self):
        assert abs(qgamma(1.0, 0.5) - 1.0) < 1e-14
        assert abs(qgamma(2.0, 0.5) - 1.0) < 1e-14

    def test_functional_equation_grid(self, rng):
        q = 0.5
        for a in rng.uniform(0.1, 3.0, 50):
            lhs = qgamma(a + 1.0, q)
            rhs = (1.0 - q ** a) / (1.0 - q) * qgamma(a, q)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_pole_detection(self):
        for m in (0, 1, 5):
            with pytest.raises(PoleError) as err:
                qgamma(-float(m), 0.5)
            assert err.value.location == -m

    def test_underflow_near_one_is_typed(self):
        # (q^a;q)_inf underflows to 0 at q = 0.999
        with pytest.raises(ConvergenceError):
            qgamma(0.3, 0.999)


class TestTheta:
    @pytest.mark.parametrize("q", (0.995, 0.999, 0.9999))
    def test_underflow_is_typed(self, q):
        # |Theta_q(q^0.4)| is about exp(-pi^2 / (2 eps)): 1e-429, 1e-2143
        # and 1e-21431; the product route returned 0j from q = 0.995
        with pytest.raises(ConvergenceError, match="underflows"):
            theta(q ** 0.4, q)

    def test_zero_at_one(self):
        assert abs(theta(1.0, 0.5)) < 1e-14

    def test_zero_at_lattice(self):
        q = 0.5
        for m in (-2, -1, 1, 2):
            assert abs(theta(q ** m, q)) < 1e-12

    def test_quasi_periodicity(self, rng):
        q = 0.5
        for _ in range(30):
            z = rng.uniform(0.2, 2.0) * cmath.exp(2j * math.pi * rng.uniform())
            lhs = theta(q * z, q)
            rhs = -theta(z, q) / z
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_inversion(self, rng):
        q = 0.5
        for _ in range(30):
            z = rng.uniform(0.2, 2.0) * cmath.exp(2j * math.pi * rng.uniform())
            assert abs(theta(q / z, q) - theta(z, q)) <= 1e-12 * abs(theta(z, q))

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            theta(0.0, 0.5)

    @pytest.mark.parametrize("z", (1e30, 1e-30, 1e30j))
    def test_overflow_is_typed(self, z):
        # the product overflows to inf and nan far from |z| = 1
        with pytest.raises(ConvergenceError):
            theta(z, 0.5)


class TestThetaReference:
    """theta and the log theta kernel against the 150-digit triple product
    sum (conftest.mp_theta), in units of float eps times 1 + the
    Gaussian exponent |c|^2 / (2 eps) (conftest.theta_exponent)."""

    # twice the worst error on this grid, rounded up.  Both read 13.1
    # eps (1 + E) at q = 1e-9 and z = exp(0.05i), where Theta is about
    # 1 - z and cancels 20-fold; the log read at most 2.7 elsewhere.
    # theta on the grids of TestBatchedProductBits read at most 1.6,
    # and the brackets of TestBracketBits 0.93.
    LOG_BOUND = 27.0
    THETA_BOUND = 27.0
    QS = (1e-9, 1e-3, 0.1, 0.3, 0.5, 0.75, 0.9, 0.96, 0.99, 0.999, 0.9999)
    ZS = [r * cmath.exp(1j * phi) for r in (0.05, 0.3, 1.0, 2.9, 20.0)
          for phi in (0.05, -0.7, 2.0, -2.6, math.pi)]

    @pytest.mark.parametrize("q", QS)
    def test_against_triple_product(self, q):
        mp = pytest.importorskip("mpmath")
        log_theta = _log_theta_of(q)
        for z in self.ZS:
            unit = EPS * (1 + theta_exponent(z, q))
            # one evaluator over every argument, as a fresh one per argument
            assert log_theta(z) == _log_theta_of(q)(z)
            assert _log_error(mp, _log_theta(z, q), z, q) <= (
                self.LOG_BOUND * unit)
            ref = mp_theta(mp, z, q)
            try:
                got = theta(z, q)
            except ConvergenceError:
                assert not 1e-300 < abs(complex(ref)) < 1e300
                continue
            assert _rel_error(mp, got, ref) <= self.THETA_BOUND * unit

    @pytest.mark.parametrize("q", (1e-9, 0.3, 0.9, 0.96, 0.999, 0.9999))
    def test_quotients(self, q):
        # Theta_q(q^a z) / Theta_q(z), the quadratic parts cancelled in
        # closed form, in units of eps (1 + |a| |c(z)|): the exponent
        # -a c + a^2 eps / 2 carries no 1/eps.  At most 8.5 measured
        # (q = 0.3); without the cancellation it read 25 at q = 1e-9 and
        # 170 to 4.5e6 at q = 0.3 to 0.9999.  Off the positive real axis,
        # where the terms m = +-1 of S are negligible; also where both
        # thetas leave the float range (q >= 0.999, |z| = 1e-100)
        mp = pytest.importorskip("mpmath")
        eps = -math.log(q)
        for z in (0.45 + 0.3j, 2.2 * cmath.exp(-2.0j), -1.3, 0.8j,
                  1e-100 * cmath.exp(0.3j)):
            for a in (0.3, -1.7, 0.2 + 0.4j):
                with mp.workdps(40):
                    ref = (mp_theta(mp, mp.power(q, a) * mp.mpc(z), q)
                           / mp_theta(mp, z, q))
                got = _theta_ratio(_cpow(q, a) * z, z, a, q)
                assert _rel_error(mp, got, ref) <= 18 * EPS * (
                    1 + abs(a) * math.sqrt(2 * eps * theta_exponent(z, q)))

    def test_reference_sums_agree(self):
        # the Poisson dual sum, the reference above q = 0.99, is the
        # triple product sum wherever the latter can be summed
        mp = pytest.importorskip("mpmath")
        from conftest import _mp_dual_sum, _mp_triple_product
        for q in (1e-9, 0.3, 0.9, 0.99):
            for z in (0.7 + 0.1j, -2.0, 1.3 * cmath.exp(0.05j)):
                y = math.pi - abs(cmath.phase(z))
                with mp.workdps(170 + int(y * y / (-2 * math.log(q)
                                                   * math.log(10)))):
                    Q, Z = mp.mpf(q), mp.mpc(z)
                    a = _mp_triple_product(mp, Z, Q)
                    b = _mp_dual_sum(mp, Z, Q)
                    assert abs(a - b) <= mp.mpf(10) ** -150 * abs(a)


class TestDoublePochhammer:
    def test_zero_argument(self):
        assert double_pochhammer(0.0, 0.5, 0.3) == 1.0

    def test_against_brute_force(self):
        z, p1, p2 = 0.2, 0.5, 0.3
        ref = 1.0
        for i1 in range(80):
            for i2 in range(80):
                ref *= 1.0 - p1 ** i1 * p2 ** i2 * z
        got = double_pochhammer(z, p1, p2)
        assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_row_peeling(self):
        z, p1, p2 = 0.2, 0.5, 0.3
        lhs = double_pochhammer(z, p1, p2)
        rhs = qpochhammer_inf(z, p2) * double_pochhammer(p1 * z, p1, p2)
        assert abs(lhs - rhs) <= 1e-13 * abs(lhs)

    @pytest.mark.parametrize("p1, p2, radii", [
        (0.5, 0.5, (0.3, 0.98)), (0.75, 0.75 ** 0.4, (0.3, 0.98)),
        (0.9, 0.9 ** 0.8, (0.3, 0.98)), (0.95, 0.95, (0.3, 0.98)),
        # rows of 30k factors, split along i2; (-0.98; 0.999)_inf overflows
        (0.1, 0.999, (0.3,)),
    ])
    def test_against_mpmath(self, p1, p2, radii):
        # 30-digit oracle: log (w; p1, p2)_inf
        # = -sum_m w^m / (m (1 - p1^m)(1 - p2^m)) for |w| < 1
        mp = pytest.importorskip("mpmath")
        for z in (r * cmath.exp(1j * phi) for r in radii
                  for phi in (0.0, 1.1, math.pi)):
            with mp.workdps(30):
                ref = complex(mp.exp(_mp_log_double(
                    mp, mp.mpc(z), mp.mpf(p1), mp.mpf(p2))))
            got = double_pochhammer(z, p1, p2)
            assert abs(got - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("p1", (0.3, 0.75, 0.95))
    @pytest.mark.parametrize("p2", (0.3, 0.89, 0.95))
    def test_against_mpmath_grid(self, p1, p2):
        # the factor-by-factor product read 1.0e-12 at p1 = p2 = 0.95,
        # |z| = 0.1, phase 2.5; rows and corner series read 8.4e-14
        mp = pytest.importorskip("mpmath")
        for z in (r * cmath.exp(1j * phi) for r in (0.1, 0.5, 0.9)
                  for phi in (1.1, 2.5)):
            with mp.workdps(30):
                ref = complex(mp.exp(_mp_log_double(
                    mp, mp.mpc(z), mp.mpf(p1), mp.mpf(p2))))
            got = double_pochhammer(z, p1, p2)
            assert abs(got - ref) <= 2e-13 * abs(ref)

    @pytest.mark.parametrize("z", [1e3, 1e5])
    def test_stops_at_the_first_row_not_finite(self, monkeypatch, z):
        # the rows of thousands of factors up to |z| overflow from the
        # first: thousands of rows are left unformed
        rows = []
        factors = qcore._factors
        monkeypatch.setattr(qcore, "_factors",
                            lambda *args: rows.append(args) or factors(*args))
        with pytest.raises(ConvergenceError, match="not finite"):
            double_pochhammer(z, 0.999, 0.999)
        assert 1 <= len(rows) <= 2

    @pytest.mark.parametrize("k", [9, 11])
    def test_rows_enter_whole(self, k):
        # near p2 = 1 the bare factors of a row leave the float range
        # where the row, its series included, does not: the products
        # here are about 4e-223 and 7e304
        mp = pytest.importorskip("mpmath")
        z = 2.0 * cmath.exp(1j * math.pi * k / 24)
        got = double_pochhammer(z, 0.5, 0.9993)
        with mp.workdps(40):
            ref = _mp_double(mp, z, 0.5, 0.9993)
        assert _rel_error(mp, got, ref) <= (TestCornerSeriesBits.DOUBLE_BOUND
                                            * EPS * _double_condition(
                                                z, 0.5, 0.9993))

    @pytest.mark.parametrize("z", (math.nan, math.inf, complex(1.0, math.inf),
                                   complex(math.nan, 0.5)))
    def test_non_finite_argument(self, z):
        with pytest.raises(ConvergenceError):
            double_pochhammer(z, 0.5, 0.3)
        with pytest.raises(ConvergenceError):
            g1(z, 0.9, 2.0, 2)

    def test_overflow_is_typed(self):
        # a finite product of factors up to 1e30 leaves the float range;
        # no NumPy overflow warning may escape on the way
        with pytest.raises(ConvergenceError):
            double_pochhammer(1e30, 0.5, 0.5)

    def test_rejects_large_base(self):
        with pytest.raises(DomainError):
            double_pochhammer(0.3, 0.5, 1.0)
        with pytest.raises(DomainError):
            g1(0.3, 1.2, 2.0, 2)


class TestG1:
    def test_value_at_zero(self):
        assert abs(g1(0.0, 0.9, 2.0, 2) - 1.0) < 1e-13

    def test_memory_is_bounded_near_one(self):
        # about 200k factors per double product at q = 0.95 if each were
        # formed; the rows above |w| = 1/2, each cut short by its own
        # series, and the corner series keep the peak far below the bound
        xr = XRParams.from_qparams(QParams(q=0.95, k=0.5), XRMode.A)
        g1(0.3 + 0.2j, xr.x, xr.r, 2)  # fill the series caches
        tracemalloc.start()
        try:
            g1(0.3 + 0.2j, xr.x, xr.r, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_against_direct_products(self):
        x, r, n, z = 0.9, 2.0, 2, 0.1
        p1, p2 = x ** (2 * r), float(x) ** (2 * n)

        def brace(w):
            return double_pochhammer(w, p1, p2)

        ref = (brace(x ** 2 * z) * brace(x ** (2 * r + 2 * n - 2) * z)
               / (brace(x ** (2 * r) * z) * brace(float(x) ** (2 * n) * z)))
        assert abs(g1(z, x, r, n) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("q", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("mode", list(XRMode))
    @pytest.mark.parametrize("n", [2, 3])
    def test_against_mpmath(self, q, mode, n):
        # independent oracle at 30 digits: for |w| < 1,
        # log (w; p1, p2)_inf = -sum_m w^m / (m (1 - p1^m)(1 - p2^m)),
        # which agrees with the row product prod_i (w p1^i; p2)_inf
        mp = pytest.importorskip("mpmath")
        xr = XRParams.from_qparams(QParams(q=q, k=0.4), mode)
        z = 0.3 + 0.2j

        with mp.workdps(30):
            x, r, zz = mp.mpf(xr.x), mp.mpf(xr.r), mp.mpc(z)
            p1, p2 = x ** (2 * r), x ** (2 * n)

            def brace(w):
                return mp.exp(_mp_log_double(mp, w, p1, p2))

            num1, num2, den1, den2 = (
                brace(w * zz) for w in (x ** 2, x ** (2 * r + 2 * n - 2),
                                        p1, p2))
            ref = complex(num1 * num2 / (den1 * den2))
        assert abs(g1(z, xr.x, xr.r, n) - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.75, 0.9, 0.95])
    def test_against_mpmath_grid(self, q):
        # the factor-by-factor products read 1.8e-12 at q = 0.95, k = 0.5
        # and 6.6e-13 at q = 0.9; rows and corner series read 1.9e-13
        mp = pytest.importorskip("mpmath")
        z = 0.3 + 0.2j
        for k, mode, n in itertools.product((0.2, 0.5, 0.8), XRMode, (2, 3)):
            xr = XRParams.from_qparams(QParams(q=q, k=k), mode)
            with mp.workdps(30):
                x, r, zz = mp.mpf(xr.x), mp.mpf(xr.r), mp.mpc(z)
                p1, p2 = x ** (2 * r), x ** (2 * n)
                num1, num2, den1, den2 = (
                    _mp_log_double(mp, w * zz, p1, p2)
                    for w in (x ** 2, x ** (2 * r + 2 * n - 2), p1, p2))
                ref = complex(mp.exp(num1 + num2 - den1 - den2))
            assert abs(g1(z, xr.x, xr.r, n) - ref) <= 4e-13 * abs(ref)


class TestKernels:
    def test_at_zero(self, p):
        assert abs(kernel_s(0.0, p) - 1.0) < 1e-14
        assert abs(kernel_t(0.0, p) - 1.0) < 1e-14

    def test_t_rearrangement(self, p):
        z, q, k = 0.3, p.q, p.k
        lhs = kernel_t(z, p) * qpochhammer_inf(q ** k * z, q)
        rhs = (1.0 - z) * qpochhammer_inf(q ** (1.0 - k) * z, q)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


class TestBracket:
    def test_zero(self):
        xr = XRParams(x=0.8, r=2.0)
        assert abs(bracket_v(0.0, xr)) < 1e-13

    def test_antiperiodicity(self):
        xr = XRParams(x=0.8, r=2.0)
        for v in (0.37, 1.21, -0.6, 0.37 + 0.2j):
            lhs = bracket_v(v + xr.r, xr)
            rhs = -bracket_v(v, xr)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_oddness(self):
        xr = XRParams(x=0.8, r=2.0)
        v = 0.37
        assert abs(bracket_v(-v, xr) + bracket_v(v, xr)) < 1e-12


class TestFq:
    def test_value_at_zero(self):
        assert fq(0.3, 0.7, 1.2, 0.0, 0.5) == 1.0

    def test_q_gauss(self):
        a, b, c, q = 0.3, 0.2, 1.1, 0.5
        lhs = fq(a, b, c, q ** (c - a - b), q)
        rhs = (qgamma(c, q) * qgamma(c - a - b, q)
               / (qgamma(c - a, q) * qgamma(c - b, q)))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_special_value_at_qk_ratio(self):
        # F_q(k, d+k, d+1, q^(1-2k)) in closed Gamma_q form, 0 < k < 1/2
        q, k, d = 0.5, 0.3, 0.54
        lhs = fq(k, d + k, d + 1.0, q ** (1.0 - 2.0 * k), q)
        rhs = (qgamma(d + 1.0, q) * qgamma(1.0 - 2.0 * k, q)
               / (qgamma(d + 1.0 - k, q) * qgamma(1.0 - k, q)))
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_terminating_is_polynomial(self):
        q = 0.5
        m = 4
        # degree-m polynomial: finite differences of order m+1 vanish
        vals = [fq(0.3, -float(m), 0.9, float(z), q) for z in range(m + 2)]
        diffs = np.diff(vals, n=m + 1)
        assert np.max(np.abs(diffs)) < 1e-9

    def test_divergence_guard(self):
        with pytest.raises(DomainError):
            fq(0.3, 0.7, 1.2, 1.5, 0.5)

    def test_near_terminating_sums_exactly(self):
        # q^a within the pole tolerance of q^-2: the guard lets |z| >= 1
        # through, and the series is summed to z^2 like the exact case
        a, b, c, z, q = -2.0, 0.3, 0.7, 2.0, 0.5
        t1 = (1 - q ** a) * (1 - q ** b) / ((1 - q) * (1 - q ** c)) * z
        t2 = (t1 * (1 - q ** (a + 1)) * (1 - q ** (b + 1))
              / ((1 - q ** 2) * (1 - q ** (c + 1))) * z)
        exact = 1.0 + t1 + t2
        assert abs(fq(a, b, c, z, q) - exact) <= 1e-13 * abs(exact)
        assert abs(fq(a + 1e-10, b, c, z, q) - exact) <= 1e-9 * abs(exact)

    def test_pole_before_the_last_term(self):
        with pytest.raises(PoleError):
            fq(0.3, 0.7, -1.0, 0.5, 0.5)
        with pytest.raises(PoleError):
            fq(-3.0, 0.7, -2.0 + 1e-11, 2.0, 0.5)
        # the series ends at z^2 before c + j reaches 0 at j = 3
        assert cmath.isfinite(fq(-2.0, 0.3, -3.0, 2.0, 0.5))

    def test_sum_that_is_not_finite(self):
        # the terminating sum 1 + t_1 + t_2 with z^2 = 1e400; it read inf
        with pytest.raises(ConvergenceError):
            fq(-2.0, 0.3, 1.5, 1e200, 0.5)

    def test_transformation_formula(self):
        # gauge transform of the series: F(k, d+k, d+1, q^(1-k) z)
        # = (q^k z;q)/(q^(1-k) z;q) F(d+1-k, 1-k, d+1, q^k z)
        q, k, d, z = 0.5, 0.4, 0.54, 0.6
        lhs = fq(k, d + k, d + 1.0, q ** (1.0 - k) * z, q)
        rhs = (qpochhammer_inf(q ** k * z, q)
               / qpochhammer_inf(q ** (1.0 - k) * z, q)
               * fq(d + 1.0 - k, 1.0 - k, d + 1.0, q ** k * z, q))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestQBinomialSeries:
    def test_against_product_form(self):
        a, z, q = 0.6, 0.4, 0.5
        lhs = qbinomial_series(a, z, q)
        rhs = qpochhammer_inf(q ** a * z, q) / qpochhammer_inf(z, q)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_trivial_exponent(self):
        assert abs(qbinomial_series(0.0, 0.7, 0.5) - 1.0) < 1e-12


class TestParams:
    def test_t_derived(self):
        p = QParams(q=0.5, k=0.4)
        assert p.t == 0.5 ** 0.4

    def test_validation(self):
        for bad in ((1.5, 0.4), (0.5, 1.4), (-0.1, 0.4)):
            with pytest.raises(DomainError):
                QParams(q=bad[0], k=bad[1])

    def test_xr_roundtrip(self):
        p = QParams(q=0.5, k=0.4)
        for mode in (XRMode.A, XRMode.B):
            xr = XRParams.from_qparams(p, mode)
            assert abs(xr.q - p.q) < 1e-13
        assert abs(XRParams.from_qparams(p, XRMode.A).r - 1.0 / 0.6) < 1e-13
        assert abs(XRParams.from_qparams(p, XRMode.B).r - 1.0 / 0.4) < 1e-13

    @pytest.mark.parametrize("mode", list(XRMode))
    def test_xr_mode_from_string(self, mode):
        p = QParams(q=0.5, k=0.4)
        assert (XRParams.from_qparams(p, mode.value)
                == XRParams.from_qparams(p, mode))

    def test_xr_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            XRParams.from_qparams(QParams(q=0.5, k=0.4), "C")


def _loop_pochhammer(z, q, eps=1e-14):
    """(z; q)_inf as a float term loop: every factor with |z q^i| >= eps,
    then the first-order tail exp(-z q^terms / (1 - q))."""
    terms = _terms(abs(z), q, eps)
    prod = complex(1.0)
    zq = complex(z)
    for _ in range(terms):
        prod *= 1.0 - zq
        zq *= q
    return prod * cmath.exp(-zq / (1.0 - q))


def _condition(z, q):
    """1 + sum_i (1 + (i + 1) |z q^i| / |1 - z q^i|) over the factors
    with |z q^i| >= 1e-14, those of _loop_pochhammer: the multiple of
    float eps by which rounding each factor and product, and the running
    z q^i, can move (z; q)_inf.  Error bounds on q-products are stated in
    units of float eps times this."""
    total, w, i = 1.0, complex(z), 0
    while abs(w) >= 1e-14:
        total += 1.0 + (i + 1) * abs(w) / abs(1.0 - w)
        w *= q
        i += 1
    return total


def _double_condition(z, p1, p2):
    """1 + the _condition of each row (z p1^i; p2)_inf with |z p1^i| >=
    1/2, plus sum_m |w|^m / (m |1 - p1^m| |1 - p2^m|) for the corner w
    below them, the size of its log: the unit of float eps for
    (z; p1, p2)_inf."""
    total, z = 1.0, complex(z)
    while abs(z) >= 0.5:
        total += _condition(z, p2)
        z *= p1
    m, wm = 1, abs(z)
    while wm >= 1e-17:
        total += wm / (m * abs(1 - p1 ** m) * abs(1 - p2 ** m))
        m, wm = m + 1, wm * abs(z)
    return total


def _mp_pochhammer(mp, z, q):
    """(z; q)_inf at the working precision: the factors with |z q^i| >=
    1/10 times the exp of the log series of the rest (_mp_log_double with
    p2 = 0), which ends within 32 terms there."""
    z, q = mp.mpc(z), mp.mpf(q)
    prod = mp.mpf(1)
    while abs(z) >= 0.1:
        prod *= 1 - z
        z *= q
    return prod * mp.exp(_mp_log_double(mp, z, q, 0))


def _mp_double(mp, z, p1, p2):
    """(z; p1, p2)_inf at the working precision: the rows (z p1^i; p2)_inf
    with |z p1^i| >= 1/2 times the exp of the corner's log series."""
    z, p1, p2 = mp.mpc(z), mp.mpf(p1), mp.mpf(p2)
    value = mp.mpf(1)
    while abs(z) >= 0.5:
        value *= _mp_pochhammer(mp, z, p2)
        z *= p1
    return value * mp.exp(_mp_log_double(mp, z, p1, p2))


def _grid(seed, count):
    """(q, zs) batches: q in [0.05, 0.999], |z| in [1e-3, 1e3], 1 to 150
    arguments with any phase."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = float(rng.uniform(0.05, 0.999))
        size = int(rng.integers(1, 151))
        zs = [complex(10.0 ** rng.uniform(-3, 3)
                      * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
              for _ in range(size)]
        yield q, zs


class TestBatchedProductBits:
    """The q-products and their callers against the float term loop and
    40-digit references, in units of float eps times _condition."""

    # twice the worst multiple on these grids, rounded up: 0.31 against
    # the term loop (q = 0.23 on the grid), and 0.13 against the 40-digit
    # reference (q = 0.05, z = -0.001)
    LOOP_BOUND = 0.7
    MP_BOUND = 0.3

    @pytest.mark.parametrize("seed", [1, 2])
    def test_kernel_and_qpochhammer(self, seed):
        mp = pytest.importorskip("mpmath")
        for q, zs in _grid(seed, 12):
            for j, z in enumerate(zs):
                want = _loop_pochhammer(z, q)
                if not (cmath.isfinite(want)
                        and abs(want) >= sys.float_info.min):
                    with pytest.raises(ConvergenceError):
                        qpochhammer_inf(z, q)
                    continue
                try:
                    got = qpochhammer_inf(z, q)
                except ConvergenceError:  # the loop's value is subnormal
                    assert abs(want) < 1e-300 or abs(want) > 1e300
                    continue
                unit = EPS * _condition(z, q)
                assert abs(got - want) <= self.LOOP_BOUND * unit * abs(want)
                if j < 2:
                    with mp.workdps(40):
                        assert _rel_error(mp, got, _mp_pochhammer(
                            mp, z, q)) <= self.MP_BOUND * unit
    @pytest.mark.parametrize("seed", [3, 4])
    def test_theta_and_batch(self, seed):
        # log thetas one argument at a time: a pair (c, s) on the grid and
        # at 1e30, and at 0 and NaN the error theta raises, with its
        # message; theta against the 150-digit reference wherever its
        # value is in the float range
        mp = pytest.importorskip("mpmath")
        for q, zs in _grid(seed, 6):
            log_theta = _log_theta_of(q)
            assert all(type(log_theta(z)) is tuple for z in zs + [1e30])
            for z, error in ((0j, DomainError),
                             (complex(math.nan, 1.0), ConvergenceError)):
                with pytest.raises(error) as alone:
                    log_theta(z)
                with pytest.raises(error) as exc:
                    theta(z, q)
                assert str(exc.value) == str(alone.value)
            for z in zs[:4]:
                try:
                    got = theta(z, q)
                except ConvergenceError:  # |Theta| out of the float range
                    assert not 1e-300 < abs(complex(mp_theta(mp, z, q))) \
                        < 1e300
                    continue
                assert _rel_error(mp, got, mp_theta(mp, z, q)) <= (
                    TestThetaReference.THETA_BOUND * EPS
                    * (1 + theta_exponent(z, q)))

    def test_qgamma(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        for _ in range(40):
            q = float(rng.uniform(0.05, 0.95))
            a = complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0))
            qa, power = _cpow(q, a), _cpow(1.0 - q, 1.0 - a)
            unit = EPS * (_condition(q, q) + _condition(qa, q))
            got = qgamma(a, q)
            want = _loop_pochhammer(q, q) * power / _loop_pochhammer(qa, q)
            assert abs(got - want) <= self.LOOP_BOUND * unit * abs(want)
            with mp.workdps(40):
                ref = (_mp_pochhammer(mp, q, q) * power
                       / _mp_pochhammer(mp, qa, q))
            assert _rel_error(mp, got, ref) <= self.MP_BOUND * unit

    def test_kernels(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(6)
        for _ in range(40):
            p = QParams(q=float(rng.uniform(0.05, 0.95)),
                        k=float(rng.uniform(0.05, 0.95)))
            q, k = p.q, p.k
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            for kernel, factor, num, den in (
                    (kernel_s, 1.0, q ** ((1.0 + k) / 2.0) * z,
                     q ** ((1.0 - k) / 2.0) * z),
                    (kernel_t, 1.0 - z, q ** (1.0 - k) * z, q ** k * z)):
                got = kernel(z, p)
                unit = EPS * (_condition(num, q) + _condition(den, q))
                want = (factor * _loop_pochhammer(num, q)
                        / _loop_pochhammer(den, q))
                assert abs(got - want) <= self.LOOP_BOUND * unit * abs(want)
                with mp.workdps(40):
                    ref = (factor * _mp_pochhammer(mp, num, q)
                           / _mp_pochhammer(mp, den, q))
                assert _rel_error(mp, got, ref) <= self.MP_BOUND * unit

    def test_term_cap_error(self):
        # the cap counts the factors above the cut, _terms(|z|, q, cut),
        # not those of a loop to |z q^i| < 1e-14: (0.5; 0.9999)_inf and
        # Gamma_q(1.3) there are typed underflows, not the cap's error
        with pytest.raises(ConvergenceError) as ref:
            _terms(1e10, 0.9999, qcore._cut(0.9999))
        with pytest.raises(ConvergenceError) as exc:
            qpochhammer_inf(1e10, 0.9999)
        assert str(exc.value) == str(ref.value)
        for call in (lambda: qpochhammer_inf(0.5, 0.9999),
                     lambda: qgamma(1.3, 0.9999)):
            with pytest.raises(ConvergenceError, match="underflows"):
                call()
        # arguments of modulus below the cut at the same q are products
        # as usual
        for z in (1e-7, 2e-7j):
            want = _loop_pochhammer(z, 0.9999)
            assert abs(qpochhammer_inf(z, 0.9999) - want) <= (
                self.LOOP_BOUND * EPS * _condition(z, 0.9999) * abs(want))
        # theta takes no product: its log is there, and its value, about
        # 1e-21431, is a typed underflow
        mp = pytest.importorskip("mpmath")
        assert _log_error(mp, _log_theta(0.5, 0.9999), 0.5, 0.9999) <= (
            TestThetaReference.LOG_BOUND * EPS
            * (1 + theta_exponent(0.5, 0.9999)))
        with pytest.raises(ConvergenceError, match="underflows"):
            theta(0.5, 0.9999)

    @pytest.mark.parametrize("z, q", [(1e-3, 0.9999), (1e-2, 0.99995)])
    def test_near_one_below_the_cut(self, z, q):
        # a loop to |z q^i| < 1e-14 would take over 200k factors; below
        # the cut the series takes 107 terms or fewer at any q (radius
        # 1/2): about 4.5e-5 and 8.4e-88 here
        mp = pytest.importorskip("mpmath")
        got = qpochhammer_inf(z, q)
        with mp.workdps(40):
            err = _rel_error(mp, got, _mp_pochhammer(mp, z, q))
        assert err <= self.MP_BOUND * EPS * _condition(z, q)
        q = math.nextafter(1.0, 0.0)
        assert len(qcore._series(q, 0.0, qcore._cut(q))[1]) <= 107

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.8, 0.95])
    def test_one_column(self, q):
        # from no factor above the cut to hundreds of them
        mp = pytest.importorskip("mpmath")
        for r in (1e-3, 0.3, 0.99, 1.7, 40.0):
            for phase in (0.0, 2.0, -math.pi):
                z = r * cmath.exp(1j * phase)
                got = qpochhammer_inf(z, q)
                unit = EPS * _condition(z, q)
                want = _loop_pochhammer(z, q)
                assert abs(got - want) <= self.LOOP_BOUND * unit * abs(want)
                with mp.workdps(40):
                    assert _rel_error(mp, got, _mp_pochhammer(
                        mp, z, q)) <= self.MP_BOUND * unit


class TestCornerSeriesBits:
    """double_pochhammer and g1 against their rows and corner series at
    40 digits (_mp_double), in units of float eps times
    _double_condition."""

    # twice the worst multiple on these grids, rounded up: 0.98 for a
    # double product (|z| = 1e-3, where the unit is about 1), 0.37 for g1
    DOUBLE_BOUND = 2.0
    G1_BOUND = 0.8

    @pytest.mark.parametrize("seed", [7, 8])
    def test_double_products(self, seed):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        for _ in range(20):
            p1, p2 = (float(rng.uniform(0.05, 0.95)) * rng.choice((-1, 1, 1))
                      for _ in range(2))
            zs = [complex(10.0 ** rng.uniform(-3, 0.6)
                          * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
                  for _ in range(int(rng.integers(1, 6)))]
            zs += [0j, -0.3, complex(-0.3, -0.0), 1.5]  # signed zeros
            for z in zs:
                value = double_pochhammer(z, p1, p2)
                with mp.workdps(40):
                    ref = _mp_double(mp, z, p1, p2)
                assert _rel_error(mp, value, ref) <= (
                    self.DOUBLE_BOUND * EPS * _double_condition(z, p1, p2))

    @pytest.mark.parametrize("mode", list(XRMode))
    def test_g1(self, mode):
        mp = pytest.importorskip("mpmath")
        for q, k, n, z in itertools.product((0.3, 0.75, 0.95), (0.2, 0.8),
                                            (2, 3), (0.3 + 0.2j, 1.7 - 0.4j)):
            xr = XRParams.from_qparams(QParams(q=q, k=k), mode)
            x, r = xr.x, xr.r
            p1, p2 = x ** (2.0 * r), float(x) ** (2 * n)
            args = [w * z for w in (x ** 2, x ** (2.0 * r + 2 * n - 2),
                                    p1, p2)]
            with mp.workdps(40):
                num1, num2, den1, den2 = (_mp_double(mp, w, p1, p2)
                                          for w in args)
                ref = num1 * num2 / (den1 * den2)
            try:
                got = g1(z, x, r, n)
            except ConvergenceError:  # near 1 a double product underflows
                assert min(map(abs, (num1, num2, den1, den2))) < 1e-300
                continue
            unit = EPS * sum(_double_condition(w, p1, p2) for w in args)
            assert _rel_error(mp, got, ref) <= self.G1_BOUND * unit


class TestBracketBits:
    """bracket_v one argument at a time against x^(v^2/r - v) times the
    150-digit theta, and _brackets against bracket_v: the same values, and
    the error of the first argument that fails, raised there."""

    XRS = [XRParams(x=0.8, r=2.0),
           XRParams.from_qparams(QParams(q=0.93, k=0.3), XRMode.B)]

    @pytest.mark.parametrize("xr", XRS)
    def test_batch_equals_one_at_a_time(self, xr):
        mp = pytest.importorskip("mpmath")
        x, r = xr.x, xr.r
        base = x ** (2.0 * r)
        vs = [0.37, 1.21 + 0.2j, -0.6, 0.0, xr.r, 1.0 - xr.r,  # lattice
              1e4j,    # [v] overflows: ConvergenceError
              -150.0,  # Theta(x^(2v)) overflows, [v] does not
              1e6,     # x^(2v) underflows to 0: DomainError
              math.nan, 0.37]
        kinds, good = set(), []
        for v in vs:
            try:
                value = bracket_v(v, xr)
            except (DomainError, ConvergenceError) as exc:
                kinds.add(type(exc))
                continue
            good.append((v, value))
            if abs(cmath.sin(math.pi * v / r)) < 1e-9:
                continue  # [v] = 0 at v on r Z: no relative error
            arg = _cpow(x, 2.0 * v)
            with mp.workdps(40):
                ref = (mp.power(mp.mpf(x), mp.mpc(v) ** 2 / r - v)
                       * mp_theta(mp, arg, base))
            assert _rel_error(mp, value, ref) <= (
                TestThetaReference.THETA_BOUND * EPS
                * (1 + theta_exponent(arg, base)))
        assert kinds == {DomainError, ConvergenceError}
        assert repr(_brackets([v for v, _ in good], xr)) == repr(
            [value for _, value in good])

    @pytest.mark.parametrize("xr", XRS)
    @pytest.mark.parametrize("vs, first, error", [
        ((0.37, 1e6, 1e4j), 1e6, DomainError),
        ((0.37, 1e4j, 1e6), 1e4j, ConvergenceError)],
        ids=["underflow-first", "overflow-first"])
    def test_first_failing_argument_raises(self, xr, vs, first, error):
        # x^(2v) underflows to 0 at 1e6, and [v] overflows at 1e4j, a step
        # later: held errors, or one pass over every v per step, would
        # raise the other, or nothing
        with pytest.raises(error) as alone:
            bracket_v(first, xr)
        with pytest.raises(error) as exc:
            _brackets(vs, xr)
        assert str(exc.value) == str(alone.value)
