"""Unit and property tests for the scalar q-special-function kernel."""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmacdonald import (ConvergenceError, DomainError, PoleError, QParams,
                        SpectralData, XRMode, XRParams, bracket_v,
                        double_pochhammer, fq, g1, kernel_s, kernel_t,
                        qbinomial_series, qgamma, qpochhammer_inf, theta,
                        verify_braid_relations)
from qmacdonald import qcore
from qmacdonald.qcore import (_RHO, _brackets, _cpow, _double_products,
                              _qpochhammers, _terms, _theta_values)


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
        # about 315k factors would exceed the cap; raised before any loop
        with pytest.raises(ConvergenceError):
            qpochhammer_inf(0.5, 0.9999)

    def test_modulus_past_the_float_range(self):
        # abs(z) overflows; the error is that of an inf |z|, held in the
        # column of z alone
        z = 1.5e308 + 1.5e308j
        with pytest.raises(ConvergenceError) as ref:
            _terms(math.inf, 0.5, 1e-14)
        for call in (lambda: qpochhammer_inf(z, 0.5), lambda: theta(z, 0.5),
                     lambda: double_pochhammer(z, 0.5, 0.3)):
            with pytest.raises(ConvergenceError) as exc:
                call()
            assert str(exc.value) == str(ref.value)
        for q in (0.5, 0.97):  # the loop and the accumulation
            held = _qpochhammers([0.3, z, 0.2j], q)
            assert isinstance(held[1], ConvergenceError)
            assert [repr(held[j]) for j in (0, 2)] == [
                repr(_loop_pochhammer(x, q)) for x in (0.3, 0.2j)]
            held = _theta_values([0.7, z, 0.3j], q)
            assert isinstance(held[1], ConvergenceError)
            assert [repr(held[j]) for j in (0, 2)] == [
                repr(theta(x, q)) for x in (0.7, 0.3j)]


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

    def test_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = qcore._qpochhammers
        monkeypatch.setattr(qcore, "_qpochhammers",
                            lambda *args: calls.append(args) or kernel(*args))
        double_pochhammer(2.3 + 1.0j, 0.75, 0.89)  # 6 rows and a corner
        assert len(calls) == 1 and len(calls[0][0]) == 6
        double_pochhammer(0.3, 0.75, 0.89)  # the corner only
        assert len(calls) == 2 and len(calls[1][0]) == 0

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
        # formed; the rows above |w| = 1/2 and the corner series of
        # about 56 terms per product keep the peak far below the bound
        xr = XRParams.from_qparams(QParams(q=0.95, k=0.5), XRMode.A)
        g1(0.3 + 0.2j, xr.x, xr.r, 2)  # warm up lazy numpy state
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

    def test_one_kernel_call(self, monkeypatch):
        # the rows of all four double products take one _qpochhammers call
        calls = []
        kernel = qcore._qpochhammers
        monkeypatch.setattr(qcore, "_qpochhammers",
                            lambda *args: calls.append(args) or kernel(*args))
        xr = XRParams.from_qparams(QParams(q=0.75, k=0.2), XRMode.B)
        g1(1.7 - 0.4j, xr.x, xr.r, 2)
        assert len(calls) == 1 and calls[0][0]


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

    def test_xr_constructor_converts_mode(self):
        xr = XRParams(0.5, 2.0, mode="B")
        assert xr.mode is XRMode.B
        assert xr == XRParams(0.5, 2.0, mode=XRMode.B)
        with pytest.raises(DomainError):
            XRParams(0.5, 2.0, mode="C")


def _loop_pochhammer(z, q, eps=1e-14):
    """The term loop that the batched kernel replaced, kept as the oracle
    it must match bit for bit."""
    terms = _terms(abs(z), q, eps)
    prod = complex(1.0)
    zq = complex(z)
    for _ in range(terms):
        prod *= 1.0 - zq
        zq *= q
    return prod * cmath.exp(-zq / (1.0 - q))


def _with_terms(count, q, phase):
    """A z with exactly count factors in (z; q)_inf at eps = 1e-14."""
    z = 1e-14 * q ** (0.5 - count) * cmath.exp(1j * phase)
    assert _terms(abs(z), q, 1e-14) == count
    return z


def _count_loops(monkeypatch):
    """A list that gets one entry per call of qcore._loop_product."""
    loops = []
    loop = qcore._loop_product
    monkeypatch.setattr(qcore, "_loop_product",
                        lambda *args: loops.append(args) or loop(*args))
    return loops


def _loop_theta(z, q):
    """theta from the term loop; ConvergenceError where theta raises it."""
    value = (_loop_pochhammer(z, q) * _loop_pochhammer(q / z, q)
             * _loop_pochhammer(q, q))
    if not cmath.isfinite(value):
        raise ConvergenceError("not finite")
    return value


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
    """The batched q-product kernel against the term loop, by repr."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_kernel_and_qpochhammer(self, seed):
        for q, zs in _grid(seed, 12):
            want = [repr(_loop_pochhammer(z, q)) for z in zs]
            assert [repr(v) for v in _qpochhammers(zs, q)] == want
            assert repr(qpochhammer_inf(zs[0], q)) == want[0]

    def test_rows_in_blocks(self):
        # 400 columns of about 3000 rows take several row blocks; the
        # last has no factor at all
        zs = [0.3 * cmath.exp(0.1j * j) * 1.01 ** j for j in range(399)]
        zs.append(1e-20j)
        want = [repr(_loop_pochhammer(z, 0.99)) for z in zs]
        assert [repr(v) for v in _qpochhammers(zs, 0.99)] == want

    @pytest.mark.parametrize("seed", [3, 4])
    def test_theta_and_batch(self, seed):
        for q, zs in _grid(seed, 6):
            zs = zs + [0j, 1e30, 1e-30, zs[0]]  # rejected ones, a repeat
            for z, value in zip(zs, _theta_values(zs, q)):
                try:
                    want = repr(_loop_theta(z, q))
                except (ConvergenceError, ZeroDivisionError):
                    # the batch holds the error theta raises there
                    assert isinstance(value, (ConvergenceError, DomainError))
                    with pytest.raises(type(value)) as exc:
                        theta(z, q)
                    assert str(exc.value) == str(value)
                    continue
                assert repr(theta(z, q)) == want
                assert repr(value) == want

    def test_qgamma(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            q = float(rng.uniform(0.05, 0.95))
            a = complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0))
            want = (_loop_pochhammer(q, q) * _cpow(1.0 - q, 1.0 - a)
                    / _loop_pochhammer(_cpow(q, a), q))
            assert repr(qgamma(a, q)) == repr(want)

    def test_kernels(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            p = QParams(q=float(rng.uniform(0.05, 0.95)),
                        k=float(rng.uniform(0.05, 0.95)))
            q, k = p.q, p.k
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            s = (_loop_pochhammer(q ** ((1.0 + k) / 2.0) * z, q)
                 / _loop_pochhammer(q ** ((1.0 - k) / 2.0) * z, q))
            t = ((1.0 - z) * _loop_pochhammer(q ** (1.0 - k) * z, q)
                 / _loop_pochhammer(q ** k * z, q))
            assert repr(kernel_s(z, p)) == repr(s)
            assert repr(kernel_t(z, p)) == repr(t)

    def test_term_cap_error(self):
        with pytest.raises(ConvergenceError) as ref:
            _terms(0.5, 0.9999, 1e-14)
        # the batch leaves the error in the column that reaches the cap
        values = _qpochhammers([1e-7, 0.5, 2e-7j], 0.9999)
        assert isinstance(values[1], ConvergenceError)
        assert str(values[1]) == str(ref.value)
        assert [repr(values[j]) for j in (0, 2)] == [
            repr(_loop_pochhammer(z, 0.9999)) for z in (1e-7, 2e-7j)]
        with pytest.raises(ConvergenceError) as exc:
            qpochhammer_inf(0.5, 0.9999)
        assert str(exc.value) == str(ref.value)
        value, = _theta_values([0.5], 0.9999)
        assert isinstance(value, ConvergenceError)
        assert str(value) == str(ref.value)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_engines_at_the_size_rule(self, monkeypatch, q, extra):
        # batches of _LOOP_FACTORS - 1, _LOOP_FACTORS and _LOOP_FACTORS + 1
        # factors: the first two take the loop, the last the accumulation
        total = qcore._LOOP_FACTORS + extra
        counts = [total // 3, total // 3, total - 2 * (total // 3)]
        zs = [_with_terms(c, q, 0.9 * j + 0.2) for j, c in enumerate(counts)]
        assert sum(_terms(abs(z), q, 1e-14) for z in zs) == total
        loops = _count_loops(monkeypatch)
        got = [repr(v) for v in _qpochhammers(zs, q)]
        assert got == [repr(_loop_pochhammer(z, q)) for z in zs]
        assert len(loops) == (3 if extra <= 0 else 0)

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.8, 0.95])
    def test_one_column(self, q):
        # a short product takes the loop and a long one the accumulation
        for r in (1e-3, 0.3, 0.99, 1.7, 40.0):
            for phase in (0.0, 2.0, -math.pi):
                z = r * cmath.exp(1j * phase)
                want = repr(_loop_pochhammer(z, q))
                assert repr(qpochhammer_inf(z, q)) == want
                assert [repr(v) for v in _qpochhammers([z], q)] == [want]

    @pytest.mark.parametrize("long", [False, True])
    def test_held_errors_on_both_engines(self, monkeypatch, long):
        # at q = 0.9999: 0 and 1 factors, the term cap, NaN, inf and a
        # modulus past the float range, and with long 6932 factors more
        q = 0.9999
        zs = [1e-15, 1.00005e-14j, 0.5, math.nan, complex(math.inf, 0.0),
              1.5e308 + 1.5e308j] + ([2e-14] if long else [])
        with pytest.raises(ConvergenceError) as ref:
            _terms(math.inf, q, 1e-14)
        loops = _count_loops(monkeypatch)
        held = _qpochhammers(zs, q)
        assert len(loops) == (0 if long else 2)
        for j, (z, value) in enumerate(zip(zs, held)):
            if 2 <= j <= 5:
                assert type(value) is ConvergenceError
                assert str(value) == str(ref.value)
            else:
                assert repr(value) == repr(_loop_pochhammer(z, q))

    def test_engine_by_size(self, monkeypatch):
        # a one-column product at q = 0.5 takes the loop, and the theta
        # table of a braid check at n = 3 the accumulation
        calls = []  # columns and loop products of each kernel call
        loops = _count_loops(monkeypatch)
        kernel = qcore._qpochhammers

        def recording(zs, q, eps=qcore.DEFAULT_EPS):
            before = len(loops)
            out = kernel(zs, q, eps)
            calls.append((len(zs), len(loops) - before))
            return out
        monkeypatch.setattr(qcore, "_qpochhammers", recording)
        qpochhammer_inf(0.3, 0.5)
        assert calls == [(1, 1)]
        calls.clear()
        p = QParams(q=0.5, k=0.4)
        verify_braid_relations(SpectralData.make((0.31, -0.11, -0.2), p), p,
                               (1.0, 2.0 + 0.1j, 4.5 + 0.3j))
        columns, loop_products = max(calls)
        assert columns >= 40 and loop_products == 0


def _loop_corner(w, p1, p2, eps=1e-14):
    """-log (w; p1, p2)_inf from the term loop that the corner series
    kernel must match bit for bit, with its term count."""
    tol = eps * (1.0 - _RHO) * (1.0 - abs(p1)) * (1.0 - abs(p2))
    terms = 0 if abs(w) < tol else int(math.log(tol) / math.log(abs(w)))
    # -0.0 + x is x for every float x, so the first sum is the first term,
    # as in the kernel's np.add.accumulate
    total, wm, p1m, p2m = -0j, w, p1, p2
    for m in range(1, terms + 1):
        d = m * (1 - p1m) * (1 - p2m)
        total += complex(wm.real / d, wm.imag / d)
        wm *= w
        p1m *= p1
        p2m *= p2
    return total, terms, tol


def _loop_double(z, p1, p2):
    """(z; p1, p2)_inf as exp of the corner loop times the row loops."""
    z = complex(z)
    rows = _terms(abs(z), p1, _RHO)
    value = cmath.exp(-_loop_corner(z * p1 ** rows, p1, p2)[0])
    for i in range(rows):
        value *= _loop_pochhammer(z * p1 ** i, p2)
    return value


class TestCornerSeriesBits:
    """double_pochhammer and g1 against the row and corner term loops, by
    repr."""

    @pytest.mark.parametrize("seed", [7, 8])
    def test_double_products(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            p1, p2 = (float(rng.uniform(0.05, 0.95)) * rng.choice((-1, 1, 1))
                      for _ in range(2))
            zs = [complex(10.0 ** rng.uniform(-3, 0.6)
                          * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
                  for _ in range(int(rng.integers(1, 6)))]
            zs += [0j, -0.3, complex(-0.3, -0.0), 1.5]  # signed zeros
            want = [repr(_loop_double(z, p1, p2)) for z in zs]
            assert [repr(v) for v in _double_products(zs, p1, p2)] == want
            assert repr(double_pochhammer(zs[0], p1, p2)) == want[0]
            for z in zs:  # the count keeps the m with |w|^m >= tol
                w = z * p1 ** _terms(abs(z), p1, _RHO)
                _, terms, tol = _loop_corner(w, p1, p2)
                assert abs(w) ** (terms + 1) < tol
                assert terms == 0 or abs(w) ** terms >= tol

    @pytest.mark.parametrize("mode", list(XRMode))
    def test_g1(self, mode):
        for q, k, n, z in itertools.product((0.3, 0.75, 0.95), (0.2, 0.8),
                                            (2, 3), (0.3 + 0.2j, 1.7 - 0.4j)):
            xr = XRParams.from_qparams(QParams(q=q, k=k), mode)
            x, r = xr.x, xr.r
            p1, p2 = x ** (2.0 * r), float(x) ** (2 * n)
            try:
                got = g1(z, x, r, n)
            except ConvergenceError:  # near 1 the products underflow
                assert q == 0.95
                continue
            num1, num2, den1, den2 = (
                _loop_double(w * z, p1, p2)
                for w in (x ** 2, x ** (2.0 * r + 2 * n - 2), p1, p2))
            assert repr(got) == repr((num1 / den1) * (num2 / den2))


class TestBracketBits:
    """_brackets against bracket_v one argument at a time."""

    @pytest.mark.parametrize("xr", [XRParams(x=0.8, r=2.0),
                                    XRParams.from_qparams(
                                        QParams(q=0.93, k=0.3), XRMode.B)])
    def test_batch_equals_one_at_a_time(self, xr):
        vs = [0.37, 1.21 + 0.2j, -0.6, 0.0, xr.r, 1.0 - xr.r,  # lattice
              1e4j,   # x^(v^2/r - v) overflows: DomainError from _cpow
              -150.0,  # Theta far from 1 is not finite: ConvergenceError
              1e4,    # x^(2v) underflows to 0: DomainError from theta
              math.nan, 0.37]
        held = _brackets(vs, xr)
        assert len(held) == len(vs)
        kinds = set()
        for v, value in zip(vs, held):
            try:
                want = bracket_v(v, xr)
            except Exception as exc:
                assert type(value) is type(exc)
                assert str(value) == str(exc)
                kinds.add(type(exc))
                continue
            assert repr(value) == repr(want)
        assert kinds == {DomainError, ConvergenceError}
