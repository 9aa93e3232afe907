"""Unit and property tests for the scalar q-special-function kernel."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmacdonald import (ConvergenceError, DomainError, PoleError, QParams,
                        XRMode, XRParams, bracket_v, double_pochhammer, fq,
                        g1, kernel_s, kernel_t, qbinomial_series, qgamma,
                        qpochhammer_inf, theta)
from qmacdonald.qcore import _cpow, _qpochhammers, _terms, _theta_values


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
                w, mp1, mp2 = mp.mpc(z), mp.mpf(p1), mp.mpf(p2)
                log, m, wm, p1m, p2m = mp.mpc(0), 1, w, mp1, mp2
                while abs(wm) > mp.mpf("1e-32"):
                    log -= wm / (m * (1 - p1m) * (1 - p2m))
                    m, wm, p1m, p2m = m + 1, wm * w, p1m * mp1, p2m * mp2
                ref = complex(mp.exp(log))
            got = double_pochhammer(z, p1, p2)
            assert abs(got - ref) <= 1e-11 * abs(ref)

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
        # about 200k factors per double product at q = 0.95; the blocks
        # of at most 4096 factors keep the peak near 260 KB
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
                log, m, wm = mp.mpc(0), 1, w
                while abs(wm) > mp.mpf("1e-32"):
                    log -= wm / (m * (1 - p1 ** m) * (1 - p2 ** m))
                    m, wm = m + 1, wm * w
                return mp.exp(log)

            num1, num2, den1, den2 = (
                brace(w * zz) for w in (x ** 2, x ** (2 * r + 2 * n - 2),
                                        p1, p2))
            ref = complex(num1 * num2 / (den1 * den2))
        assert abs(g1(z, xr.x, xr.r, n) - ref) <= 1e-11 * abs(ref)


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
