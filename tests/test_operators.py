"""Tests for the difference operators, eigenvalues and polynomial action."""

import cmath
import itertools
import math
import operator

import numpy as np
import pytest

from qmacdonald import (ConvergenceError, DomainError, LaurentPoly, QParams,
                        SingularConfigurationError, SpectralData,
                        dominance_ideal, dominance_leq, duality_check,
                        eigenvalue_c, macdonald_apply_numeric,
                        macdonald_apply_poly, monomial_symmetric, staircase)
from qmacdonald.operators import (conjugation_identity_residual,
                                  gauge_transform_residual,
                                  kernel_intertwiner_residual)


class TestSpectralData:
    def test_eta_rho(self, p):
        s = SpectralData.make((0.3, -0.1, -0.2), p, w=(2, 0, 1))
        assert s.eta == (-0.2, 0.3, -0.1)
        assert s.rho == tuple(p.k * d for d in staircase(3))

    def test_sum_constraint(self, p):
        with pytest.raises(DomainError):
            SpectralData.make((0.3, -0.2), p)

    @pytest.mark.parametrize("lam", [(float("nan"), 0.1),
                                     (float("inf"), float("-inf")),
                                     (complex(0.1, float("nan")), -0.1)])
    def test_non_finite_lambda(self, p, lam):
        with pytest.raises(DomainError):
            SpectralData.make(lam, p)

    def test_swap(self, p):
        s = SpectralData.make((0.3, -0.1, -0.2), p)
        s2 = s.swap(1)
        assert s2.eta == (0.3, -0.2, -0.1)

    def test_cached_properties_equal_formulas(self, p):
        # each derived tuple is computed once per instance; it must be the
        # formula's value, also on the instances swap builds
        lam = (0.31 + 0.05j, -0.05, -0.12 - 0.05j, -0.14)
        s = SpectralData.make(lam, p, w=(1, 3, 0, 2))
        for sd in [s] + [s.swap(i) for i in range(3)] + [s.swap(0).swap(2)]:
            n, k = sd.n, sd.k
            rho = tuple(k * d for d in staircase(n))
            eta = tuple(sd.lam[sd.w[i]] for i in range(n))
            for _ in range(2):  # the computed value, then the cached one
                assert sd.rho == rho
                assert sd.eta == eta
                assert sd.eta_plus_rho == tuple(map(operator.add, eta, rho))
                assert sd.lam_plus_rho == tuple(map(operator.add, sd.lam,
                                                    rho))
        assert s.swap(1).eta == (s.eta[0], s.eta[2], s.eta[1], s.eta[3])


class TestEigenvalue:
    def test_n2_closed_form(self, p):
        lam = (0.3, -0.3)
        s = SpectralData.make(lam, p)
        q, t = p.q, p.t
        got = eigenvalue_c(s.lam_plus_rho, 1, p)
        ref = t ** 1.5 * (q ** lam[0] + q ** lam[1])
        assert abs(got - ref) < 1e-14

    def test_top_eigenvalue(self, p):
        for lam in ((0.3, -0.3), (0.31, -0.11, -0.20)):
            s = SpectralData.make(lam, p)
            n = len(lam)
            got = eigenvalue_c(s.lam_plus_rho, n, p)
            assert abs(got - p.t ** (n * (n + 1) / 2.0)) < 1e-13

    def test_weyl_invariance(self, p):
        lam = (0.31, -0.11, -0.20)
        vals = []
        for w in itertools.permutations(range(3)):
            s = SpectralData(n=3, lam=lam, w=w, k=p.k)
            vals.append(eigenvalue_c(
                tuple(e + r for e, r in zip(s.eta, s.rho)), 2, p))
        assert max(abs(v - vals[0]) for v in vals) < 1e-13 * abs(vals[0])

    def test_overflow_is_a_domain_error(self, p):
        # q^(-1e300) leaves the floating-point range
        s = SpectralData.make((1e300, -1e300), p)
        with pytest.raises(DomainError):
            eigenvalue_c(s.lam_plus_rho, 1, p)


class TestNumericApplication:
    def test_constant_function_m1(self, p):
        t = p.t
        got = macdonald_apply_numeric(lambda z: 1.0, 1, (2.0, 3.0), p)
        assert abs(got - t * (1 + t)) < 1e-13

    def test_constant_function_m2(self, p):
        got = macdonald_apply_numeric(lambda z: 1.0, 2, (2.0, 3.0), p)
        assert abs(got - p.t ** 3) < 1e-13

    def test_hand_substitution(self, p):
        q, t = p.q, p.t
        z = (2.0, 3.0)
        f = lambda zz: zz[0] + zz[1]
        got = macdonald_apply_numeric(f, 1, z, p)
        ref = t * ((t * 2 - 3) / (2 - 3) * (q * 2 + 3)
                   + (t * 3 - 2) / (3 - 2) * (2 + q * 3))
        assert abs(got - ref) < 1e-13

    def test_coincident_points_rejected(self, p):
        # at (0, 0) no multiple of the largest modulus separates them
        for z in [(2.0, 2.0), (0.0, 0.0)]:
            with pytest.raises(SingularConfigurationError):
                macdonald_apply_numeric(lambda zz: 1.0, 1, z, p)
            with pytest.raises(SingularConfigurationError):
                duality_check(lambda zz: 1.0, z, p)

    def test_modulus_past_the_float_range(self, p):
        # abs() of the coordinate or of a difference overflows
        for z in [(1.0, 1.5e308 + 1.5e308j),
                  (1e308 + 1e308j, -5e307 - 5e307j)]:
            for apply in (lambda: macdonald_apply_numeric(sum, 1, z, p),
                          lambda: duality_check(sum, z, p)):
                with pytest.raises(DomainError) as exc:
                    apply()
                assert "float range" in str(exc.value)

    @pytest.mark.parametrize("f", [lambda zz: 1.0 + 0j, sum],
                             ids=["constant", "sum"])
    @pytest.mark.parametrize("z", [(complex(math.inf, math.nan), 1.45 + 0.1j),
                                   (math.nan, 1.0), (math.inf, 1.0)],
                             ids=["inf+nanj", "nan", "inf"])
    def test_non_finite_coordinate(self, p, f, z):
        # both returned NaN before the coordinates were checked
        for apply in (lambda: macdonald_apply_numeric(f, 1, z, p),
                      lambda: duality_check(f, z, p)):
            with pytest.raises(DomainError) as exc:
                apply()
            assert "not finite" in str(exc.value)

    @pytest.mark.parametrize("f", [lambda zz: 1.0 + 0j, sum],
                             ids=["constant", "sum"])
    def test_shifted_point_leaves_the_float_range(self, p, f):
        # D^1(1/q, 1/t) shifts 1.5e308 to 1.5e308 / q = inf
        with pytest.raises(DomainError) as exc:
            duality_check(f, (1.0, 1.5e308), p)
        assert "not finite" in str(exc.value)

    def test_commutativity(self, p, rng):
        for n in (2, 3):
            exps = rng.integers(0, 3, size=(3, n))
            poly = LaurentPoly(n)
            for e in exps:
                for se in set(itertools.permutations(tuple(e))):
                    poly[se] = poly[se] + 1.0
            z = tuple(rng.uniform(1, 2, n)
                      * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
            for a, b in itertools.combinations(range(1, n + 1), 2):
                ab = macdonald_apply_numeric(
                    lambda zz: macdonald_apply_numeric(poly.evaluate, b, zz, p),
                    a, z, p)
                ba = macdonald_apply_numeric(
                    lambda zz: macdonald_apply_numeric(poly.evaluate, a, zz, p),
                    b, z, p)
                assert abs(ab - ba) <= 1e-10 * max(1.0, abs(ab))


class TestPolynomialApplication:
    def test_constant(self, p):
        P = LaurentPoly(2, {(0, 0): 1.0})
        img = macdonald_apply_poly(P, 1, p)
        t = p.t
        assert abs(img[(0, 0)] - t * (1 + t)) < 1e-10
        assert len(img.terms) == 1

    def test_linear_eigenvector(self, p):
        P = LaurentPoly(2, {(1, 0): 1.0, (0, 1): 1.0})
        img = macdonald_apply_poly(P, 1, p)
        e = eigenvalue_c((0, 1), 1, p)
        assert img.max_abs_diff(P.scale(e)) < 1e-10

    def test_linearity(self, p):
        P = monomial_symmetric(2, (2, 0))
        Q = monomial_symmetric(2, (1, 1))
        a, b = 0.7 - 0.2j, 1.3 + 0.4j
        combo = P.scale(a) + Q.scale(b)
        img = macdonald_apply_poly(combo, 1, p)
        ref = (macdonald_apply_poly(P, 1, p).scale(a)
               + macdonald_apply_poly(Q, 1, p).scale(b))
        assert img.max_abs_diff(ref) < 1e-9

    def test_symmetry_preserved(self, p):
        P = monomial_symmetric(3, (2, 1, 0))
        img = macdonald_apply_poly(P, 2, p)
        assert img.is_symmetric()

    def test_matches_numeric_action(self, p):
        cases = [
            monomial_symmetric(3, (3, 1, 0)).scale(0.7)
            + monomial_symmetric(3, (2, 2, 1)).scale(0.3 - 0.4j)
            + monomial_symmetric(3, (1, 0, 0)),
            monomial_symmetric(4, (4, 2, 1, 0))
            + monomial_symmetric(4, (2, 2, 0, 0)).scale(0.5 + 0.2j)
            + monomial_symmetric(4, (1, 1, 1, 1)).scale(-1.1),
            monomial_symmetric(5, (3, 2, 1, 0, 0))
            + monomial_symmetric(5, (2, 2, 2, 0, 0)).scale(0.4 - 0.9j)
            + monomial_symmetric(5, (1, 0, 0, 0, 0)).scale(2.0),
            # negative exponents go through the Laurent shift
            monomial_symmetric(3, (2, 0, -1)).scale(0.6 + 0.1j)
            + monomial_symmetric(3, (1, -1, -1))
            + LaurentPoly(3, {(0, 0, 0): 1.5}),
        ]
        for P in cases:
            n = P.n
            z = tuple((1.0 + 0.37 * j) * cmath.exp(0.9j * j)
                      for j in range(n))
            for m in range(1, n + 1):
                got = macdonald_apply_poly(P, m, p).evaluate(z)
                direct = macdonald_apply_numeric(P.evaluate, m, z, p)
                assert abs(got - direct) < 1e-11 * abs(direct)

    def test_order_range(self, p):
        P = monomial_symmetric(3, (1, 0, 0))
        for m in (0, 4):
            with pytest.raises(DomainError):
                macdonald_apply_poly(P, m, p)

    def test_rejects_asymmetric_input(self, p):
        with pytest.raises(DomainError):
            macdonald_apply_poly(LaurentPoly(2, {(1, 0): 1.0}), 1, p)

    def test_negative_exponents(self, p):
        P = monomial_symmetric(2, (1, -1)) + LaurentPoly(2, {(0, 0): 2.0})
        img = macdonald_apply_poly(P, 1, p)
        z = (1.7, 0.6 + 0.3j)
        direct = macdonald_apply_numeric(P.evaluate, 1, z, p)
        assert abs(img.evaluate(z) - direct) < 1e-9 * max(1.0, abs(direct))

    def test_combination_of_columns(self, p):
        # the action on a combination equals the combination of the
        # actions on its monomial symmetric parts
        parts = {(4, 2, 1, 0): 0.7, (3, 3, 1, 0): -1.2 + 0.5j,
                 (2, 2, 2, 1): 0.3j}
        combo = LaurentPoly(4)
        for mu, c in parts.items():
            combo = combo + monomial_symmetric(4, mu).scale(c)
        for m in range(1, 5):
            img = macdonald_apply_poly(combo, m, p)
            ref = LaurentPoly(4)
            for mu, c in parts.items():
                ref = ref + macdonald_apply_poly(
                    monomial_symmetric(4, mu), m, p).scale(c)
            scale = max(abs(c) for c in img.terms.values())
            assert img.max_abs_diff(ref) < 1e-14 * scale



def _evaluate_by_terms(poly, z):
    """The term-by-term loop that LaurentPoly.evaluate's power tables
    replaced, kept as the oracle they must match bit for bit."""
    z = tuple(complex(c) for c in z)
    total = complex(0.0)
    for e, c in poly.terms.items():
        mono = c
        for zi, ei in zip(z, e):
            mono *= zi ** ei
        total += mono
    return total


class TestLaurentEvaluation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_term_loop(self, rng, n):
        for _ in range(10):
            poly = LaurentPoly(n)
            for _ in range(int(rng.integers(1, 60))):
                e = tuple(int(x) for x in rng.integers(-3, 7, n))
                poly[e] = complex(*rng.normal(size=2))
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert poly.evaluate(z) == _evaluate_by_terms(poly, z)

    def test_empty(self):
        assert LaurentPoly(3).evaluate((1.0, 2.0, 3.0)) == 0j

    def test_zero_coordinate(self):
        P = LaurentPoly(2, {(2, 0): 1.5, (1, 1): -2.0, (0, 3): 0.5j})
        assert P.evaluate((0.0, 2.0)) == _evaluate_by_terms(P, (0.0, 2.0))
        P[(-1, 2)] = 1.0
        with pytest.raises(DomainError):
            P.evaluate((0.0, 2.0))

    @pytest.mark.parametrize("terms,z", [
        # a power past the float range
        ({(200, 0): 1.0}, (1e10, 1.0)),
        # finite powers whose product overflows
        ({(1, 1): 1e200}, (1e100, 1e100)),
        # a NaN coefficient
        ({(1, 0): complex("nan")}, (1.0, 1.0)),
    ])
    def test_non_finite_value(self, terms, z):
        with pytest.raises(ConvergenceError):
            LaurentPoly(2, terms).evaluate(z)


class TestSymmetryCheck:
    TOL = 1e-9

    def test_monomial_symmetric_accepted(self):
        parts = ((4, 2, 1, 0, 0), (3, 3, 1, 1, 0), (2, 2, 2, 2, 2),
                 (5, 1, 0, 0, -2))
        P = LaurentPoly(5)
        for j, mu in enumerate(parts):
            assert monomial_symmetric(5, mu).is_symmetric(self.TOL)
            P = P + monomial_symmetric(5, mu).scale(0.4 + 0.3j * j)
        assert P.is_symmetric(self.TOL)

    def test_missing_member_rejected(self):
        for e in ((2, 1, 0), (0, 2, 1)):   # the sorted member and another
            P = monomial_symmetric(3, (2, 1, 0))
            P[e] = 0.0
            assert not P.is_symmetric(self.TOL)

    def test_member_off_by_twice_tol_rejected(self):
        for e in ((2, 1, 0), (1, 0, 2)):
            P = monomial_symmetric(3, (2, 1, 0))
            P[e] = 1.0 + 2 * self.TOL
            assert not P.is_symmetric(self.TOL)
            P[e] = 1.0 + 0.5 * self.TOL
            assert P.is_symmetric(self.TOL)


class TestDominance:
    def test_leq(self):
        assert dominance_leq((1, 1), (2, 0))
        assert not dominance_leq((2, 0), (1, 1))
        assert not dominance_leq((1, 0), (2, 0))

    def test_ideal(self):
        assert set(dominance_ideal((2, 0))) == {(2, 0), (1, 1)}
        assert set(dominance_ideal((2, 1, 0))) == {(2, 1, 0), (1, 1, 1)}
        assert set(dominance_ideal((2, 2))) == {(2, 2)}


class TestOperatorIdentities:
    Z3 = (0.31 * cmath.exp(0.2j), 0.77 * cmath.exp(-0.4j),
          1.21 * cmath.exp(0.9j))
    Y2 = (1.9 * cmath.exp(0.5j), 2.6 * cmath.exp(-0.8j))
    Y3 = Y2 + (3.4 * cmath.exp(0.15j),)
    Z4 = Z3 + (0.55 * cmath.exp(1.3j),)

    def test_kernel_intertwiner(self, p):
        assert kernel_intertwiner_residual(self.Z3, self.Y2, p) < 1e-9
        assert kernel_intertwiner_residual(self.Z4, self.Y3, p) < 1e-9

    def test_duality_rejects_vanishing_function(self, p):
        with pytest.raises(DomainError):
            duality_check(lambda z: 0j, (1.0, 3.0), p)

    def test_conjugation_identity(self, p):
        assert conjugation_identity_residual(self.Y2, p) < 1e-9
        assert conjugation_identity_residual(self.Y3, p) < 1e-9

    def test_gauge_transform(self, p):
        assert gauge_transform_residual(self.Y2, p) < 1e-9
        assert gauge_transform_residual(self.Y3, p) < 1e-9

    @staticmethod
    def _near_one_point(n):
        return tuple((1.0 + 0.3 * l) * cmath.exp(0.2j * l) for l in range(n))

    @pytest.mark.parametrize("k, n", [(0.4, 5), (0.9, 2)])
    def test_underflow_near_one_is_typed(self, k, n):
        # at q = 0.999 the q-products of Delta and G are subnormal or 0:
        # a bare ZeroDivisionError and residuals 0.18 and 0.47 before
        p = QParams(q=0.999, k=k)
        y = self._near_one_point(n)
        for residual in (conjugation_identity_residual,
                         gauge_transform_residual):
            with pytest.raises(ConvergenceError):
                residual(y, p)

    @pytest.mark.parametrize("k, n", [(0.4, 5), (0.9, 2)])
    def test_identities_hold_at_q_099(self, k, n):
        p = QParams(q=0.99, k=k)
        y = self._near_one_point(n)
        assert conjugation_identity_residual(y, p) < 1e-13
        assert gauge_transform_residual(y, p) < 1e-13


class TestOrderMustBeAnInteger:
    """A non-integer order m is a DomainError, not a bare TypeError."""

    @pytest.mark.parametrize("m", [1.5, 2.0, "1"])
    def test_eigenvalue(self, p, m):
        with pytest.raises(DomainError):
            eigenvalue_c((0.3, -0.1, -0.2), m, p)

    @pytest.mark.parametrize("m", [1.5, 2.0, "1"])
    def test_numeric_action(self, p, m):
        with pytest.raises(DomainError):
            macdonald_apply_numeric(lambda z: 1.0, m, (1.0, 2.0, 3.0), p)

    @pytest.mark.parametrize("m", [1.5, 2.0, "1"])
    def test_polynomial_action(self, p, m):
        with pytest.raises(DomainError):
            macdonald_apply_poly(monomial_symmetric(3, (2, 1, 0)), m, p)
