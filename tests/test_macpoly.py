"""Tests for the Macdonald polynomial constructions."""

import numpy as np
import pytest

from qmacdonald import (DomainError, LaurentPoly, QParams, as_partition,
                        degeneration_check, eigenvalue_c, macdonald_a1,
                        macdonald_apply_poly, macdonald_poly)


def golden_a1(m, p):
    """Closed-form two-variable polynomials for small degree."""
    q, t = p.q, p.t
    P = LaurentPoly(2)
    if m == 0:
        P[(0, 0)] = 1.0
    elif m == 1:
        P[(1, 0)] = P[(0, 1)] = 1.0
    elif m == 2:
        P[(2, 0)] = P[(0, 2)] = 1.0
        P[(1, 1)] = (1 - t) * (1 + q) / (1 - t * q)
    elif m == 3:
        P[(3, 0)] = P[(0, 3)] = 1.0
        P[(2, 1)] = P[(1, 2)] = (1 - t) * (1 + q + q ** 2) / (1 - q ** 2 * t)
    elif m == 4:
        P[(4, 0)] = P[(0, 4)] = 1.0
        P[(3, 1)] = P[(1, 3)] = ((1 - t) * (1 + q + q ** 2 + q ** 3)
                                 / (1 - q ** 3 * t))
        P[(2, 2)] = ((1 + q ** 2) * (1 + q + q ** 2) * (1 - t) * (1 - q * t)
                     / ((1 - q ** 2 * t) * (1 - q ** 3 * t)))
    else:
        raise ValueError(m)
    return P


class TestPartition:
    def test_padding(self):
        assert as_partition((2, 1), 4) == (2, 1, 0, 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            as_partition((1, 2), 2)
        with pytest.raises(DomainError):
            as_partition((2, -1), 2)
        with pytest.raises(DomainError):
            as_partition((2, 1, 1), 2)


class TestTwoVariablePolynomials:
    def test_golden_data(self, p):
        for m in range(5):
            got = macdonald_a1(m, p)
            assert got.max_abs_diff(golden_a1(m, p)) < 1e-12

    def test_golden_data_random_parameters(self, rng):
        for _ in range(10):
            p = QParams(q=rng.uniform(0.2, 0.8), k=rng.uniform(0.1, 0.9))
            for m in range(5):
                assert macdonald_a1(m, p).max_abs_diff(golden_a1(m, p)) < 1e-12

    def test_symmetry(self, p):
        for m in range(7):
            assert macdonald_a1(m, p).is_symmetric(tol=1e-12)


class TestTriangularAlgorithm:
    def test_matches_two_variable_route(self):
        for q in (0.32, 0.5):
            p = QParams(q=q, k=0.4)
            for m in (1, 2, 3, 4, 10, 20, 30, 34, 40):
                ref = macdonald_a1(m, p)
                scale = max(abs(c) for c in ref.terms.values())
                P = macdonald_poly((m, 0), 2, p)
                assert P.max_abs_diff(ref) < 1e-12 * scale

    def test_elementary_case(self, p):
        P = macdonald_poly((1, 1), 3, p)
        assert set(P.terms) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
        assert all(abs(c - 1.0) < 1e-12 for c in P.terms.values())

    def test_eigen_equations_all_orders(self, p):
        for lam, n in (((2, 0), 2), ((2, 1, 0), 3), ((3, 1), 2)):
            P = macdonald_poly(lam, n, p)
            gamma = tuple(reversed(as_partition(lam, n)))
            for m in range(1, n + 1):
                img = macdonald_apply_poly(P, m, p)
                e = eigenvalue_c(gamma, m, p)
                assert img.max_abs_diff(P.scale(e)) < 1e-10 * max(1.0, abs(e))

    def test_monic_and_triangular(self, p):
        P = macdonald_poly((3, 1, 0), 3, p)
        assert abs(P[(3, 1, 0)] - 1.0) < 1e-12
        assert P[(4, 0, 0)] == 0.0  # not below (3,1) in dominance
        assert P.is_symmetric()


class TestDegeneration:
    def test_terminating_series_matches(self, p):
        for m in range(5):
            assert degeneration_check(m, p) < 1e-10

    def test_rejects_negative(self, p):
        with pytest.raises(DomainError):
            degeneration_check(-1, p)
