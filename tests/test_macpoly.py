"""Tests for the Macdonald polynomial constructions."""

import numpy as np
import pytest

from qmacdonald import (DomainError, LaurentPoly, QParams, as_partition,
                        degeneration_check, eigenvalue_c, macdonald_a1,
                        macdonald_apply_poly, macdonald_poly,
                        monomial_symmetric)

# c_mu of P_lam = sum_mu c_mu m_mu at q = 0.5, k = 0.4, computed with one
# D^1 image per basis element, before the matrix was built in one pass
GOLDEN_MACPOLY = {
    ((5, 2, 2), 3): {
        (5, 2, 2): 1.0,
        (4, 3, 2): 0.5228001010749849,
        (3, 3, 3): 0.3057422006252303,
    },
    ((8, 4, 2, 0), 4): {
        (8, 4, 2, 0): 1.0,
        (8, 4, 1, 1): 0.5848166440606286,
        (8, 3, 3, 0): 0.5848166440606263,
        (8, 3, 2, 1): 0.8335944428689935,
        (8, 2, 2, 2): 1.2964225383197217,
        (7, 5, 2, 0): 0.5015264673396264,
        (7, 5, 1, 1): 0.293301025537143,
        (7, 4, 3, 0): 0.7797133799351836,
        (7, 4, 2, 1): 1.1871631438659553,
        (7, 3, 3, 1): 1.1037596341394729,
        (7, 3, 2, 2): 1.4560491363806731,
        (6, 6, 2, 0): 0.4483423830012565,
        (6, 6, 1, 1): 0.26219808781694026,
        (6, 5, 3, 0): 0.5040533407722702,
        (6, 5, 2, 1): 0.7580842787816083,
        (6, 4, 4, 0): 0.9784526100774443,
        (6, 4, 3, 1): 1.1815345280321663,
        (6, 4, 2, 2): 1.9205992991097107,
        (6, 3, 3, 2): 1.6597628295816607,
        (5, 5, 4, 0): 0.7713840511571131,
        (5, 5, 3, 1): 0.9273639381462001,
        (5, 5, 2, 2): 1.4504313406093814,
        (5, 4, 4, 1): 1.330603799224071,
        (5, 4, 3, 2): 1.9410330875565882,
        (5, 3, 3, 3): 1.9184583567972164,
        (4, 4, 4, 2): 2.5874088296182776,
        (4, 4, 3, 3): 2.2350056144476755,
    },
    ((10, 5, 2, 1, 0), 5): {
        (10, 5, 2, 1, 0): 1.0,
        (10, 5, 1, 1, 1): 1.3641103249521036,
        (10, 4, 3, 1, 0): 0.5228001010749861,
        (10, 4, 2, 2, 0): 1.0091283319924444,
        (10, 4, 2, 1, 1): 1.68758112430328,
        (10, 3, 3, 2, 0): 0.7451964020064352,
        (10, 3, 3, 1, 1): 1.1984190462064928,
        (10, 3, 2, 2, 1): 1.772441702951636,
        (10, 2, 2, 2, 2): 1.8813427924880963,
        (9, 6, 2, 1, 0): 0.4924762778476512,
        (9, 6, 1, 1, 1): 0.6717919754059617,
        (9, 5, 3, 1, 0): 0.7423342869186091,
        (9, 5, 2, 2, 0): 1.4662034376489903,
        (9, 5, 2, 1, 1): 2.46121698184779,
        (9, 4, 4, 1, 0): 0.5104836370832574,
        (9, 4, 3, 2, 0): 1.109194846792793,
        (9, 4, 3, 1, 1): 1.9143629145095766,
        (9, 4, 2, 2, 1): 2.996933928779082,
        (9, 3, 3, 3, 0): 1.0876645512846081,
        (9, 3, 3, 2, 1): 2.6706476829556847,
        (9, 3, 2, 2, 2): 3.500676110371592,
        (8, 7, 2, 1, 0): 0.4223373092847631,
        (8, 7, 1, 1, 1): 0.5761146842078355,
        (8, 6, 3, 1, 0): 0.45924050215717166,
        (8, 6, 2, 2, 0): 0.9031550787429476,
        (8, 6, 2, 1, 1): 1.5150055278665422,
        (8, 5, 4, 1, 0): 0.7466948778937265,
        (8, 5, 3, 2, 0): 1.3162419618273342,
        (8, 5, 3, 1, 1): 2.1750225598547637,
        (8, 5, 2, 2, 1): 3.3865084460561654,
        (8, 4, 4, 2, 0): 1.2502081767589521,
        (8, 4, 4, 1, 1): 2.159577084958251,
        (8, 4, 3, 3, 0): 1.3221623036960064,
        (8, 4, 3, 2, 1): 3.2698696859632626,
        (8, 4, 2, 2, 2): 4.459964341782024,
        (8, 3, 3, 3, 1): 3.253109905820053,
        (8, 3, 3, 2, 2): 4.454596583972761,
        (7, 7, 3, 1, 0): 0.424589245560951,
        (7, 7, 2, 2, 0): 0.8344977256746595,
        (7, 7, 2, 1, 1): 1.3996961696204941,
        (7, 6, 4, 1, 0): 0.5215987157096069,
        (7, 6, 3, 2, 0): 0.9380881522343139,
        (7, 6, 3, 1, 1): 1.560606705757418,
        (7, 6, 2, 2, 1): 2.4241297174975123,
        (7, 5, 5, 1, 0): 0.9803287036227978,
        (7, 5, 4, 2, 0): 1.4956575900562732,
        (7, 5, 4, 1, 1): 2.4929282829877444,
        (7, 5, 3, 3, 0): 1.3188910631640656,
        (7, 5, 3, 2, 1): 3.4346999709970856,
        (7, 5, 2, 2, 2): 4.3680511929716275,
        (7, 4, 4, 3, 0): 1.400977445890114,
        (7, 4, 4, 2, 1): 3.647965611872103,
        (7, 4, 3, 3, 1): 3.578371747418506,
        (7, 4, 3, 2, 2): 4.834770772177775,
        (7, 3, 3, 3, 2): 4.9663277400976185,
        (6, 6, 5, 1, 0): 0.7963065034805168,
        (6, 6, 4, 2, 0): 1.2049112946414824,
        (6, 6, 4, 1, 1): 2.02547291080792,
        (6, 6, 3, 3, 0): 1.0980427769832286,
        (6, 6, 3, 2, 1): 2.811748472892135,
        (6, 6, 2, 2, 2): 3.6124256872095932,
        (6, 5, 5, 2, 0): 1.7907292557403687,
        (6, 5, 5, 1, 1): 2.9120280941594596,
        (6, 5, 4, 3, 0): 1.4617476546791492,
        (6, 5, 4, 2, 1): 3.9706011276314537,
        (6, 5, 3, 3, 1): 3.5722742513295587,
        (6, 5, 3, 2, 2): 4.7898449469830995,
        (6, 4, 4, 4, 0): 1.3597924453042423,
        (6, 4, 4, 3, 1): 3.7728677066920184,
        (6, 4, 4, 2, 2): 5.232155091876027,
        (6, 4, 3, 3, 2): 5.075681384404313,
        (6, 3, 3, 3, 3): 5.130200958534014,
        (5, 5, 5, 3, 0): 1.7188512755775085,
        (5, 5, 5, 2, 1): 4.869084026578067,
        (5, 5, 4, 4, 0): 1.6157404050763422,
        (5, 5, 4, 3, 1): 4.234424581181103,
        (5, 5, 4, 2, 2): 5.804388667934624,
        (5, 5, 3, 3, 2): 5.413319535957629,
        (5, 4, 4, 4, 1): 4.142002652438944,
        (5, 4, 4, 3, 2): 5.554043211190258,
        (5, 4, 3, 3, 3): 5.438231692848974,
        (4, 4, 4, 4, 2): 5.531173347148157,
        (4, 4, 4, 3, 3): 5.479814888952487,
    },
}


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

    def test_rejects_non_integer_parts(self):
        with pytest.raises(DomainError):
            as_partition((1.5,), 2)
        assert as_partition((np.int64(2), 1), 3) == (2, 1, 0)


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

    @pytest.mark.parametrize("lam, n", list(GOLDEN_MACPOLY))
    def test_golden_coefficients(self, lam, n):
        golden = GOLDEN_MACPOLY[(lam, n)]
        P = macdonald_poly(lam, n, QParams(q=0.5, k=0.4))
        ref = LaurentPoly(n)
        for mu, c in golden.items():
            ref = ref + monomial_symmetric(n, mu).scale(c)
        scale = max(abs(c) for c in golden.values())
        assert P.max_abs_diff(ref) < 1e-13 * scale

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

    def test_rejects_non_integer_degree(self, p):
        with pytest.raises(DomainError):
            macdonald_a1(2.5, p)
        with pytest.raises(DomainError):
            degeneration_check(2.5, p)
        assert macdonald_a1(np.int64(3), p).terms == macdonald_a1(3, p).terms
