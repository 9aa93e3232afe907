"""Acceptance gate: the ten headline verification criteria.

Each test prints a single PASS/FAIL line with its worst observed
residual, then asserts the stated tolerance.
"""

import cmath
import itertools
import time

import numpy as np

from qmacdonald import (QParams, SpectralData, XRMode, duality_check,
                        eigen_residual, evaluate, fq, fq_connection,
                        integral_rep_fq, leading_coefficient, qgamma,
                        qpochhammer_inf, solve_coefficients, theta,
                        verify_braid_relations)
from qmacdonald.hcseries import (integral_rep_fq_reference,
                                 one_point_integral_closed_form, residue_integral_prop6)
from qmacdonald.macpoly import degeneration_check, macdonald_a1
from qmacdonald.operators import (conjugation_identity_residual,
                                  gauge_transform_residual,
                                  kernel_intertwiner_residual)
from qmacdonald.qcore import XRParams, bracket_v

from test_macpoly import golden_a1

LAM2 = (0.27, -0.27)
LAM3 = (0.31, -0.11, -0.20)


def report(num, name, worst, tol):
    status = "PASS" if worst < tol else "FAIL"
    print(f"[{status}] criterion {num} ({name}): "
          f"max residual {worst:.3e} < {tol:.0e}")
    assert worst < tol


def test_criterion_1_golden_polynomials():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        p = QParams(q=rng.uniform(0.2, 0.8), k=rng.uniform(0.1, 0.9))
        for m in range(5):
            worst = max(worst,
                        macdonald_a1(m, p).max_abs_diff(golden_a1(m, p)))
    assert time.time() - t0 < 1.0
    report(1, "two-variable golden polynomials", worst, 1e-12)


def test_criterion_2_eigen_equations():
    t0 = time.time()
    p = QParams(q=0.5, k=0.4)
    worst2 = 0.0
    z2 = (1.0, p.q ** -3.0)
    for w in itertools.permutations(range(2)):
        sol = solve_coefficients(SpectralData(n=2, lam=LAM2, w=w, k=p.k),
                                 p, N=24)
        for m in (1, 2):
            worst2 = max(worst2, eigen_residual(sol, m, z2))
    worst3 = 0.0
    z3 = (1.0, p.q ** -3.0, p.q ** -6.0)
    for w in itertools.permutations(range(3)):
        sol = solve_coefficients(SpectralData(n=3, lam=LAM3, w=w, k=p.k),
                                 p, N=16)
        for m in (1, 2, 3):
            worst3 = max(worst3, eigen_residual(sol, m, z3))
    assert time.time() - t0 < 60.0
    report(2, "eigen equations over the full Weyl basis",
           max(worst2 / 1e-8, worst3 / 1e-6) * 1e-8, 1e-8)


def test_criterion_3_hypergeometric_equivalence():
    t0 = time.time()
    p = QParams(q=0.5, k=0.4)
    q, k = p.q, p.k
    d = LAM2[0] - LAM2[1]
    sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=30)
    term, worst = 1.0, 0.0
    for j in range(31):
        worst = max(worst, abs(sol.coeffs[j] - term))
        term *= ((1 - q ** (k + j)) * (1 - q ** (d + k + j))
                 / ((1 - q ** (1 + j)) * (1 - q ** (d + 1 + j)))
                 * q ** (1 - k))
    assert time.time() - t0 < 1.0
    report(3, "series coefficients equal the hypergeometric ones",
           worst, 1e-12)


def test_criterion_4_leading_coefficients():
    rng = np.random.default_rng(41)
    p = QParams(q=0.5, k=0.4)
    q, k = p.q, p.k
    worst = 0.0
    for _ in range(50):
        for n in (2, 3):
            lam = rng.uniform(-0.45, 0.45, n)
            lam -= lam.mean()
            s = SpectralData.make(tuple(lam), p)
            for mode, gamma_arg, expo in (
                    ("A", lambda dd: (1 - k, dd + 1, -dd + 1 - k),
                     lambda dd: dd * (dd + k) / 2),
                    ("B", lambda dd: (k, dd + 1, -dd + k),
                     lambda dd: dd * (dd + 1 - k) / 2)):
                ref = complex(-1.0) ** (n * (n - 1) // 2)
                for i in range(n):
                    for j in range(i + 1, n):
                        dd = (s.eta[i] - s.eta[j]).real
                        g0, g1_, g2 = gamma_arg(dd)
                        ref *= (q ** expo(dd) * qgamma(g0, q)
                                / (qgamma(g1_, q) * qgamma(g2, q)))
                got = leading_coefficient(s, p, mode)
                worst = max(worst, abs(got - ref) / abs(ref))
    report(4, "leading coefficient factor recomputation", worst, 1e-12)


def test_criterion_5_connection_formula():
    rng = np.random.default_rng(51)
    worst9 = 0.0
    for _ in range(100):
        q = rng.uniform(0.3, 0.7)
        p = QParams(q=q, k=0.4)
        a, b = rng.uniform(0.05, 0.6, 2)
        u = rng.uniform(0.4, 1.0)
        c = a + b + u
        z = q ** ((1 + u) / 2) * cmath.exp(1j * rng.uniform(0.1, 2.0))
        lhs, rhs = fq_connection(a, b, c, z, p)
        worst9 = max(worst9, abs(lhs - rhs) / abs(lhs))
    # dual-zone continuation of the two series solutions, n=2
    from qmacdonald import braid_matrix
    p = QParams(q=0.5, k=0.3)
    s = SpectralData.make(LAM2, p)
    ss = s.swap(0)
    sol = solve_coefficients(s, p, N=160)
    sol_s = solve_coefficients(ss, p, N=160)

    def phi(so, z):
        return (leading_coefficient(so.spectral, p, "A")
                * evaluate(so, z, max_ratio=1.2).value)

    worst21 = 0.0
    for ratio in (1.05 * cmath.exp(0.25j), 0.95 * cmath.exp(-0.2j)):
        z2 = 1.3 * cmath.exp(0.07j)
        z = (ratio * z2, z2)
        zs = (z[1], z[0])
        M = braid_matrix(s, 1, z, p).as_array()
        for row, so in ((0, sol), (1, sol_s)):
            lhs = phi(so, z)
            rhs = M[row, 0] * phi(sol, zs) + M[row, 1] * phi(sol_s, zs)
            worst21 = max(worst21, abs(lhs - rhs) / abs(lhs))
    report(5, "two-term connection formula and dual-zone braiding",
           max(worst9 / 1e-9, worst21 / 1e-8) * 1e-9, 1e-9)


def test_criterion_6_braid_properties():
    t0 = time.time()
    p = QParams(q=0.5, k=0.4)
    s2 = SpectralData.make(LAM2, p)
    rep2 = verify_braid_relations(s2, p, (1.0 * cmath.exp(0.2j), 3.0))
    s3 = SpectralData.make(LAM3, p)
    z3 = (1.0 * cmath.exp(0.1j), 2.0 * cmath.exp(0.05j),
          4.0 * cmath.exp(0.15j))
    rep3 = verify_braid_relations(s3, p, z3)
    assert time.time() - t0 < 120.0
    worst = max(rep2["double_crossing"] / 1e-8,
                rep3["double_crossing"] / 1e-8,
                rep3["braid_relation"] / 1e-6) * 1e-8
    report(6, "double crossing and braid relation", worst, 1e-8)


def test_criterion_7_residue_oracles():
    rng = np.random.default_rng(71)
    worst = 0.0
    for _ in range(20):
        p = QParams(q=rng.uniform(0.3, 0.7), k=rng.uniform(0.15, 0.85))
        # the residue series converges only for lam12 < k
        lam12 = rng.uniform(-0.45, p.k - 0.1)
        for n_pow in range(9):
            a = residue_integral_prop6(n_pow, lam12, p)
            b = one_point_integral_closed_form(n_pow, lam12, p)
            worst = max(worst, abs(a - b) / abs(b))
    # two-point contour integral against the prefactored series
    p = QParams(q=0.5, k=0.4)
    for lam, z1 in (((0.15, -0.15), 0.2), ((-0.1, 0.1), 0.35 + 0.1j)):
        a = integral_rep_fq(lam, z1, 1.0, p)
        b = integral_rep_fq_reference(lam, z1, 1.0, p)
        worst = max(worst, abs(a - b) / abs(b))
    report(7, "contour integrals by residue summation", worst, 1e-10)


def test_criterion_8_identity_suite():
    rng = np.random.default_rng(81)
    q = 0.5
    worst = 0.0
    # q-Gauss summation
    for _ in range(100):
        a, b = rng.uniform(0.05, 0.8, 2)
        c = a + b + rng.uniform(0.3, 1.2)
        lhs = fq(a, b, c, q ** (c - a - b), q)
        rhs = (qgamma(c, q) * qgamma(c - a - b, q)
               / (qgamma(c - a, q) * qgamma(c - b, q)))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    # Gamma_q functional equation, Theta shifts, bracket antiperiodicity
    for a in rng.uniform(0.1, 3.0, 30):
        lhs = qgamma(a + 1.0, q)
        rhs = (1 - q ** a) / (1 - q) * qgamma(a, q)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    for _ in range(30):
        z = rng.uniform(0.3, 1.8) * cmath.exp(2j * np.pi * rng.uniform())
        worst = max(worst, abs(theta(q * z, q) + theta(z, q) / z)
                    / max(1.0, abs(theta(z, q))))
        worst = max(worst, abs(theta(q / z, q) - theta(z, q))
                    / abs(theta(z, q)))
    xr = XRParams(x=0.8, r=2.0)
    for v in rng.uniform(-1.5, 1.5, 20):
        worst = max(worst, abs(bracket_v(v + xr.r, xr) + bracket_v(v, xr)))
    # pointwise operator identities
    p = QParams(q=0.5, k=0.4)
    z3 = (0.31 * cmath.exp(0.2j), 0.77 * cmath.exp(-0.4j),
          1.21 * cmath.exp(0.9j))
    y2 = (1.9 * cmath.exp(0.5j), 2.6 * cmath.exp(-0.8j))
    y3 = y2 + (3.4 * cmath.exp(0.15j),)
    z4 = z3 + (0.55 * cmath.exp(1.3j),)
    worst = max(worst,
                kernel_intertwiner_residual(z3, y2, p),
                kernel_intertwiner_residual(z4, y3, p),
                conjugation_identity_residual(y2, p),
                conjugation_identity_residual(y3, p),
                gauge_transform_residual(y2, p),
                gauge_transform_residual(y3, p))
    report(8, "identity suite", worst, 1e-9)


def test_criterion_9_duality():
    p = QParams(q=0.5, k=0.4)
    worst = 0.0
    for lam, N in ((LAM2, 24), (LAM3, 16)):
        n = len(lam)
        sol = solve_coefficients(SpectralData.make(lam, p), p, N=N)
        z = tuple(p.q ** (-3.0 * i) for i in range(n))
        worst = max(worst,
                    duality_check(lambda zz: evaluate(sol, zz).value, z, p))
    report(9, "first-order duality of the top operator", worst, 1e-7)


def test_criterion_10_degeneration():
    p = QParams(q=0.5, k=0.4)
    worst = max(degeneration_check(m, p) for m in range(5))
    report(10, "terminating series reproduce the polynomials", worst, 1e-10)
