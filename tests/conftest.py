import cmath
import math

import numpy as np
import pytest

from qmacdonald import QParams


@pytest.fixture
def p():
    return QParams(q=0.5, k=0.4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def theta_exponent(z, q):
    """|c|^2 / (2 eps), eps = -log q: the size of the Gaussian exponent
    of Theta_q(z), c = eps/2 + log z + i pi moved by a multiple of 2 pi i
    to |Im c| <= pi.  Error bounds on theta values are stated in units of
    float eps times 1 + this exponent."""
    eps = -math.log(q)
    return ((eps / 2 + math.log(abs(z))) ** 2
            + (math.pi - abs(cmath.phase(z))) ** 2) / (2 * eps)


def _mp_triple_product(mp, z, q):
    """sum_n (-1)^n q^(n(n-1)/2) z^n, Jacobi's triple product sum, at the
    working precision; the terms n >= 0 and n < 0 run until they fall
    below its last digit."""
    tol = mp.mpf(10) ** -(mp.mp.dps + 5)
    total = mp.mpc(1)
    for step in (-z, -q / z):  # t_(n+1) = t_n step q^n, from t_0 = 1
        term, qn, top = mp.mpc(1), mp.mpf(1), mp.mpf(1)
        while True:
            term *= step * qn
            qn *= q
            total += term
            top = max(top, abs(term))
            if qn < 0.5 and abs(term) < tol * top:
                break
    return total


def _mp_dual_sum(mp, z, q):
    """sqrt(2 pi / eps) sum_m exp((b - 2 pi i m)^2 / (2 eps)), b = eps/2 +
    log z + i pi, with every term above the working precision."""
    eps = -mp.log(q)
    b = eps / 2 + mp.log(z) + 1j * mp.pi
    width = 5 + int(math.sqrt(mp.mp.dps * math.log(10) * float(eps))
                    / math.pi)
    return mp.sqrt(2 * mp.pi / eps) * mp.fsum(
        mp.exp((b - 2j * mp.pi * m) ** 2 / (2 * eps))
        for m in range(-width, width + 2))


def mp_theta(mp, z, q):
    """Theta_q(z) to 150 digits, as an mpmath number.

    The triple product sum for q <= 0.99, at 150 digits more than it
    cancels: its largest term exceeds |Theta| by about
    (pi - |arg z|)^2 / (2 eps) in the exponent.  Above q = 0.99 that is
    thousands of digits, and the reference is the Poisson dual of the
    same sum, every term kept at 150 digits; the two agree to 1e-150
    where both run (TestThetaReference)."""
    z, q = mp.mpc(z), mp.mpf(q)
    eps = -float(mp.log(q))
    y = math.pi - abs(float(mp.arg(z)))
    if q <= 0.99:
        with mp.workdps(160 + int(y * y / (2 * eps * math.log(10)))):
            return +_mp_triple_product(mp, z, q)
    with mp.workdps(160):
        return +_mp_dual_sum(mp, z, q)
