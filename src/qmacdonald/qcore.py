"""Scalar q-special-function kernel.

Infinite q-products, the q-Gamma and Theta functions, double (two-base)
products, the bracket function, vertex contraction kernels and the basic
q-hypergeometric series.  Everything here is a pure function of its
arguments; all products/series are truncated deterministically with a
first-order analytic tail correction.  An infinite product's truncation
length is computed from logs before its loop starts, so the term cap is
checked without running to it, and (q;q)_inf is computed once per base q
and shared by every theta and q-Gamma value in that base.

Conventions: 0 < q < 1 throughout, complex powers use the principal
branch, and theta functions always carry their base explicitly.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, PoleError

DEFAULT_EPS = 1e-14
_POLE_TOL = 1e-10
_MAX_TERMS = 200_000


def _cpow(base: complex, expo: complex) -> complex:
    """Principal-branch power, with 0**0 = 1."""
    if base == 0:
        return 1.0 if expo == 0 else 0.0
    return cmath.exp(expo * cmath.log(base))


@dataclass(frozen=True)
class QParams:
    """Base parameters q, k with t = q**k derived.

    q and k are real in (0,1); eps is the truncation tolerance used by the
    infinite products and series built on top of these parameters.
    """

    q: float
    k: float
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie in (0,1), got {self.q}")
        if not (0.0 < self.k < 1.0):
            raise DomainError(f"k must lie in (0,1), got {self.k}")
        if not (self.eps > 0.0):
            raise DomainError(f"eps must be positive, got {self.eps}")

    @property
    def t(self) -> float:
        return self.q ** self.k


class XRMode(Enum):
    """Which reparametrization r(k) is in force."""

    A = "A"  # r = 1/(1-k)
    B = "B"  # r = 1/k


@dataclass(frozen=True)
class XRParams:
    """The (x, r) view of the base parameters, q = x**(2r)."""

    x: float
    r: float
    mode: XRMode = XRMode.A

    def __post_init__(self):
        if not (0.0 < self.x < 1.0):
            raise DomainError(f"x must lie in (0,1), got {self.x}")
        if not self.r > 1.0:
            raise DomainError(f"r must exceed 1, got {self.r}")

    @property
    def q(self) -> float:
        return self.x ** (2.0 * self.r)

    @classmethod
    def from_qparams(cls, p: QParams, mode: XRMode = XRMode.A) -> "XRParams":
        r = 1.0 / (1.0 - p.k) if mode is XRMode.A else 1.0 / p.k
        x = p.q ** (1.0 / (2.0 * r))
        xr = cls(x=x, r=r, mode=mode)
        assert abs(xr.q - p.q) < 1e-13 * max(1.0, p.q)
        return xr


def qpochhammer_inf(z: complex, q: float, eps: float = DEFAULT_EPS) -> complex:
    """(z; q)_inf = prod_{i>=0} (1 - z q^i).

    Keeps the factors with |z q^i| >= eps, whose number is known from
    logs up front, then corrects by the first-order tail
    exp(-z q^terms/(1-q)) ~ prod of the remaining factors.
    """
    if not abs(q) < 1.0:
        raise DomainError(f"|q| must be < 1 for (z;q)_inf, got q={q}")
    az = abs(z)
    if az < eps:
        terms = 0
    elif q == 0:
        terms = 1
    else:
        # NaN or inf z fail this comparison too
        terms = math.log(az / eps) / -math.log(abs(q)) + 1.0
    if not terms < _MAX_TERMS:
        raise ConvergenceError("(z;q)_inf did not truncate within the term cap")
    prod = complex(1.0)
    zq = complex(z)
    for _ in range(int(terms)):
        prod *= 1.0 - zq
        zq *= q
    return prod * cmath.exp(-zq / (1.0 - q))


@functools.lru_cache(maxsize=64)
def _qq_inf(q: float) -> complex:
    """(q;q)_inf, shared by every theta and q-Gamma value in base q."""
    return qpochhammer_inf(q, q)


def qgamma(a: complex, q: float) -> complex:
    """Gamma_q(a) = (q;q)_inf (1-q)^(1-a) / (q^a;q)_inf."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0,1), got {q}")
    a = complex(a)
    m = round(-a.real)
    if m >= 0 and abs(1.0 - _cpow(q, a + m)) < _POLE_TOL:
        raise PoleError(f"Gamma_q pole at a ~ {-m}", location=-m)
    qa = _cpow(q, a)
    return _qq_inf(q) * _cpow(1.0 - q, 1.0 - a) / qpochhammer_inf(qa, q)


def theta(z: complex, q: float) -> complex:
    """Theta_q(z) = (z;q)_inf (q/z;q)_inf (q;q)_inf."""
    if z == 0:
        raise DomainError("Theta_q is not defined at z = 0")
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0,1), got {q}")
    return qpochhammer_inf(z, q) * qpochhammer_inf(q / z, q) * _qq_inf(q)


def double_pochhammer(z: complex, p1: float, p2: float,
                      eps: float = DEFAULT_EPS) -> complex:
    """(z; p1, p2)_inf = prod_{i1,i2>=0} (1 - p1^i1 p2^i2 z).

    Row-peeled along i1: each row is a single-base Pochhammer in p2; the
    discarded rows are estimated by the first-order tail.
    """
    if not (abs(p1) < 1.0 and abs(p2) < 1.0):
        raise DomainError("both bases must have modulus < 1")
    prod = complex(1.0)
    zrow = complex(z)
    for _ in range(_MAX_TERMS):
        if abs(zrow) < eps:
            # remaining rows: exp(-sum_{rows} zrow p1^j / (1-p2))
            return prod * cmath.exp(-zrow / ((1.0 - p1) * (1.0 - p2)))
        prod *= qpochhammer_inf(zrow, p2, eps)
        zrow *= p1
    raise ConvergenceError("(z;p1,p2)_inf did not truncate within the cap")


def g1(z: complex, x: float, r: float, n: int) -> complex:
    """The vertex contraction ratio g_1(z) of four double products.

    g_1(z) = {x^2 z}{x^(2r+2n-2) z} / ({x^(2r) z}{x^(2n) z}) with
    {w} = (w; x^(2r), x^(2n))_inf, taken as two ratios of double products
    so that their product does not underflow.  Near q = 1 the double
    products themselves leave the normal float range; ConvergenceError is
    raised there.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    p1 = x ** (2.0 * r)
    p2 = float(x) ** (2 * n)
    num1, num2, den1, den2 = (
        double_pochhammer(w * z, p1, p2)
        for w in (x ** 2, x ** (2.0 * r + 2 * n - 2), p1, p2))
    if min(abs(num1), abs(num2), abs(den1), abs(den2)) < sys.float_info.min:
        raise ConvergenceError("double products in g_1 underflow near q = 1")
    return (num1 / den1) * (num2 / den2)


def kernel_s(z: complex, p: QParams) -> complex:
    """s(z) = (q^((1+k)/2) z; q)_inf / (q^((1-k)/2) z; q)_inf."""
    q, k = p.q, p.k
    return (qpochhammer_inf(q ** ((1.0 + k) / 2.0) * z, q, p.eps)
            / qpochhammer_inf(q ** ((1.0 - k) / 2.0) * z, q, p.eps))


def kernel_t(z: complex, p: QParams) -> complex:
    """t(z) = (1-z) (q^(1-k) z; q)_inf / (q^k z; q)_inf."""
    q, k = p.q, p.k
    return ((1.0 - z) * qpochhammer_inf(q ** (1.0 - k) * z, q, p.eps)
            / qpochhammer_inf(q ** k * z, q, p.eps))


def bracket_v(v: complex, xr: XRParams) -> complex:
    """[v] = x^(v^2/r - v) Theta_{x^(2r)}(x^(2v)); antiperiodic, [v+r]=-[v]."""
    x, r = xr.x, xr.r
    base = x ** (2.0 * r)
    return _cpow(x, v * v / r - v) * theta(_cpow(x, 2.0 * v), base)


def _is_nonpositive_qinteger(a: complex, q: float) -> int | None:
    """Return m >= 0 if q^a ~ q^(-m) (i.e. a is a nonpositive integer), else None."""
    m = round(-complex(a).real)
    if m >= 0 and abs(1.0 - _cpow(q, complex(a) + m)) < _POLE_TOL:
        return m
    return None


def fq(a: complex, b: complex, c: complex, z: complex, q: float,
       eps: float = DEFAULT_EPS) -> complex:
    """Basic q-hypergeometric series

        F_q(a,b,c,z) = sum_n prod_{j<n} [(1-q^(a+j))(1-q^(b+j))]
                                        / [(1-q^(1+j))(1-q^(c+j))] z^n.

    Terminating cases (q^a or q^b a nonpositive q-integer q^(-m)) are
    summed exactly to their last term z^m; otherwise |z| < 1 is required.
    A pole (q^c = q^(-j)) before the last term raises PoleError.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0,1), got {q}")
    ends = [m for m in (_is_nonpositive_qinteger(a, q),
                        _is_nonpositive_qinteger(b, q)) if m is not None]
    last = min(ends) if ends else None
    if last is None and abs(z) >= 1.0:
        raise DomainError(f"series diverges for |z| >= 1 (z={z})")
    pole = _is_nonpositive_qinteger(c, q)
    if pole is not None and (last is None or pole < last):
        raise PoleError("F_q pole: c + j hits a nonpositive integer",
                        location=pole)
    qa = _cpow(q, a)
    qb = _cpow(q, b)
    qc = _cpow(q, c)
    qj = 1.0  # q^j
    term = complex(1.0)
    total = complex(1.0)
    for _ in range(_MAX_TERMS if last is None else last):
        term *= ((1.0 - qa * qj) * (1.0 - qb * qj)
                 / ((1.0 - q * qj) * (1.0 - qc * qj)) * z)
        total += term
        qj *= q
        if last is None and abs(term) < eps * max(1.0, abs(total)):
            return total
    if last is not None:
        return total
    raise ConvergenceError("F_q did not converge within the term cap")


def qbinomial_series(a: complex, z: complex, q: float,
                     eps: float = DEFAULT_EPS) -> complex:
    """(q^a z; q)_inf / (z; q)_inf summed as the q-binomial series."""
    if abs(z) >= 1.0:
        raise DomainError(f"q-binomial series requires |z| < 1, got |z|={abs(z)}")
    qa = _cpow(q, a)
    qj = 1.0
    term = complex(1.0)
    total = complex(1.0)
    for j in range(_MAX_TERMS):
        term *= (1.0 - qa * qj) / (1.0 - q * qj) * z
        total += term
        qj *= q
        if abs(term) < eps * max(1.0, abs(total)):
            return total
    raise ConvergenceError("q-binomial series did not converge")
