"""Scalar q-special-function kernel: infinite q-products, the q-Gamma
and Theta functions, double (two-base) products, the bracket function,
vertex contraction kernels and the basic q-hypergeometric series, each a
pure function of its arguments, truncated deterministically.

Every (z;q)_inf is the factors 1 - z q^i with |z q^i| >= _cut(q) times
the exp of the log series of the rest, -log (w;p1,p2)_inf = sum_m w^m /
(m (1 - p1^m)(1 - p2^m)) with p2 = 0 (Gasper and Rahman, Basic
Hypergeometric Series, ch. 1); a double product is its rows, each such a
product in base p2, times its corner as that series in both bases.  A
product leaving the float range, underflow included, is a
ConvergenceError; an exact zero factor gives 0.

Theta takes no q-product.  _log_theta_of(q) gives log Theta from
Jacobi's imaginary transformation, a Gaussian sum of a few terms at any
q, and theta is its exp.  A quotient of thetas with arguments q^a apart
(braid matrices, residue bases, the connection of F_q) is the exp of a
difference of logs whose quadratic parts cancel in closed form
(_log_theta_ratio), and a bracket [v] is one exp of its power and log
theta, so they stay finite where the thetas leave the float range.

Conventions: 0 < q < 1 throughout, complex powers use the principal
branch, and theta functions always carry their base explicitly.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError, PoleError, ResonanceError

DEFAULT_EPS = 1e-14
_POLE_TOL = 1e-10
_MAX_TERMS = 200_000
# A double product's corner series, |w| < _RHO, ends within 50-70 terms
# at 1/2; a smaller _RHO adds rows of hundreds of factors near q = 1.
_RHO = 0.5


def _cpow(base: complex, expo: complex) -> complex:
    """Principal-branch power, with 0**0 = 1; DomainError when it
    leaves the floating-point range."""
    if base == 0:
        return 1.0 if expo == 0 else 0.0
    try:
        log = expo * cmath.log(base)
        # a real part of +inf is a power past the float range; -inf is one
        # that underflows to 0, and NaN, from a NaN or infinite exponent,
        # is left to the callers' own checks.  exp raises ValueError for
        # an infinite imaginary part
        if log.real != math.inf:
            return cmath.exp(log)
    except (OverflowError, ValueError):
        pass
    raise DomainError(f"{base:.6g}**{expo:.6g} overflows the "
                      "floating-point range")


@dataclass(frozen=True)
class QParams:
    """Base parameters q, k, real in (0,1), with t = q**k derived."""

    q: float
    k: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie in (0,1), got {self.q}")
        if not (0.0 < self.k < 1.0):
            raise DomainError(f"k must lie in (0,1), got {self.k}")

    @property
    def t(self) -> float:
        return self.q ** self.k


class XRMode(Enum):
    """Which reparametrization r(k) is in force."""

    A = "A"  # r = 1/(1-k)
    B = "B"  # r = 1/k


def _xr_mode(mode) -> XRMode:
    """mode as an XRMode, from a member or its value "A" or "B"."""
    try:
        return XRMode(mode)
    except ValueError:
        raise DomainError(f"mode must be 'A' or 'B', got {mode!r}") from None


@dataclass(frozen=True)
class XRParams:
    """The (x, r) view of the base parameters, q = x**(2r).  from_qparams
    takes r from k by an XRMode, given as a member or as "A" or "B"."""

    x: float
    r: float

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
        mode = _xr_mode(mode)
        r = 1.0 / (1.0 - p.k) if mode is XRMode.A else 1.0 / p.k
        x = p.q ** (1.0 / (2.0 * r))
        xr = cls(x=x, r=r)
        assert abs(xr.q - p.q) < 1e-13 * max(1.0, p.q)
        return xr


def qpochhammer_inf(z: complex, q: float) -> complex:
    """(z; q)_inf = prod_{i>=0} (1 - z q^i), as _qpochhammer computes it;
    DomainError for |q| >= 1."""
    if not abs(q) < 1.0:
        raise DomainError(f"|q| must be < 1 for (z;q)_inf, got q={q}")
    return _qpochhammer(z, q)


def _qpochhammer(z: complex, q: float) -> complex:
    """(z; q)_inf, |q| < 1: _factors above _cut(q), then the _log_series.
    ConvergenceError at the term cap of the factors, for a |z| that is
    NaN, inf or past the float range, and from _settle."""
    w, cut = complex(z), _cut(q)
    rows = _terms(_modulus(z), q, cut)
    return _settle(*_factors(w, q, rows),
                   _log_series(w * q ** rows, q, 0.0, cut), z, "q")


def _cut(q: float) -> float:
    """exp(-sqrt(eps log(1 / DEFAULT_EPS))), eps = -log |q|, at most 1/2,
    the |w| below which (w; q)_inf is its log series: it makes the factors
    log(|z| / cut) / eps plus the terms log(DEFAULT_EPS) / log(cut) least."""
    if q == 0:
        return 0.0
    return min(0.5, math.exp(-math.sqrt(math.log(abs(q))
                                        * math.log(DEFAULT_EPS))))


def _factors(z: complex, q: float, rows: int) -> tuple:
    """prod (1 - z q^i) over i < rows, each z q^i the one before times q,
    and whether a factor is exactly 0."""
    def points():
        return itertools.islice(itertools.accumulate(
            itertools.repeat(q), operator.mul, initial=z), rows)
    prod = math.prod(map((1 + 0j).__sub__, points()))
    return prod, prod == 0 and 1.0 in points()


def _log_series(w: complex, p1: float, p2: float, radius: float) -> complex:
    """-log (w; p1, p2)_inf = sum_{m>=1} w^m / (m (1 - p1^m)(1 - p2^m)),
    |w| <= radius < 1, by Horner's rule over the m with |w|^m >= the
    tolerance of _series; p2 = 0 gives -log (w; p1)_inf."""
    total = 0j
    if abs(w) > 0:  # false also for the NaN that z q^rows is at q = 0,
        # z not finite, where the factors are not finite either
        log_tol, coefficients = _series(p1, p2, radius)
        for c in reversed(coefficients[:int(log_tol / math.log(abs(w)))]):
            total = (total + c) * w
    return total


@functools.lru_cache(maxsize=64)
def _series(p1: float, p2: float, radius: float) -> tuple:
    """log tol, tol = (float eps)(1 - radius)(1 - |p1|)(1 - |p2|), and
    1 / (m (1 - p1^m)(1 - p2^m)) for each m with radius^m >= tol and one
    more, so the terms left out of _log_series sum below float eps; 1 - p^m
    is (1 - p)(1 + p + ... + p^(m-1)), which does not cancel near p = 1."""
    log_tol = math.log(sys.float_info.epsilon * (1.0 - radius)
                       * (1.0 - abs(p1)) * (1.0 - abs(p2)))
    out, s1, s2 = [], 1.0, 1.0
    for m in range(1, int(log_tol / math.log(radius)) + 2):
        out.append(1.0 / (m * (1.0 - p1) * (1.0 - p2) * s1 * s2))
        s1, s2 = 1.0 + p1 * s1, 1.0 + p2 * s2
    return log_tol, tuple(out)


def _settle(prod: complex, zero: bool, log: complex, z,
            bases: str) -> complex:
    """prod exp(-log), the value of (z; bases)_inf.  ConvergenceError
    where it is not finite, and where it underflows the float range
    unless zero says a factor is exactly 0."""
    try:
        value = prod * cmath.exp(-log)
    except OverflowError:  # exp(-log) alone leaves the float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        problem = "is not finite in floating point"
    elif _modulus(value) < sys.float_info.min and not zero:
        problem = "underflows the float range"
    else:
        return value
    raise ConvergenceError(f"({z};{bases})_inf {problem}")


def _modulus(z: complex) -> float:
    """|z|, or inf where it leaves the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _terms(az: float, q: float, eps: float) -> int:
    """The number of factors with |z q^i| >= eps in (z;q)_inf, |z| = az;
    ConvergenceError at the term cap, and for NaN or inf az."""
    if az < eps:
        terms = 0
    elif q == 0:
        terms = 1
    else:
        # NaN or inf az fail this comparison too
        terms = math.log(az / eps) / -math.log(abs(q)) + 1.0
    if not terms < _MAX_TERMS:
        raise ConvergenceError("q-product did not truncate within the cap")
    return int(terms)


@functools.lru_cache(maxsize=64)
def _qq_inf(q: float) -> complex:
    """(q;q)_inf, shared by every q-Gamma value in base q."""
    return qpochhammer_inf(q, q)


def qgamma(a: complex, q: float) -> complex:
    """Gamma_q(a) = (q;q)_inf (1-q)^(1-a) / (q^a;q)_inf; DomainError for
    an a that is not finite."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0,1), got {q}")
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError(f"exponent {a} is not finite")
    m = _is_nonpositive_qinteger(a, q)
    if m is not None:
        raise PoleError(f"Gamma_q pole at a ~ {-m}", location=-m)
    den = qpochhammer_inf(_cpow(q, a), q)
    return _qq_inf(q) * _cpow(1.0 - q, 1.0 - a) / den


def theta(z: complex, q: float) -> complex:
    """Theta_q(z) = (z;q)_inf (q/z;q)_inf (q;q)_inf, the exp of its
    _log_theta_of(q) value, whose errors it raises.  c^2 / (2 eps)
    dominates near q = 1, so c's rounding (two sums, and pi - math.pi)
    enters it to first order.  ConvergenceError where |Theta| leaves the
    normal float range."""
    c, s = _log_theta_of(q)(z)
    eps, w = -math.log(q), cmath.log(z)
    turn = math.copysign(math.pi, w.imag)
    big, small = sorted((0.5 * eps, w.real), key=abs, reverse=True)
    # the exact rounding errors of c's two sums (Dekker's fast two-sum)
    low = complex(small - (c.real - big), w.imag - (c.imag + turn)
                  - math.copysign(1.2246467991473532e-16, w.imag))
    value = _exp(c * (c + 2.0 * low) / (2.0 * eps) + s, f"Theta_q({z})")
    if abs(value) < sys.float_info.min:
        raise ConvergenceError(f"Theta_q({z}) underflows the float range")
    return value


def _log_theta_of(q: float):
    """The evaluator of log Theta_q, with its constants in q taken once:
    it maps x to log Theta_q(x) = c^2 / (2 eps) + s, eps = -log q, as the
    pair (c, s).  It raises DomainError at x = 0, then for q outside
    (0,1), and ConvergenceError for an x that is not finite.

    Poisson summation of Jacobi's triple product sum_n (-1)^n
    q^(n(n-1)/2) x^n gives sqrt(2 pi / eps) sum_m exp((b - 2 pi i m)^2 /
    (2 eps)), b = eps/2 + log x + i pi (Gasper and Rahman, (1.6.1);
    Whittaker and Watson, 21.51).  c is b moved to |Im c| <= pi and
    s = log(2 pi / eps) / 2 + log S, S = sum_m exp(((c - 2 pi i m)^2 -
    c^2) / (2 eps)), whose term m is at most exp(-2 pi^2 |m|(|m|-1) / eps):
    S keeps |m| <= M, the first left out below float eps (M <= 2, q >= 0.3).
    """
    if not 0.0 < q < 1.0:
        def bad_q(x):
            if x == 0:
                raise DomainError("Theta_q is not defined at z = 0")
            raise DomainError(f"q must lie in (0,1), got {q}")
        return bad_q
    eps = -math.log(q)
    need = eps * -math.log(sys.float_info.epsilon) / (2.0 * math.pi ** 2)
    width = max(1, math.ceil(math.sqrt(0.25 + need) - 0.5))  # M
    half = 0.5 * math.log(2.0 * math.pi / eps)
    steps = [(2.0 * math.pi * m / eps, math.pi * m)
             for m in range(1, width + 1)]

    def log_theta(x):
        if x == 0:
            raise DomainError("Theta_q is not defined at z = 0")
        if not cmath.isfinite(x):
            raise ConvergenceError(
                f"Theta_q({x}) is not finite in floating point")
        w = cmath.log(x)  # theta forms the same c from the same w
        re = 0.5 * eps + w.real
        im = w.imag - math.copysign(math.pi, w.imag)
        total = 1.0
        for f, pi_m in steps:  # the terms m and -m of S
            total += (cmath.exp(complex(f * (im - pi_m), -f * re))
                      + cmath.exp(complex(-f * (im + pi_m), f * re)))
        # S = 0 only where the terms cancel exactly, at a zero of Theta
        return complex(re, im), half + (cmath.log(total) if total
                                        else -math.inf)
    return log_theta


def _log_theta_ratio(num: tuple, den: tuple, a: complex,
                     eps: float) -> complex:
    """log Theta_q(x1) / Theta_q(x2) from the _log_theta_of(q) pairs of
    x1 = q^a x2 and x2.  c1 - c2 is D = -a eps up to 2 pi i's, and
    (c1^2 - c2^2) / (2 eps) = D (2 c2 + D) / (2 eps), -a c2 + a^2 eps / 2
    on one branch, has no 1/eps factor, unlike each c^2 / (2 eps)."""
    (c1, s1), (c2, s2) = num, den
    d = -a * eps
    d += 1j * math.tau * round((c1.imag - c2.imag - d.imag) / math.tau)
    return d * (2.0 * c2 + d) / (2.0 * eps) + s1 - s2


def _theta_ratio(x1: complex, x2: complex, a: complex, q: float) -> complex:
    """exp(_log_theta_ratio) for x1 = q^a x2; ConvergenceError on overflow."""
    log_theta = _log_theta_of(q)
    num, den = log_theta(x1), log_theta(x2)
    return _exp(_log_theta_ratio(num, den, a, -math.log(q)),
                f"Theta_q({x1}) / Theta_q({x2})")


def _exp(log: complex, what: str) -> complex:
    """exp(log); ConvergenceError naming what where it overflows."""
    try:
        return cmath.exp(log)
    except OverflowError:
        raise ConvergenceError(f"{what} is not finite in floating point") \
            from None


def double_pochhammer(z: complex, p1: float, p2: float) -> complex:
    """(z; p1, p2)_inf = prod_{i1,i2>=0} (1 - p1^i1 p2^i2 z): the rows
    (z p1^i1; p2)_inf with |z p1^i1| >= _RHO, times the corner below them
    as exp of its log series.  It raises, in this order, DomainError for
    a base of modulus >= 1; ConvergenceError at the term cap of the
    factor-by-factor product (its row count or the length of its top
    row), for a z not finite or of modulus past the float range, and from
    the first row where the product leaves the float range."""
    if not (abs(p1) < 1.0 and abs(p2) < 1.0):
        raise DomainError("both bases must have modulus < 1")
    z = complex(z)
    az = _modulus(z)
    _terms(az, p1, DEFAULT_EPS)  # the caps of the factor-by-factor product
    _terms(az, p2, DEFAULT_EPS)
    # each row enters whole, its factors times the exp of its series, so
    # the running product leaves the float range only where a product of
    # whole rows does
    cut, name = _cut(p2), "(z;p1,p2)_inf"
    rows, zero = _terms(az, p1, _RHO), False
    value = _exp(-_log_series(z * p1 ** rows, p1, p2, _RHO), name)
    for w in (z * p1 ** i for i in range(rows)):
        count = _terms(_modulus(w), p2, cut)
        factors, vanishes = _factors(w, p2, count)
        tail = _exp(-_log_series(w * p2 ** count, p2, 0.0, cut), name)
        value, zero = value * (factors * tail), zero or vanishes
        if not cmath.isfinite(value):
            raise ConvergenceError(f"{name} is not finite in floating point")
    return _settle(value, zero, 0j, "z", "p1,p2")


def g1(z: complex, x: float, r: float, n: int) -> complex:
    """The vertex contraction ratio g_1(z) = {x^2 z}{x^(2r+2n-2) z} /
    ({x^(2r) z}{x^(2n) z}), {w} = (w; x^(2r), x^(2n))_inf, as two ratios
    of four double_pochhammer values, formed in that order, so the first
    that fails raises.  ConvergenceError where a double product
    underflows near q = 1; ResonanceError where a denominator product is
    exactly 0, a factor of it on its lattice."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    p1 = x ** (2.0 * r)
    p2 = float(x) ** (2 * n)
    num1, num2, den1, den2 = (
        double_pochhammer(w * z, p1, p2)
        for w in (x ** 2, x ** (2.0 * r + 2 * n - 2), p1, p2))
    if den1 == 0 or den2 == 0:
        raise ResonanceError("a double product in the denominator of g_1 "
                             "vanishes: resonant parameters")
    return (num1 / den1) * (num2 / den2)


def kernel_s(z: complex, p: QParams) -> complex:
    """s(z) = (q^((1+k)/2) z; q)_inf / (q^((1-k)/2) z; q)_inf."""
    q, k = p.q, p.k
    num = _qpochhammer(q ** ((1.0 + k) / 2.0) * z, q)
    return num / _qpochhammer(q ** ((1.0 - k) / 2.0) * z, q)


def kernel_t(z: complex, p: QParams) -> complex:
    """t(z) = (1-z) (q^(1-k) z; q)_inf / (q^k z; q)_inf."""
    q, k = p.q, p.k
    num = _qpochhammer(q ** (1.0 - k) * z, q)
    return (1.0 - z) * (num / _qpochhammer(q ** k * z, q))


def bracket_v(v: complex, xr: XRParams) -> complex:
    """[v] = x^(v^2/r - v) Theta_{x^(2r)}(x^(2v)), antiperiodic,
    [v+r] = -[v]: the one-argument case of _brackets."""
    return _brackets((v,), xr)[0]


def _brackets(vs, xr: XRParams) -> list:
    """[v] for each v in vs, in order, through one _log_theta_of
    evaluator.  The first v that fails raises: the DomainError of its
    theta argument x^(2v) (also where it underflows to 0), the error of
    its log theta, or ConvergenceError where [v] overflows.  With
    eps = -log x^(2r), the c of x^(2v) is g + h, g = eps (1/2 - v/r), h an
    odd multiple of i pi; the power's log cancels the quadratic part of
    g^2 / (2 eps), so log [v] = eps/8 + h (1/2 - v/r) + h^2 / (2 eps) + s."""
    x, r = xr.x, xr.r
    base = x ** (2.0 * r)
    eps = -math.log(base)
    log_theta = _log_theta_of(base)
    out = []
    for v in vs:
        arg = _cpow(x, 2.0 * v)
        if arg == 0:  # x^(2v) is never 0 in exact arithmetic
            raise DomainError(f"{x:.6g}**{2.0 * v:.6g} underflows the "
                              "floating-point range")
        c, s = log_theta(arg)
        g = eps * (0.5 - v / r)
        h = 1j * math.pi * (2 * round((c - g).imag / math.tau - 0.5) + 1)
        out.append(_exp(eps / 8.0 + h * (0.5 - v / r)
                        + h * h / (2.0 * eps) + s, f"[{v}]"))
    return out


def _is_nonpositive_qinteger(a: complex, q: float) -> int | None:
    """m >= 0 where q^a ~ q^(-m), else None; DomainError when the real
    part of a is not finite."""
    a = complex(a)
    if not math.isfinite(a.real):
        raise DomainError(f"exponent {a} is not finite")
    m = round(-a.real)
    if m >= 0 and abs(1.0 - _cpow(q, a + m)) < _POLE_TOL:
        return m
    return None


def fq(a: complex, b: complex, c: complex, z: complex, q: float) -> complex:
    """Basic q-hypergeometric series F_q(a,b,c,z) = sum_n prod_{j<n}
    [(1-q^(a+j))(1-q^(b+j))] / [(1-q^(1+j))(1-q^(c+j))] z^n.

    A terminating sum (q^a or q^b some q^(-m)) runs to its last term z^m;
    otherwise |z| < 1 is required and it ends at a term below
    DEFAULT_EPS max(1, |sum|).  PoleError for q^c = q^(-j) before the last
    term, DomainError for an a, b, c or z not finite unless the sum has
    no term, ConvergenceError for a sum not finite.
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
    # a sum of no terms is 1 whatever the other arguments hold
    if last != 0 and not all(map(cmath.isfinite, (a, b, c, z))):
        raise DomainError(f"F_q at a = {a}, b = {b}, c = {c}, z = {z}: an "
                          f"argument is not finite")
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
        if last is None and abs(term) < DEFAULT_EPS * max(1.0, abs(total)):
            break
    else:
        if last is None:
            raise ConvergenceError("F_q did not converge within the term cap")
    if not cmath.isfinite(total):
        raise ConvergenceError("F_q is not finite in floating point")
    return total


def qbinomial_series(a: complex, z: complex, q: float) -> complex:
    """(q^a z; q)_inf / (z; q)_inf summed as the q-binomial series, to a
    term below DEFAULT_EPS max(1, |sum|).  DomainError for |z| >= 1 and
    for a q^a or z that is not finite."""
    if abs(z) >= 1.0:
        raise DomainError(f"q-binomial series requires |z| < 1, got |z|={abs(z)}")
    qa = _cpow(q, a)
    # q^a is finite at a = +inf, where the series is that of 1/(z;q)_inf
    if not (cmath.isfinite(qa) and cmath.isfinite(z)):
        raise DomainError(f"q-binomial series at q^a = {qa}, z = {z}: an "
                          f"argument is not finite")
    qj = 1.0
    term = complex(1.0)
    total = complex(1.0)
    for j in range(_MAX_TERMS):
        term *= (1.0 - qa * qj) / (1.0 - q * qj) * z
        total += term
        qj *= q
        if abs(term) < DEFAULT_EPS * max(1.0, abs(total)):
            return total
    raise ConvergenceError("q-binomial series did not converge")
