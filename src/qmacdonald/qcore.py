"""Scalar q-special-function kernel.

Infinite q-products, the q-Gamma and Theta functions, double (two-base)
products, the bracket function, vertex contraction kernels and the basic
q-hypergeometric series.  Everything here is a pure function of its
arguments; all products/series are truncated deterministically, the
q-products with a first-order analytic tail correction.  An infinite
product's truncation length is computed from logs before it is formed,
so the term cap is checked without running to it, and (q;q)_inf is
computed once per base q and shared by every theta and q-Gamma value in
that base.

Every (z;q)_inf comes from one kernel, _qpochhammers, which takes one of
two engines by the size of its batch.  A batch of at most _LOOP_FACTORS
factors in all runs the term loop in Python, as a numpy pass costs more
than that many factors.  A larger batch is the columns of one array: z
q^i and the running product of the factors 1 - z q^i are each one
np.multiply.accumulate down its rows, and each column reads the row of
its own truncation length.  accumulate multiplies row by row with the
scalar complex product, the formula CPython uses, so either engine is
bit for bit the one-at-a-time loop; numpy's elementwise complex multiply
may fuse a multiply-add on CPUs with FMA and is not.  An argument the
kernel rejects, at the term cap say, leaves its exception in its
column on either engine, so it fails only itself; qpochhammer_inf, the
kernel with one column, raises it.  kernel_s and kernel_t take their two
products in one call.  In the same way _theta_values holds every check
and value of theta for a batch of arguments, each value or its
exception, and theta is it with one argument; a braid computation takes
all its theta values from one call, and _brackets takes the brackets [v]
of a batch from one such call.

A double product (z; p1, p2)_inf is its few leading rows
(z p1^i; p2)_inf, those with |z p1^i| >= _RHO, times the corner
(w; p1, p2)_inf below them, w = z p1^rows, taken as exp of its
convergent log series -sum_m w^m / (m (1-p1^m)(1-p2^m)) (Gasper and
Rahman, Basic Hypergeometric Series, ch. 1).  The rows of a batch go
through one _qpochhammers call and the corners through one numpy pass,
so memory stays within a few blocks of rows as q -> 1.

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

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

DEFAULT_EPS = 1e-14
_POLE_TOL = 1e-10
_MAX_TERMS = 200_000
_BLOCK = 4096  # a row block of _qpochhammers holds 4 * _BLOCK entries
# A double product takes its rows with |z p1^i| >= _RHO as q-products
# and the corner below them as a log series in w = z p1^rows.  The series
# falls like _RHO^m, so at 1/2 it ends within about 50-60 terms at
# DEFAULT_EPS; a smaller _RHO adds rows, each a q-product of hundreds of
# factors near q = 1, and one nearer 1 adds terms without bound.
_RHO = 0.5
# A _qpochhammers call with at most this many factors in all takes the
# term loop in Python, at about 0.17-0.2 us a factor; a numpy pass costs
# about 20-27 us, and 1.5-2 us more a column, so on 1, 2 and 4 columns the
# two meet at 120-150 factors (x86-64, Python 3.11, numpy 2.4).
_LOOP_FACTORS = 128


def _cpow(base: complex, expo: complex) -> complex:
    """Principal-branch power, with 0**0 = 1.

    DomainError when the power leaves the floating-point range.
    """
    if base == 0:
        return 1.0 if expo == 0 else 0.0
    try:
        return cmath.exp(expo * cmath.log(base))
    except OverflowError:
        raise DomainError(f"{base:.6g}**{expo:.6g} overflows the "
                          "floating-point range") from None


@dataclass(frozen=True)
class QParams:
    """Base parameters q, k with t = q**k derived.

    q and k are real in (0,1).  The infinite products and series built
    on top of these parameters truncate at DEFAULT_EPS.
    """

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
    """(z; q)_inf = prod_{i>=0} (1 - z q^i).

    Keeps the factors with |z q^i| >= DEFAULT_EPS, whose number is known
    from logs up front, then corrects by the first-order tail
    exp(-z q^terms/(1-q)) ~ prod of the remaining factors.
    ConvergenceError at the term cap and for a z or product not finite.
    """
    if not abs(q) < 1.0:
        raise DomainError(f"|q| must be < 1 for (z;q)_inf, got q={q}")
    value = _checked(_qpochhammers((z,), q)[0])
    if not cmath.isfinite(value):
        raise ConvergenceError(f"({z};q)_inf is not finite in floating point")
    return value


def _checked(value):
    """value, unless a batch left the exception of its argument in its
    place: then that exception is raised."""
    if isinstance(value, Exception):
        raise value
    return value


def _qpochhammers(zs, q: float) -> list:
    """(z; q)_inf for each z in zs, |q| < 1, each bit for bit the loop

        prod = 1; zq = z
        repeat _terms(|z|, q, DEFAULT_EPS) times: prod *= 1 - zq; zq *= q
        return prod * exp(-zq/(1-q))

    or, in its place, the exception the loop raises before it starts:
    ConvergenceError at the term cap and for a |z| that is NaN, inf or
    past the float range.

    A call whose factors total at most _LOOP_FACTORS runs that loop
    itself, since a numpy pass has a fixed cost of many factors.  Above
    it the zs are the columns of one array: np.multiply.accumulate down
    its rows takes zq = z q^i, and a second one the running product of
    the factors 1 - zq; column j reads the row of its own truncation
    length, and the tail stays in Python.  accumulate multiplies each row
    by the one before it with the scalar complex product, as CPython
    does, so no fused multiply-add changes a bit.  Rows go in blocks of
    at most _BLOCK * 4 entries (256 KB of complex128 per array), so
    memory stays bounded as q -> 1.
    """
    terms = []
    for z in zs:
        try:
            terms.append(_terms(_modulus(z), q, DEFAULT_EPS))
        except ConvergenceError as exc:
            terms.append(exc)
    rows_of = [0 if isinstance(t, Exception) else t for t in terms]
    if sum(rows_of) <= _LOOP_FACTORS:
        return [t if isinstance(t, Exception) else _loop_product(z, t, q)
                for z, t in zip(zs, terms)]
    last, width = max(rows_of, default=0), len(rows_of)
    rows_of, cols = np.array(rows_of, dtype=np.int64), np.arange(width)
    height = max(1, 4 * _BLOCK // max(1, width))
    # at[0] is z q^terms of each column and at[1] its product; row[0] and
    # row[1] are zq and the product at the end of the block before
    at = row = np.array([zs, np.ones(width)], dtype=complex)
    # overflow and inf * 0 in a product are caught as non-finite values by
    # the callers, not as NumPy warnings
    with np.errstate(all="ignore"):
        for top in range(0, last, height):
            # rows top..top+rows of zq (block[0]) and of the product (block[1])
            rows = min(height, last - top)
            block = np.empty((2, rows + 1, width), dtype=complex)
            block[:, 0], block[0, 1:] = row, q
            np.multiply.accumulate(block[0], axis=0, out=block[0])
            np.subtract(1.0, block[0, :-1], out=block[1, 1:])
            np.multiply.accumulate(block[1], axis=0, out=block[1])
            if rows == last:  # one block: every column reads from it
                at = block[:, rows_of, cols]
            else:
                if top == 0:
                    at = row.copy()
                here = np.flatnonzero((rows_of > top)
                                      & (rows_of <= top + rows))
                at[:, here] = block[:, rows_of[here] - top, here]
            row = block[:, -1]
    zq_at, prod_at = at.tolist()
    return [t if isinstance(t, Exception) else p * cmath.exp(-z / (1.0 - q))
            for t, p, z in zip(terms, prod_at, zq_at)]


def _loop_product(z: complex, terms: int, q: float) -> complex:
    """(z; q)_inf as the term loop of _qpochhammers with terms factors."""
    prod, zq = complex(1.0), complex(z)
    for _ in range(terms):
        prod *= 1.0 - zq
        zq *= q
    return prod * cmath.exp(-zq / (1.0 - q))


def _modulus(z: complex) -> float:
    """|z|, or inf where it leaves the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _terms(az: float, q: float, eps: float) -> int:
    """The number of factors with |z q^i| >= eps in (z;q)_inf, |z| = az.

    ConvergenceError at the term cap, and for NaN or inf az.
    """
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
    """(q;q)_inf, shared by every theta and q-Gamma value in base q."""
    return qpochhammer_inf(q, q)


def qgamma(a: complex, q: float) -> complex:
    """Gamma_q(a) = (q;q)_inf (1-q)^(1-a) / (q^a;q)_inf."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0,1), got {q}")
    a = complex(a)
    m = _is_nonpositive_qinteger(a, q)
    if m is not None:
        raise PoleError(f"Gamma_q pole at a ~ {-m}", location=-m)
    den = qpochhammer_inf(_cpow(q, a), q)
    if abs(den) < sys.float_info.min:
        raise ConvergenceError("(q^a;q)_inf in Gamma_q underflows near q = 1")
    return _qq_inf(q) * _cpow(1.0 - q, 1.0 - a) / den


def theta(z: complex, q: float) -> complex:
    """Theta_q(z) = (z;q)_inf (q/z;q)_inf (q;q)_inf.

    ConvergenceError when the product leaves the floating-point range,
    as it does for |z| or |q/z| far above 1.
    """
    return _checked(_theta_values((z,), q)[0])


def _theta_values(xs, q: float) -> list:
    """theta(x, q) for each x in xs, or in its place the exception that
    rejects x: DomainError at x = 0 and for q outside (0,1), the error of
    (x;q)_inf, (q/x;q)_inf or (q;q)_inf, in that order, and
    ConvergenceError for a value that is not finite.  Every x and q/x
    go through one call of _qpochhammers."""
    live = [x for x in xs if x != 0] if 0.0 < q < 1.0 else []
    products = _qpochhammers([*live, *(q / x for x in live)], q)
    factors = zip(products, products[len(live):])
    qq = None
    if live:
        try:
            qq = _qq_inf(q)
        except ConvergenceError as exc:  # (q;q)_inf is at the term cap
            qq = exc
    out = []
    for x in xs:
        if x == 0:
            value = DomainError("Theta_q is not defined at z = 0")
        elif not 0.0 < q < 1.0:
            value = DomainError(f"q must lie in (0,1), got {q}")
        else:
            a, b = next(factors)
            value = next((v for v in (a, b, qq) if isinstance(v, Exception)),
                         None)
            if value is None:
                value = a * b * qq
                if not cmath.isfinite(value):
                    value = ConvergenceError(
                        f"Theta_q({x}) is not finite in floating point")
        out.append(value)
    return out


def double_pochhammer(z: complex, p1: float, p2: float) -> complex:
    """(z; p1, p2)_inf = prod_{i1,i2>=0} (1 - p1^i1 p2^i2 z).

    The rows i1 with |z p1^i1| >= _RHO are the q-products
    (z p1^i1; p2)_inf of _qpochhammers.  The corner below them,
    (w; p1, p2)_inf with w = z p1^rows and |w| < _RHO, is exp of the
    series -sum_m w^m / (m (1-p1^m)(1-p2^m)), cut where the terms left
    sum to less than DEFAULT_EPS.  DomainError for a base of modulus
    >= 1; ConvergenceError at the term cap of the factor-by-factor
    product (its row count or the length of its top row), for a z that is
    NaN or inf or whose modulus is past the float range, and when the
    product is not finite.
    """
    return _double_products((z,), p1, p2)[0]


_NOT_FINITE = "(z;p1,p2)_inf is not finite in floating point"


def _double_products(zs, p1: float, p2: float) -> list:
    """(z; p1, p2)_inf for each z in zs, computed as in double_pochhammer,
    or the first error of a z raised in the order of zs.  The rows of
    every z go through one _qpochhammers call and the corners through
    one _corner_sums call."""
    if not (abs(p1) < 1.0 and abs(p2) < 1.0):
        raise DomainError("both bases must have modulus < 1")
    plans, rows, corners = [], [], []
    for z in zs:
        z = complex(z)
        try:
            az = _modulus(z)
            # the term caps of the factor-by-factor product: its row
            # count and the length of its top row
            _terms(az, p1, DEFAULT_EPS)
            _terms(az, p2, DEFAULT_EPS)
            if not cmath.isfinite(z):  # two zero bases pass those caps
                raise ConvergenceError(_NOT_FINITE)
            count = _terms(az, p1, _RHO)
        except ConvergenceError as exc:
            plans.append(exc)
            continue
        plans.append((len(rows), count))
        rows += [z * p1 ** i for i in range(count)]
        corners.append(z * p1 ** count)
    row_values = _qpochhammers(rows, p2)
    corner_sums = iter(_corner_sums(corners, p1, p2))
    out = []
    for plan in plans:
        first, count = _checked(plan)
        try:
            value = cmath.exp(-next(corner_sums))
        except OverflowError:  # the corner alone leaves the float range
            raise ConvergenceError(_NOT_FINITE) from None
        for row in row_values[first:first + count]:
            value *= _checked(row)
        if not cmath.isfinite(value):
            raise ConvergenceError(_NOT_FINITE)
        out.append(value)
    return out


def _corner_sums(ws, p1: float, p2: float) -> list:
    """-log (w; p1, p2)_inf for each w in ws, |w| < 1, bit for bit the loop

        total, wm, p1m, p2m = -0j, w, p1, p2
        repeat for m = 1..terms:
            d = m * (1 - p1m) * (1 - p2m)
            total += complex(wm.real / d, wm.imag / d)
            wm *= w; p1m *= p1; p2m *= p2

    where terms counts the m with |w|^m >= tol, tol = DEFAULT_EPS
    (1-_RHO)(1-|p1|)(1-|p2|), so the terms after it sum to less than
    DEFAULT_EPS for |w| < _RHO.  The ws are the columns of one array:
    np.multiply.accumulate takes the powers down its rows with CPython's
    scalar products, the terms are float ufuncs, np.add.accumulate sums
    them in order, and column j reads the row of its own term count.
    """
    tol = DEFAULT_EPS * (1.0 - _RHO) * (1.0 - abs(p1)) * (1.0 - abs(p2))
    terms = [0 if abs(w) < tol else int(math.log(tol) / math.log(abs(w)))
             for w in ws]
    height = max(terms, default=0)
    if height == 0:
        return [-0j] * len(ws)
    powers = np.multiply.accumulate(
        np.broadcast_to(np.array(ws, dtype=complex), (height, len(ws))),
        axis=0)
    bases = np.multiply.accumulate(np.full((height, 2), (p1, p2)), axis=0)
    den = (np.arange(1, height + 1) * (1.0 - bases[:, 0])
           * (1.0 - bases[:, 1]))[:, None]
    # -0.0 + x is x for every float x, so the sums start from -0j
    re = np.add.accumulate(powers.real / den, axis=0)
    im = np.add.accumulate(powers.imag / den, axis=0)
    return [complex(re[t - 1, j], im[t - 1, j]) if t else -0j
            for j, t in enumerate(terms)]


def g1(z: complex, x: float, r: float, n: int) -> complex:
    """The vertex contraction ratio g_1(z) of four double products.

    g_1(z) = {x^2 z}{x^(2r+2n-2) z} / ({x^(2r) z}{x^(2n) z}) with
    {w} = (w; x^(2r), x^(2n))_inf, taken as two ratios of double products
    so that their product does not underflow.  The four products come
    from one call of _double_products, so their rows take one
    _qpochhammers call and their corners one series pass.  Near q = 1 the
    double products themselves leave the normal float range;
    ConvergenceError is raised there.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    p1 = x ** (2.0 * r)
    p2 = float(x) ** (2 * n)
    num1, num2, den1, den2 = _double_products(
        [w * z for w in (x ** 2, x ** (2.0 * r + 2 * n - 2), p1, p2)], p1, p2)
    if min(abs(num1), abs(num2), abs(den1), abs(den2)) < sys.float_info.min:
        raise ConvergenceError("double products in g_1 underflow near q = 1")
    return (num1 / den1) * (num2 / den2)


def kernel_s(z: complex, p: QParams) -> complex:
    """s(z) = (q^((1+k)/2) z; q)_inf / (q^((1-k)/2) z; q)_inf, both
    products from one call of _qpochhammers."""
    q, k = p.q, p.k
    num, den = _qpochhammers((q ** ((1.0 + k) / 2.0) * z,
                              q ** ((1.0 - k) / 2.0) * z), q)
    return _checked(num) / _checked(den)


def kernel_t(z: complex, p: QParams) -> complex:
    """t(z) = (1-z) (q^(1-k) z; q)_inf / (q^k z; q)_inf, both products
    from one call of _qpochhammers."""
    q, k = p.q, p.k
    num, den = _qpochhammers((q ** (1.0 - k) * z, q ** k * z), q)
    return (1.0 - z) * _checked(num) / _checked(den)


def bracket_v(v: complex, xr: XRParams) -> complex:
    """[v] = x^(v^2/r - v) Theta_{x^(2r)}(x^(2v)); antiperiodic, [v+r]=-[v].

    The one-argument case of _brackets."""
    return _checked(_brackets((v,), xr)[0])


def _brackets(vs, xr: XRParams) -> list:
    """[v] for each v in vs, or in its place the exception the formula
    raises first there: that of the power x^(v^2/r - v), then that of the
    theta argument x^(2v), then that of theta.  Every theta value comes
    from one call of _theta_values, which is bit for bit theta one
    argument at a time."""
    x, r = xr.x, xr.r
    base = x ** (2.0 * r)
    parts = []  # (power, theta argument) per v, or the error of a power
    for v in vs:
        try:
            parts.append((_cpow(x, v * v / r - v), _cpow(x, 2.0 * v)))
        except (DomainError, ValueError) as exc:  # from _cpow or cmath.exp
            parts.append(exc)
    thetas = iter(_theta_values(
        [p[1] for p in parts if not isinstance(p, Exception)], base))
    out = []
    for part in parts:
        if isinstance(part, Exception):
            out.append(part)
            continue
        th = next(thetas)
        out.append(th if isinstance(th, Exception) else part[0] * th)
    return out


def _is_nonpositive_qinteger(a: complex, q: float) -> int | None:
    """Return m >= 0 if q^a ~ q^(-m) (i.e. a is a nonpositive integer),
    else None; DomainError when the real part of a is not finite."""
    a = complex(a)
    if not math.isfinite(a.real):
        raise DomainError(f"exponent {a} is not finite")
    m = round(-a.real)
    if m >= 0 and abs(1.0 - _cpow(q, a + m)) < _POLE_TOL:
        return m
    return None


def fq(a: complex, b: complex, c: complex, z: complex, q: float) -> complex:
    """Basic q-hypergeometric series

        F_q(a,b,c,z) = sum_n prod_{j<n} [(1-q^(a+j))(1-q^(b+j))]
                                        / [(1-q^(1+j))(1-q^(c+j))] z^n.

    Terminating cases (q^a or q^b a nonpositive q-integer q^(-m)) are
    summed exactly to their last term z^m; otherwise |z| < 1 is required
    and the sum ends at a term below DEFAULT_EPS max(1, |sum|).  A pole
    (q^c = q^(-j)) before the last term raises PoleError, an a, b or c of
    non-finite real part DomainError, and a sum that is not finite
    ConvergenceError.
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
    term below DEFAULT_EPS max(1, |sum|)."""
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
        if abs(term) < DEFAULT_EPS * max(1.0, abs(total)):
            return total
    raise ConvergenceError("q-binomial series did not converge")
