"""Macdonald difference operators D^m and their eigenvalues.

Provides numeric (point-evaluation) application to black-box functions,
exact coefficient-level application to symmetric Laurent polynomials
through the Vandermonde identity A_I = a_delta^{-1} T_{t,z_I} a_delta
(one back-substitution pass serves any number of inputs at once, so the
whole matrix of D^m on a monomial symmetric basis comes from one pass),
the Weyl-invariant eigenvalues c^m, and the duality check relating
D^(n-1)(q,t) to D^1 with inverted parameters.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularConfigurationError
from .qcore import QParams, _cpow, _qpochhammer, kernel_s

_COINCIDENCE_TOL = 1e-10


def _as_complex_vector(v):
    return tuple(complex(c) for c in v)


def staircase(n: int) -> tuple[float, ...]:
    """delta = ((n-1)/2, (n-3)/2, ..., -(n-1)/2)."""
    return tuple((n - 1 - 2 * i) / 2.0 for i in range(n))


@dataclass(frozen=True)
class SpectralData:
    """Spectral vector lambda (sum zero), Weyl element w and derived data.

    w is a permutation of 0..n-1 acting by eta_i = lambda[w[i]].  The
    instance is frozen, so eta, rho, eta_plus_rho and lam_plus_rho are
    computed once, on first use.
    """

    n: int
    lam: tuple[complex, ...]
    w: tuple[int, ...]
    k: float

    def __post_init__(self):
        if self.n < 2 or len(self.lam) != self.n:
            raise DomainError("lambda must have length n >= 2")
        if sorted(self.w) != list(range(self.n)):
            raise DomainError(f"w must be a permutation of 0..{self.n - 1}")
        object.__setattr__(self, "lam", _as_complex_vector(self.lam))
        if not all(cmath.isfinite(c) for c in self.lam):
            raise DomainError(f"lambda must be finite, got {self.lam}")
        if abs(sum(self.lam)) > 1e-12:
            raise DomainError("sum(lambda) must vanish")
        object.__setattr__(self, "w", tuple(int(i) for i in self.w))

    @classmethod
    def make(cls, lam, p: QParams, w=None) -> "SpectralData":
        n = len(lam)
        if w is None:
            w = tuple(range(n))
        return cls(n=n, lam=tuple(lam), w=tuple(w), k=p.k)

    @functools.cached_property
    def eta(self) -> tuple[complex, ...]:
        return tuple(self.lam[self.w[i]] for i in range(self.n))

    @functools.cached_property
    def rho(self) -> tuple[float, ...]:
        return tuple(self.k * d for d in staircase(self.n))

    @functools.cached_property
    def eta_plus_rho(self) -> tuple[complex, ...]:
        return tuple(e + r for e, r in zip(self.eta, self.rho))

    @functools.cached_property
    def lam_plus_rho(self) -> tuple[complex, ...]:
        return tuple(l + r for l, r in zip(self.lam, self.rho))

    def swap(self, i: int) -> "SpectralData":
        """The spectral data with eta_i and eta_{i+1} exchanged (0-based i)."""
        w = list(self.w)
        w[i], w[i + 1] = w[i + 1], w[i]
        return SpectralData(n=self.n, lam=self.lam, w=tuple(w), k=self.k)


def _check_order(m, n: int) -> None:
    """DomainError unless the operator order m is an integer in 1..n."""
    if not (isinstance(m, numbers.Integral) and 1 <= m <= n):
        raise DomainError(f"m must be an integer in 1..{n}, got {m!r}")


def eigenvalue_c(gamma, m: int, p: QParams) -> complex:
    """c^m_gamma = sum_{i1<...<im} prod_s q^(gamma_{i_s}) t^(i_s), i_s 1-based.

    DomainError for an entry of gamma that is not finite, and where c^m
    is not finite."""
    gamma = _as_complex_vector(gamma)
    n = len(gamma)
    _check_order(m, n)
    if not all(map(cmath.isfinite, gamma)):
        raise DomainError(f"gamma must be finite, got {gamma}")
    q, t = p.q, p.t
    value = _elementary([_cpow(q, g) * t ** (i + 1)
                         for i, g in enumerate(gamma)], m)
    if not cmath.isfinite(value):
        raise DomainError(f"c^{m} is not finite at gamma = {gamma}")
    return value


def _elementary(xs, m: int) -> complex:
    """e_m(xs), the m-th elementary symmetric polynomial of xs."""
    return sum(_prod(xs[i] for i in sel)
               for sel in itertools.combinations(range(len(xs)), m))


def _prod(it):
    out = complex(1.0)
    for v in it:
        out *= v
    return out


def _shifts(z, m: int, q: complex) -> list:
    """The subsets I of D^m in the order it sums them, each with z where
    z_I -> q z_I.  DomainError unless m is an integer in 1..len(z)."""
    z = _as_complex_vector(z)
    _check_order(m, len(z))
    return [(sel, tuple(q * c if i in sel else c for i, c in enumerate(z)))
            for sel in itertools.combinations(range(len(z)), m)]


def _check_nonzero(v, name: str, first: int = 0) -> None:
    """DomainError naming v's first zero coordinate from index first on."""
    for i in range(first, len(v)):
        if v[i] == 0:
            raise DomainError(f"{name}_{i + 1} = 0, which a ratio divides by")


def _relative_residual(value: complex, ref: complex, name: str, at) -> float:
    """|value - ref| / |ref| of the equation name at the point at;
    ConvergenceError unless it is finite, as where ref is 0 or a side,
    their difference or a modulus leaves the float range."""
    try:
        residual = abs(value - ref) / abs(ref)
    except (OverflowError, ZeroDivisionError):  # abs() past the range, ref = 0
        residual = math.nan
    if not math.isfinite(residual):
        raise ConvergenceError(f"the relative residual of the {name} at {at} "
                               f"is not finite: a side overflows, or the "
                               f"side it divides by is 0")
    return residual


def _check_distinct(z) -> None:
    """DomainError when a coordinate of z is not finite, or when its
    modulus or the modulus of a difference leaves the float range;
    SingularConfigurationError when two coordinates are equal or closer
    than _COINCIDENCE_TOL times the larger of their two moduli, where a
    weight (tt z_i - z_j)/(z_i - z_j) divides by their difference."""
    if not all(map(cmath.isfinite, z)):
        raise DomainError(f"a coordinate of {z} is not finite")
    try:
        moduli = [abs(c) for c in z]
        for i, j in itertools.combinations(range(len(z)), 2):
            tol = _COINCIDENCE_TOL * max(moduli[i], moduli[j])
            if z[i] == z[j] or abs(z[i] - z[j]) < tol:
                raise SingularConfigurationError(
                    f"coordinates {i} and {j} coincide")
    except OverflowError:  # abs() past the float range
        raise DomainError(f"a modulus at {z} leaves the float range") from None


def _weighted_points(z, m: int, q: complex, t: complex) -> list:
    """The points of _shifts(z, m, q), in its order, each after the
    weight D^m gives it, prod_{i in I, j not in I} (t z_i - z_j)/(z_i - z_j):
    a list of (weight, point) that serves any number of functions at z.
    Each factor is formed once per ordered pair (i, j), and each weight
    multiplies its factors in the order of i in I, then of j.  The
    DomainError of _shifts for a bad m, the errors of _check_distinct(z),
    then DomainError when a coordinate of a shifted point is not finite."""
    z = _as_complex_vector(z)
    n = len(z)
    shifts = _shifts(z, m, q)
    _check_distinct(z)
    # _check_distinct checked z; the points of D^m also hold each q z_i
    if not all(cmath.isfinite(q * c) for c in z):
        raise DomainError(f"a coordinate of {z} or of a point q-shifted "
                          "from it is not finite")
    factor = [[(t * zi - zj) / (zi - zj) if i != j else None
               for j, zj in enumerate(z)] for i, zi in enumerate(z)]
    out = []
    for sel, shifted in shifts:
        rest = [j for j in range(n) if j not in sel]
        weight = complex(1.0)
        for i in sel:
            row = factor[i]
            for j in rest:
                weight *= row[j]
        out.append((weight, shifted))
    return out


def _weighted_sum(weighted, f, m: int, t: complex) -> complex:
    """t^(m(m+1)/2) sum_I w_I f(z_I) over the (w_I, z_I) of
    _weighted_points, calling f at each point in that order."""
    total = complex(0.0)
    for weight, shifted in weighted:
        total += weight * f(shifted)
    return t ** (m * (m + 1) / 2.0) * total


def macdonald_apply_raw(f, m: int, z, q: complex, t: complex) -> complex:
    """Apply D^m with explicit shift base q and weight parameter t.

    D^m f = t^(m(m+1)/2) sum_{|I|=m} [prod_{i in I, j not in I}
            (t z_i - z_j)/(z_i - z_j)] f(z with z_I -> q z_I),
    calling f once at each point of _shifts(z, m, q), in that order,
    after the checks of _weighted_points, whose errors it raises before
    f is called.
    """
    return _weighted_sum(_weighted_points(z, m, q, t), f, m, t)


def macdonald_apply_numeric(f, m: int, z, p: QParams) -> complex:
    """Apply D^m(q,t) at the point z to the black-box function f.

    ConvergenceError when the value is not finite, as where the weighted
    sum of finite values of f overflows."""
    value = macdonald_apply_raw(f, m, z, p.q, p.t)
    if not cmath.isfinite(value):
        raise ConvergenceError(f"D^{m} f at {z} is not finite")
    return value


def duality_check(sol_eval, z, p: QParams) -> float:
    """Relative residual of D^(n-1)(q,t) f = t^(n(n+1)/2) D^1(1/q,1/t) f at z.

    The right-hand side is the first-order operator with both parameters
    inverted: weight ((1/t) z_i - z_j), shift by 1/q, overall factor 1/t.
    DomainError when f(z) = 0, where the ratio is undefined;
    ConvergenceError when either side is not finite.
    """
    z = _as_complex_vector(z)
    n = len(z)
    t = p.t
    ref = sol_eval(z)
    if ref == 0:
        raise DomainError(f"f vanishes at {z}, so the relative residual is "
                          f"undefined")
    lhs = macdonald_apply_raw(sol_eval, n - 1, z, p.q, t)
    rhs = t ** (n * (n + 1) / 2.0) * macdonald_apply_raw(
        sol_eval, 1, z, 1.0 / p.q, 1.0 / t)
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        raise ConvergenceError(f"a side of the duality at {z} is not finite")
    return abs(lhs - rhs) / abs(ref)


# ---------------------------------------------------------------------------
# Pointwise operator identities (kernel intertwining and gauge conjugation)


def kernel_intertwiner_residual(z, y, p: QParams) -> float:
    """Relative residual of the two-family intertwining identity

        D^1_z(q,t) Pi(z,y) = t (t^(n+1) D^1_y(1/q,1/t) + 1) Pi(z,y)

    where Pi(z,y) = prod_{i,j} s(z_i/y_j) is the reproducing kernel built
    from the contraction ratio s, len(z) = n+1 and len(y) = n.  Here
    D^1_y(1/q,1/t) carries the inverted overall prefactor 1/t; the power
    t^(n+1) absorbs the difference from quoting the identity with the
    uninverted prefactor.  DomainError at y_j = 0; ConvergenceError when
    a side is not finite or the left side is 0.
    """
    z = _as_complex_vector(z)
    y = _as_complex_vector(y)
    n = len(y)
    if len(z) != n + 1:
        raise DomainError("kernel identity requires len(z) = len(y) + 1")
    _check_nonzero(y, "y")
    t = p.t

    def kernel(zz, yy):
        out = complex(1.0)
        for zi in zz:
            for yj in yy:
                out *= kernel_s(zi / yj, p)
        return out

    lhs = macdonald_apply_raw(lambda zz: kernel(zz, y), 1, z, p.q, t)
    rhs = t * (t ** (n + 1)
               * macdonald_apply_raw(lambda yy: kernel(z, yy), 1, y,
                                     1.0 / p.q, 1.0 / t)
               + kernel(z, y))
    return _relative_residual(rhs, lhs, "kernel identity", (z, y))


def _weight(v, i: int, tt) -> complex:
    """prod_{j != i} (tt v_i - v_j)/(v_i - v_j)."""
    return _prod((tt * v[i] - v[j]) / (v[i] - v[j])
                 for j in range(len(v)) if j != i)


def conjugation_identity_residual(y, p: QParams) -> float:
    """Relative residual of the symmetric-kernel conjugation identity

        [sum_i T_{q,y_i} prod_{j!=i} ((1/t)y_i - y_j)/(y_i - y_j)] Delta
        = Delta t^(1-n) sum_i prod_{j!=i} (t y_i - y_j)/(y_i - y_j) T_{q,y_i}

    with Delta(y) = prod_{l<s} (y_l/y_s;q)(y_s/y_l;q)
                    / ((t y_l/y_s;q)(t y_s/y_l;q)),
    applied to the test function f(y) = prod_j (1 + (0.3 + 0.1i (j+1)) y_j).
    DomainError at y_j = 0 comes first.  The left side weights each
    q-shifted point, so the errors of _check_distinct at y and then at
    each shifted point come next; ConvergenceError when a q-product of
    Delta falls below the normal float range, as near q = 1, and as in
    the kernel identity.
    """
    y = _as_complex_vector(y)
    n = len(y)
    q, t = p.q, p.t
    _check_nonzero(y, "y")
    shifts = _shifts(y, 1, q)
    for pt in (y, *(ys for _, ys in shifts)):
        _check_distinct(pt)
    f = lambda yy: _prod(1.0 + (0.3 + 0.1j * (j + 1)) * c
                         for j, c in enumerate(yy))

    def delta(yy):
        out = complex(1.0)
        for l in range(n):
            for s in range(l + 1, n):
                u, v = yy[l] / yy[s], yy[s] / yy[l]
                a, b, c, d = map(_qpochhammer, (u, v, t * u, t * v), [q] * 4)
                out *= a * b / (c * d)
        return out

    lhs = complex(0.0)
    rhs = complex(0.0)
    for (i,), ys in shifts:
        lhs += _weight(ys, i, 1.0 / t) * delta(ys) * f(ys)
        rhs += _weight(y, i, t) * f(ys)
    rhs *= delta(y) * t ** (1 - n)
    return _relative_residual(rhs, lhs, "conjugation identity", y)


def gauge_transform_residual(z, p: QParams) -> float:
    """Relative residual of the gauge conjugation turning the t-weighted
    first-order operator into the (q/t)-weighted one:

        [sum_i prod_{j!=i} (t z_i - z_j)/(z_i - z_j) T_{q,z_i}] G
        = G sum_i prod_{j!=i} ((q/t) z_i - z_j)/(z_i - z_j) T_{q,z_i}

    with G(z) = prod_{i<j} z_j^(1-2k) (t z_i/z_j;q)/(q^(1-k) z_i/z_j;q),
    applied to f(z) = prod_j (1 + (0.2 - 0.15i (j+1)) z_j).
    The errors of _check_distinct(z) come first, then DomainError at
    z_j = 0, j > 1; ConvergenceError when a q-product of G falls below
    the normal float range, as near q = 1, and as in the kernel identity.
    """
    z = _as_complex_vector(z)
    _check_distinct(z)
    _check_nonzero(z, "z", first=1)
    n = len(z)
    q, t, k = p.q, p.t, p.k
    f = lambda zz: _prod(1.0 + (0.2 - 0.15j * (j + 1)) * c
                         for j, c in enumerate(zz))

    def gauge(zz):
        out = complex(1.0)
        for i in range(n):
            for j in range(i + 1, n):
                u = zz[i] / zz[j]
                num = _qpochhammer(t * u, q)
                den = _qpochhammer(q ** (1.0 - k) * u, q)
                out *= _cpow(zz[j], 1.0 - 2.0 * k) * num / den
        return out

    lhs = complex(0.0)
    rhs = complex(0.0)
    for (i,), zs in _shifts(z, 1, q):
        lhs += _weight(z, i, t) * gauge(zs) * f(zs)
        rhs += _weight(z, i, q / t) * f(zs)
    rhs *= gauge(z)
    return _relative_residual(rhs, lhs, "gauge identity", z)


# ---------------------------------------------------------------------------
# Laurent polynomials and coefficient-level application


class LaurentPoly:
    """Sparse Laurent polynomial in n variables: exponent vector -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for e, c in dict(terms).items():
                self[tuple(int(x) for x in e)] = complex(c)

    def __getitem__(self, e):
        return self.terms.get(tuple(e), 0.0)

    def __setitem__(self, e, c):
        e = tuple(e)
        if abs(c) == 0.0:
            self.terms.pop(e, None)
        else:
            self.terms[e] = complex(c)

    def __add__(self, other):
        out = LaurentPoly(self.n, self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c
        return out

    def scale(self, a) -> "LaurentPoly":
        return LaurentPoly(self.n, {e: a * c for e, c in self.terms.items()})

    def evaluate(self, z) -> complex:
        """The value at z.  Each coordinate gets one table of the powers
        z_i ** e for the exponents e that occur; every monomial is
        c * z_1^e_1 * z_2^e_2 * ..., multiplied left to right, and the sum
        runs in term order, so the value is bit for bit that of a term-by-
        term loop.  DomainError for a zero coordinate with a negative
        exponent; ConvergenceError when the value is not finite."""
        z = _as_complex_vector(z)
        monos = list(self.terms.values())
        for zi, column in zip(z, zip(*self.terms)):
            if zi == 0 and min(column) < 0:
                raise DomainError("a zero coordinate carries a negative "
                                  "exponent")
            try:  # a power past the float range raises OverflowError
                powers = {e: zi ** e for e in set(column)}
            except OverflowError:
                raise ConvergenceError(
                    f"the polynomial at {z} is not finite") from None
            monos = list(map(operator.mul, monos,
                             map(powers.__getitem__, column)))
        total = complex(0.0)
        for mono in monos:  # not sum(): it compensates floats from 3.12
            total += mono
        if not cmath.isfinite(total):
            raise ConvergenceError(f"the polynomial at {z} is not finite")
        return total

    def is_symmetric(self, tol: float = 1e-9) -> bool:
        """Whether every member of each orbit of exponents lies within
        tol * max(1, largest |coefficient|) of the orbit's sorted member."""
        scale = max((abs(c) for c in self.terms.values()), default=0.0)
        bound = tol * max(1.0, scale)
        for mu in {_sorted_desc(e) for e in self.terms}:
            c = self[mu]
            for se in set(itertools.permutations(mu)):
                if abs(self[se] - c) > bound:
                    return False
        return True

    def max_abs_diff(self, other) -> float:
        keys = set(self.terms) | set(other.terms)
        return max((abs(self[e] - other[e]) for e in keys), default=0.0)

    def __repr__(self):
        return f"LaurentPoly(n={self.n}, terms={self.terms!r})"


def monomial_symmetric(n: int, nu) -> LaurentPoly:
    """m_nu: the sum of all distinct permutations of the exponent vector nu."""
    nu = tuple(int(x) for x in nu)
    if len(nu) != n:
        raise DomainError("exponent vector length must equal n")
    return _symmetrize(n, {nu: 1.0})


def _symmetrize(n: int, coeffs) -> LaurentPoly:
    """sum_nu c_nu m_nu over distinct weakly decreasing exponent vectors nu."""
    out = LaurentPoly(n)
    for nu, c in coeffs.items():
        for e in set(itertools.permutations(nu)):
            out[e] = c
    return out


def _sorted_desc(e):
    return tuple(sorted(e, reverse=True))


def dominance_leq(nu, mu) -> bool:
    """nu <= mu in dominance order (equal sums, both weakly decreasing)."""
    if sum(nu) != sum(mu):
        return False
    s_nu = s_mu = 0
    for a, b in zip(nu, mu):
        s_nu += a
        s_mu += b
        if s_nu > s_mu:
            return False
    return True


def dominance_ideal(mu) -> list[tuple[int, ...]]:
    """All weakly decreasing nonnegative vectors nu <= mu in dominance order."""
    mu = _sorted_desc(mu)
    if any(x < 0 for x in mu):
        raise DomainError("dominance_ideal expects nonnegative exponents")
    n = len(mu)
    total = sum(mu)
    psums = [sum(mu[: i + 1]) for i in range(n)]
    out = []

    def rec(prefix, remaining, bound):
        i = len(prefix)
        if i == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        hi = min(bound, psums[i] - (total - remaining))
        for v in range(hi, -1, -1):
            if v * (n - i) < remaining:
                break
            rec(prefix + [v], remaining - v, v)

    rec([], total, mu[0])
    return out


def macdonald_apply_poly(P: LaurentPoly, m: int, p: QParams) -> LaurentPoly:
    """Image D^m P of a symmetric Laurent polynomial, computed exactly.

    With delta = (n-1, ..., 0) and a_delta = prod_{i<j} (z_i - z_j)
    = sum_w sgn(w) z^(w delta), the weights of D^m are t^m a_delta^{-1}
    T_{t,z_I} a_delta (Macdonald, Symmetric Functions and Hall Polynomials,
    2nd ed., ch. VI sec. 3), so a_delta D^m P = t^m sum_{|I|=m}
    (T_{t,z_I} a_delta)(T_{q,z_I} P).  The coefficient of z^(nu+delta)
    gives, with alpha = nu + delta - w delta,

        Q_nu = t^m sum_w sgn(w) P[alpha] e_m(t^((w delta)_i) q^(alpha_i))
               - sum_{w != 1} sgn(w) Q[sort(alpha)]

    for each partition nu of the dominance ideals of P's exponents.  Each
    Q on the right strictly dominates nu, so it is known, or zero, when nu
    runs in decreasing lex order.  Negative exponents are shifted away:
    D^m(e_n^s f) = q^(m s) e_n^s D^m f.
    """
    n = P.n
    _check_order(m, n)
    if not P.terms:
        return LaurentPoly(n)
    if not P.is_symmetric():
        raise DomainError("macdonald_apply_poly requires a symmetric input")
    m0 = min(min(e) for e in P.terms)
    if m0 < 0:
        shifted = LaurentPoly(n, {tuple(x - m0 for x in e): c
                                  for e, c in P.terms.items()})
        img = macdonald_apply_poly(shifted, m, p)
        return LaurentPoly(n, {tuple(x + m0 for x in e): c * p.q ** (m * m0)
                               for e, c in img.terms.items()})
    columns = {mu: np.array([P[mu]])
               for mu in {_sorted_desc(e) for e in P.terms}}
    Q = _action(columns, m, p)
    return _symmetrize(n, {nu: v[0] for nu, v in Q.items()})


def _action(columns, m: int, p: QParams) -> dict:
    """The recursion of macdonald_apply_poly for K symmetric inputs at once.

    columns maps a partition mu to the length-K vector of the coefficients
    of m_mu in the K inputs (nonnegative exponents).  Returns Q[nu], the
    length-K vector of the coefficients of m_nu in their images under D^m,
    for every nu of the union of the dominance ideals, in decreasing lex
    order.
    """
    mu0, c0 = next(iter(columns.items()))
    n, K = len(mu0), len(c0)
    q, t = p.q, p.t
    delta = tuple(range(n - 1, -1, -1))
    # (sgn(w), w delta, t^(w delta)) for every permutation w
    weyl = [((-1) ** sum(a < b for a, b in itertools.combinations(wd, 2)),
             wd, [t ** d for d in wd])
            for wd in itertools.permutations(delta)]
    support: set[tuple[int, ...]] = set()
    for mu in sorted(columns, reverse=True):
        if mu not in support:   # else its ideal lies in one already taken
            support.update(dominance_ideal(mu))
    Q: dict[tuple[int, ...], np.ndarray] = {}
    for nu in sorted(support, reverse=True):
        nd = [a + d for a, d in zip(nu, delta)]
        image = np.zeros(K, dtype=complex)
        below = np.zeros(K, dtype=complex)
        for sign, wd, tw in weyl:
            alpha = tuple(map(operator.sub, nd, wd))
            if min(alpha) < 0:   # outside the support of P and of Q
                continue
            key = _sorted_desc(alpha)
            c = columns.get(key)
            if c is not None:
                image += c * (sign * _elementary(
                    [x * q ** a for x, a in zip(tw, alpha)], m))
            if wd != delta and key in Q:
                below += sign * Q[key]
        Q[nu] = t ** m * image - below
    return Q
