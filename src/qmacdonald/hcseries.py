"""Harish Chandra series solutions in the asymptotic zone |z_1|<...<|z_n|.

Multiplying the first-order eigen-equation by Delta = prod_{a<b}(1 - z_a/z_b)
makes each operator weight W_i a polynomial G_i = W_i Delta in the ratio
variables z_l/z_{l+1}.  Over the finite stencil d != 0 of their monomials
the series coefficients then obey

    a(P) den(P) = -sum_d a(P-d) [c Delta_d - t sum_i G_{i,d} q^nu_i(P-d)]

with den(P) = c - sum_i t^(i+1) q^nu_i(P), nu = eta + rho + kappa(P) and
kappa_i(P) = P_i - P_(i-1).  Each total degree is one vectorized step over
a dense array on the simplex |p| <= N whose rows are basis elements: they
differ only in q^(eta+rho).  What does not change with the degree is set
up once per solve: a gather table src[d, P] holds the column of P - d for
every offset and multi-index, and degree D reads the prefix of offsets
with |d| <= D (the stencil is sorted by |d|) at the columns of its
stratum, so the degree loop does arithmetic only.  Higher-order
equations are verified numerically, not imposed.

A solution holds its coefficients as one tuple in multi_indices order, so
position j is the j-th multi-index and nothing else knows the key layout.
A solution holds only what the solver computes; the closed-form leading
coefficients are computed where they are asked for, as the JSON writer
does.  Also holds JSON round-tripping and the residue-summation oracles
for the contour integrals.

One kernel, _series_values, sums the series: for evaluate, one row at
one point, and for the eigen residuals of eigen_residual and `verify`,
in one call, one row or all n! basis elements at z and at the points
z_I -> q z_I that D^m reads, which operators._shifts builds.  Each
ratio gets one table of powers per point, read through the cached
exponent columns of multi_indices order; the monomials are formed in
one numpy pass and summed in that order, so value and tail are bit for
bit the term-by-term sum, and the top two strata that set the geometric
tail estimate are the last entries.  The complex products are written
as float ufuncs, (ar br - ai bi, ar bi + ai br): CPython rounds each
product, while numpy's complex multiply may fuse a multiply-add on CPUs
with FMA.  Where evaluate raises, the kernel holds the exception in
place of the value, as qcore's batched q-products do.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DomainError, NondegeneracyError,
                     PoleError, ZoneError)
from .operators import (SpectralData, _shifts, eigenvalue_c,
                        macdonald_apply_numeric)
from .qcore import (QParams, XRMode, _checked, _cpow, _qpochhammers, _qq_inf,
                    _xr_mode, fq, qgamma, qpochhammer_inf, theta)

DEFAULT_DEPTH = {2: 24, 3: 16, 4: 10}
_MAX_RESIDUES = 100_000


def default_depth(n: int) -> int:
    return DEFAULT_DEPTH.get(n, 8)


def multi_indices(n_vars: int, max_total: int):
    """All p in Z_+^(n_vars) with |p| <= max_total, by increasing |p|."""
    for total in range(max_total + 1):
        for cuts in itertools.combinations(range(total + n_vars - 1),
                                           n_vars - 1):
            p = []
            prev = -1
            for c in cuts:
                p.append(c - prev - 1)
                prev = c
            p.append(total + n_vars - 1 - prev - 1)
            yield tuple(p)


@functools.lru_cache(maxsize=64)
def _columns(n_vars: int, max_total: int) -> np.ndarray:
    """The exponent columns of multi_indices(n_vars, max_total) as one
    read-only int array: row i holds p_i of every multi-index, in table
    order."""
    columns = np.array(tuple(zip(*multi_indices(n_vars, max_total))))
    columns.setflags(write=False)
    return columns


def _check_depth(N) -> int:
    if not isinstance(N, numbers.Integral) or N < 0:
        raise DomainError(f"N must be a non-negative integer, got {N!r}")
    return int(N)


@dataclass(frozen=True)
class HCSolution:
    """A Harish Chandra solution: spectral data, params, the depth N and
    the coefficients a(p), |p| <= N, as one tuple whose position j holds
    a(p) for the j-th p of multi_indices(n-1, N).  DomainError when the
    tuple does not have that table's C(N+n-1, n-1) entries; frozen, so
    the check holds for the object's lifetime (dataclasses.replace makes
    a checked copy).  The normalizations of modes A and B are not stored:
    call leading_coefficient(sol.spectral, sol.params, mode)."""

    spectral: SpectralData
    params: QParams
    max_degree: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        size = math.comb(self.max_degree + self.n - 1, self.n - 1)
        if len(self.coeffs) != size:
            raise DomainError(
                f"{len(self.coeffs)} coefficients for a table of {size} "
                f"(n = {self.n}, N = {self.max_degree})")

    @property
    def n(self) -> int:
        return self.spectral.n

    @property
    def prefactor_exponent(self) -> tuple[complex, ...]:
        return self.spectral.eta_plus_rho

    @functools.cached_property
    def _parts(self) -> np.ndarray:
        """The real and imaginary parts of coeffs as the (1, 2, M) float
        array the series kernel reads, read-only."""
        coeffs = np.array(self.coeffs, dtype=complex)
        parts = np.stack([coeffs.real, coeffs.imag])[None]
        parts.setflags(write=False)
        return parts


def _stencil(n: int, t: float):
    """Offsets d != 0 by increasing |d|, and the coefficients there of Delta
    (row 0) and of each G_i = prod_{j>i}(1 - t z_i/z_j) prod_{j<i}(t - z_j/z_i)
    prod_{a<b; a,b != i}(1 - z_a/z_b) (row i+1).  All n+1 polynomials are
    built at once; a factor c0 + c1 z_a/z_b (a < b) adds c1 times the
    polynomial shifted by 1 on slots a..b-1."""
    zero = (0,) * (n - 1)
    poly = {zero: np.ones(n + 1)}
    for a, b in itertools.combinations(range(n), 2):
        c0, c1 = np.ones(n + 1), -np.ones(n + 1)
        c0[b + 1], c1[a + 1] = t, -t
        out = {d: c0 * v for d, v in poly.items()}
        for d, v in poly.items():
            e = tuple(x + (a <= l < b) for l, x in enumerate(d))
            out[e] = out.get(e, 0.0) + c1 * v
        poly = out
    offsets = sorted((d for d, v in poly.items() if d != zero and v.any()),
                     key=sum)
    return (np.array(offsets, dtype=np.int64).reshape(-1, n - 1),
            np.array([poly[d] for d in offsets]).reshape(-1, n + 1).T)


def _solve(rows: list[SpectralData], p: QParams, N) -> list[HCSolution]:
    """Solve the basis elements rows (one lambda, several w) as the rows of
    one coefficient array.  Only elementwise operations mix values, so a
    row does not depend on the rows solved with it.

    Set-up runs once per solve.  The gather table src[d, P] holds the
    column of P - d for every stencil offset d with |d| <= N and every P,
    or M, a column of zeros, where P - d leaves the table; the products
    q^(eta+rho)_i q^kappa_i(P) are taken for every row and P.  Degree D
    reads the first reach[D] offsets, those with |d| <= D (a prefix, as
    _stencil sorts by |d|), at the columns of its stratum, so the degree
    loop does arithmetic only.  It keeps the order of the operations:
    each sum starts at 0 and adds the offsets in stencil order, which
    fixes even the sign of a zero coefficient."""
    n, q, t = rows[0].n, p.q, p.t
    N = _check_depth(default_depth(n) if N is None else N)
    c = eigenvalue_c(rows[0].lam_plus_rho, 1, p)
    index = _columns(n - 1, N).T  # row j: the j-th multi-index
    M = len(index)
    # overflow and 0 * inf in extreme q are caught below as non-finite
    # coefficients, not as NumPy warnings
    with np.errstate(all="ignore"):
        # q^kappa(P)
        q_kappa = q ** np.diff(index, axis=1, prepend=0, append=0)
        q_epr = np.array([[_cpow(q, e) for e in s.eta_plus_rho]
                          for s in rows])
        # checked up front: the error names the first row, then the first P
        den = c - sum(t ** (i + 1) * q_epr[:, i, None] * q_kappa[:, i]
                      for i in range(n))
        small = np.argwhere(np.abs(den[:, 1:]) < 1e-10 * abs(c))
        if len(small):
            P = tuple(index[small[0][1] + 1].tolist())
            raise NondegeneracyError(f"nondegeneracy violated at p={P}",
                                     multi_index=P)
        offsets, weights = _stencil(n, t)
        # q^nu_i(P-d) = q^nu_i(P) q^-kappa_i(d): the d part joins G_i
        weights[1:] *= q ** -np.diff(offsets, axis=1, prepend=0, append=0).T
        # reach[D]: the number of offsets with |d| <= D
        reach = np.searchsorted(offsets.sum(axis=1), np.arange(N + 1),
                                side="right")
        offsets = offsets[:reach[N]]
        column = np.full((N + 1,) * (n - 1), M)  # multi-index -> column of a
        column[tuple(index.T)] = np.arange(M)
        # src[d, P]: the column of P - d, or M where P - d leaves the
        # table; one coordinate at a time, as a row-major position in column
        inside = np.ones((len(offsets), M), dtype=bool)
        flat = np.zeros((len(offsets), M), dtype=np.int64)
        for l in range(n - 1):
            x = index[:, l] - offsets[:, l, None]
            inside &= x >= 0
            flat = flat * (N + 1) + np.maximum(x, 0)
        src = np.where(inside, column.ravel()[flat], M)
        weight = weights.T[:, :, None, None]  # weight[d]: column d
        # q_nu[i, r, P] = q^(eta+rho)_i q^kappa_i(P) of row r
        q_nu = q_epr.T[:, :, None] * q_kappa.T[:, None, :]
        a = np.zeros((len(rows), M + 1), dtype=complex)  # column M stays 0
        a[:, 0] = 1.0
        for D in range(1, N + 1):
            blk = slice(math.comb(D + n - 2, n - 1),
                        math.comb(D + n - 1, n - 1))
            # y[0] = sum_d Delta_d a(P-d);
            # y[i+1] sums G_{i,d} q^-kappa_i(d) a(P-d)
            y = sum(wd * a[:, cols]
                    for wd, cols in zip(weight, src[:reach[D], blk]))
            a[:, blk] = (t * sum(qn * yi for qn, yi in zip(q_nu[:, :, blk],
                                                           y[1:]))
                         - c * y[0]) / den[:, blk]
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        raise ConvergenceError(
            f"series coefficient at p={tuple(index[bad[0][1]].tolist())} is "
            f"not finite at q = {q}, w = {rows[bad[0][0]].w}")
    return [HCSolution(s, p, N, tuple(row))
            for s, row in zip(rows, a[:, :M].tolist())]


def solve_coefficients(s: SpectralData, p: QParams, N: int | None = None
                       ) -> HCSolution:
    """Build the coefficients a(p), |p| <= N, by the stencil recursion
    from the D^1 eigen-equation, normalized by a(0) = 1."""
    return _solve([s], p, N)[0]


def solve_basis(lam, p: QParams, N: int | None = None) -> list[HCSolution]:
    """The n! basis solutions for lam, one per w in itertools.permutations
    order, from one batched solve; each equals solve_coefficients bit for
    bit, and a NondegeneracyError concerns the first w that fails."""
    return _solve([SpectralData.make(lam, p, w=w)
                   for w in itertools.permutations(range(len(lam)))], p, N)


def leading_coefficient(s: SpectralData, p: QParams,
                        mode: XRMode = XRMode.A) -> complex:
    """Closed-form leading asymptotic coefficient of the matrix-element
    normalization, as a product over positive roots of Gamma_q ratios."""
    mode = _xr_mode(mode)
    n, q, k = s.n, p.q, p.k
    eta = s.eta
    out = complex(-1.0) ** (n * (n - 1) // 2)
    gk = qgamma(1.0 - k, q) if mode is XRMode.A else qgamma(k, q)
    for i in range(n):
        for j in range(i + 1, n):
            d = eta[i] - eta[j]
            if mode is XRMode.A:
                out *= (_cpow(q, d * (d + k) / 2.0) * gk
                        / (qgamma(d + 1.0, q) * qgamma(-d + 1.0 - k, q)))
            else:
                out *= (_cpow(q, d * (d + 1.0 - k) / 2.0) * gk
                        / (qgamma(d + 1.0, q) * qgamma(-d + k, q)))
    return out


class EvalResult(NamedTuple):
    value: complex
    tail_estimate: float


def evaluate(sol: HCSolution, z, max_ratio: float = 1.0) -> EvalResult:
    """Evaluate the truncated series at z (all ratios |z_i/z_{i+1}| < 1).

    Returns the value together with a crude geometric tail estimate based
    on the magnitude of the top-degree stratum.  max_ratio loosens the
    zone guard when the coefficients decay fast enough for the series to
    converge slightly beyond |z_i/z_{i+1}| = 1 (checkable a posteriori
    through the tail estimate); it must be finite and positive.

    This is the series kernel _series_values at one row and one point:
    every monomial is a(p) * r_1^p_1 * r_2^p_2 * ..., multiplied left to
    right, and the sums run in coefficient order, so value and tail are
    bit for bit those of a term-by-term loop.  DomainError at z_i = 0,
    the branch point of the prefactor, and at an infinite z_i; ZoneError
    unless the largest ratio modulus is below max_ratio, which NaN and a
    modulus past the float range are not; ConvergenceError when the value
    or the tail is not finite.
    """
    return EvalResult(*_checked(_series_values([sol], [z], max_ratio)[0][0]))


_BATCH = 1 << 14  # (point, row, monomial) entries per chunk: 256 KB arrays


def _series_values(sols, points, max_ratio: float) -> list[list]:
    """For each point and each row of sols, the (value, tail) evaluate
    returns there, or in its place the exception it raises.  sols share
    n and N, as the solutions of solve_basis do.

    The ratios z_i/z_{i+1}, their power lists r ** j, j <= N, the
    prefactors and the tails are taken in Python.  The monomials of every
    row at every point are formed in one numpy pass, left to right over
    the ratios, and summed in coefficient order from a leading zero by
    np.add.accumulate, which adds in sequence; the strata |p| = N - 1 and
    N that set the tail are the last entries, from start and mid on, and
    their moduli are np.hypot, as abs() is.  Each complex product is
    written in float ufuncs, (ar br - ai bi, ar bi + ai br): CPython
    rounds each product, while numpy's own complex multiply may fuse a
    multiply-add on CPUs with FMA.  Points go in chunks of at most _BATCH
    (point, row, monomial) entries.
    """
    n, N = sols[0].n, sols[0].max_degree
    out = [None] * len(points)
    summed = []  # (j, point, rho_max, power lists) of the points summed
    for j, z in enumerate(points):
        try:
            pt, ratios, rho_max = _zone_point(z, n, max_ratio)
        except Exception as exc:  # raised where the result is read
            out[j] = [exc] * len(sols)
            continue
        try:
            summed.append((j, pt, rho_max,
                           [r ** e for r in ratios for e in range(N + 1)]))
        except OverflowError:  # a power past the float range
            out[j] = [_result(sol, pt, rho_max, _OVERFLOW) for sol in sols]
    columns = _columns(n - 1, N)
    M = columns.shape[1]
    top = math.comb(N + n - 2, n - 2)  # entries with |p| = N
    mid = M - top
    start = mid - math.comb(N + n - 3, n - 2) if N else mid
    parts = (sols[0]._parts if len(sols) == 1
             else np.concatenate([sol._parts for sol in sols]))
    step = max(1, _BATCH // (len(sols) * M))
    for lo in range(0, len(summed), step):
        chunk = summed[lo:lo + step]
        power = np.array([pw for *_, pw in chunk], dtype=complex).reshape(
            len(chunk), n - 1, 1, 1, N + 1)
        # totals[p, r]: a leading 0, then the real and imaginary parts of
        # the monomials; moduli[p, r]: those of the top stratum, and of
        # the one before it after leading zeros
        totals = np.zeros((len(chunk), len(sols), 2, M + 1))
        moduli = np.zeros((len(chunk), len(sols), 2, top))
        monos = parts
        # overflow and inf * 0 become non-finite values, checked in _result
        with np.errstate(all="ignore"):
            for l in range(n - 1):
                # (a + ib)(x + iy) = (ax - by) + i(ay + bx)
                g = power[:, l].take(columns[l], axis=-1)
                by_x, by_y = monos * g.real, monos * g.imag
                monos = (totals[..., 1:] if l == n - 2
                         else np.empty(by_x.shape))
                np.subtract(by_x[..., 0, :], by_y[..., 1, :],
                            out=monos[..., 0, :])
                np.add(by_y[..., 0, :], by_x[..., 1, :], out=monos[..., 1, :])
            np.hypot(monos[..., 0, mid:], monos[..., 1, mid:],
                     out=moduli[..., 0, :])
            np.hypot(monos[..., 0, start:mid], monos[..., 1, start:mid],
                     out=moduli[..., 1, top - (mid - start):])
            totals = np.add.accumulate(totals, axis=-1)[..., -1].tolist()
            moduli = np.add.accumulate(moduli, axis=-1)[..., -1].tolist()
        for (j, pt, rho_max, _), *sums in zip(chunk, totals, moduli):
            out[j] = [_result(sol, pt, rho_max, total + modulus)
                      for sol, total, modulus in zip(sols, *sums)]
    return out


# the sums a power past the float range leaves: the tail is infinite
_OVERFLOW = (0.0, 0.0, math.inf, math.inf)


def _result(sol: HCSolution, pt, rho_max: float, sums):
    """evaluate(sol, pt)'s (value, tail), or the exception it raises,
    from the sums of the real and imaginary parts of the monomials and of
    the moduli of the top stratum and of the one before it.

    The prefactor z^(eta+rho) is multiplied left to right.  The tail is
    geometric, from the observed decay of the top two strata; a modulus
    past the float range makes prev infinite, and abs() of such a
    prefactor raises OverflowError: the tail is infinite then.
    """
    try:
        pref = complex(1.0)
        for zi, e in zip(pt, sol.prefactor_exponent):
            pref *= _cpow(zi, e)
    except Exception as exc:  # raised where the result is read
        return exc
    total_re, total_im, top, prev = sums
    value = pref * complex(total_re, total_im)
    s = (min(0.95, top / prev) if prev > 0 and top < prev
         else min(0.95, rho_max))
    try:
        tail = (abs(pref) * top * s / (1.0 - s) if math.isfinite(prev)
                else math.inf)
    except OverflowError:
        tail = math.inf
    if not (cmath.isfinite(value) and math.isfinite(tail)):
        return ConvergenceError(f"the series at {pt} is not finite")
    return value, tail


def _zone_point(z, n: int, max_ratio: float):
    """z as a tuple of complex, its ratios z_i/z_{i+1} and their largest
    modulus, after evaluate's checks of the point and of max_ratio."""
    if not 0.0 < max_ratio < math.inf:
        raise DomainError(f"max_ratio must be finite and positive, got "
                          f"{max_ratio}")
    z = tuple(complex(c) for c in z)
    if len(z) != n:
        raise DomainError(f"point must have {n} coordinates")
    if 0 in z:
        raise DomainError("the prefactor z^(eta+rho) has its branch point "
                          "at a zero coordinate")
    if any(map(cmath.isinf, z)):
        raise DomainError(f"the series is not defined at {z}, which has an "
                          f"infinite coordinate")
    ratios = [z[i] / z[i + 1] for i in range(n - 1)]
    try:
        rho_max = max(abs(r) for r in ratios)
    except OverflowError:  # a modulus past the float range
        rho_max = math.inf
    if not rho_max < max_ratio:  # a NaN rho_max fails it too
        raise ZoneError(
            f"point outside the zone: max ratio {rho_max} >= {max_ratio}")
    return z, ratios, rho_max


def eigen_residual(sol: HCSolution, m: int, z) -> float:
    """|D^m phi - c^m phi| / |c^m phi|, phi the series summed at z and at
    the points of D^m in one kernel call.  DomainError when c^m phi(z) = 0,
    where the ratio is undefined, and for an m not an integer in 1..n."""
    return _eigen_residuals([sol], z, [m])[0][0]


def _eigen_residuals(sols, z, orders) -> list[list[float]]:
    """[[eigen_residual(sol, m, z) for m in orders] for sol in sols], bit
    for bit, with the error those calls in that order raise first.  sols
    share lambda, n, N and params, as the solutions of solve_basis do.
    One kernel call sums every row at z and at the points of _shifts for
    each m, which D^m reads in that order; a value where evaluate raises
    raises its error when it is read."""
    s, p = sols[0].spectral, sols[0].params
    cs = [eigenvalue_c(s.lam_plus_rho, m, p) for m in orders]
    z = tuple(z)
    # a z of the wrong length raises where its own value is read
    points = ([pt for m in orders for _, pt in _shifts(z, m, p.q)]
              if len(z) == s.n else [])
    at_z, *shifted = _series_values(sols, [z] + points, 1.0)

    def residuals(r, held):
        for m, c in zip(orders, cs):
            ref = c * _checked(at_z[r])[0]
            if ref == 0:
                raise DomainError(f"c^m phi vanishes at {z}, so the relative "
                                  f"residual is undefined")
            lhs = macdonald_apply_numeric(
                lambda _: _checked(next(held)[r])[0], m, z, p)
            yield abs(lhs - ref) / abs(ref)
    return [list(residuals(r, iter(shifted))) for r in range(len(sols))]


# ---------------------------------------------------------------------------
# Residue-summation oracles for the contour integrals


def residue_integral_prop6(n_pow: int, lam12: complex, p: QParams) -> complex:
    """Residue sum for the theta-ratio contour integral with integrand
    y^n Theta_q(q^(l21+(k+1)/2)/y)/Theta_q(q^((1+k)/2)/y)
        * (q^((1+k)/2)/y;q)_inf/(q^((1-k)/2)/y;q)_inf  dy/(2 pi i y),
    poles at y = q^((1-k)/2+m), m >= 0.

    The residues are the term chain t_0 = 1,
    t_(m+1) = t_m q^(l21+n+k) (1 - q^(m+1-k)) / (1 - q^(m+1)), summed by
    _residue_sum, times the m = 0 prefactor q^((1-k)n/2)
    _residue_base(l21).  ConvergenceError where the series diverges, and
    near q = 1 where the theta denominator of _residue_base underflows
    (from about q = 0.995 at k = 0.4)."""
    q, k = p.q, p.k
    l21 = -complex(lam12)
    pref = _cpow(q, (1.0 - k) / 2.0 * n_pow) * _residue_base(l21, p)
    expo = l21 + n_pow + k
    if expo.real <= 0.0:
        raise ConvergenceError("residue series for the one-point integral "
                               "diverges for these parameters")
    ratio = _cpow(q, expo)
    return pref * _residue_sum(
        1.0,
        lambda m: ratio * (1.0 - q ** (m + 1 - k)) / (1.0 - q ** (m + 1)),
        abs(ratio), p.eps,
        "residue series for the one-point integral did not converge")


def one_point_integral_closed_form(n_pow: int, lam12: complex, p: QParams) -> complex:
    """Gamma_q closed form the residue sum must reproduce."""
    q, k = p.q, p.k
    l21 = -complex(lam12)
    return (qgamma(1.0 - k, q)
            / (qgamma(l21 + 1.0, q) * qgamma(complex(lam12) + 1.0 - k, q))
            * qgamma(l21 + k + n_pow, q) * qgamma(l21 + 1.0, q)
            / (qgamma(l21 + k, q) * qgamma(l21 + n_pow + 1.0, q))
            * _cpow(q, (1.0 - k) / 2.0 * n_pow))


def one_point_integral_binomial_route(n_pow: int, lam12: complex, p: QParams) -> complex:
    """Independent route: q-binomial expansion of the s-kernel followed by
    term-by-term moments of the remaining Pochhammer ratio."""
    q, k = p.q, p.k
    l12 = complex(lam12)
    l21 = -l12
    qhalf = q ** ((1.0 - k) / 2.0)
    total = complex(0.0)
    outer = complex(1.0)  # prod_{j<m}(1-q^(l12+j))/(1-q^(j+1)) z^m at m=0
    for m in range(_MAX_RESIDUES):
        # inner moment: oint y^(m+n) (q^(l21+(k+1)/2)/y;q)/(q^((1-k)/2)/y;q)
        M = m + n_pow
        inner = complex(1.0)
        for j in range(M):
            inner *= (1.0 - _cpow(q, l21 + k + j)) / (1.0 - q ** (j + 1))
        inner *= qhalf ** M
        contrib = outer * inner
        total += contrib
        if m > 4 and abs(contrib) < p.eps * max(1.0, abs(total)):
            return total
        outer *= (1.0 - _cpow(q, l12 + m)) / (1.0 - q ** (m + 1)) * qhalf
    raise ConvergenceError("binomial-route series did not converge")


def integral_rep_fq(lam, z1: complex, z2: complex, p: QParams) -> complex:
    """Residue evaluation of the single-valued theta-ratio contour integral

        oint Theta_q(q^(l2-l1+(1+k)/2) z1/y)/Theta_q(q^((1+k)/2) z1/y)
             * s(z1/y-kernel) * s(y/z2-kernel) dy/(2 pi i y)

    summing over the poles y = q^((1-k)/2+m) z1.  Equals
    Gamma_q(1-k)/(Gamma_q(l1-l2+1-k) Gamma_q(l2-l1+1))
        * F_q(k, l2-l1+k, l2-l1+1, q^(1-k) z1/z2).

    By quasi-periodicity the residue at pole m is the term chain
    t_0 = _residue_base(l2-l1) kern,
    t_(m+1) = t_m q^(l2-l1+k) (1 - q^(m+1-k)) / (1 - q^(m+1))
              * (1 - xc q^m) / (1 - xb q^m),
    with the y/z2 kernel kern = (xb;q)_inf/(xc;q)_inf taken once at
    m = 0, summed by _residue_sum.  ConvergenceError where the series
    diverges, and near q = 1 where the theta denominator of
    _residue_base underflows (from about q = 0.995 at k = 0.4).
    """
    q, k = p.q, p.k
    l1, l2 = complex(lam[0]), complex(lam[1])
    z1, z2 = complex(z1), complex(z2)
    if z1 == 0:
        # only the Gamma prefactor survives
        return (qgamma(1.0 - k, q)
                / (qgamma(l1 - l2 + 1.0 - k, q) * qgamma(l2 - l1 + 1.0, q)))
    arg = q ** (1.0 - k) * z1 / z2
    if abs(arg) >= 1.0:
        raise ZoneError("z1/z2 outside the convergence region")
    c_half = q ** ((1.0 - k) / 2.0)
    base = _residue_base(l2 - l1, p)
    shift = _cpow(q, l2 - l1)  # theta-ratio gain per unit pole index
    if abs(shift) * q ** k >= 1.0:
        raise ConvergenceError(
            "residue series diverges: requires Re(lam2 - lam1 + k) > 0")
    xb = q ** ((1.0 + k) / 2.0) * c_half * z1 / z2
    xc = c_half * c_half * z1 / z2
    num, den = _qpochhammers((xb, xc), q)
    kern = _checked(num) / _checked(den)
    gain = shift * q ** k
    return _residue_sum(
        base * kern,
        lambda m: (gain * (1.0 - q ** (m + 1 - k)) / (1.0 - q ** (m + 1))
                   * (1.0 - xc * q ** m) / (1.0 - xb * q ** m)),
        abs(gain), p.eps,
        "residue series for the two-point integral did not converge")


def _residue_base(a: complex, p: QParams) -> complex:
    """Theta_q(q^(a+k)) / Theta_q(q^k) * (q^k;q)_inf / (q;q)_inf, the
    m = 0 factor of both residue series.  ConvergenceError where the
    theta denominator underflows near q = 1."""
    q, k = p.q, p.k
    num, den = theta(_cpow(q, a + k), q), theta(q ** k, q)
    if abs(den) < sys.float_info.min:
        raise ConvergenceError("theta denominator underflows near q = 1")
    return num / den * (qpochhammer_inf(q ** k, q) / _qq_inf(q))


def _residue_sum(first: complex, ratio, limit: float, eps: float,
                 message: str) -> complex:
    """sum_m t_m of the term chain t_0 = first, t_(m+1) = t_m ratio(m),
    where ratio maps an int array of m to the array of term ratios and
    limit < 1 is the limit of |ratio(m)| as m grows.

    Returns the partial sum at the first m >= 5 with
    |t_m| < eps max(1, |partial sum|); ConvergenceError(message) when
    none comes within _MAX_RESIDUES terms.  The terms come in chunks, one
    np.multiply.accumulate of the ratios and one np.add.accumulate of the
    terms each.  The first chunk holds the log(eps)/log(limit) terms that
    a geometric tail of ratio limit needs, plus 16 and at least 32, so it
    usually ends the series; later chunks double.
    """
    size = 32
    if 0.0 < limit < 1.0:
        size = min(max(size, int(math.log(eps) / math.log(limit)) + 16),
                   _MAX_RESIDUES)
    start, term, total = 0, complex(first), 0j
    # an overflowing or NaN chain never meets the stopping rule, so it
    # ends at the term cap rather than in a NumPy warning
    with np.errstate(all="ignore"):
        while start < _MAX_RESIDUES:
            m = np.arange(start, min(start + size, _MAX_RESIDUES))
            r = ratio(m)
            terms = np.multiply.accumulate(np.concatenate(([term], r[:-1])))
            sums = total + np.add.accumulate(terms)
            small = np.abs(terms) < eps * np.maximum(1.0, np.abs(sums))
            done = np.flatnonzero(small & (m >= 5))
            if done.size:
                return complex(sums[done[0]])
            term, total = terms[-1] * r[-1], sums[-1]
            start, size = start + len(m), 2 * size
    raise ConvergenceError(message)


def integral_rep_fq_reference(lam, z1: complex, z2: complex,
                              p: QParams) -> complex:
    """The prefactored F_q value the contour integral must reproduce."""
    q, k = p.q, p.k
    l1, l2 = complex(lam[0]), complex(lam[1])
    return (qgamma(1.0 - k, q)
            / (qgamma(l1 - l2 + 1.0 - k, q) * qgamma(l2 - l1 + 1.0, q))
            * fq(k, l2 - l1 + k, l2 - l1 + 1.0,
                 q ** (1.0 - k) * z1 / z2, q, p.eps))


# ---------------------------------------------------------------------------
# JSON serialization


def solution_to_dict(sol: HCSolution) -> dict:
    """The JSON document of sol.  "prefactor_exponent" and the two
    "leading_coefficient_mode*" keys are derived output, written but never
    read back; a leading coefficient at a Gamma_q pole is null."""
    return {
        "n": sol.n,
        "q": float(sol.params.q),
        "k": float(sol.params.k),
        "lambda": [[float(c.real), float(c.imag)] for c in sol.spectral.lam],
        "w": list(sol.spectral.w),
        "N": sol.max_degree,
        "prefactor_exponent": [[float(c.real), float(c.imag)]
                               for c in sol.prefactor_exponent],
        "coeffs": [
            {"p": list(p), "re": float(a.real), "im": float(a.imag)}
            for p, a in sorted(zip(multi_indices(sol.n - 1, sol.max_degree),
                                   sol.coeffs))
        ],
        "leading_coefficient_modeA": _lead_doc(sol, XRMode.A),
        "leading_coefficient_modeB": _lead_doc(sol, XRMode.B),
    }


def _lead_doc(sol: HCSolution, mode: XRMode):
    try:
        c = leading_coefficient(sol.spectral, sol.params, mode)
    except PoleError:  # non-generic lambda; the series is still defined
        return None
    return [float(c.real), float(c.imag)]


def solution_from_dict(doc: dict) -> HCSolution:
    """The solution a solution_to_dict document describes.  Each entry of
    "coeffs" goes to the position of its "p" in multi_indices order, and
    every p of the table must occur exactly once.  DomainError for a
    missing key, a value of the wrong type, a "p" that is missing,
    repeated or outside the table, or a(0) other than exactly 1.  The
    derived keys "prefactor_exponent" and "leading_coefficient_mode*" are
    not read."""
    try:
        p = QParams(q=doc["q"], k=doc["k"])
        lam = tuple(complex(re, im) for re, im in doc["lambda"])
        s = SpectralData(n=doc["n"], lam=lam, w=tuple(doc["w"]), k=p.k)
        N = _check_depth(doc["N"])
        position = {key: j for j, key in enumerate(multi_indices(s.n - 1, N))}
        coeffs = [None] * len(position)
        for entry in doc["coeffs"]:
            key = tuple(entry["p"])
            j = position.get(key)
            if j is None:
                raise DomainError(f"multi-index {key} is not in the table of "
                                  f"{s.n - 1} variables with |p| <= {N}")
            if coeffs[j] is not None:
                raise DomainError(f"multi-index {key} occurs twice")
            coeffs[j] = complex(entry["re"], entry["im"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed solution document: {exc!r}") from exc
    missing = [key for key, j in position.items() if coeffs[j] is None]
    if missing:
        raise DomainError(f"{len(missing)} multi-indices have no coefficient, "
                          f"the first {missing[0]}")
    if coeffs[0] != 1:
        raise DomainError(f"a(0) must be 1, the solver's normalization, "
                          f"got {coeffs[0]}")
    return HCSolution(spectral=s, params=p, max_degree=N, coeffs=tuple(coeffs))


def solution_to_json(sol: HCSolution) -> str:
    return json.dumps(solution_to_dict(sol))


def solution_from_json(text: str) -> HCSolution:
    return solution_from_dict(json.loads(text))
