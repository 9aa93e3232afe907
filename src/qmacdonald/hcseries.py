"""Harish Chandra series solutions in the asymptotic zone |z_1|<...<|z_n|.

Multiplying the first-order eigen-equation by Delta = prod_{a<b}(1 - z_a/z_b)
makes each operator weight W_i a polynomial G_i = W_i Delta in the ratio
variables z_l/z_{l+1}.  Over the finite stencil d != 0 of their monomials
the series coefficients then obey

    a(P) den(P) = -sum_d a(P-d) [c Delta_d - t sum_i G_{i,d} q^nu_i(P-d)]

with den(P) = c - sum_i t^(i+1) q^nu_i(P), nu = eta + rho + kappa(P) and
kappa_i(P) = P_i - P_(i-1).  The rows of one dense coefficient array on
the simplex |p| <= N are basis elements: they differ only in q^(eta+rho).
At n = 2 the stencil is the one offset d = (1,), the recursion is Heine's
first-order term ratio a(P) = ratio(P) a(P-1) of a 2phi1, and the solver
forms every ratio at once and takes their cumulative product.  For n >= 3
each total degree is one gather of a(P - d) over the stencil and two
contractions, the first with every weight row at once; the stencil is
built once per n and the gather table once per (n, N).  Each coefficient
then lies within a stated multiple of eps L(P) of the recursion summed
offset by offset, L(P) the scale of its step (_solve).
Higher-order equations are verified numerically, not imposed.

A solution holds its coefficients as one tuple in table order, |p| <= N
graded by |p| and lexicographic within a degree; only _columns and
_stratum state that layout, and every reader takes it from them.
A solution holds only what the solver computes; the closed-form leading
coefficients are computed where they are asked for, as the JSON writer
does.  Also holds JSON round-tripping and the residue-summation oracles
for the contour integrals.

One kernel, _series_values, sums the series: for evaluate, one row at
one point, and for the eigen residuals of eigen_residual and `verify`,
in one call, one row or all n! basis elements at z and at the points
z_I -> q z_I that D^m reads, which operators._shifts builds.  The ratios
of every point in the zone are raised to the powers 0..N in one numpy
power and read through the cached exponent columns in table
order; the monomials of all points form one complex matrix, and the
value and the moduli of the top two strata, which set the geometric tail
estimate, are its contractions with the coefficient rows, which each
solution builds once as a read-only array.  Inside the radius of
convergence the value is the term-by-term sum to within a few eps
|prefactor| sum_p |a(p) r^p|.
Where evaluate raises, the kernel holds the exception in place of the
value, as qcore's batched q-products do.
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
from .operators import (SpectralData, _finite_image, _shifts, _weighted_points,
                        _weighted_sum, eigenvalue_c)
from .qcore import (DEFAULT_EPS, QParams, XRMode, _checked, _cpow,
                    _qpochhammers, _qq_inf, _xr_mode, fq, qgamma,
                    qpochhammer_inf, theta)

DEFAULT_DEPTH = {2: 24, 3: 16, 4: 10}
_MAX_RESIDUES = 100_000
_GATHER = 1 << 14  # complex entries the degree loop gathers at once


def default_depth(n: int) -> int:
    return DEFAULT_DEPTH.get(n, 8)


def multi_indices(n_vars: int, max_total: int):
    """All p in Z_+^(n_vars) with |p| <= max_total, in table order: the
    columns of _columns as tuples."""
    return zip(*_columns(n_vars, max_total).tolist())


@functools.cache
def _columns(n_vars: int, max_total: int) -> np.ndarray:
    """The table as one read-only int array, column j the j-th p: the grid
    positions with |p| <= max_total, lexicographic in row-major order,
    stably sorted by |p|; only |p| is held per grid point."""
    total = sum(np.indices((max_total + 1,) * n_vars, sparse=True))
    flat = np.flatnonzero(total <= max_total)
    flat = flat[np.argsort(total.ravel()[flat], kind="stable")]
    columns = np.array(np.unravel_index(flat, total.shape))
    columns.setflags(write=False)
    return columns


def _stratum(n_vars: int, D: int) -> slice:
    """The positions of the multi-indices with |p| = D in _columns."""
    return slice(math.comb(D + n_vars - 1, n_vars),
                 math.comb(D + n_vars, n_vars))


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
        size = _stratum(self.n - 1, self.max_degree).stop
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
    def _row(self) -> np.ndarray:
        """coeffs as one read-only complex array, built on first use; not
        a field, so dataclasses.replace gives the copy its own."""
        row = np.array(self.coeffs, dtype=complex)
        row.setflags(write=False)
        return row


@functools.cache
def _stencil(n: int):
    """The stencil at n as read-only arrays: the offsets d != 0 by
    increasing |d|, the exponents of q^-kappa_i(d) (row i), and the
    coefficients there of Delta (row 0) and of each G_i =
    prod_{j>i}(1 - t z_i/z_j) prod_{j<i}(t - z_j/z_i)
    prod_{a<b; a,b != i}(1 - z_a/z_b) (row i+1) as integer polynomials in
    t, poly[k, d, j] that of t^j.  A factor c0 + c1 z_a/z_b (a < b) adds
    c1 times the polynomial shifted by 1 on slots a..b-1; a coefficient t
    raises the degree in t, which stays below n."""
    zero = (0,) * (n - 1)
    one = np.zeros((n + 1, n))
    one[:, 0] = 1.0
    terms = {zero: one}
    for a, b in itertools.combinations(range(n), 2):
        out = {}
        for d, v in terms.items():  # c0 = 1, and t in row b + 1
            out[d] = v.copy()
            out[d][b + 1] = np.roll(v[b + 1], 1)
        for d, v in terms.items():  # c1 = -1, and -t in row a + 1
            e = tuple(x + (a <= l < b) for l, x in enumerate(d))
            w = -v
            w[a + 1] = np.roll(w[a + 1], 1)
            out[e] = out.get(e, 0.0) + w
        terms = out
    offsets = sorted((d for d, v in terms.items() if d != zero and v.any()),
                     key=sum)
    poly = np.array([terms[d] for d in offsets]).reshape(-1, n + 1, n)
    offsets = np.array(offsets, dtype=np.int64).reshape(-1, n - 1)
    tables = (offsets, -np.diff(offsets, axis=1, prepend=0, append=0).T,
              poly.transpose(1, 0, 2))
    for table in tables:
        table.setflags(write=False)
    return tables


def _weights(n: int, q: float, t: float) -> np.ndarray:
    """The stencil's weights at q and t, column d for offset d: Delta_d in
    row 0 and G_{i,d} q^-kappa_i(d) in row i+1, as q^nu_i(P-d) =
    q^nu_i(P) q^-kappa_i(d) lets the d part join G_i.  The polynomials of
    _stencil are summed by Horner's rule in t."""
    _, minus_kappa, poly = _stencil(n)
    weights = poly[..., -1]
    for j in range(n - 2, -1, -1):
        weights = weights * t + poly[..., j]
    weights[1:] *= q ** minus_kappa
    return weights


@functools.cache
def _tables(n: int, N: int):
    """The integer tables of a solve at depth N as read-only arrays:
    kappa[j] = kappa(P) of the j-th multi-index P, with
    kappa_i(P) = P_i - P_(i-1); reach[D], the number of stencil offsets
    with |d| <= D (a prefix, as _stencil sorts by |d|); and the gather
    table src[d, j], the column of P - d for every offset with |d| <= N,
    or M where P - d leaves the table."""
    index = _columns(n - 1, N).T  # row j: the j-th multi-index
    M = len(index)
    offsets = _stencil(n)[0]
    reach = np.searchsorted(offsets.sum(axis=1), np.arange(N + 1),
                            side="right")
    offsets = offsets[:reach[N]]
    column = np.full((N + 1,) * (n - 1), M)  # multi-index -> column of a
    column[tuple(index.T)] = np.arange(M)
    # one coordinate at a time, as a row-major position in column
    inside = np.ones((len(offsets), M), dtype=bool)
    flat = np.zeros((len(offsets), M), dtype=np.int64)
    for l in range(n - 1):
        x = index[:, l] - offsets[:, l, None]
        inside &= x >= 0
        flat = flat * (N + 1) + np.maximum(x, 0)
    tables = (np.diff(index, axis=1, prepend=0, append=0), reach,
              np.where(inside, column.ravel()[flat], M))
    for table in tables:
        table.setflags(write=False)
    return tables


def _ratio_product(q_nu, den, weight, c, t) -> np.ndarray:
    """The coefficients at n = 2, whose stencil is the one offset d = (1,):
    the recursion is Heine's first-order term ratio a(P) = ratio(P) a(P-1)
    with ratio(P) = (t sum_i q^nu_i(P) W_(i+1) - c Delta_1) / den(P), and
    weight = (Delta_1, W_1, W_2) is the stencil's one column.  Every ratio
    is formed at once, then one cumulative product runs along P."""
    a = np.ones(den.shape, dtype=complex)
    a[:, 1:] = ((t * (q_nu[0, :, 1:] * weight[1] + q_nu[1, :, 1:] * weight[2])
                 - c * weight[0]) / den[:, 1:])
    return np.multiply.accumulate(a, axis=1)


def _degree_loop(reach, src, weights, q_epr, q_kappa, den, c, t
                 ) -> np.ndarray:
    """The coefficients of a stencil of several offsets, n >= 3, one total
    degree at a time, as a (rows, M + 1) array whose column M is zeros.
    Degree D gathers a(P - d) for the first reach[D] offsets at the
    columns src of its stratum, real and imaginary parts side by side, and
    contracts them with all n + 1 weight rows in one einsum, y[k] =
    sum_d weights[k, d] a(P - d); a second takes sum_k coef[k](P)
    y[k](P), coef = (-c, t q^nu_0(P), ..., t q^nu_(n-1)(P)) set up once,
    and a(P) is that sum over den(P).  A stratum whose gather would hold
    more than _GATHER entries goes in runs of columns, so that a basis of
    many rows gathers a piece at a time.  einsum, not @, for the reason
    _series_values gives."""
    n, rows, M = len(weights) - 1, len(den), den.shape[1]
    coef = np.empty((n + 1, M, rows), dtype=complex)
    coef[0] = -c
    coef[1:] = t * (q_kappa.T[:, :, None] * q_epr.T[:, None, :])
    den = den.T
    a = np.zeros((M + 1, rows), dtype=complex)  # row M stays 0
    a[0] = 1.0
    parts = a.view(float)  # row P: the real and imaginary parts of a(P)
    for D in range(1, len(reach)):
        stratum, r = _stratum(n - 1, D), reach[D]
        step = max(1, _GATHER // (r * rows))
        for start in range(stratum.start, stratum.stop, step):
            blk = slice(start, min(start + step, stratum.stop))
            y = np.einsum("kd,dx->kx", weights[:, :r],
                          parts[src[:r, blk]].reshape(r, -1))
            np.divide(np.einsum("kpr,kpr->pr", coef[:, blk],
                                y.view(complex).reshape(n + 1, -1, rows)),
                      den[blk], out=a[blk])
    return a.T


def _solve(rows: list[SpectralData], p: QParams, N) -> list[HCSolution]:
    """Solve the basis elements rows (one lambda, several w) as the rows of
    one coefficient array.  Only elementwise operations and sums over the
    stencil mix values, so a row does not depend on the rows solved with
    it.

    Set-up runs once per solve: the denominators den(P), checked for
    nondegeneracy, the stencil weights and the products q^(eta+rho)_i
    q^kappa_i(P) for every row and P; the integer tables come from the
    caches of _stencil and _tables.  The path follows the stencil.  At
    n = 2 it has the one offset d = (1,), and _ratio_product forms every
    term ratio at once and takes their cumulative product; each
    coefficient then rounds apart from the per-degree recursion within a
    bound set by the condition of the product.  For n >= 3, _degree_loop
    solves one total degree at a time in two contractions; each
    coefficient lies within 6.7e4 eps L(P) of a 30-digit run of the same
    recursion, L(P) = (|t| sum_i |q^nu_i(P)| sum_d |W_(i+1),d| |a(P-d)|
    + |c| sum_d |Delta_d| |a(P-d)|) / |den(P)| the scale of one step.
    The multiple is rounding carried from earlier steps: measured at most
    3.3e4 at q = 0.2, k = 0.15 and a few hundred at q = 0.5 and 0.9.
    Where lambda has a difference equal to k, some coefficients are 0 in
    exact arithmetic, L(P) can vanish along them, and no such bound
    holds."""
    n, q, t = rows[0].n, p.q, p.t
    N = _check_depth(default_depth(n) if N is None else N)
    c = eigenvalue_c(rows[0].lam_plus_rho, 1, p)
    index = _columns(n - 1, N).T  # row j: the j-th multi-index
    M = len(index)
    kappa, reach, src = _tables(n, N)
    # overflow and 0 * inf in extreme q are caught below as non-finite
    # coefficients, not as NumPy warnings
    with np.errstate(all="ignore"):
        q_kappa = q ** kappa  # q^kappa(P)
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
        weights = _weights(n, q, t)
        if n == 2:
            # q_nu[i, r, P] = q^(eta+rho)_i q^kappa_i(P) of row r
            q_nu = q_epr.T[:, :, None] * q_kappa.T[:, None, :]
            a = _ratio_product(q_nu, den, weights[:, 0], c, t)
        else:
            a = _degree_loop(reach, src, weights, q_epr, q_kappa, den, c, t)
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

    This is the series kernel _series_values at one row and one point.
    Inside the radius of convergence, which is q^(k-1) at n = 2, the
    value is the term-by-term sum to within a few eps |prefactor| sum_p
    |a(p) r^p|.  Past the radius no bound is stated: there the top strata
    outweigh the rest, and at N >= 100 their powers r^j, taken as
    exp(j log r), have put the value up to 29 eps of that scale from a
    30-digit sum of the same series.
    DomainError at z_i = 0, the branch point of the prefactor, and at an
    infinite z_i; ZoneError unless the largest ratio modulus is below
    max_ratio, which NaN and a modulus past the float range are not;
    ConvergenceError when the value or the tail is not finite.
    """
    return EvalResult(*_checked(_series_values([sol], [z], max_ratio)[0][0]))


def _series_values(sols, points, max_ratio: float) -> list[list]:
    """For each point and each row of sols, the (value, tail) evaluate
    returns there, or in its place the exception it raises.  sols share
    n and N, as the solutions of solve_basis do.

    The ratios z_i/z_{i+1} of every point in the zone are raised to the
    powers 0..N in one numpy power; the prefactors and the tails are
    taken in Python.  The (points, M) monomial matrix is the product of
    the powers over the exponent columns; the value and the moduli of the
    strata |p| = N and N - 1, summed as |a(p)| |r^p|, are its
    contractions with the cached coefficient rows.  einsum, not @:
    complex @ goes to BLAS, whose kernel the CPU picks at run time.
    """
    n, N = sols[0].n, sols[0].max_degree
    out = [None] * len(points)
    summed, ratios = [], []  # (j, point, rho_max) and ratios of the summed
    for j, z in enumerate(points):
        try:
            pt, rs, rho_max = _zone_point(z, n, max_ratio)
        except Exception as exc:  # raised where the result is read
            out[j] = [exc] * len(sols)
            continue
        summed.append((j, pt, rho_max))
        ratios += rs
    columns = _columns(n - 1, N)
    mid = _stratum(n - 1, N).start  # entries with |p| = N from mid on
    start = _stratum(n - 1, max(N - 1, 0)).start  # and N - 1 from start
    coeffs = np.array([sol._row for sol in sols]).T  # (M, rows)
    # a power past the float range and inf * 0 become non-finite values,
    # checked in _result
    with np.errstate(all="ignore"):
        power = (np.array(ratios, dtype=complex).reshape(len(summed), n - 1, 1)
                 ** np.arange(N + 1))
        monos = power[:, 0, columns[0]]
        for l in range(1, n - 1):
            monos = monos * power[:, l, columns[l]]
        moduli, sizes = np.abs(monos[:, start:]), np.abs(coeffs[start:])
        value = np.einsum("pm,mr->pr", monos, coeffs)
        top = np.einsum("pm,mr->pr", moduli[:, mid - start:],
                        sizes[mid - start:])
        prev = np.einsum("pm,mr->pr", moduli[:, :mid - start],
                         sizes[:mid - start])
    sums = np.stack([value.real, value.imag, top, prev], axis=-1).tolist()
    for (j, pt, rho_max), row in zip(summed, sums):
        out[j] = [_result(sol, pt, rho_max, s) for sol, s in zip(sols, row)]
    return out


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
    raises its error when it is read.  D^m's checks of z and its weights
    are formed once per m, by operators._weighted_points, when the first
    row reaches m, after its c^m phi = 0 check, where eigen_residual forms
    them."""
    s, p = sols[0].spectral, sols[0].params
    cs = [eigenvalue_c(s.lam_plus_rho, m, p) for m in orders]
    z = tuple(z)
    # a z of the wrong length raises where its own value is read
    points = ([pt for m in orders for _, pt in _shifts(z, m, p.q)]
              if len(z) == s.n else [])
    at_z, *shifted = _series_values(sols, [z] + points, 1.0)
    weighted = {}  # m -> D^m's (weight, point) list

    def residuals(r, held):
        for m, c in zip(orders, cs):
            ref = c * _checked(at_z[r])[0]
            if ref == 0:
                raise DomainError(f"c^m phi vanishes at {z}, so the relative "
                                  f"residual is undefined")
            if m not in weighted:
                weighted[m] = _weighted_points(z, m, p.q, p.t)
            lhs = _finite_image(_weighted_sum(
                weighted[m], lambda _: _checked(next(held)[r])[0], m, p.t),
                m, z)
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
        abs(ratio),
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
        if m > 4 and abs(contrib) < DEFAULT_EPS * max(1.0, abs(total)):
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
    m = 0, summed by _residue_sum.  DomainError at z2 = 0 unless z1 = 0;
    ConvergenceError where the series diverges, and near q = 1 where the
    theta denominator of _residue_base underflows (from about q = 0.995
    at k = 0.4).
    """
    q, k = p.q, p.k
    l1, l2 = complex(lam[0]), complex(lam[1])
    z1, z2 = complex(z1), complex(z2)
    if z1 == 0:
        # only the Gamma prefactor survives
        return (qgamma(1.0 - k, q)
                / (qgamma(l1 - l2 + 1.0 - k, q) * qgamma(l2 - l1 + 1.0, q)))
    if z2 == 0:
        raise DomainError("z2 must be nonzero")
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
        abs(gain),
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


def _residue_sum(first: complex, ratio, limit: float, message: str) -> complex:
    """sum_m t_m of the term chain t_0 = first, t_(m+1) = t_m ratio(m),
    where ratio maps an int array of m to the array of term ratios and
    limit < 1 is the limit of |ratio(m)| as m grows.

    Stops at the first m >= 5 with |t_m| < DEFAULT_EPS max(1, |partial
    sum|) and returns the partial sum plus the geometric tail
    t_m r_m / (1 - r_m), r_m = ratio(m), so that the terms left out do not
    cost about DEFAULT_EPS / (1 - |r_m|) of the sum near q = 1;
    ConvergenceError(message) when none comes within _MAX_RESIDUES terms
    or the sum is not finite.  The terms come in chunks, one
    np.multiply.accumulate of the ratios and one np.add.accumulate of the
    terms each.  The first chunk holds the log(DEFAULT_EPS)/log(limit)
    terms that a geometric tail of ratio limit needs, plus 16 and at
    least 32, so it usually ends the series; later chunks double.
    """
    size = 32
    if 0.0 < limit < 1.0:
        need = int(math.log(DEFAULT_EPS) / math.log(limit)) + 16
        size = min(max(size, need), _MAX_RESIDUES)
    start, term, total = 0, complex(first), 0j
    # an overflowing or NaN chain never meets the stopping rule, so it
    # ends at the term cap rather than in a NumPy warning
    with np.errstate(all="ignore"):
        while start < _MAX_RESIDUES:
            m = np.arange(start, min(start + size, _MAX_RESIDUES))
            r = ratio(m)
            terms = np.multiply.accumulate(np.concatenate(([term], r[:-1])))
            sums = total + np.add.accumulate(terms)
            small = np.abs(terms) < DEFAULT_EPS * np.maximum(1.0, np.abs(sums))
            done = np.flatnonzero(small & (m >= 5))
            if done.size:
                i = done[0]
                total = complex(sums[i] + terms[i] * r[i] / (1.0 - r[i]))
                if not cmath.isfinite(total):
                    break
                return total
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
                 q ** (1.0 - k) * z1 / z2, q))


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
