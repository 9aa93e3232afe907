"""Harish Chandra series solutions in the asymptotic zone |z_1|<...<|z_n|.

Multiplying the first-order eigen-equation by Delta = prod_{a<b}(1 - z_a/z_b)
makes each operator weight W_i a polynomial G_i = W_i Delta in the ratio
variables z_l/z_{l+1}.  Over the finite stencil d != 0 of their monomials
the series coefficients then obey

    a(P) den(P) = -sum_d a(P-d) [c Delta_d - t sum_i G_{i,d} q^nu_i(P-d)]

with den(P) = c - sum_i t^(i+1) q^nu_i(P), nu = eta + rho + kappa(P) and
kappa_i(P) = P_i - P_(i-1).  Each total degree is one vectorized step over
a dense array on the simplex |p| <= N whose rows are basis elements: they
differ only in q^(eta+rho).  Higher-order equations are verified
numerically, not imposed.  Also holds the closed-form leading
coefficients, numeric evaluation with a geometric tail estimate, JSON
round-tripping, and the residue-summation oracles for the contour integrals.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DomainError, NondegeneracyError,
                     PoleError, ZoneError)
from .operators import SpectralData, eigenvalue_c, macdonald_apply_numeric
from .qcore import (QParams, XRMode, _cpow, _qq_inf, fq, qgamma,
                    qpochhammer_inf, theta)

DEFAULT_DEPTH = {2: 24, 3: 16, 4: 10}
_MAX_RESIDUES = 100_000


def default_depth(n: int) -> int:
    return DEFAULT_DEPTH.get(n, 8)


class PowerTable:
    """Dense table of series coefficients indexed by p in Z_+^(n-1), |p| <= N."""

    __slots__ = ("n_vars", "max_degree", "coeffs")

    def __init__(self, n_vars: int, max_degree: int):
        self.n_vars = n_vars
        self.max_degree = max_degree
        self.coeffs: dict[tuple[int, ...], complex] = {
            p: 0.0 for p in multi_indices(n_vars, max_degree)}

    def __getitem__(self, p):
        return self.coeffs[tuple(p)]

    def __setitem__(self, p, v):
        self.coeffs[tuple(p)] = complex(v)


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


@dataclass
class HCSolution:
    """A Harish Chandra solution: prefactor exponent, coefficient table, params."""

    spectral: SpectralData
    params: QParams
    table: PowerTable
    leading_coefficient_modeA: complex
    leading_coefficient_modeB: complex

    @property
    def n(self) -> int:
        return self.spectral.n

    @property
    def max_degree(self) -> int:
        return self.table.max_degree

    @property
    def prefactor_exponent(self) -> tuple[complex, ...]:
        return self.spectral.eta_plus_rho


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
    row does not depend on the rows solved with it."""
    n, q, t = rows[0].n, p.q, p.t
    N = default_depth(n) if N is None else N
    if not isinstance(N, numbers.Integral) or N < 0:
        raise DomainError(f"N must be a non-negative integer, got {N!r}")
    N = int(N)
    c = eigenvalue_c(rows[0].lam_plus_rho, 1, p)
    keys = list(multi_indices(n - 1, N))
    M = len(keys)
    index = np.array(keys).reshape(M, n - 1)
    q_kappa = q ** np.diff(index, axis=1, prepend=0, append=0)  # q^kappa(P)
    q_epr = np.array([[_cpow(q, e) for e in s.eta_plus_rho] for s in rows])
    # checked up front: the error names the first row, then the first P
    den = c - sum(t ** (i + 1) * q_epr[:, i, None] * q_kappa[:, i]
                  for i in range(n))
    small = np.argwhere(np.abs(den[:, 1:]) < 1e-10 * abs(c))
    if len(small):
        P = keys[small[0][1] + 1]
        raise NondegeneracyError(f"nondegeneracy violated at p={P}",
                                 multi_index=P)
    offsets, weights = _stencil(n, t)
    # q^nu_i(P-d) = q^nu_i(P) q^-kappa_i(d): the d part joins G_i
    weights[1:] *= q ** -np.diff(offsets, axis=1, prepend=0, append=0).T
    column = np.full((N + 1,) * (n - 1), M)  # multi-index -> column of a
    column[tuple(index.T)] = np.arange(M)
    a = np.zeros((len(rows), M + 1), dtype=complex)  # column M stays 0
    a[:, 0] = 1.0
    for D in range(1, N + 1):
        blk = slice(math.comb(D + n - 2, n - 1), math.comb(D + n - 1, n - 1))
        src = index[blk] - offsets[offsets.sum(axis=1) <= D, None]
        src = np.where((src >= 0).all(axis=2),  # src[d, P]: column of P - d
                       column[tuple(np.maximum(src, 0).T)].T, M)
        # y[0] = sum_d Delta_d a(P-d); y[i+1] sums G_{i,d} q^-kappa_i(d) a(P-d)
        y = sum(w[:, None, None] * a[:, cols]
                for cols, w in zip(src, weights.T))
        a[:, blk] = (t * sum(q_epr[:, i, None] * q_kappa[blk, i] * y[i + 1]
                             for i in range(n)) - c * y[0]) / den[:, blk]

    def lead(s, mode):
        try:
            return leading_coefficient(s, p, mode)
        except PoleError:  # non-generic lambda; the series is still defined
            return None

    out = []
    for s, coeffs in zip(rows, a[:, :M].tolist()):
        table = PowerTable(n - 1, N)
        table.coeffs.update(zip(keys, coeffs))
        out.append(HCSolution(s, p, table, *(lead(s, m) for m in XRMode)))
    return out


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
    mode = XRMode(mode) if not isinstance(mode, XRMode) else mode
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
    through the tail estimate).
    """
    z = tuple(complex(c) for c in z)
    n = sol.n
    if len(z) != n:
        raise DomainError(f"point must have {n} coordinates")
    ratios = [z[i] / z[i + 1] for i in range(n - 1)]
    rho_max = max(abs(r) for r in ratios)
    if rho_max >= max_ratio:
        raise ZoneError(
            f"point outside the zone: max ratio {rho_max} >= {max_ratio}")
    pref = complex(1.0)
    for zi, e in zip(z, sol.prefactor_exponent):
        pref *= _cpow(zi, e)
    total = complex(0.0)
    top = 0.0
    prev = 0.0
    N = sol.max_degree
    for p, a in sol.table.coeffs.items():
        mono = a
        for r, pl in zip(ratios, p):
            mono *= r ** pl
        total += mono
        if sum(p) == N:
            top += abs(mono)
        elif sum(p) == N - 1:
            prev += abs(mono)
    # geometric tail from the observed decay of the top two strata
    s = min(0.95, top / prev) if prev > 0 and top < prev else min(0.95, rho_max)
    tail = abs(pref) * top * s / (1.0 - s)
    return EvalResult(value=pref * total, tail_estimate=tail)


def eigen_residual(sol: HCSolution, m: int, z) -> float:
    """|D^m phi - c^m phi| / |c^m phi| with phi the truncated series."""
    phi = lambda zz: evaluate(sol, zz).value
    c = eigenvalue_c(sol.spectral.lam_plus_rho, m, sol.params)
    ref = c * phi(tuple(z))
    lhs = macdonald_apply_numeric(phi, m, tuple(z), sol.params)
    return abs(lhs - ref) / abs(ref)


# ---------------------------------------------------------------------------
# Residue-summation oracles for the contour integrals


def residue_integral_prop6(n_pow: int, lam12: complex, p: QParams) -> complex:
    """Residue sum for the theta-ratio contour integral with integrand
    y^n Theta_q(q^(l21+(k+1)/2)/y)/Theta_q(q^((1+k)/2)/y)
        * (q^((1+k)/2)/y;q)_inf/(q^((1-k)/2)/y;q)_inf  dy/(2 pi i y),
    poles at y = q^((1-k)/2+m), m >= 0."""
    q, k = p.q, p.k
    l21 = -complex(lam12)
    pref = (_cpow(q, (1.0 - k) / 2.0 * n_pow)
            * theta(_cpow(q, l21 + k), q) / theta(q ** k, q)
            * qpochhammer_inf(q ** k, q) / _qq_inf(q))
    expo = l21 + n_pow + k
    if expo.real <= 0.0:
        raise ConvergenceError("residue series for the one-point integral "
                               "diverges for these parameters")
    ratio = _cpow(q, expo)
    total = complex(0.0)
    term = complex(1.0)  # prod_{j=1..m} (1-q^(j-k))/(1-q^j) at m=0
    for m in range(_MAX_RESIDUES):
        contrib = term * ratio ** m
        total += contrib
        if m > 4 and abs(contrib) < p.eps * max(1.0, abs(total)):
            return pref * total
        term *= (1.0 - q ** (m + 1 - k)) / (1.0 - q ** (m + 1))
    raise ConvergenceError("residue series for the one-point integral "
                           "did not converge")


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
    # at the m-th pole the theta ratio and the z1/y Pochhammer ratio reduce,
    # via quasi-periodicity, to stable m=0 values times simple recurrences
    theta_base = theta(_cpow(q, l2 - l1 + k), q) / theta(q ** k, q)
    poch_base = qpochhammer_inf(q ** k, q) / _qq_inf(q)
    shift = _cpow(q, l2 - l1)  # theta-ratio gain per unit pole index
    if abs(shift) * q ** k >= 1.0:
        raise ConvergenceError(
            "residue series diverges: requires Re(lam2 - lam1 + k) > 0")
    # the y/z2 kernel at pole m is (xb q^m;q)_inf/(xc q^m;q)_inf: computed
    # once at m=0, then peeled by one factor of each product per pole
    xb = q ** ((1.0 + k) / 2.0) * c_half * z1 / z2
    xc = c_half * c_half * z1 / z2
    kern = qpochhammer_inf(xb, q) / qpochhammer_inf(xc, q)
    fm = complex(1.0)          # prod_{j<=m} q^k (1-q^(j-k))/(1-q^j)
    qm = 1.0                   # q^m
    total = complex(0.0)
    for m in range(_MAX_RESIDUES):
        rest = theta_base * shift ** m * poch_base * fm * kern
        total += rest
        if m > 4 and abs(rest) < p.eps * max(1.0, abs(total)):
            return total
        fm *= q ** k * (1.0 - q ** (m + 1 - k)) / (1.0 - q ** (m + 1))
        kern *= (1.0 - xc * qm) / (1.0 - xb * qm)
        qm *= q
    raise ConvergenceError("residue series for the two-point integral "
                           "did not converge")


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
            for p, a in sorted(sol.table.coeffs.items())
        ],
        "leading_coefficient_modeA": _opt_complex(sol.leading_coefficient_modeA),
        "leading_coefficient_modeB": _opt_complex(sol.leading_coefficient_modeB),
    }


def _opt_complex(c):
    return None if c is None else [float(c.real), float(c.imag)]


def solution_from_dict(doc: dict) -> HCSolution:
    p = QParams(q=doc["q"], k=doc["k"])
    lam = tuple(complex(re, im) for re, im in doc["lambda"])
    s = SpectralData(n=doc["n"], lam=lam, w=tuple(doc["w"]), k=p.k)
    table = PowerTable(doc["n"] - 1, doc["N"])
    for entry in doc["coeffs"]:
        table[tuple(entry["p"])] = complex(entry["re"], entry["im"])
    la = doc["leading_coefficient_modeA"]
    la = None if la is None else complex(*la)
    lb = doc["leading_coefficient_modeB"]
    lb = None if lb is None else complex(*lb)
    return HCSolution(spectral=s, params=p, table=table,
                      leading_coefficient_modeA=la,
                      leading_coefficient_modeB=lb)


def solution_to_json(sol: HCSolution) -> str:
    return json.dumps(solution_to_dict(sol))


def solution_from_json(text: str) -> HCSolution:
    return solution_from_dict(json.loads(text))
