"""Connection formulas between asymptotic zones.

The two-term continuation of the basic q-hypergeometric series, the 2x2
braiding matrices relating Harish Chandra solutions across adjacent zones,
the face Boltzmann weights that mirror them, and a braid-relation checker
for the n=3 solution space.

Index bookkeeping for the braiding matrix: "the solution at sigma_i(z)"
means the zone series for the permuted ordering, evaluated after swapping
the i-th and (i+1)-th coordinates.  All ratio powers and theta arguments
are evaluated at the concrete ratio z_i/z_{i+1} with principal branches;
evaluation points in tests keep arguments well away from the cut.

braid_matrix, braid_action and verify_braid_relations are one loop over
2x2 blocks (_braid_actions), which forms each theta, row pairing, ratio,
spectral difference and block once per call; braid_matrix is its
two-row case.
Each entry is one exp of its theta quotients' logs and its powers' logs,
so it stays finite near q = 1 and far from ratio 1, where the thetas
themselves leave the float range.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DomainError, PoleError,
                     ResonanceError, ZoneError)
from .operators import SpectralData
from .qcore import (QParams, XRParams, _brackets, _cpow, _log_theta_of,
                    _log_theta_ratio, _theta_ratio, fq, g1, qgamma,
                    qpochhammer_inf)

_RESONANCE_TOL = 1e-10


def fq_connection(a: complex, b: complex, c: complex, z: complex,
                  p: QParams) -> tuple[complex, complex]:
    """Both sides of the two-term analytic continuation of F_q.

    lhs: the |z|-series.  rhs: the theta-weighted combination of the two
    series in q^(c+1-a-b)/z.  z must lie in the annulus where both sides
    converge, and off q^Z, where the theta denominator Theta_q(z) vanishes.
    """
    q = p.q
    z = complex(z)
    zi = _cpow(q, c + 1.0 - a - b) / z if z else math.inf
    if abs(z) >= 1.0 or abs(zi) >= 1.0:
        raise ZoneError("z outside the mutual convergence annulus")
    if _theta_vanishes(z, q):
        raise ZoneError("Theta_q(z) vanishes: z lies on q^Z")
    lhs = fq(a, b, c, z, q)

    def half(a1, b1):
        # Gamma_q(b1-a1)/Gamma_q(b1) in pole-free product form: it must
        # degenerate to an exact zero for terminating b1
        # (x;q)_inf = 0 on q^{0,-1,...}; for integer b - a one half is there
        x = _cpow(q, b1 - a1)
        if _theta_vanishes(x, q):
            raise PoleError("Gamma_q(b-a) pole in a connection coefficient")
        num = qpochhammer_inf(_cpow(q, b1), q)
        den = qpochhammer_inf(x, q)
        coeff = _cpow(1.0 - q, a1) * num / den
        if abs(coeff) == 0.0:
            return 0.0
        return (qgamma(c, q) * coeff / qgamma(c - a1, q)
                * _theta_ratio(_cpow(q, a1) * z, z, a1, q)
                * fq(a1, a1 - c + 1.0, a1 - b1 + 1.0, zi, q))

    rhs = half(a, b) + half(b, a)
    return lhs, rhs


@dataclass
class ConnectionMatrix:
    """2x2 continuation coefficients attached to an adjacent transposition.

    Row 0 expresses phi(eta, z), row 1 phi(sigma_i eta, z), both in the
    basis {phi(eta, sigma_i z), phi(sigma_i eta, sigma_i z)} (that order).
    """

    i: int
    w: tuple[int, ...]
    ratio: complex
    entries: list  # 2x2 nested list of complex

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "w": list(self.w),
            "ratio": {"re": self.ratio.real, "im": self.ratio.imag},
            "entries": [[{"re": e.real, "im": e.imag} for e in row]
                        for row in self.entries],
        }


def _theta_vanishes(x: complex, base: float) -> bool:
    """Whether Theta_base(x) = 0, i.e. x lies on base^Z.

    Tests the argument, not |Theta|: near base = 1 every theta value is
    below any fixed absolute tolerance.  ZoneError when x lies so far from
    1 that base^-m leaves the floating-point range, and for an x that is
    0, inf or NaN.
    """
    try:
        m = round(cmath.log(x).real / math.log(base))
        return abs(1.0 - x * base ** -m) < _RESONANCE_TOL
    except (OverflowError, ValueError):  # ValueError: log(0), round(NaN)
        raise ZoneError(f"theta argument {x} is outside the floating-point "
                        "range") from None


def braid_matrix(s: SpectralData, i: int, z, p: QParams) -> ConnectionMatrix:
    """Continuation matrix for crossing the wall |z_i| = |z_{i+1}| (1-based i).

    phi(eta, z)       = M[0][0] phi(eta, sigma z) + M[0][1] phi(s_i eta, sigma z)
    phi(s_i eta, z)   = M[1][0] phi(eta, sigma z) + M[1][1] phi(s_i eta, sigma z)

    With d = eta_{i+1} - eta_i, zeta = z_i/z_{i+1}, u = 1/zeta and
    Theta = Theta_q, the entries for sign e = +1 (row 0) and e = -1 (row 1)
    are

        diag = Theta(q^k)/Theta(q^(ed)) Theta(q^(ed) u)/Theta(q^k u) zeta^(k-ed)
        off  = q^(-ked) Theta(q^(k-ed))/Theta(q^(-ed)) Theta(u)/Theta(q^k u) zeta^k

    so the matrix takes nine distinct thetas: Theta(q^k), Theta(q^(+-d)),
    Theta(q^(+-d) u), Theta(q^k u), Theta(u) and Theta(q^(k-+d)).  Each
    entry is the exp of a sum of theta quotients' logs
    (qcore._log_theta_ratio) and powers' logs.  It is braid_action on the
    two rows s and s_i s.  ResonanceError is raised when a denominator
    theta vanishes, ZoneError when a theta argument is too far from 1 for
    floating point, and ConvergenceError when an entry is not finite.
    """
    if not 1 <= i <= s.n - 1:  # before _swap
        raise DomainError(f"i must lie in 1..{s.n - 1}")
    rows = [(s.w, s.eta), (_swap(s.w, i), _swap(s.eta, i))]
    M = _braid_actions(rows, [(i, z)], p)[0]
    return ConnectionMatrix(i=i, w=s.w,
                            ratio=complex(z[i - 1]) / complex(z[i]),
                            entries=M.tolist())


def braid_action(s_list, i: int, z, p: QParams) -> np.ndarray:
    """The full n!-dimensional continuation matrix for wall i, on the basis
    of solutions ordered as in s_list (a list of SpectralData sharing lam).

    Each 2x2 block is formed from the row of its pair that comes first in
    s_list, as braid_matrix forms it, and each distinct theta argument is
    computed once; _braid_actions says where the last bits can differ."""
    return _braid_actions([(sd.w, sd.eta) for sd in s_list], [(i, z)],
                          p)[0]


class _Zone:
    """What a ratio zeta = z_i/z_{i+1} fixes in one braid call: u = 1/zeta,
    q^k u, log zeta, u_ku = log Theta(u)/Theta(q^k u) zeta^k (None until
    q^k u has passed its resonance test) and the entries of its blocks
    formed so far, by spectral difference d."""

    __slots__ = ("u", "qku", "log_zeta", "u_ku", "blocks")

    def __init__(self, zeta: complex, qk: float):
        self.u = 1.0 / zeta
        self.qku = qk * self.u
        self.log_zeta = cmath.log(zeta)
        self.u_ku = None
        self.blocks = {}


def _braid_actions(rows, walls, p: QParams) -> list[np.ndarray]:
    """braid_action(s_list, i, z, p) for each (i, z) of walls, in order,
    with rows the (w, eta) of each element of s_list.

    One loop over the 2x2 blocks forms each quantity once per call, at
    the level it depends on: each log theta once, in a memo keyed by its
    argument; per wall index i, the row pairs; per ratio zeta, a _Zone;
    per spectral difference d, q^(+-d), q^(k-+d) and the four theta
    quotients that depend on q alone; per block, Theta(q^(+-d) u), two
    quotients and four exps.  Each block is formed from the first row of
    its pair, and a block of (zeta, d) met again is reused.  For real d,
    q^d and q^-(-d) differ in the sign of a zero imaginary part, which
    moves log Theta's last bits and which the theta memo, keyed by value,
    drops: where two pairs of a wall have opposite real d, the later
    block can differ from braid_matrix's of its first row in its last
    bits.

    The first block that fails raises the error braid_matrix would: a wall
    i outside 1..n-1 and an s_list without the partner s_i w of one of
    its w (DomainError), then a zero coordinate, the three resonance
    tests in their order, the thetas in the order of the nine arguments
    of braid_matrix's docstring, and an entry that overflows.
    """
    dim = len(rows)
    index = {w: j for j, (w, _) in enumerate(rows)}
    q, k = p.q, p.k
    eps, qk = -math.log(q), q ** k
    evaluate, thetas = _log_theta_of(q), {}
    pairings, zones, spectra = {}, {}, {}

    def pairing(i):
        # the (row, partner row, d = eta_(i+1) - eta_i) of each block of
        # wall i, in order, and the DomainError of the row that ends them,
        # if one does
        blocks, done = [], set()
        for j, (w, eta) in enumerate(rows):
            if j in done:
                continue
            if not 1 <= i <= len(w) - 1:  # before _swap
                return blocks, DomainError(f"i must lie in 1..{len(w) - 1}")
            j2 = index.get(_swap(w, i))
            if j2 is None:
                return blocks, DomainError(f"s_list has no partner of w = "
                                           f"{w} across wall {i}")
            done.update((j, j2))
            blocks.append((j, j2, eta[i] - eta[i - 1]))
        return blocks, None

    def log_theta(x):  # its pair (c, s), or its error raised
        entry = thetas.get(x)
        if entry is None:
            entry = thetas[x] = evaluate(x)
        return entry

    def ratio(x1, x2, a):  # log Theta(x1) / Theta(x2), x1 = q^a x2
        return _log_theta_ratio(log_theta(x1), log_theta(x2), a, eps)

    def resonance(name, x):
        if _theta_vanishes(x, q):
            raise ResonanceError(f"{name} vanishes: resonant parameters")

    def block(zone, d):
        # the checks of d and of the zone interleave, so that each comes
        # where braid_matrix's order puts it; a d or zone formed before
        # has passed them all
        spec = spectra.get(d)
        if spec is None:
            qd, qmd = _cpow(q, d), _cpow(q, -d)
            resonance("Theta_q(q^d)", qd)
        if zone.u_ku is None:
            resonance("Theta_q(q^k u)", zone.qku)
        if spec is None:
            resonance("Theta_q(q^d)", qmd)
            qkmd, qkpd = _cpow(q, -d + k), _cpow(q, d + k)
            a0, a1 = ratio(qk, qd, k - d), ratio(qk, qmd, k + d)
        else:
            qd, qmd, a0, a1, o0, o1 = spec
        u, qku, log_zeta = zone.u, zone.qku, zone.log_zeta
        if zone.u_ku is None:
            zone.u_ku = ratio(u, qku, -k) + k * log_zeta
        b0, b1 = ratio(qd * u, qku, d - k), ratio(qmd * u, qku, -d - k)
        if spec is None:
            o0 = k * d * eps + ratio(qkmd, qmd, k)
            o1 = -k * d * eps + ratio(qkpd, qd, k)
            spectra[d] = qd, qmd, a0, a1, o0, o1
        try:
            diag0, off0, off1, diag1 = map(cmath.exp, (
                a0 + b0 + (k - d) * log_zeta, o0 + zone.u_ku,
                o1 + zone.u_ku, a1 + b1 + (k + d) * log_zeta))
        except OverflowError:
            raise ConvergenceError("a braid matrix entry is not finite in "
                                   "floating point") from None
        return (diag0, off0), (off1, diag1)

    out = []
    for i, z in walls:
        M = np.zeros((dim, dim), dtype=complex)
        out.append(M)
        if i not in pairings:
            pairings[i] = pairing(i)
        blocks, error = pairings[i]
        zone = None
        for j, j2, d in blocks:
            if zone is None:  # the wall's own checks, at its first block
                z = tuple(complex(c) for c in z)
                if z[i] == 0:
                    raise DomainError("z_{i+1} must be nonzero")
                zeta = z[i - 1] / z[i]
                if zeta == 0:
                    raise DomainError("z_i / z_{i+1} must be nonzero")
                # equal ratios on the two sides of the cut differ in
                # log zeta, and in the sign of a zero imaginary part
                key = zeta, math.copysign(1.0, zeta.imag)
                zone = zones.get(key)
                if zone is None:
                    zone = zones[key] = _Zone(zeta, qk)
            entries = zone.blocks.get(d)
            if entries is None:
                entries = zone.blocks[d] = block(zone, d)
            (M[j, j], M[j, j2]), (M[j2, j], M[j2, j2]) = entries
        if error is not None:
            raise error
    return out


def verify_braid_relations(s: SpectralData, p: QParams, z) -> dict:
    """Check the braid relation and double-crossing on the n!-dim basis.

    For n=3 assembles the 6x6 matrices for the two walls along both
    reduced words of the longest element and compares the products; for
    any n checks that crossing wall 1 forth and back is the identity.
    Returns a report with the max deviations.  All the matrices come
    from one _braid_actions call: the points differ only by
    transpositions, so ratios, spectral differences, blocks and theta
    arguments repeat, and each is formed once, with entries bit-identical
    to braid_action's (n = 3: 21 blocks, 12 distinct, 45 distinct
    thetas).  The wall-1 matrix M1 at z, the first factor of the double
    crossing, is also the first factor of the sigma1 sigma2 sigma1 path,
    so seven matrices serve the eight factors.
    """
    n = s.n
    z = tuple(complex(c) for c in z)
    basis = [(w, tuple(s.lam[x] for x in w))  # (w, eta) of each element
             for w in itertools.permutations(range(n))]
    report = {}
    # double crossing: continue across wall 1 and back; for n = 3,
    # sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2 along consistent points
    walls, _ = _path(z, [1, 1])
    if n == 3:
        path_a, end_a = _path(z, [1, 2, 1])
        path_b, end_b = _path(z, [2, 1, 2])
        assert end_a == end_b
        walls += path_a[1:] + path_b  # path A starts with M1
    mats = _braid_actions(basis, walls, p)
    M1, M1_back = mats[:2]
    report["double_crossing"] = float(
        np.max(np.abs(M1 @ M1_back - np.eye(len(basis)))))
    if n == 3:
        A = M1 @ mats[2] @ mats[3]
        B = mats[4] @ mats[5] @ mats[6]
        scale = max(np.max(np.abs(A)), np.max(np.abs(B)))
        report["braid_relation"] = float(np.max(np.abs(A - B)) / scale)
    return report


def _path(z, walls) -> tuple[list, tuple]:
    """The (wall, point) of each crossing along walls from z, and the
    point it ends at."""
    steps = []
    for i in walls:
        steps.append((i, z))
        z = _swap(z, i)
    return steps, z


def _swap(v, i: int) -> tuple:
    """v with entries i and i+1 exchanged (1-based i): a point after
    crossing wall i, or the Weyl element of the partner row."""
    v = list(v)
    v[i - 1], v[i] = v[i], v[i - 1]
    return tuple(v)


@dataclass
class BoltzmannWeights:
    """Face weights for exchanging two adjacent vertex insertions."""

    mu_ij: complex
    v: complex
    r1: complex
    w_cross: complex  # exchanges the two column states
    w_same: complex   # keeps the two column states

    def matrix(self, other: "BoltzmannWeights") -> np.ndarray:
        """2x2 exchange matrix pairing this weight set (mu_ij) with the
        reversed pair (mu_ji = -mu_ij)."""
        return np.array([[self.w_same, self.w_cross],
                         [other.w_cross, other.w_same]], dtype=complex)


def boltzmann_r1(v: complex, xr: XRParams, n: int) -> complex:
    """Common prefactor r_1(v) = z^((r-1)/r (n-1)/n) g_1(1/z)/g_1(z), z=x^2v;
    the errors of g1 at 1/z, then at z, then ResonanceError where
    g_1(z) = 0."""
    x, r = xr.x, xr.r
    z = _cpow(x, 2.0 * v)
    pref = _cpow(z, (r - 1.0) / r * (n - 1.0) / n)
    num, den = g1(1.0 / z, x, r, n), g1(z, x, r, n)
    if den == 0:
        raise ResonanceError("g_1(z) vanishes in the denominator of r_1: "
                             "resonant parameters")
    return pref * num / den


def _bracket_vanishes(v: complex, xr: XRParams) -> bool:
    """Whether [v] = 0: its theta argument x^(2v) lies on x^(2r Z)."""
    return _theta_vanishes(_cpow(xr.x, 2.0 * v), xr.x ** (2.0 * xr.r))


def _v_factors(v: complex, xr: XRParams, n: int) -> tuple:
    """The mu-independent factors r_1(v), [v], [v-1], [1] of the weights,
    the three brackets from one call of qcore._brackets."""
    if _bracket_vanishes(v - 1.0, xr):
        raise ResonanceError("bracket vanishes in a weight denominator")
    return (boltzmann_r1(v, xr, n), *_brackets((v, v - 1.0, 1.0), xr))


def _weights(mu_ij: complex, v: complex, xr: XRParams,
             factors: tuple) -> BoltzmannWeights:
    """The weights for mu_ij from the factors of _v_factors(v, xr, n); the
    brackets [mu_ij], [mu_ij - 1], [v - mu_ij] come from one call of
    qcore._brackets."""
    if _bracket_vanishes(mu_ij, xr):
        raise ResonanceError("bracket vanishes in a weight denominator")
    r1, br_v, den1, br_1 = factors
    den2, br_m1, br_vm = _brackets((mu_ij, mu_ij - 1.0, v - mu_ij), xr)
    w_cross = r1 * br_v * br_m1 / (den1 * den2)
    w_same = r1 * br_vm * br_1 / (den1 * den2)
    return BoltzmannWeights(mu_ij=mu_ij, v=v, r1=r1,
                            w_cross=w_cross, w_same=w_same)


def boltzmann_w(mu_ij: complex, v: complex, xr: XRParams,
                n: int) -> BoltzmannWeights:
    """The two face weights sharing the r_1(v) prefactor:

    w_cross = r1 [v][mu_ij - 1] / ([v-1][mu_ij])
    w_same  = r1 [v - mu_ij][1] / ([v-1][mu_ij])
    """
    return _weights(mu_ij, v, xr, _v_factors(v, xr, n))


def boltzmann_exchange_matrix(mu_ij: complex, v: complex, xr: XRParams,
                              n: int) -> np.ndarray:
    """The 2x2 exchange matrix at spectral separation v; both weight sets
    share the v-dependent factors."""
    factors = _v_factors(v, xr, n)
    return _weights(mu_ij, v, xr, factors).matrix(
        _weights(-mu_ij, v, xr, factors))
