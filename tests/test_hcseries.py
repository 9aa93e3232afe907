"""Tests for the series solver, evaluation, leading coefficients,
serialization and the residue-summation oracles."""

import copy
import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from qmacdonald import (ConvergenceError, DomainError, NondegeneracyError,
                        QParams, SpectralData, XRMode, ZoneError,
                        eigen_residual, evaluate, fq, integral_rep_fq,
                        leading_coefficient, qgamma, residue_integral_prop6,
                        solution_from_json, solution_to_json, solve_basis,
                        solve_coefficients)
from qmacdonald import hcseries
from qmacdonald.hcseries import (_columns, _eigen_residuals, _stencil,
                                 _stratum, _weights, default_depth,
                                 multi_indices,
                                 solution_from_dict,
                                 solution_to_dict,
                                 integral_rep_fq_reference,
                                 one_point_integral_binomial_route, one_point_integral_closed_form)
from qmacdonald.operators import (_shifts, eigenvalue_c,
                                  macdonald_apply_numeric)
from qmacdonald.qcore import _cpow, qpochhammer_inf, theta

LAM2 = (0.27, -0.27)
LAM3 = (0.31, -0.11, -0.20)
LAM5 = (0.33, 0.11, -0.07, -0.15, -0.22)


def _table(sol):
    """The coefficients of sol keyed by multi-index."""
    return dict(zip(multi_indices(sol.n - 1, sol.max_degree), sol.coeffs))


def _with_entries(sol, entries):
    """sol with the coefficients at the multi-indices of entries replaced."""
    table = _table(sol)
    table.update(entries)
    return dataclasses.replace(sol, coeffs=tuple(table.values()))

# (q, k, lambda, w, N) and entries (p, re, im) of the coefficient table
# computed by the truncated-convolution solver that preceded the stencil
# recursion: the largest and the smallest entry at a few total degrees.
GOLDEN = [
    ((0.4, 0.35, (0.27, -0.27), (1, 0), 40), [
        ((1,), -0.13937139465493523, 0.0),
        ((2,), -0.04611106128750162, 0.0),
        ((20,), -7.908941055517359e-07, 0.0),
        ((39,), -9.628513083261165e-12, 0.0),
        ((40,), -5.307600413166354e-12, 0.0),
    ]),
    ((0.5, 0.4, (0.31, -0.11, -0.2), (2, 0, 1), 12), [
        ((0, 1), 0.22118465969018702, 0.0),
        ((1, 0), -0.08790366148658633, 0.0),
        ((1, 1), 0.1982446865935211, 0.0),
        ((2, 0), -0.03433313402070114, 0.0),
        ((3, 3), 0.05454782523658355, 0.0),
        ((5, 1), -0.004213287585662492, 0.0),
        ((5, 6), 0.007168060031054445, 0.0),
        ((10, 1), -0.00049477490314779, 0.0),
        ((6, 6), 0.014098660575695782, 0.0),
        ((11, 1), -0.00032611134495919757, 0.0),
    ]),
    ((0.6, 0.65, (0.31 + 0.05j, -0.05, -0.12 - 0.05j, -0.14), (1, 3, 0, 2), 8), [
        ((0, 0, 1), 0.4840096905462534, 0.010537243392130828),
        ((0, 1, 0), 0.23759348750801237, -0.036866571273719555),
        ((0, 1, 1), 0.5930218099148598, -0.005994981700123227),
        ((0, 2, 0), 0.1479821134873181, -0.024331438257277602),
        ((1, 1, 2), 0.5254148043463901, 0.009275358963087513),
        ((0, 4, 0), 0.08470101500095152, -0.014272606232249909),
        ((2, 2, 3), 0.5040492114729845, 0.007971165667807983),
        ((4, 0, 3), 0.04337604273964571, 0.0013280944506693496),
        ((2, 3, 3), 0.5885105537241054, -0.004491870064743335),
        ((4, 0, 4), 0.03441666896868323, 0.001099428729640525),
    ]),
]


class TestSolver:
    def test_normalization(self, p):
        s = SpectralData.make(LAM2, p)
        sol = solve_coefficients(s, p, N=6)
        assert _table(sol)[(0,)] == 1.0

    def test_n2_first_coefficient(self, p):
        q, t, k = p.q, p.t, p.k
        d = LAM2[0] - LAM2[1]
        s = SpectralData.make(LAM2, p)
        sol = solve_coefficients(s, p, N=2)
        ref = ((1 - q ** k) * (1 - q ** (d + k))
               / ((1 - q) * (1 - q ** (d + 1)))) * (q / t)
        assert abs(_table(sol)[(1,)] - ref) < 1e-13

    def test_n2_matches_hypergeometric(self, p):
        # coefficients of F_q(k, d+k, d+1, (q/t) zeta) by term recurrence
        q, k = p.q, p.k
        d = LAM2[0] - LAM2[1]
        s = SpectralData.make(LAM2, p)
        table = _table(solve_coefficients(s, p, N=30))
        term = 1.0
        worst = 0.0
        for j in range(31):
            worst = max(worst, abs(table[(j,)] - term))
            term *= ((1 - q ** (k + j)) * (1 - q ** (d + k + j))
                     / ((1 - q ** (1 + j)) * (1 - q ** (d + 1 + j)))
                     * q ** (1 - k))
        assert worst < 1e-12

    def test_nondegeneracy_error(self, p):
        # lambda_12 = -1 puts the spectral point on the resonant lattice
        s = SpectralData.make((-0.5, 0.5), p)
        with pytest.raises(NondegeneracyError) as exc:
            solve_coefficients(s, p, N=4)
        assert exc.value.multi_index == (1,)

    def test_basis_error_names_first_failing_element(self, p):
        # the batched solve raises where the one-by-one loop first would:
        # w = (0, 1, 2) fails at (1, 1) although w = (0, 2, 1) already
        # fails at degree 1, at (1, 0)
        lam = (-0.5, 0.0, 0.5)
        for w in itertools.permutations(range(3)):
            try:
                solve_coefficients(SpectralData.make(lam, p, w=w), p, N=4)
            except NondegeneracyError as exc:
                first = exc.multi_index
                break
        with pytest.raises(NondegeneracyError) as exc:
            solve_basis(lam, p, N=4)
        assert exc.value.multi_index == first

    @pytest.mark.parametrize("N", [-1, -5, 2.0, 2.5, "3"])
    def test_depth_must_be_nonnegative_integer(self, p, N):
        with pytest.raises(DomainError):
            solve_coefficients(SpectralData.make(LAM2, p), p, N=N)
        with pytest.raises(DomainError):
            solve_basis(LAM3, p, N=N)

    @pytest.mark.parametrize("case,entries", GOLDEN)
    def test_golden_coefficients(self, case, entries):
        q, k, lam, w, N = case
        p = QParams(q=q, k=k)
        table = _table(solve_coefficients(SpectralData.make(lam, p, w=w), p,
                                          N=N))
        scale = {}
        for P, a in table.items():
            scale[sum(P)] = max(scale.get(sum(P), 0.0), abs(a))
        for P, re, im in entries:
            err = abs(table[P] - complex(re, im))
            assert err <= 1e-12 * scale[sum(P)], (P, err)


class TestBasis:
    @pytest.mark.parametrize("lam,N", [(LAM2, 30), (LAM3, 10),
                                       ((0.31, -0.05, -0.12, -0.14), 6)])
    def test_rows_equal_single_solves(self, p, lam, N):
        basis = solve_basis(lam, p, N=N)
        perms = list(itertools.permutations(range(len(lam))))
        assert [sol.spectral.w for sol in basis] == perms
        for sol, w in zip(basis, perms):
            one = solve_coefficients(SpectralData.make(lam, p, w=w), p, N=N)
            assert _table(sol) == _table(one)

    def test_n5_smoke(self, p):
        basis = solve_basis(LAM5, p, N=6)
        assert len(basis) == 120
        z = tuple(p.q ** (-5.0 * i) for i in range(5))
        for j in (0, 1, 37, 64, 119):
            assert eigen_residual(basis[j], 1, z) < 1e-8


def _stencil_by_dict(n, t):
    """The stencil as the solver built it before its polynomials in t were
    cached per n: offsets d != 0 by increasing |d|, and the coefficients
    there of Delta (row 0) and of each G_i (row i+1) at this t, from a dict
    of float polynomials.  A factor c0 + c1 z_a/z_b (a < b) adds c1 times
    the polynomial shifted by 1 on slots a..b-1."""
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


def _solve_by_degree(rows, p, N):
    """The solver as it stood before its gather table was built once per
    solve: every degree D recomputes the columns of P - d for its stratum
    and sums the offsets one at a time, on the stencil of
    _stencil_by_dict.  Kept as the oracle the solver is checked against,
    raising the same errors.  Returns the coefficient tuple of each row."""
    n, q, t = rows[0].n, p.q, p.t
    c = eigenvalue_c(rows[0].lam_plus_rho, 1, p)
    keys = list(multi_indices(n - 1, N))
    M = len(keys)
    index = np.array(keys).reshape(M, n - 1)
    with np.errstate(all="ignore"):
        q_kappa = q ** np.diff(index, axis=1, prepend=0, append=0)
        q_epr = np.array([[_cpow(q, e) for e in s.eta_plus_rho]
                          for s in rows])
        den = c - sum(t ** (i + 1) * q_epr[:, i, None] * q_kappa[:, i]
                      for i in range(n))
        small = np.argwhere(np.abs(den[:, 1:]) < 1e-10 * abs(c))
        if len(small):
            P = keys[small[0][1] + 1]
            raise NondegeneracyError(f"nondegeneracy violated at p={P}",
                                     multi_index=P)
        offsets, weights = _stencil_by_dict(n, t)
        weights[1:] *= q ** -np.diff(offsets, axis=1, prepend=0, append=0).T
        column = np.full((N + 1,) * (n - 1), M)
        column[tuple(index.T)] = np.arange(M)
        a = np.zeros((len(rows), M + 1), dtype=complex)
        a[:, 0] = 1.0
        for D in range(1, N + 1):
            blk = slice(math.comb(D + n - 2, n - 1),
                        math.comb(D + n - 1, n - 1))
            src = index[blk] - offsets[offsets.sum(axis=1) <= D, None]
            src = np.where((src >= 0).all(axis=2),
                           column[tuple(np.maximum(src, 0).T)].T, M)
            y = sum(w[:, None, None] * a[:, cols]
                    for cols, w in zip(src, weights.T))
            a[:, blk] = (t * sum(q_epr[:, i, None] * q_kappa[blk, i]
                                 * y[i + 1] for i in range(n))
                         - c * y[0]) / den[:, blk]
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        raise ConvergenceError(
            f"series coefficient at p={keys[bad[0][1]]} is not finite at "
            f"q = {q}, w = {rows[bad[0][0]].w}")
    return [tuple(row) for row in a[:, :M].tolist()]


def _recursion_inputs(rows, p, N):
    """The float inputs of the recursion, as the solver forms them: the
    multi-indices (M, n-1), q^(eta+rho) of each row (rows, n),
    q^kappa(P) (M, n), den(P) (rows, M), the stencil offsets and weights
    (row 0 Delta_d, row i+1 G_(i,d) q^-kappa_i(d)), c and t."""
    n, q, t = rows[0].n, p.q, p.t
    c = eigenvalue_c(rows[0].lam_plus_rho, 1, p)
    index = _columns(n - 1, N).T
    q_kappa = q ** np.diff(index, axis=1, prepend=0, append=0)
    q_epr = np.array([[_cpow(q, e) for e in s.eta_plus_rho] for s in rows])
    den = c - sum(t ** (i + 1) * q_epr[:, i, None] * q_kappa[:, i]
                  for i in range(n))
    return (index, q_epr, q_kappa, den, _stencil(n)[0], _weights(n, q, t),
            c, t)


def _by_mpmath(mp, rows, p, N):
    """The coefficients of each row by the recursion a(P) = (t sum_i
    q^nu_i(P) y_(i+1)(P) - c y_0(P)) / den(P), y_k(P) = sum_d W_(k,d)
    a(P-d), at the working precision, from the float inputs of
    _recursion_inputs (q^nu_i(P) the exact product of the floats
    q^(eta+rho)_i and q^kappa_i(P)), so that only the solver's arithmetic
    differs."""
    index, q_epr, q_kappa, den, offsets, weights, c, t = _recursion_inputs(
        rows, p, N)
    column = {tuple(P): j for j, P in enumerate(index.tolist())}
    W = [[mp.mpf(w) for w in row] for row in weights.tolist()]
    out = []
    for r in range(len(rows)):
        a = [mp.mpc(1)]
        for j in range(1, len(index)):
            y = [mp.mpc(0)] * len(W)
            for d, off in enumerate(offsets.tolist()):
                src = column.get(tuple(x - o for x, o in zip(index[j], off)))
                if src is not None:
                    y = [yk + Wk[d] * a[src] for yk, Wk in zip(y, W)]
            total = -mp.mpc(c) * y[0]
            for i, yi in enumerate(y[1:]):
                total += (mp.mpf(t) * mp.mpc(q_epr[r, i])
                          * mp.mpf(q_kappa[j, i]) * yi)
            a.append(total / mp.mpc(den[r, j]))
        out.append(a)
    return out


def _step_scale(rows, p, N, *solutions):
    """L(P) for each row and P >= 1: (|t| sum_i |q^nu_i(P)| sum_d
    |W_(i+1),d| |a(P-d)| + |c| sum_d |Delta_d| |a(P-d)|) / |den(P)|, the
    scale of one step of the recursion, with |a| the largest modulus the
    solutions (one sequence per row each; mpmath numbers allowed) give the
    coefficient: a coefficient that is 0 in exact arithmetic, as some are
    at n = 5, may round to exactly 0 on one side and not on the other, and
    the step that reads it rounds on the scale of the side that did not."""
    index, q_epr, q_kappa, den, offsets, weights, c, t = _recursion_inputs(
        rows, p, N)
    size = np.max([[[float(abs(x)) for x in row] for row in solution]
                   for solution in solutions], axis=0)
    M = len(index)
    column = {tuple(P): j for j, P in enumerate(index.tolist())}
    src = np.array([[column.get(tuple(x - o for x, o in zip(P, off)), M)
                     for P in index.tolist()] for off in offsets.tolist()]
                   ).reshape(len(offsets), M)
    padded = np.concatenate((size, np.zeros((len(rows), 1))), axis=1)
    y = np.einsum("kd,rdj->krj", np.abs(weights), padded[:, src])
    q_nu = np.abs(q_epr.T[:, :, None] * q_kappa.T[:, None, :])
    scale = abs(t) * (q_nu * y[1:]).sum(axis=0) + abs(c) * y[0]
    return scale[:, 1:] / abs(den[:, 1:])  # den(0) may be 0


def _step_errors(got, ref, scale):
    """Each |got - ref| for P >= 1 as a multiple of eps L(P); ref may hold
    mpmath numbers.  Both start at a(0) = 1."""
    err = np.array([[float(abs(g - r)) for g, r in zip(gs, rs)]
                    for gs, rs in zip(got, ref)])
    assert (err[:, 0] == 0).all()
    with np.errstate(invalid="ignore"):  # 0 / 0 where both sides agree
        return np.where(err[:, 1:] == 0, 0.0, err[:, 1:] / (EPS * scale))


SOLVE_LAMS = {2: LAM2, 3: LAM3,
              4: (0.31 + 0.05j, -0.05, -0.12 - 0.05j, -0.14), 5: LAM5}


def _first_difference(rows, ref):
    """(row, position, value, reference) of the first coefficient whose
    repr differs from the reference, or None; one small failure message
    in place of a diff of two long strings."""
    assert [len(row) for row in rows] == [len(row) for row in ref]
    for r, (row, want) in enumerate(zip(rows, ref)):
        for j, (a, b) in enumerate(zip(row, want)):
            if repr(a) != repr(b):
                return r, j, a, b
    return None


def _n2_ratios(rows, p, N):
    """At n = 2, the float inputs of the term ratios ratio(P) = num(P) /
    den(P), num(P) = t q^nu_0(P) W_1 + t q^nu_1(P) W_2 - c Delta_1, formed
    as the solver forms them: q_nu (2, rows, N + 1), den (rows, N + 1),
    the stencil weights W of d = (1,), c and t."""
    _, q_epr, q_kappa, den, _, weights, c, t = _recursion_inputs(rows, p, N)
    q_nu = q_epr.T[:, :, None] * q_kappa.T[:, None, :]
    return q_nu, den, weights[:, 0], c, t


def _n2_condition(rows, p, N):
    """sum_(1 <= j <= P) kappa_j for each row and P, kappa_j = (|t q^nu_0(j)
    W_1| + |t q^nu_1(j) W_2| + |c Delta_1|) / |num(j)| the condition of
    the j-th term ratio: the product a(P) of the rounded ratios is within
    a few eps |a(P)| times this sum of the product of the exact ones."""
    q_nu, den, W, c, t = _n2_ratios(rows, p, N)
    terms = abs(t * q_nu[0] * W[1]) + abs(t * q_nu[1] * W[2]) + abs(c * W[0])
    num = t * (q_nu[0] * W[1] + q_nu[1] * W[2]) - c * W[0]
    kappa = terms / abs(num)
    kappa[:, 0] = 0.0
    return np.cumsum(kappa, axis=1)


def _n2_by_mpmath(mp, rows, p, N):
    """The coefficients of each row as the product, at the working
    precision, of the term ratios formed from the solver's float inputs,
    so that only the solver's arithmetic differs."""
    q_nu, den, W, c, t = _n2_ratios(rows, p, N)
    out = []
    for r in range(len(rows)):
        a = [mp.mpc(1)]
        for P in range(1, N + 1):
            num = (mp.mpf(t) * (mp.mpc(q_nu[0, r, P]) * mp.mpf(W[1])
                                + mp.mpc(q_nu[1, r, P]) * mp.mpf(W[2]))
                   - mp.mpc(c) * mp.mpf(W[0]))
            a.append(a[-1] * num / mp.mpc(den[r, P]))
        out.append(a)
    return out


# At n = 2 the solver takes the cumulative product of the term ratios,
# so each coefficient is checked against the degree loop and against the
# 30-digit product of the same float ratios within BOUND eps |a(P)| times
# the sum of the ratios' conditions (_n2_condition).  The bounds are
# twice the worst multiple measured on the grids of test_equals_degree_loop
# and test_n2_against_mpmath, taken over numpy's X86_V4, X86_V3 and
# baseline dispatch levels (x86-64, Python 3.11, numpy 2.4): 0.27 against
# the loop and 0.25 against mpmath, at every level.  The first ratio
# cancels most, kappa_1 = 3.2e3 at q = 0.9, k = 0.7, and the sum of the
# conditions is at most 3.7e3 there.  The product of the unsigned ratios,
# prod_j (sum |terms_j|) / |den_j|, also covers cancelling ratios, but it
# exceeds |a(P)| by up to 4e20 at that q, so eps times it would not bound
# the late coefficients by less than their own size.
N2_LOOP_BOUND = 0.54
N2_MP_BOUND = 0.51
N2_CASES = [(0.5, 0.4), (0.9, 0.7), (0.2, 0.15)]


def _n2_errors(got, ref, cond):
    """Each |got - ref| for P >= 1 as a multiple of eps |ref| cond; ref
    may hold mpmath numbers.  Both start at a(0) = 1."""
    err = np.array([[float(abs(g - r)) for g, r in zip(gs, rs)]
                    for gs, rs in zip(got, ref)])
    size = np.array([[float(abs(r)) for r in rs] for rs in ref])
    assert (err[:, 0] == 0).all()
    return err[:, 1:] / (EPS * size[:, 1:] * cond[:, 1:])


# For n >= 3 the solver contracts the gathered coefficients of a degree
# with all n + 1 weight rows at once, and so rounds apart from the
# per-offset sums of _solve_by_degree.  Each coefficient is checked
# against that loop and against a 30-digit run of the same recursion from
# the same float inputs (_by_mpmath) within BOUND eps L(P), L(P) the
# scale of one step (_step_scale).  The bounds are twice the worst
# multiple measured on the grids of test_equals_degree_loop and
# test_against_mpmath, taken over numpy's X86_V4, X86_V3 and baseline
# dispatch levels (x86-64, Python 3.11, numpy 2.4): 3.72e4 against the
# loop and 3.34e4 against mpmath.  The multiples far above 1 are the
# rounding of earlier steps carried forward, which L(P) does not count;
# they are largest at q = 0.2, k = 0.15, and read 35-739 at the other
# (q, k).  The loop itself reads 28-848 there and 7.0e3-3.19e4 at
# q = 0.2 against mpmath on the same grid.  Scaling by the recursion run
# on absolute values would count the carried rounding too, but it exceeds
# |a(P)| by up to 5e31 at q = 0.9, k = 0.7 (n = 3, N = 16), so eps times
# it would bound nothing.
# At n = 5, LAM5 has lambda differences equal to k = 0.4 and to k = 0.15:
# there some coefficients are 0 in exact arithmetic, and L(P) vanishes
# along chains of them that one side rounds to exact zeros and the other
# to values near eps (both the loop and the solver read multiples near
# 1e15 against mpmath there).  Those cells check each coefficient within
# N5_ROW_BOUND eps of the largest coefficient of its row instead
# (measured at most 9969 eps, at q = 0.9, k = 0.7, N = 8).
STEP_LOOP_BOUND = 7.5e4
STEP_MP_BOUND = 6.7e4
N5_ROW_BOUND = 2e4


def _row_errors(got, ref):
    """Each |got - ref| as a multiple of eps times the largest |ref| of
    its row."""
    err = np.abs(np.array(got) - np.array(ref))
    return err / (EPS * np.abs(np.array(ref)).max(axis=1, keepdims=True))


class TestSolverBits:
    """The solver against its per-degree form and against mpmath.  At
    n = 2 the product of term ratios, and for n >= 3 the contraction of
    each degree, round apart from the per-degree loop, so each coefficient
    is checked under a bound.  At every n a batched row equals its
    one-at-a-time solve by repr: -0.0 == 0.0, but the golden CSV prints
    -0."""

    @pytest.mark.parametrize("q,k", N2_CASES)
    @pytest.mark.parametrize("n,N", [(n, N) for n in (2, 3, 4, 5)
                                     for N in (0, 1, default_depth(n))]
                             + [(2, 96)])
    def test_equals_degree_loop(self, q, k, n, N):
        p = QParams(q=q, k=k)
        basis = solve_basis(SOLVE_LAMS[n], p, N=N)
        rows = [sol.spectral for sol in basis]
        ref = _solve_by_degree(rows, p, N)
        got = [sol.coeffs for sol in basis]
        if n == 2:
            errors = _n2_errors(got, ref, _n2_condition(rows, p, N))
            assert (errors <= N2_LOOP_BOUND).all(), errors.max()
        elif n == 5:
            errors = _row_errors(got, ref)
            assert (errors <= N5_ROW_BOUND).all(), errors.max()
        else:
            errors = _step_errors(got, ref,
                                  _step_scale(rows, p, N, got, ref))
            assert (errors <= STEP_LOOP_BOUND).all(), errors.max()
        one = solve_coefficients(basis[-1].spectral, p, N=N)
        assert _first_difference([one.coeffs], got[-1:]) is None

    @pytest.mark.parametrize("q,k", N2_CASES)
    @pytest.mark.parametrize("N", [1, default_depth(2), 96])
    def test_n2_against_mpmath(self, q, k, N):
        mp = pytest.importorskip("mpmath")
        p = QParams(q=q, k=k)
        basis = solve_basis(LAM2, p, N=N)
        rows = [sol.spectral for sol in basis]
        with mp.workdps(30):
            errors = _n2_errors([sol.coeffs for sol in basis],
                                _n2_by_mpmath(mp, rows, p, N),
                                _n2_condition(rows, p, N))
        assert (errors <= N2_MP_BOUND).all(), errors.max()

    # every fifth row at n = 4 keeps the 30-digit recursion short
    @pytest.mark.parametrize("q,k", N2_CASES)
    @pytest.mark.parametrize("n,N,step", [(3, 16, 1), (4, 8, 5)])
    def test_against_mpmath(self, q, k, n, N, step):
        mp = pytest.importorskip("mpmath")
        p = QParams(q=q, k=k)
        basis = solve_basis(SOLVE_LAMS[n], p, N=N)[::step]
        rows = [sol.spectral for sol in basis]
        got = [sol.coeffs for sol in basis]
        with mp.workdps(30):
            ref = _by_mpmath(mp, rows, p, N)
            errors = _step_errors(got, ref, _step_scale(rows, p, N, got, ref))
        assert (errors <= STEP_MP_BOUND).all(), errors.max()

    # the cached polynomials in t, summed by Horner's rule, against the
    # dict of float polynomials built at each t; q = 1 leaves them bare.
    # Measured bit for bit at every n on this grid (x86-64, numpy 2.4).
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stencil_equals_dict_builder(self, n):
        for t in np.linspace(0.001, 0.999, 300):
            offsets, ref = _stencil_by_dict(n, t)
            assert np.array_equal(_stencil(n)[0], offsets)
            got = _weights(n, 1.0, t)
            if n == 2:
                assert repr(got.tolist()) == repr(ref.tolist()), t
            else:
                assert (np.abs(got - ref) <= np.spacing(np.abs(ref))).all(), t

    @pytest.mark.parametrize("lam", [(-0.5, 0.5), (-0.5, 0.0, 0.5)])
    def test_same_nondegeneracy_error(self, p, lam):
        rows = [SpectralData.make(lam, p, w=w)
                for w in itertools.permutations(range(len(lam)))]
        with pytest.raises(NondegeneracyError) as ref:
            _solve_by_degree(rows, p, 4)
        with pytest.raises(NondegeneracyError) as exc:
            solve_basis(lam, p, N=4)
        assert str(exc.value) == str(ref.value)
        assert repr(exc.value.multi_index) == repr(ref.value.multi_index)

    @pytest.mark.parametrize("lam,q,k", [(LAM2, 1e-300, 0.4),
                                         (LAM3, 1e-300, 0.1),
                                         (LAM3, 1e-100, 0.4)])
    def test_same_convergence_error(self, lam, q, k):
        p = QParams(q=q, k=k)
        rows = [SpectralData.make(lam, p, w=w)
                for w in itertools.permutations(range(len(lam)))]
        with pytest.raises(ConvergenceError) as ref:
            _solve_by_degree(rows, p, 3)
        with pytest.raises(ConvergenceError) as exc:
            solve_basis(lam, p, N=3)
        assert str(exc.value) == str(ref.value)


class TestEvaluation:
    def test_depth_zero_prefactor(self, p):
        s = SpectralData.make(LAM2, p)
        sol = solve_coefficients(s, p, N=0)
        z = (1.0, 4.0)
        got = evaluate(sol, z).value
        e = sol.prefactor_exponent
        assert abs(got - z[0] ** e[0].real * z[1] ** e[1].real) < 1e-13

    def test_n2_equals_fq(self, p):
        q, k = p.q, p.k
        d = LAM2[0] - LAM2[1]
        s = SpectralData.make(LAM2, p)
        sol = solve_coefficients(s, p, N=40)
        z = (1.0, q ** -2.0)
        got = evaluate(sol, z).value
        ref = (z[0] ** (LAM2[0] + k / 2) * z[1] ** (LAM2[1] - k / 2)
               * fq(k, d + k, d + 1.0, q ** (1 - k) * z[0] / z[1], q))
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_zone_guard(self, p):
        s = SpectralData.make(LAM2, p)
        sol = solve_coefficients(s, p, N=4)
        with pytest.raises(ZoneError):
            evaluate(sol, (4.0, 1.0))

    def test_tail_estimate_bounds_truncation(self, p):
        s = SpectralData.make(LAM3, p)
        z = (1.0, p.q ** -3.0, p.q ** -6.0)
        lo = solve_coefficients(s, p, N=12)
        hi = solve_coefficients(s, p, N=16)
        r_lo = evaluate(lo, z)
        r_hi = evaluate(hi, z)
        assert abs(r_lo.value - r_hi.value) <= 10 * r_lo.tail_estimate



def _evaluate_by_terms(sol, z, max_ratio=1.0):
    """The term-by-term loop the series kernel is checked against: the
    value, the tail estimate, and |prefactor| sum_p |a(p) r^p|, the scale
    of the value's rounding error."""
    z = tuple(complex(c) for c in z)
    n = sol.n
    ratios = [z[i] / z[i + 1] for i in range(n - 1)]
    rho_max = max(abs(r) for r in ratios)
    assert rho_max < max_ratio
    pref = complex(1.0)
    for zi, e in zip(z, sol.prefactor_exponent):
        pref *= _cpow(zi, e)
    total = complex(0.0)
    top = 0.0
    prev = 0.0
    size = 0.0
    N = sol.max_degree
    for p, a in _table(sol).items():
        mono = a
        for r, pl in zip(ratios, p):
            mono *= r ** pl
        total += mono
        size += abs(mono)
        if sum(p) == N:
            top += abs(mono)
        elif sum(p) == N - 1:
            prev += abs(mono)
    s = min(0.95, top / prev) if prev > 0 and top < prev else min(0.95, rho_max)
    tail = abs(pref) * top * s / (1.0 - s)
    return pref * total, tail, abs(pref) * size


def _evaluate_by_mpmath(mp, sol, z):
    """The value and tail estimate of the same truncated series summed in
    mpmath at the working precision, from the float ratios z_i/z_(i+1) and
    the float prefactor, so that only the kernel's arithmetic differs."""
    z = tuple(complex(c) for c in z)
    ratios = [mp.mpc(z[i] / z[i + 1]) for i in range(sol.n - 1)]
    pref = complex(1.0)
    for zi, e in zip(z, sol.prefactor_exponent):
        pref *= _cpow(zi, e)
    total, top, prev = mp.mpc(0), mp.mpf(0), mp.mpf(0)
    N = sol.max_degree
    for p, a in _table(sol).items():
        mono = mp.mpc(a)
        for r, pl in zip(ratios, p):
            mono *= r ** pl
        total += mono
        if sum(p) == N:
            top += abs(mono)
        elif sum(p) == N - 1:
            prev += abs(mono)
    rho_max = max(abs(r) for r in ratios)
    s = min(0.95, top / prev if prev > 0 and top < prev else rho_max)
    return mp.mpc(pref) * total, abs(pref) * top * s / (1 - s)


EPS = np.finfo(float).eps
# The kernel against the term loop, which rounds the same powers r ** j
# but multiplies and sums in another order: |value - loop| <= VALUE_BOUND
# eps |prefactor| sum_p |a(p) r^p|, and the tails within TAIL_BOUND of
# each other, relatively.  Measured at most 0.59 eps and 8.1e-15 on the
# grid of test_equals_term_loop (x86-64, numpy 2.4); the margin leaves room
# for another platform's summation order.  Against the 30-digit sum the
# rounding of the powers r ** j counts too (CPython's complex power takes
# up to 2 log2 j products), so that bound is MP_VALUE_BOUND eps; measured
# at most 2.2 eps on the grid of test_against_mpmath, and 11.2 eps over
# a wider draw of BIT_CASES points at the three (q, k) of
# test_equals_term_loop.
VALUE_BOUND = 4
TAIL_BOUND = 1e-13
MP_VALUE_BOUND = 16


def _zone_point(rng, n, largest):
    """A complex point whose ratios z_i/z_(i+1) have moduli in
    [0.2, largest], the last one equal to largest."""
    mods = list(rng.uniform(0.2, largest, n - 1))
    mods[-1] = largest
    z = [complex(1.3, 0.4)]
    for m in reversed(mods):
        z.insert(0, z[0] * m * np.exp(1j * rng.uniform(-3, 3)))
    return tuple(z)


BIT_CASES = [(LAM2, (1, 0)), (LAM3, (2, 0, 1)),
             ((0.31 + 0.05j, -0.05, -0.12 - 0.05j, -0.14), (1, 3, 0, 2)),
             (LAM5, (4, 0, 3, 1, 2))]


class TestEvaluationBits:
    """evaluate against the term loop and a 30-digit sum of the same
    truncated series, under the stated bounds."""

    @pytest.mark.parametrize("lam,w", BIT_CASES,
                             ids=[f"n{len(w)}" for _, w in BIT_CASES])
    @pytest.mark.parametrize("depth", ["zero", "one", "typical"])
    def test_equals_term_loop(self, p, rng, lam, w, depth):
        n = len(lam)
        N = {"zero": 0, "one": 1, "typical": default_depth(n)}[depth]
        for params in (p, QParams(q=0.9, k=0.7), QParams(q=0.2, k=0.15)):
            sol = solve_coefficients(SpectralData.make(lam, params, w=w),
                                     params, N=N)
            for largest, max_ratio in [(0.35, 1.0), (0.8, 1.0), (0.95, 1.0),
                                       (1.1, 1.2), (1.19, 1.2)]:
                z = _zone_point(rng, n, largest)
                value, tail = evaluate(sol, z, max_ratio=max_ratio)
                ref, ref_tail, scale = _evaluate_by_terms(
                    sol, z, max_ratio=max_ratio)
                assert abs(value - ref) <= VALUE_BOUND * EPS * scale, z
                assert abs(tail - ref_tail) <= TAIL_BOUND * ref_tail, z

    def test_equals_term_loop_on_a_loaded_table(self, p):
        # a table read back from JSON, with hand-set entries in both strata
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=5)
        doc = solution_to_dict(sol)
        back = _with_entries(solution_from_dict(doc),
                             {(5, 0): 3.0 - 2.0j, (2, 2): -1.5e3})
        z = (0.4 + 0.3j, 1.0, 1.1 - 0.2j)
        value, tail = evaluate(back, z)
        ref, ref_tail, scale = _evaluate_by_terms(back, z)
        assert abs(value - ref) <= VALUE_BOUND * EPS * scale
        assert abs(tail - ref_tail) <= TAIL_BOUND * ref_tail

    @pytest.mark.parametrize("lam,w", BIT_CASES,
                             ids=[f"n{len(w)}" for _, w in BIT_CASES])
    def test_against_mpmath(self, p, rng, lam, w):
        mp = pytest.importorskip("mpmath")
        n = len(lam)
        sol = solve_coefficients(SpectralData.make(lam, p, w=w), p,
                                 N=default_depth(n))
        with mp.workdps(30):
            for largest, max_ratio in [(0.35, 1.0), (0.95, 1.0), (1.19, 1.2)]:
                z = _zone_point(rng, n, largest)
                value, tail = evaluate(sol, z, max_ratio=max_ratio)
                ref, ref_tail = _evaluate_by_mpmath(mp, sol, z)
                scale = _evaluate_by_terms(sol, z, max_ratio=max_ratio)[2]
                assert abs(value - ref) <= MP_VALUE_BOUND * EPS * scale, z
                assert abs(tail - ref_tail) <= TAIL_BOUND * ref_tail, z

    # At N = 120 the powers r ** j with j >= 100 are exp(j log r) both in
    # CPython's power, which the term loop takes, and in numpy's, which
    # the kernel takes; below 100 both multiply by squaring and agree bit
    # for bit.  The points stay inside the radius q^(k-1) of the n = 2
    # series (a 2phi1 in q^(1-k) x): beyond it the top strata, whose
    # powers carry an error growing with j |log r|, outweigh the rest.
    DEEP = [(0.5, 0.4), (0.9, 0.7), (0.2, 0.15)]

    def _deep_points(self, rng, q, k):
        grid = [(0.35, 1.0), (0.8, 1.0), (0.95, 1.0), (1.1, 1.2),
                (1.19, 1.2)]
        for largest, max_ratio in grid:
            if largest < q ** (k - 1.0):
                for _ in range(4):
                    yield _zone_point(rng, 2, largest), max_ratio

    @pytest.mark.parametrize("q,k", DEEP)
    def test_equals_term_loop_past_exponent_100(self, rng, q, k):
        params = QParams(q=q, k=k)
        sol = solve_coefficients(SpectralData.make(LAM2, params, w=(1, 0)),
                                 params, N=120)
        for z, max_ratio in self._deep_points(rng, q, k):
            value, tail = evaluate(sol, z, max_ratio=max_ratio)
            ref, ref_tail, scale = _evaluate_by_terms(sol, z,
                                                      max_ratio=max_ratio)
            assert abs(value - ref) <= VALUE_BOUND * EPS * scale, z
            assert abs(tail - ref_tail) <= TAIL_BOUND * ref_tail, z

    @pytest.mark.parametrize("q,k", DEEP)
    def test_against_mpmath_past_exponent_100(self, rng, q, k):
        mp = pytest.importorskip("mpmath")
        params = QParams(q=q, k=k)
        sol = solve_coefficients(SpectralData.make(LAM2, params, w=(1, 0)),
                                 params, N=120)
        with mp.workdps(30):
            for z, max_ratio in self._deep_points(rng, q, k):
                value, tail = evaluate(sol, z, max_ratio=max_ratio)
                ref, ref_tail = _evaluate_by_mpmath(mp, sol, z)
                scale = _evaluate_by_terms(sol, z, max_ratio=max_ratio)[2]
                assert abs(value - ref) <= MP_VALUE_BOUND * EPS * scale, z
                assert abs(tail - ref_tail) <= TAIL_BOUND * ref_tail, z


class TestEvaluationErrors:
    @pytest.mark.parametrize("z", [(1.0, 0.0), (0.0, 1.0), (0j, 0j)])
    def test_zero_coordinate(self, p, z):
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=4)
        with pytest.raises(DomainError):
            evaluate(sol, z)

    @pytest.mark.parametrize("z", [(1.0, math.inf), (-math.inf, 1.0),
                                   (1.0, complex(math.nan, math.inf))])
    def test_infinite_coordinate(self, p, z):
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=4)
        with pytest.raises(DomainError, match="infinite coordinate"):
            evaluate(sol, z)

    def test_ratio_modulus_past_the_float_range(self, p):
        # abs() of the ratio overflows: outside the zone, as a modulus of inf
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=4)
        with pytest.raises(ZoneError, match="max ratio inf"):
            evaluate(sol, (1.5e308 + 1.5e308j, 1.0))

    def test_zero_coordinate_in_eigen_residual(self, p):
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=4)
        with pytest.raises(DomainError):
            eigen_residual(sol, 1, (0.0, 1.0, 4.0))

    @pytest.mark.parametrize("solve", [
        lambda lam, p: solve_coefficients(SpectralData.make(lam, p), p, N=3),
        lambda lam, p: solve_basis(lam, p, N=3)])
    def test_non_finite_coefficients(self, solve):
        # q^-kappa overflows and meets zeros in the recursion; RuntimeWarning
        # is an error in this suite, so none may escape either
        with pytest.raises(ConvergenceError):
            solve(LAM2, QParams(q=1e-300, k=0.4))

    def _sol(self, p, entries):
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=2)
        return _with_entries(sol, entries)

    def test_zero_value_in_eigen_residual(self, p):
        # every coefficient 0: the relative residual divides by nothing
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=3)
        zero = dataclasses.replace(sol, coeffs=(0j,) * len(sol.coeffs))
        with pytest.raises(DomainError):
            eigen_residual(zero, 1, (1.0, 8.0))

    @pytest.mark.parametrize("entries,z,max_ratio", [
        # a NaN coefficient
        ({(1,): complex("nan")}, (0.5, 1.0), 1.0),
        # the value overflows
        ({(0,): 1e308, (1,): 1e308, (2,): 1e308}, (0.99, 1.0), 1.0),
        # abs() of a top-stratum monomial overflows
        ({(2,): complex(1.5e308, 1.5e308)}, (0.999, 1.0), 1.0),
        # r ** 2 overflows under a loose zone guard
        ({}, (1e200, 1.0), 1e300),
    ])
    def test_non_finite_series(self, p, entries, z, max_ratio):
        with pytest.raises(ConvergenceError):
            evaluate(self._sol(p, entries), z, max_ratio=max_ratio)

    def test_every_point_held(self, p):
        # nothing is summed: the kernel still returns each point's error,
        # and numpy warns of nothing (an error here, as is any warning)
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=6)
        points = [(4.0, 2.0, 1.0), (0.0, 1.0, 2.0), (1.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hcseries._series_values([sol, sol], points, 1.0)
        assert [[_outcome(lambda: hcseries._checked(v)) for v in row]
                for row in got] == [[_outcome(lambda: evaluate(sol, z))] * 2
                                    for z in points]

    def test_each_slot_as_evaluate_alone(self, p):
        # a point summed, one outside the zone, and one whose power r ** 2
        # overflows, in one call
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=4)
        points = [(0.3 + 0.1j, 1.0), (1e300, 1e-10), (1e200, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hcseries._series_values([sol], points, 1e300)
        for z, (held,) in zip(points, got):
            alone = _outcome(lambda: evaluate(sol, z, max_ratio=1e300))
            if isinstance(held, Exception):
                assert (type(held), str(held)) == alone, z
            else:
                value, tail = evaluate(sol, z, max_ratio=1e300)
                ref, ref_tail, scale = _evaluate_by_terms(sol, z, 1e300)
                assert abs(held[0] - value) <= VALUE_BOUND * EPS * scale
                assert abs(held[1] - tail) <= TAIL_BOUND * ref_tail
        assert [type(v) for (v,) in got] == [tuple, ZoneError,
                                             ConvergenceError]


class TestZoneGuard:
    @pytest.mark.parametrize("max_ratio", [math.nan, math.inf, 0.0, -1.0])
    def test_max_ratio_must_be_finite_and_positive(self, p, max_ratio):
        # (5, 1) is far outside the zone of this divergent n = 2 series
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=24)
        with pytest.raises(DomainError):
            evaluate(sol, (5, 1), max_ratio=max_ratio)

    def test_nan_ratio_is_outside_the_zone(self, p):
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=4)
        with pytest.raises(ZoneError):
            evaluate(sol, (math.nan, 1.0))

    @pytest.mark.parametrize("m", [1.5, 2.0, "1"])
    def test_order_must_be_an_integer(self, p, m):
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=4)
        with pytest.raises(DomainError):
            eigen_residual(sol, m, (1.0, 8.0, 64.0))


def _outcome(f):
    """The repr of f()'s value, or the type and message of its error."""
    try:
        return repr(f())
    except Exception as exc:
        return type(exc), str(exc)


def _one_at_a_time(sols, z):
    return [[eigen_residual(sol, m, z) for m in range(1, sol.n + 1)]
            for sol in sols]


def _by_terms(sols, z):
    """The residuals with every series value from the term loop, each
    with its condition: (sum_I |w_I| scale_I + |c| scale_z) / |c phi(z)|,
    w_I the weight D^m gives the point z_I, found by applying D^m to the
    indicator of z_I, and scale the third value of _evaluate_by_terms."""
    p, n = sols[0].params, sols[0].n
    shifts = {m: [pt for _, pt in _shifts(z, m, p.q)] for m in range(1, n + 1)}
    weights = {m: [abs(macdonald_apply_numeric(
        lambda zz, pt=pt: float(zz == pt), m, z, p)) for pt in points]
        for m, points in shifts.items()}
    out = []
    for sol in sols:
        terms = {pt: _evaluate_by_terms(sol, pt)
                 for pt in [z, *itertools.chain(*shifts.values())]}
        phi, _, scale = terms[z]
        row = []
        for m in range(1, n + 1):
            c = eigenvalue_c(sol.spectral.lam_plus_rho, m, p)
            ref = c * phi
            lhs = macdonald_apply_numeric(lambda zz: terms[zz][0], m, z, p)
            spread = sum(w * terms[pt][2]
                         for w, pt in zip(weights[m], shifts[m]))
            row.append((abs(lhs - ref) / abs(ref),
                        (spread + abs(c) * scale) / abs(ref)))
        out.append(row)
    return out


# |residual - term-loop residual| <= RESIDUAL_BOUND eps times its
# condition: VALUE_BOUND for the series values, and as much again for
# D^m's own sum, which rounds the two sets of values apart.  Measured at
# most 0.52 eps times a condition of at most 53 (x86-64, numpy 2.4).
RESIDUAL_BOUND = 2 * VALUE_BOUND


# (lam, z, q, N) and the error eigen_residual raised there when each
# q-shifted point was a call of evaluate
SAME_ERROR = [
    (LAM3, (0.0, 1.0, 4.0), 0.5, 4, DomainError,   # a zero coordinate
     "the prefactor z^(eta+rho) has its branch point at a zero coordinate"),
    (LAM2, (1.0, 0.0), 0.5, 4, DomainError,
     "the prefactor z^(eta+rho) has its branch point at a zero coordinate"),
    (LAM2, (math.nan, 1.0), 0.5, 4, ZoneError,    # a NaN ratio
     "point outside the zone: max ratio nan >= 1.0"),
    ((0.3, 0.1, -0.4), (1, 2, 3), 0.5, 16, ZoneError,  # z with z_2 -> q z_2
     "point outside the zone: max ratio 1.0 >= 1.0"),
    (LAM2, (1.0, 2.0), 1e-300, 0, ZoneError,
     "point outside the zone: max ratio 4.9999999999999995e+299 >= 1.0"),
    (LAM3, (1.0, 2.0), 0.5, 4, DomainError,       # too few coordinates
     "point must have 3 coordinates"),
    (LAM2, (1.0, 2.0, 4.0), 0.5, 4, DomainError,  # too many
     "point must have 2 coordinates"),
    (LAM2, tuple(range(1, 41)), 0.5, 4, DomainError,  # 2^40 subsets I
     "point must have 2 coordinates"),
]


class TestBasisEigenBits:
    """_eigen_residuals over the rows of solve_basis and the orders 1..n,
    against eigen_residual per (sol, m) by repr, and against the term
    loop in the zone within RESIDUAL_BOUND."""

    @pytest.mark.parametrize("q,k", [(0.5, 0.4), (0.9, 0.7), (0.2, 0.15)])
    @pytest.mark.parametrize("n,N", [(2, 24), (2, 96), (3, 12), (4, 6),
                                     (5, 3)])
    def test_equals_eigen_residual(self, rng, q, k, n, N):
        sols = solve_basis(SOLVE_LAMS[n], QParams(q=q, k=k), N=N)
        # ratios below q keep every q-shifted point in the zone; a last
        # ratio above q leaves it at z with z_n -> q z_n
        for largest, inside in [(0.9 * q, True), ((1.0 + q) / 2.0, False)]:
            z = [complex(1.3, 0.4)]
            for j in range(n - 1):
                z.insert(0, z[0] * largest * rng.uniform(0.5, 1.0) ** j
                         * np.exp(1j * rng.uniform(-3, 3)))
            got = _outcome(lambda: _eigen_residuals(sols, z, range(1, n + 1)))
            assert got == _outcome(lambda: _one_at_a_time(sols, z)), z
            assert isinstance(got, str) == inside
            if inside:
                residuals = _eigen_residuals(sols, z, range(1, n + 1))
                for row, ref_row in zip(residuals,
                                        _by_terms(sols, tuple(z))):
                    for r, (ref, cond) in zip(row, ref_row):
                        assert abs(r - ref) <= RESIDUAL_BOUND * EPS * cond, z

    # the ids these cases had before error and message joined them, so
    # that test runs compare by id
    @pytest.mark.parametrize(
        "lam,z,q,N,error,message", SAME_ERROR,
        ids=[f"lam{i}-z{i}-{q}-{N}"
             for i, (_, _, q, N, *_) in enumerate(SAME_ERROR)])
    def test_same_error(self, lam, z, q, N, error, message):
        sols = solve_basis(lam, QParams(q=q, k=0.4), N=N)
        orders = range(1, len(lam) + 1)
        got = _outcome(lambda: _eigen_residuals(sols, z, orders))
        assert got == (error, message)
        assert _outcome(lambda: _one_at_a_time(sols, z)) == got

    def test_shifted_point_leaves_the_zone(self):
        # what verify --lambda=0.3,0.1,-0.4 --points=1,2,3 reports
        sols = solve_basis((0.3, 0.1, -0.4), QParams(q=0.5, k=0.4))
        assert _outcome(lambda: _eigen_residuals(sols, (1, 2, 3), (1, 2, 3))) \
            == (ZoneError, "point outside the zone: max ratio 1.0 >= 1.0")

    def test_weights_formed_once_per_order(self, monkeypatch, p):
        # the 6 rows share D^m's checks and weights: one call per m, in
        # the order the first row reaches them
        sols = solve_basis(LAM3, p, N=6)
        z = (0.1, 0.3 + 0.1j, 1.0)
        calls = []
        helper = hcseries._weighted_points
        monkeypatch.setattr(hcseries, "_weighted_points",
                            lambda *args: calls.append(args[1])
                            or helper(*args))
        got = _eigen_residuals(sols, z, (1, 2, 3))
        assert calls == [1, 2, 3]
        assert repr(got) == repr(_one_at_a_time(sols, z))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_kernel_call(self, monkeypatch, p, m):
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=6)
        calls = []
        kernel = hcseries._series_values
        monkeypatch.setattr(hcseries, "_series_values",
                            lambda *args: calls.append(args) or kernel(*args))
        eigen_residual(sol, m, (0.1, 0.3 + 0.1j, 1.0))
        assert len(calls) == 1
        # z and the C(3, m) points D^m shifts it to
        assert len(calls[0][1]) == 1 + math.comb(3, m)


class TestCoefficientLayout:
    def _doc(self, p, n=2, N=3):
        lam = LAM2 if n == 2 else LAM3
        return solution_to_dict(
            solve_coefficients(SpectralData.make(lam, p), p, N=N))

    @pytest.mark.parametrize("delta", [-1, 1, "empty"])
    def test_length_guard(self, p, delta):
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=4)
        coeffs = (() if delta == "empty" else
                  sol.coeffs[:-1] if delta < 0 else sol.coeffs + (0j,))
        with pytest.raises(DomainError):
            dataclasses.replace(sol, coeffs=coeffs)

    def test_fields_are_frozen(self, p):
        sol = solve_coefficients(SpectralData.make(LAM2, p), p, N=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.coeffs = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.max_degree = 2

    @staticmethod
    def _grid(n):
        return (0, 1, 7, default_depth(n)) + ((2000,) if n == 2 else ())

    @staticmethod
    def _reference(n_vars, max_total):
        """The table as the solver first built it: for each |p| by
        increasing degree, the cuts of itertools.combinations, which
        come in lexicographic order of p."""
        for total in range(max_total + 1):
            for cuts in itertools.combinations(range(total + n_vars - 1),
                                               n_vars - 1):
                edges = (-1,) + cuts + (total + n_vars - 1,)
                yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_columns_are_the_multi_indices(self, n):
        for N in self._grid(n):
            reference = tuple(self._reference(n - 1, N))
            assert tuple(zip(*_columns(n - 1, N).tolist())) == reference
            assert tuple(multi_indices(n - 1, N)) == reference
        # kept for every (n, N) in use: verify alone meets about 80
        assert _columns.cache_info().maxsize is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_strata_tile_the_table(self, n):
        for N in self._grid(n):
            columns = _columns(n - 1, N)
            stop = 0
            for D in range(N + 1):
                stratum = _stratum(n - 1, D)
                assert stratum.start == stop < stratum.stop
                assert (columns[:, stratum].sum(axis=0) == D).all()
                stop = stratum.stop
            assert stop == columns.shape[1]

    def test_row_is_a_read_only_copy(self, p):
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=4)
        assert np.array_equal(sol._row, np.array(sol.coeffs, dtype=complex))
        assert sol._row is sol._row  # built once
        with pytest.raises(ValueError):
            sol._row[0] = 2.0

    def test_replace_sums_the_new_coefficients(self, p):
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=4)
        z = (0.1, 0.3 + 0.1j, 1.0)
        value = evaluate(sol, z).value  # sol's row is built and cached
        doubled = dataclasses.replace(
            sol, coeffs=tuple(2 * a for a in sol.coeffs))
        assert evaluate(doubled, z).value == 2 * value

    @pytest.mark.parametrize("cached", [False, True])
    def test_copy_evaluates_the_same(self, p, cached):
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=4)
        z = (0.1, 0.3 + 0.1j, 1.0)
        if cached:
            sol._row  # built before the copy
        assert evaluate(copy.copy(sol), z) == evaluate(sol, z)

    @pytest.mark.parametrize("n_vars,N,key", [
        (1, 3, (7,)), (2, 2, (1,)), (2, 2, (1, 2)), (2, 2, (-1, 1)),
        (2, 2, (0, 0, 0))])
    def test_rejects_keys_outside(self, p, n_vars, N, key):
        doc = self._doc(p, n=n_vars + 1, N=N)
        doc["coeffs"].append({"p": list(key), "re": 5.0, "im": 0.0})
        with pytest.raises(DomainError):
            solution_from_dict(doc)

    def test_from_dict_rejects_bad_index(self, p):
        for bad in ([[1]], 1, None, "1", [1.5]):
            doc = self._doc(p)
            doc["coeffs"][1]["p"] = bad
            with pytest.raises(DomainError):
                solution_from_dict(doc)

    @pytest.mark.parametrize("edit", ["missing", "duplicate", "empty"])
    def test_every_index_exactly_once(self, p, edit):
        doc = self._doc(p, n=3)
        if edit == "missing":
            del doc["coeffs"][4]
        elif edit == "duplicate":
            doc["coeffs"][4] = dict(doc["coeffs"][5], re=2.0)
        else:
            doc["coeffs"] = []
        with pytest.raises(DomainError):
            solution_from_dict(doc)

    @staticmethod
    def _edit(doc, key, value=None):
        """Delete doc[key], or set it to value; "coeffs.x" is field x of
        the third entry."""
        if key.startswith("coeffs."):
            doc, key = doc["coeffs"][2], key.split(".")[1]
        if value is None:
            del doc[key]
        else:
            doc[key] = value

    @pytest.mark.parametrize("key", [
        "n", "q", "k", "lambda", "w", "N", "coeffs",
        "coeffs.p", "coeffs.re", "coeffs.im"])
    def test_rejects_missing_key(self, p, key):
        doc = self._doc(p)
        self._edit(doc, key)
        with pytest.raises(DomainError):
            solution_from_dict(doc)

    @pytest.mark.parametrize("key,value", [
        ("n", "2"), ("N", "3"), ("N", 2.5), ("N", -1), ("q", "0.5"),
        ("lambda", [0.27, -0.27]), ("w", 1), ("coeffs", 3),
        ("coeffs", [[0, 1.0, 0.0]]), ("k", "0.4"),
        ("coeffs.re", "1.0"), ("coeffs.im", [0.0])])
    def test_rejects_wrong_type(self, p, key, value):
        doc = self._doc(p)
        self._edit(doc, key, value)
        with pytest.raises(DomainError):
            solution_from_dict(doc)

    @pytest.mark.parametrize("value", [None, "ab", [1.0], "missing"])
    def test_derived_keys_are_not_read(self, p, value):
        # the leading coefficients are derived output, like
        # prefactor_exponent: a document loads whatever they hold, and
        # writing it back derives them again
        doc = self._doc(p, n=3)
        canonical = json.dumps(doc)
        for key in ("leading_coefficient_modeA", "leading_coefficient_modeB",
                    "prefactor_exponent"):
            if value == "missing":
                del doc[key]
            else:
                doc[key] = value
        assert solution_to_json(solution_from_dict(doc)) == canonical

    @pytest.mark.parametrize("field,value", [("re", 5.0), ("im", 1e-3)])
    def test_rejects_a0_other_than_one(self, p, field, value):
        doc = self._doc(p, n=3, N=6)
        assert doc["coeffs"][0] == {"p": [0, 0], "re": 1.0, "im": 0.0}
        doc["coeffs"][0][field] = value
        with pytest.raises(DomainError):
            solution_from_dict(doc)

    def test_positions_follow_multi_indices(self, p):
        # the document lists p sorted, which is not multi_indices order
        # from n = 3 on; each entry must land at its own position
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=3)
        doc = solution_to_dict(sol)
        doc["coeffs"].reverse()
        assert solution_from_dict(doc).coeffs == sol.coeffs


class TestEigenEquations:
    def test_full_basis_n2(self, p):
        z = (1.0, p.q ** -3.0)
        for w in itertools.permutations(range(2)):
            s = SpectralData(n=2, lam=LAM2, w=w, k=p.k)
            sol = solve_coefficients(s, p, N=24)
            for m in (1, 2):
                assert eigen_residual(sol, m, z) < 1e-8

    def test_full_basis_n3(self, p):
        z = (1.0, p.q ** -3.0, p.q ** -6.0)
        for w in itertools.permutations(range(3)):
            s = SpectralData(n=3, lam=LAM3, w=w, k=p.k)
            sol = solve_coefficients(s, p, N=16)
            for m in (1, 2, 3):
                assert eigen_residual(sol, m, z) < 1e-6

    def test_complex_spectral_vector(self, p):
        lam = (0.2 + 0.1j, -0.2 - 0.1j)
        s = SpectralData.make(lam, p)
        sol = solve_coefficients(s, p, N=24)
        assert eigen_residual(sol, 1, (1.0, p.q ** -3.0)) < 1e-8


class TestLeadingCoefficient:
    def test_factor_recomputation_n2(self, p):
        q, k = p.q, p.k
        d = LAM2[0] - LAM2[1]
        s = SpectralData.make(LAM2, p)
        got = leading_coefficient(s, p, "A")
        ref = (-(q ** (d * (d + k) / 2.0)) * qgamma(1 - k, q)
               / (qgamma(d + 1.0, q) * qgamma(-d + 1.0 - k, q)))
        assert abs(got - ref) < 1e-13 * abs(ref)
        got_b = leading_coefficient(s, p, "B")
        ref_b = (-(q ** (d * (d + 1 - k) / 2.0)) * qgamma(k, q)
                 / (qgamma(d + 1.0, q) * qgamma(-d + k, q)))
        assert abs(got_b - ref_b) < 1e-13 * abs(ref_b)

    def test_swap_relabels(self, p):
        s = SpectralData.make(LAM2, p)
        s2 = s.swap(0)
        q, k = p.q, p.k
        d = LAM2[1] - LAM2[0]
        ref = (-(q ** (d * (d + k) / 2.0)) * qgamma(1 - k, q)
               / (qgamma(d + 1.0, q) * qgamma(-d + 1.0 - k, q)))
        assert abs(leading_coefficient(s2, p, "A") - ref) < 1e-13 * abs(ref)

    def test_pole_recorded_as_none(self):
        # lambda_12 + k = 1 is a Gamma_q pole of the mode-A coefficient
        p = QParams(q=0.5, k=0.4)
        s = SpectralData.make((0.3, -0.3), p)
        doc = solution_to_dict(solve_coefficients(s, p, N=2))
        assert doc["leading_coefficient_modeA"] is None
        assert doc["leading_coefficient_modeB"] is not None

    def test_written_keys_are_leading_coefficient(self, p):
        # every solution of the n = 3 basis, bit for bit
        for sol in solve_basis(LAM3, p, N=2):
            doc = solution_to_dict(sol)
            for mode in ("A", "B"):
                c = leading_coefficient(sol.spectral, sol.params, mode)
                assert doc[f"leading_coefficient_mode{mode}"] == [c.real,
                                                                  c.imag]

    def test_mode_from_string(self, p):
        s = SpectralData.make(LAM2, p)
        for mode in XRMode:
            assert (leading_coefficient(s, p, mode.value)
                    == leading_coefficient(s, p, mode))
        with pytest.raises(DomainError):
            leading_coefficient(s, p, "C")

    def test_solves_where_gamma_q_underflows(self):
        # at q = 0.999 Gamma_q underflows in the leading coefficient, which
        # the solver does not compute; the series itself is accurate
        p = QParams(q=0.999, k=0.4)
        s = SpectralData.make(LAM2, p)
        with pytest.raises(ConvergenceError):
            leading_coefficient(s, p, "A")
        sol = solve_coefficients(s, p, N=24)
        assert eigen_residual(sol, 1, (1.0, 20.0)) < 1e-12


class TestSerialization:
    def test_roundtrip(self, p):
        s = SpectralData.make(LAM3, p, w=(1, 2, 0))
        sol = solve_coefficients(s, p, N=6)
        text = solution_to_json(sol)
        back = solution_from_json(text)
        assert solution_to_json(back) == text
        assert _table(back) == _table(sol)

    def test_schema_fields(self, p):
        s = SpectralData.make(LAM2, p)
        sol = solve_coefficients(s, p, N=3)
        doc = json.loads(solution_to_json(sol))
        for key in ("n", "q", "k", "lambda", "w", "N", "prefactor_exponent",
                    "coeffs", "leading_coefficient_modeA",
                    "leading_coefficient_modeB"):
            assert key in doc
        assert doc["coeffs"][0] == {"p": [0], "re": 1.0, "im": 0.0}


class TestResidueOracles:
    def test_one_point_integral_zero_power(self, p):
        lam12 = -0.3
        got = residue_integral_prop6(0, lam12, p)
        ref = (qgamma(1 - p.k, p.q)
               / (qgamma(-lam12 + 1.0, p.q) * qgamma(lam12 + 1.0 - p.k, p.q))
               )
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_one_point_integral_routes_agree(self, p):
        for n_pow in range(6):
            a = residue_integral_prop6(n_pow, -0.3, p)
            b = one_point_integral_closed_form(n_pow, -0.3, p)
            c = one_point_integral_binomial_route(n_pow, -0.3, p)
            assert abs(a - b) < 1e-12 * abs(b)
            assert abs(c - b) < 1e-12 * abs(b)

    def test_two_point_integral(self, p):
        lam = (0.15, -0.15)
        z1, z2 = 0.2, 1.0
        got = integral_rep_fq(lam, z1, z2, p)
        ref = integral_rep_fq_reference(lam, z1, z2, p)
        assert abs(got - ref) < 1e-10 * abs(ref)

    @pytest.mark.parametrize("q", (0.5, 0.9, 0.95))
    def test_two_point_integral_across_q(self, q):
        for k in (0.3, 0.6):
            p = QParams(q=q, k=k)
            for lam, z1 in (((0.1, -0.1), 0.2), ((-0.08, 0.08), 0.35 + 0.1j),
                            ((0.0, 0.0), 0.3 - 0.2j)):
                got = integral_rep_fq(lam, z1, 1.0, p)
                ref = integral_rep_fq_reference(lam, z1, 1.0, p)
                assert abs(got - ref) < 1e-11 * abs(ref)

    def test_two_point_z1_zero(self, p):
        lam = (0.15, -0.15)
        got = integral_rep_fq(lam, 0.0, 1.0, p)
        d = lam[0] - lam[1]
        ref = (qgamma(1 - p.k, p.q)
               / (qgamma(d + 1.0 - p.k, p.q) * qgamma(-d + 1.0, p.q)))
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_divergent_orientation_rejected(self, p):
        with pytest.raises(ConvergenceError):
            integral_rep_fq((0.3, -0.3), 0.2, 1.0, p)

    @pytest.mark.parametrize("q", (0.995, 0.999))
    def test_theta_underflow_is_typed(self, q):
        # Theta_q(q^k) in the prefactor underflows to 0j; both ended in a
        # bare ZeroDivisionError
        p = QParams(q=q, k=0.4)
        with pytest.raises(ConvergenceError, match="underflows"):
            integral_rep_fq((0.1, -0.1), 0.3 + 0.1j, 1.0, p)
        with pytest.raises(ConvergenceError, match="underflows"):
            residue_integral_prop6(3, -0.2, p)

    def test_near_one(self):
        # 4.9e-12 and 2.0e-13 at q = 0.99, about 3,000 residues each
        p = QParams(q=0.99, k=0.4)
        got = integral_rep_fq((0.1, -0.1), 0.3 + 0.1j, 1.0, p)
        ref = integral_rep_fq_reference((0.1, -0.1), 0.3 + 0.1j, 1.0, p)
        assert abs(got - ref) < 1e-11 * abs(ref)
        got = residue_integral_prop6(3, -0.2, p)
        ref = one_point_integral_closed_form(3, -0.2, p)
        assert abs(got - ref) < 1e-12 * abs(ref)

    def test_rebasing_invariance(self, p):
        # scaling both points by q relocates the pole lattice onto itself;
        # the residue sum must be unchanged
        lam = (0.12, -0.12)
        base = integral_rep_fq(lam, 0.3, 1.0, p)
        shifted = integral_rep_fq(lam, 0.3 * p.q, p.q, p)
        assert abs(base - shifted) < 1e-12 * abs(base)


def _mp_chain(mp, ratio, q, k, limit):
    """sum_m t_m to 20 digits of t_0 = 1, t_(m+1) = t_m ratio(q^m)
    (1 - q^(m+1-k)) / (1 - q^(m+1)), for |limit| < 1 the limit of the
    ratios.  Once q^m < 1e-20 every later ratio is limit to 20 digits, so
    the rest is t_m / (1 - limit)."""
    total, term, qm, qk = mp.mpf(0), mp.mpf(1), mp.mpf(1), q ** -k
    tiny = mp.mpf("1e-20")
    while qm > tiny and abs(term) > tiny * abs(total):
        total += term
        qm1 = qm * q
        term *= ratio(qm) * (1 - qm1 * qk) / (1 - qm1)
        qm = qm1
    return total + term / (1 - limit)


def _mp_prop6(mp, n_pow, lam12, p):
    """residue_integral_prop6 with its series summed in mpmath, from the
    float m = 0 prefactor of the library's q-products."""
    q, k = p.q, p.k
    l21 = -complex(lam12)
    pref = (_cpow(q, (1.0 - k) / 2.0 * n_pow) * theta(_cpow(q, l21 + k), q)
            / theta(q ** k, q) * qpochhammer_inf(q ** k, q)
            / qpochhammer_inf(q, q))
    Q, K = mp.mpf(q), mp.mpf(k)
    ratio = Q ** (-mp.mpf(lam12) + n_pow + K)
    return mp.mpc(pref) * _mp_chain(mp, lambda qm: ratio, Q, K, ratio)


def _mp_integral_rep(mp, lam, z1, p):
    """integral_rep_fq at z2 = 1 with its series summed in mpmath, from the
    float first term of the library's q-products."""
    q, k = p.q, p.k
    c_half = q ** ((1.0 - k) / 2.0)
    xb, xc = q ** ((1.0 + k) / 2.0) * c_half * z1, c_half * c_half * z1
    first = (theta(_cpow(q, lam[1] - lam[0] + k), q) / theta(q ** k, q)
             * (qpochhammer_inf(q ** k, q) / qpochhammer_inf(q, q))
             * (qpochhammer_inf(xb, q) / qpochhammer_inf(xc, q)))
    Q, K = mp.mpf(q), mp.mpf(k)
    gain = Q ** (mp.mpf(lam[1]) - mp.mpf(lam[0]) + K)
    B, C = mp.mpc(xb), mp.mpc(xc)
    return mp.mpc(first) * _mp_chain(
        mp, lambda qm: gain * (1 - C * qm) / (1 - B * qm), Q, K, gain)


class TestResidueSums:
    """The residue series of residue_integral_prop6 and integral_rep_fq,
    summed as numpy term chains, against the same series in mpmath."""

    # twice the worst relative error on this grid per q, rounded up to two
    # digits.  The worst is taken over numpy's X86_V4, X86_V3 and baseline
    # dispatch levels (x86-64, Python 3.11, numpy 2.4), whose complex
    # products round the term chains apart in the last bits: at q = 0.99,
    # prop6 read 9.0e-15 at X86_V4 and 9.5e-15 at the other two.  The
    # geometric tail added at the stop holds them near eps; without it
    # the stopping rule leaves about eps / (1 - |r|) of the sum, 3.1e-13
    # and 1.9e-12 at q = 0.95, 1.6e-12 and 9.9e-12 at q = 0.99.
    BOUNDS = {  # q: (prop6, integral_rep_fq)
        0.5: (1.3e-15, 3.7e-15),
        0.75: (5.7e-16, 1.6e-14),
        0.9: (3.7e-16, 1.4e-14),
        0.95: (5.5e-15, 1.3e-14),
        0.99: (1.9e-14, 3.6e-14),
    }

    @pytest.mark.parametrize("q", sorted(BOUNDS))
    def test_against_mpmath(self, q):
        mp = pytest.importorskip("mpmath")
        bound6, bound_fq = self.BOUNDS[q]
        with mp.workdps(30):
            for k in (0.3, 0.6):
                p = QParams(q=q, k=k)
                for n_pow, lam12 in ((0, -0.3), (3, -0.2), (8, 0.1)):
                    got = residue_integral_prop6(n_pow, lam12, p)
                    ref = _mp_prop6(mp, n_pow, lam12, p)
                    assert abs(got - ref) <= bound6 * abs(ref)
                for lam, z1 in (((0.1, -0.1), 0.3 + 0.1j),
                                ((-0.08, 0.08), 0.35 - 0.1j),
                                ((0.0, 0.0), 0.2)):
                    got = integral_rep_fq(lam, z1, 1.0, p)
                    ref = _mp_integral_rep(mp, lam, z1, p)
                    assert abs(got - ref) <= bound_fq * abs(ref)

    def test_later_chunks(self):
        # a limit of 0.1 sizes the first chunk at 32 terms; the ratios
        # stay at 0.9, so the sum takes four chunks (32, 64, 128, 256)
        got = hcseries._residue_sum(2.0, lambda m: np.full(len(m), 0.9),
                                    0.1, "unused")
        term, total, m = 2.0, 0.0, 0
        while True:  # the loop the chunks replace
            total += term
            if m >= 5 and abs(term) < 1e-14 * max(1.0, abs(total)):
                break
            term *= 0.9
            m += 1
        assert 224 < m < 480
        # the loop's partial sum and the geometric tail at its stop
        assert abs(got - (total + term * 0.9 / 0.1)) <= 1e-14 * total
        assert abs(got - 20.0) <= 1e-15 * 20.0

    def test_stopping_rule(self):
        # terms 1, 1e-20, 1e-40, ...: the sum stops at m = 5, not at m = 1
        calls = []

        def ratio(m):
            calls.append(len(m))
            return np.full(len(m), 1e-20)
        assert hcseries._residue_sum(1.0, ratio, 1e-20, "unused") \
            == 1.0 + 1e-20
        assert calls == [32]

    def test_infinite_tail(self):
        # terms 1, 1e-20, ..., then ratios of 1 from m = 5: the sum stops
        # at m = 5, where the geometric tail t_5 / (1 - 1) is not finite
        with pytest.raises(ConvergenceError, match="^no sum$"):
            hcseries._residue_sum(
                1.0, lambda m: np.where(m < 5, 1e-20, 1.0), 1e-20, "no sum")

    @pytest.mark.parametrize("ratio", [1.0, math.nan])
    def test_term_cap(self, ratio):
        # a series whose terms never fall, or are NaN, ends at the cap
        with pytest.raises(ConvergenceError, match="^no sum$"):
            hcseries._residue_sum(1.0, lambda m: np.full(len(m), ratio),
                                  0.5, "no sum")
