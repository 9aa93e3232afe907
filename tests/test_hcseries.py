"""Tests for the series solver, evaluation, leading coefficients,
serialization and the residue-summation oracles."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from qmacdonald import (ConvergenceError, DomainError, NondegeneracyError,
                        QParams, SpectralData, XRMode, ZoneError,
                        eigen_residual, evaluate, fq, integral_rep_fq,
                        leading_coefficient, qgamma, residue_integral_prop6,
                        solution_from_json, solution_to_json, solve_basis,
                        solve_coefficients)
from qmacdonald import hcseries
from qmacdonald.hcseries import (_eigen_residuals, _stencil, default_depth,
                                 multi_indices, solution_from_dict,
                                 solution_to_dict,
                                 integral_rep_fq_reference,
                                 one_point_integral_binomial_route, one_point_integral_closed_form)
from qmacdonald.operators import eigenvalue_c, macdonald_apply_numeric
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


def _solve_by_degree(rows, p, N):
    """The solver as it stood before its gather table was built once per
    solve: every degree D recomputes the columns of P - d for its stratum.
    Kept as the oracle the solver must match bit for bit, signed zeros
    included, and raising the same errors.  Returns the coefficient tuple
    of each row."""
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
        offsets, weights = _stencil(n, t)
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


class TestSolverBits:
    """The solver against its per-degree form, by repr: -0.0 == 0.0, but
    the golden CSV prints -0."""

    @pytest.mark.parametrize("q,k", [(0.5, 0.4), (0.9, 0.7), (0.2, 0.15)])
    @pytest.mark.parametrize("n,N", [(n, N) for n in (2, 3, 4, 5)
                                     for N in (0, 1, default_depth(n))]
                             + [(2, 96)])
    def test_equals_degree_loop(self, q, k, n, N):
        p = QParams(q=q, k=k)
        basis = solve_basis(SOLVE_LAMS[n], p, N=N)
        ref = _solve_by_degree([sol.spectral for sol in basis], p, N)
        assert _first_difference([sol.coeffs for sol in basis], ref) is None
        one = solve_coefficients(basis[-1].spectral, p, N=N)
        assert _first_difference([one.coeffs], ref[-1:]) is None

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
    """The term-by-term loop that evaluate's numpy pass replaced, kept as
    the oracle the pass must match bit for bit."""
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
    N = sol.max_degree
    for p, a in _table(sol).items():
        mono = a
        for r, pl in zip(ratios, p):
            mono *= r ** pl
        total += mono
        if sum(p) == N:
            top += abs(mono)
        elif sum(p) == N - 1:
            prev += abs(mono)
    s = min(0.95, top / prev) if prev > 0 and top < prev else min(0.95, rho_max)
    tail = abs(pref) * top * s / (1.0 - s)
    return pref * total, tail


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
    @pytest.mark.parametrize("lam,w", BIT_CASES,
                             ids=[f"n{len(w)}" for _, w in BIT_CASES])
    @pytest.mark.parametrize("depth", ["zero", "one", "typical"])
    def test_equals_term_loop(self, p, rng, lam, w, depth):
        n = len(lam)
        N = {"zero": 0, "one": 1, "typical": default_depth(n)}[depth]
        sol = solve_coefficients(SpectralData.make(lam, p, w=w), p, N=N)
        for largest, max_ratio in [(0.35, 1.0), (0.8, 1.0), (0.95, 1.0),
                                   (1.1, 1.2), (1.19, 1.2)]:
            z = _zone_point(rng, n, largest)
            assert tuple(evaluate(sol, z, max_ratio=max_ratio)) == \
                _evaluate_by_terms(sol, z, max_ratio=max_ratio), z

    def test_equals_term_loop_on_a_loaded_table(self, p):
        # a table read back from JSON, with hand-set entries in both strata
        sol = solve_coefficients(SpectralData.make(LAM3, p), p, N=5)
        doc = solution_to_dict(sol)
        back = _with_entries(solution_from_dict(doc),
                             {(5, 0): 3.0 - 2.0j, (2, 2): -1.5e3})
        z = (0.4 + 0.3j, 1.0, 1.1 - 0.2j)
        assert tuple(evaluate(back, z)) == _evaluate_by_terms(back, z)


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
    """The residuals with every series value from the term loop."""
    out = []
    for sol in sols:
        def phi(zz, sol=sol):
            return _evaluate_by_terms(sol, zz)[0]
        row = []
        for m in range(1, sol.n + 1):
            c = eigenvalue_c(sol.spectral.lam_plus_rho, m, sol.params)
            ref = c * phi(z)
            lhs = macdonald_apply_numeric(phi, m, z, sol.params)
            row.append(abs(lhs - ref) / abs(ref))
        out.append(row)
    return out


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
    loop in the zone."""

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
                assert got == repr(_by_terms(sols, tuple(z))), z

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

    # the worst relative error on this grid per q of the per-term loops
    # the chains replaced, rounded up to two digits (x86-64, Python 3.11);
    # the chains read within 1.1% of the loops, above them by at most 0.3%
    # (q = 0.75, integral_rep_fq), and still under these two-digit bounds.
    # The stopping rule's truncation sets most of it: the last term kept is
    # about eps of the sum.
    BOUNDS = {  # q: (prop6, integral_rep_fq)
        0.5: (1.5e-14, 1.4e-13),
        0.75: (5.1e-14, 3.5e-13),
        0.9: (1.6e-13, 9.4e-13),
        0.95: (3.2e-13, 2.0e-12),
        0.99: (1.7e-12, 1.0e-11),
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
                                    0.1, 1e-14, "unused")
        term, total, m = 2.0, 0.0, 0
        while True:  # the loop the chunks replace
            total += term
            if m >= 5 and abs(term) < 1e-14 * max(1.0, abs(total)):
                break
            term *= 0.9
            m += 1
        assert 224 < m < 480
        assert abs(got - total) <= 1e-14 * total

    def test_stopping_rule(self):
        # terms 1, 1e-20, 1e-40, ...: the sum stops at m = 5, not at m = 1
        calls = []

        def ratio(m):
            calls.append(len(m))
            return np.full(len(m), 1e-20)
        assert hcseries._residue_sum(1.0, ratio, 1e-20, 1e-14, "unused") \
            == 1.0 + 1e-20
        assert calls == [32]

    @pytest.mark.parametrize("ratio", [1.0, math.nan])
    def test_term_cap(self, ratio):
        # a series whose terms never fall, or are NaN, ends at the cap
        with pytest.raises(ConvergenceError, match="^no sum$"):
            hcseries._residue_sum(1.0, lambda m: np.full(len(m), ratio),
                                  0.5, 1e-14, "no sum")
