"""Tests for connection formulas, braiding matrices and Boltzmann weights."""

import cmath
import itertools
import math

import numpy as np
import pytest

from qmacdonald import (ConvergenceError, DomainError, PoleError,
                        QMacdonaldError, QParams, ResonanceError,
                        SpectralData, XRMode, XRParams, ZoneError,
                        boltzmann_exchange_matrix,
                        boltzmann_w, braid_action, braid_matrix, bracket_v,
                        evaluate, fq_connection, g1, leading_coefficient,
                        solve_coefficients, theta, verify_braid_relations)
from qmacdonald import continuation, qcore
from qmacdonald.qcore import _cpow

from conftest import mp_theta, theta_exponent

LAM3 = (0.31, -0.11, -0.20)
EPS = np.finfo(float).eps


def _basis(lam, p):
    """The n! spectral data of lam, one per w in permutations order."""
    return [SpectralData.make(lam, p, w=w)
            for w in itertools.permutations(range(len(lam)))]


# (lam, w, i, z, q, k) and the 2x2 entries computed by the braid formula
# as it stood before the nine-theta rewrite
GOLDEN_BRAID = [
    ((0.31, -0.11, -0.20), (0, 1, 2), 1, (1.0, 1.7, 2.9), 0.5, 0.4,
     [[0.5925557346173933, 0.4074442653826079],
      [0.04774609508584981, 0.9522539049141518]]),
    ((0.2 + 0.15j, -0.35, 0.15 - 0.15j), (2, 0, 1), 2,
     (0.8 * cmath.exp(0.3j), 1.5, 2.6 * cmath.exp(-0.2j)), 0.3, 0.7,
     [[-0.00038304747770510645 + 0.045857752178204925j,
       1.0003830474777093 - 0.04585775217820781j],
      [0.30247280408983274 - 0.7159244710553245j,
       0.6975271959101061 + 0.7159244710552972j]]),
    ((0.42, -0.42), (1, 0), 1, (1.3 * cmath.exp(0.1j), 2.2), 0.8, 0.25,
     [[-0.5255395413140375 - 1.542976118978598j,
       1.525539541314038 + 1.5429761189786002j],
      [-0.44321020775821657 - 0.448276001859264j,
       1.4432102077582172 + 0.44827600185926764j]]),
]


class TestFqConnection:
    def test_generic_annulus_points(self, p):
        for z in (0.7, 0.5 + 0.3j, 0.8 * cmath.exp(0.4j)):
            lhs, rhs = fq_connection(0.3, 0.7, 1.2, z, p)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_ab_symmetry(self, p):
        _, r1 = fq_connection(0.3, 0.7, 1.2, 0.6, p)
        _, r2 = fq_connection(0.7, 0.3, 1.2, 0.6, p)
        assert abs(r1 - r2) < 1e-13 * abs(r1)

    def test_terminating_case(self, p):
        for b in (-2.0, -3.0):
            lhs, rhs = fq_connection(0.3, b, 1.2, 0.9, p)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_near_one(self):
        # |(q^(b-a);q)_inf| is below 1e-10 here (3.6e-11 at q = 0.93),
        # yet b - a = 0.2 is not a pole
        z = 0.97 * cmath.exp(0.3j)
        for q in (0.93, 0.95):
            lhs, rhs = fq_connection(0.2, 0.4, 1.3, z, QParams(q=q, k=0.4))
            assert abs(lhs - rhs) < 1e-8 * abs(lhs)

    def test_pole_guard(self):
        p = QParams(q=0.9, k=0.4)
        for a, b in ((0.3, 0.3), (0.3, 1.3), (1.3, 0.3)):
            with pytest.raises(PoleError):
                fq_connection(a, b, a + b, 0.95, p)

    def test_theta_zero_guard(self):
        # Theta_q(z) divides each half and vanishes on q^Z; z = 0 has no zi
        q = 0.95
        p = QParams(q=q, k=0.4)
        for z, c in ((q, 1.3), (q ** 2 + 0j, 1.8), (0.0, 1.3)):
            with pytest.raises(ZoneError):
                fq_connection(0.2, 0.4, c, z, p)

    def test_zone_guard(self, p):
        with pytest.raises(ZoneError):
            fq_connection(0.3, 0.7, 1.2, 1.8, p)


class TestBraidMatrix:
    # q: twice the deviation measured at 1e200, rounded up (8.6e-13,
    # 5.4e-13 and 7.2e-13).  The phases of the dual sum's terms are
    # 2 pi log|u| / eps, and log|u| = -460 carries 460 times the rounding
    # of a log near 1
    PERIODIC_BOUND = {0.3: 1.8e-12, 0.5: 1.1e-12, 0.9: 1.5e-12}

    def test_dual_zone_agreement_n2(self):
        # continue the series solutions across the wall and compare with
        # direct evaluation inside the overlap annulus
        p = QParams(q=0.5, k=0.3)
        lam = (0.27, -0.27)
        s = SpectralData.make(lam, p)
        ss = s.swap(0)
        sol = solve_coefficients(s, p, N=160)
        sol_s = solve_coefficients(ss, p, N=160)

        def phi(so, z):
            lead = leading_coefficient(so.spectral, p, "A")
            return lead * evaluate(so, z, max_ratio=1.2).value

        for ratio in (1.05 * cmath.exp(0.25j), 0.95 * cmath.exp(-0.2j)):
            z2 = 1.3 * cmath.exp(0.07j)
            z = (ratio * z2, z2)
            zs = (z[1], z[0])
            M = braid_matrix(s, 1, z, p).as_array()
            for row, so in ((0, sol), (1, sol_s)):
                lhs = phi(so, z)
                rhs = (M[row, 0] * phi(sol, zs) + M[row, 1] * phi(sol_s, zs))
                assert abs(lhs - rhs) < 1e-8 * abs(lhs)

    def test_entries_depend_on_ratio_only(self, p):
        s = SpectralData.make((0.27, -0.27), p)
        m1 = braid_matrix(s, 1, (0.9, 1.2), p).as_array()
        m2 = braid_matrix(s, 1, (1.8, 2.4), p).as_array()
        assert np.max(np.abs(m1 - m2)) < 1e-13

    def test_genericity_smoke(self, p):
        s = SpectralData.make(LAM3, p)
        for i in (1, 2):
            M = braid_matrix(s, i, (1.0, 1.7, 2.9), p).as_array()
            assert np.all(np.isfinite(M))
            assert np.all(np.abs(M) > 0)

    def test_resonant_ratio_rejected(self, p):
        # ratio q^{k-1} puts q^k/zeta on the theta zero lattice
        s = SpectralData.make((0.27, -0.27), p)
        with pytest.raises(ResonanceError):
            braid_matrix(s, 1, (p.q ** (p.k - 1.0), 1.0), p)

    def test_huge_ratio_is_typed(self, p):
        # q^k / zeta is subnormal: base^-m in the lattice test overflows
        s = SpectralData.make((0.27, -0.27), p)
        with pytest.raises(ZoneError):
            braid_matrix(s, 1, (1e308, 1.0), p)
        # Theta_q(1/zeta) and its partners overflow, but the entries are
        # their quotients, q-periodic in zeta: the matrix at 1e200 is the
        # one at 1e200 q^j in (q, 1], within BOUND of the largest entry
        for q, bound in self.PERIODIC_BOUND.items():
            p = QParams(q=q, k=0.4)
            s = SpectralData.make((0.27, -0.27), p)
            j = math.ceil(math.log(1e200) / -math.log(q))
            assert q < 1e200 * q ** j <= 1.0
            far = braid_matrix(s, 1, (1e200, 1.0), p).as_array()
            near = braid_matrix(s, 1, (1e200 * q ** j, 1.0), p).as_array()
            assert (np.max(np.abs(far - near))
                    <= bound * np.max(np.abs(near)))

    def test_underflow_near_one_is_typed(self):
        # every theta of the matrix underflows the float range at
        # q = 0.999, and theta raises a typed error there; the entries,
        # exps of their quotients' logs, do not underflow.  Crossing back
        # is the inverse within twice the deviation measured here (4.6e-13
        # at q = 0.999, 2.3e-12 at q = 0.9999), where the product route
        # raised ConvergenceError
        for q, bound in ((0.999, 1e-12), (0.9999, 5e-12)):
            p = QParams(q=q, k=0.4)
            s = SpectralData.make((0.27, -0.27), p)
            with pytest.raises(ConvergenceError, match="underflows"):
                theta(q ** p.k, q)
            z = (1.3 * cmath.exp(0.2j), 1.0)
            there = braid_matrix(s, 1, z, p).as_array()
            back = braid_matrix(s, 1, z[::-1], p).as_array()
            assert np.all(np.isfinite(there))
            assert np.max(np.abs(there @ back - np.eye(2))) <= bound

    def test_integer_gap_rejected_near_one(self):
        # d = -1 puts q^d on the theta zero lattice; near q = 1 the test
        # must still tell this from the tiny values of every other theta
        p = QParams(q=0.9, k=0.4)
        s = SpectralData.make((0.5, -0.5), p)
        with pytest.raises(ResonanceError):
            braid_matrix(s, 1, (1.0, 2.0), p)

    @pytest.mark.parametrize("z", [(1.0, 0.0, 64.0), (0j, 0j, 64.0)])
    def test_zero_coordinate_is_typed(self, p, z):
        # z_{i+1} = 0 divided z_i by zero before the zeta check
        s = SpectralData.make(LAM3, p)
        basis = _basis(LAM3, p)
        with pytest.raises(DomainError, match="z_{i\\+1} must be nonzero"):
            braid_matrix(s, 1, z, p)
        with pytest.raises(DomainError, match="z_{i\\+1} must be nonzero"):
            braid_action(basis, 1, z, p)
        with pytest.raises(DomainError, match="z_{i\\+1} must be nonzero"):
            verify_braid_relations(s, p, z)

    @pytest.mark.parametrize("i", [3, 4])
    def test_wall_outside_is_typed(self, p, i):
        # i = n swapped entries n and n+1 of w before the wall check
        with pytest.raises(DomainError, match="i must lie in 1..2"):
            braid_action(_basis(LAM3, p), i, (1.0, 8.0, 64.0), p)

    @pytest.mark.parametrize("z", [(1.0, 8.0), (1.0, 8.0, 64.0, 512.0)])
    def test_point_of_wrong_length_is_typed(self, p, z):
        # a short point raised a bare IndexError, and a long one was read
        # in its first n coordinates
        s = SpectralData.make(LAM3, p)
        for call in (lambda: braid_action(_basis(LAM3, p), 2, z, p),
                     lambda: braid_matrix(s, 1, z, p),
                     lambda: verify_braid_relations(s, p, z)):
            with pytest.raises(DomainError,
                               match="point must have 3 coordinates"):
                call()

    def test_missing_partner_is_typed(self, p):
        basis = [sd for sd in _basis(LAM3, p) if sd.w != (1, 0, 2)]
        with pytest.raises(DomainError,
                           match="no partner of w = \\(0, 1, 2\\)"):
            braid_action(basis, 1, (1.0, 8.0, 64.0), p)

    def test_first_failing_block_raises(self, p):
        # a wall's missing partner raises before any block of the wall is
        # formed, and before the wall's own checks; with every partner
        # present, the first block that fails raises
        basis = _basis(LAM3, p)
        z = (p.q ** (p.k - 1.0), 1.0, 1.0)
        with pytest.raises(ResonanceError, match="q\\^k u"):
            braid_action(basis, 1, z, p)
        late = [sd for sd in basis if sd.w != (2, 1, 0)]
        with pytest.raises(DomainError,
                           match="no partner of w = \\(1, 2, 0\\)"):
            braid_action(late, 1, z, p)
        early = [sd for sd in basis if sd.w != (1, 0, 2)]
        with pytest.raises(DomainError, match="no partner"):
            braid_action(early, 1, (1.0, 0.0, 64.0), p)

    @pytest.mark.parametrize("lam, w, i, z, q, k, entries", GOLDEN_BRAID)
    def test_golden_entries(self, lam, w, i, z, q, k, entries):
        s = SpectralData(n=len(lam), lam=lam, w=w, k=k)
        M = braid_matrix(s, i, z, QParams(q=q, k=k)).as_array()
        ref = np.array(entries, dtype=complex)
        assert np.max(np.abs(M - ref) / np.abs(ref)) < 1e-13


def nine_theta_entries(mp, s, i, z, p, cache):
    """The nine-theta formula of braid_matrix's docstring at 150 digits,
    each theta from conftest.mp_theta at the float argument braid_matrix
    takes (cached in cache), and the largest theta exponent E of the
    nine arguments."""
    zeta = complex(z[i - 1]) / complex(z[i])
    d = s.eta[i] - s.eta[i - 1]
    q, k = p.q, p.k
    u = 1.0 / zeta
    qk, qd, qmd = q ** k, _cpow(q, d), _cpow(q, -d)
    args = (qk, qd, qmd, u, qk * u, qd * u, qmd * u, _cpow(q, -d + k),
            _cpow(q, d + k))
    for x in args:
        if x not in cache:
            cache[x] = mp_theta(mp, x, q)
    th_k, th_d, th_md, th_u, th_ku, th_du, th_mdu, th_kmd, th_kpd = (
        cache[x] for x in args)
    with mp.workdps(40):
        Z, Q, K, D = mp.mpc(zeta), mp.mpf(q), mp.mpf(k), mp.mpc(d)
        diag0 = th_k / th_d * th_du / th_ku * mp.power(Z, K - D)
        diag1 = th_k / th_md * th_mdu / th_ku * mp.power(Z, K + D)
        off0 = (mp.power(Q, -K * D) * th_kmd / th_md * th_u / th_ku
                * mp.power(Z, K))
        off1 = (mp.power(Q, K * D) * th_kpd / th_d * th_u / th_ku
                * mp.power(Z, K))
    return ([[diag0, off0], [off1, diag1]],
            max(theta_exponent(x, q) for x in args))


def block_action(basis, i, z, p):
    """braid_action assembled from one braid_matrix call per 2x2 block."""
    index = {sd.w: j for j, sd in enumerate(basis)}
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, sd in enumerate(basis):
        j2 = index[sd.swap(i - 1).w]
        if j2 > j:
            M[np.ix_((j, j2), (j, j2))] = braid_matrix(sd, i, z, p).entries
    return M


def bits(a):
    return np.asarray(a, dtype=complex).tobytes()


class TestThetaTable:
    """braid_matrix against the nine-theta formula at 150 digits, and one
    theta table per call against a braid_matrix call per block, bit for
    bit."""

    # twice the worst error over these cases, rounded up, in units of
    # float eps (1 + E) times the largest entry, E the largest theta
    # exponent of the nine arguments: 2.1 at q = 0.5 (and 1.7, 0.9, 0.5
    # at q = 0.3, 0.9, 0.99 on the n = 3 and n = 4 cases); the product
    # route read 1.6 to 1.9
    BOUND = 4.5

    CASES = [
        (LAM3, (1.0 * cmath.exp(0.1j), 2.0 * cmath.exp(0.05j),
                4.0 * cmath.exp(0.15j))),
        (LAM3, (1.0, 1.7, 2.9)),
        ((0.31, 0.1, -0.11, -0.30), (1.0, 1.9 * cmath.exp(0.1j),
                                     3.7 * cmath.exp(-0.05j), 7.1)),
        ((0.31, 0.1, -0.11, -0.30), (0.8, 1.3, 2.2, 4.0)),
    ]

    @pytest.fixture(params=CASES, ids=["n3-complex", "n3-real", "n4-complex",
                                       "n4-real"])
    def case(self, request, p):
        lam, z = request.param
        n = len(lam)
        basis = [SpectralData(n=n, lam=lam, w=w, k=p.k)
                 for w in itertools.permutations(range(n))]
        return basis, z, p

    def test_braid_matrix_and_action(self, case):
        mp = pytest.importorskip("mpmath")
        basis, z, p = case
        cache = {}
        for i in range(1, basis[0].n):
            for sd in basis:
                got = braid_matrix(sd, i, z, p).entries
                ref, top = nine_theta_entries(mp, sd, i, z, p, cache)
                with mp.workdps(40):
                    err = max(abs(mp.mpc(got[a][b]) - ref[a][b])
                              for a in range(2) for b in range(2))
                    scale = max(abs(e) for row in ref for e in row)
                assert err <= self.BOUND * EPS * (1 + top) * scale
            assert (bits(braid_action(basis, i, z, p))
                    == bits(block_action(basis, i, z, p)))

    def test_verify_braid_relations(self, case):
        basis, z, p = case
        n, dim = basis[0].n, len(basis)
        swap = lambda pt, i: pt[:i - 1] + (pt[i], pt[i - 1]) + pt[i + 1:]
        z = tuple(complex(c) for c in z)
        M1 = block_action(basis, 1, z, p)
        M1_back = block_action(basis, 1, swap(z, 1), p)
        ref = {"double_crossing": float(
            np.max(np.abs(M1 @ M1_back - np.eye(dim))))}
        if n == 3:
            ends = []
            for walls in ([1, 2, 1], [2, 1, 2]):
                pt, total = z, np.eye(dim, dtype=complex)
                for i in walls:
                    total = total @ block_action(basis, i, pt, p)
                    pt = swap(pt, i)
                ends.append(total)
            A, B = ends
            scale = max(np.max(np.abs(A)), np.max(np.abs(B)))
            ref["braid_relation"] = float(np.max(np.abs(A - B)) / scale)
        s = basis[0]
        assert verify_braid_relations(s, p, z) == ref

    def test_quotients_shared_across_crossings(self, monkeypatch, p):
        # the 21 crossings of an n = 3 check use 147 theta quotients, 40
        # of them distinct; each is formed once per call
        calls = []
        ratio = continuation._log_theta_ratio
        monkeypatch.setattr(continuation, "_log_theta_ratio",
                            lambda *args: calls.append(args) or ratio(*args))
        verify_braid_relations(SpectralData.make(LAM3, p), p,
                               (1.0, 2.0 + 0.1j, 4.5 + 0.3j))
        assert len(calls) == 40

    @pytest.mark.parametrize("lam,z,q,k", [
        (LAM3, (1.0 * cmath.exp(0.1j), 2.0 * cmath.exp(0.05j),
                4.0 * cmath.exp(0.15j)), 0.5, 0.4),
        (LAM3, (1.0, 1.7, 2.9), 0.5, 0.4),
        ((0.2 + 0.15j, -0.35, 0.15 - 0.15j),
         (0.8 * cmath.exp(0.3j), 1.5, 2.6 * cmath.exp(-0.2j)), 0.3, 0.7),
        ((0.4, -0.05, -0.35), (0.05 * cmath.exp(0.05j),
                               1.0 * cmath.exp(0.1j), 20.0 * cmath.exp(0.15j)),
         0.7, 0.25),
    ])
    def test_report_equals_fresh_braid_actions(self, lam, z, q, k):
        # the report reuses M1 and one theta table; the reference builds
        # all eight matrices by separate braid_action calls and starts
        # each path from the identity
        p = QParams(q=q, k=k)
        basis = [SpectralData(n=3, lam=lam, w=w, k=k)
                 for w in itertools.permutations(range(3))]
        swap = lambda pt, i: pt[:i - 1] + (pt[i], pt[i - 1]) + pt[i + 1:]
        z = tuple(complex(c) for c in z)
        M1 = braid_action(basis, 1, z, p)
        M1_back = braid_action(basis, 1, swap(z, 1), p)
        ref = {"double_crossing": float(
            np.max(np.abs(M1 @ M1_back - np.eye(6))))}
        ends = []
        for walls in ([1, 2, 1], [2, 1, 2]):
            pt, total = z, np.eye(6, dtype=complex)
            for i in walls:
                total = total @ braid_action(basis, i, pt, p)
                pt = swap(pt, i)
            ends.append(total)
        A, B = ends
        scale = max(np.max(np.abs(A)), np.max(np.abs(B)))
        ref["braid_relation"] = float(np.max(np.abs(A - B)) / scale)
        assert repr(verify_braid_relations(basis[0], p, z)) == repr(ref)

    def test_no_state_between_calls(self, case):
        basis, z, p = case
        before = bits(braid_matrix(basis[1], 1, z, p).entries)
        verify_braid_relations(basis[0], p, z)
        assert bits(braid_matrix(basis[1], 1, z, p).entries) == before


def walls_report(basis, z, p):
    """verify_braid_relations' report from one block_action per wall."""
    n, dim = basis[0].n, len(basis)
    swap = lambda pt, i: pt[:i - 1] + (pt[i], pt[i - 1]) + pt[i + 1:]
    M1 = block_action(basis, 1, z, p)
    report = {"double_crossing": float(np.max(np.abs(
        M1 @ block_action(basis, 1, swap(z, 1), p) - np.eye(dim))))}
    if n == 3:
        ends = []
        for walls in ([1, 2, 1], [2, 1, 2]):
            pt, total = z, np.eye(dim, dtype=complex)
            for i in walls:
                total = total @ block_action(basis, i, pt, p)
                pt = swap(pt, i)
            ends.append(total)
        A, B = ends
        scale = max(np.max(np.abs(A)), np.max(np.abs(B)))
        report["braid_relation"] = float(np.max(np.abs(A - B)) / scale)
    return report


class TestBlockReuse:
    """The blocks a braid call reuses, those of a spectral difference d met
    again at the same ratio zeta, and each theta argument once per call;
    every other block is formed from the first row of its pair.  Evenly
    spaced lambda gives different row pairs the same |d|.  Its imaginary
    parts keep every q^d off the real axis: for real d, q^d and q^-(-d)
    differ in the sign of a zero imaginary part, which moves log Theta in
    its last bits, and the theta memo, keyed by value, keeps the first of
    the two, so a block of -d formed after one of d can differ from
    braid_matrix's in its last bits."""

    EVEN3 = (0.3 + 0.1j, 0.0, -0.3 - 0.1j)
    EVEN4 = (0.45 + 0.15j, 0.15 + 0.05j, -0.15 - 0.05j, -0.45 - 0.15j)
    Z4 = (1.0, 1.9 * cmath.exp(0.1j), 3.7 * cmath.exp(-0.05j), 7.1)

    # s_list in permutations order, where the third pair's d equals the
    # first's at either wall, and with (2, 1, 0), whose d is 0.3 + 0.1i,
    # before its partner: its block, of minus the first pair's d, is
    # formed from its own row.  Four quotients per d formed, one for the
    # ratio, two per block formed: two d and two blocks of the three in
    # permutations order, all three otherwise
    ORDERS = {"permutations": list(itertools.permutations(range(3))),
              "partner-first": [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0),
                                (1, 2, 0), (2, 0, 1)]}
    QUOTIENTS = {"permutations": 4 * 2 + 1 + 2 * 2,
                 "partner-first": 4 * 3 + 1 + 2 * 3}

    @pytest.mark.parametrize("order", ORDERS)
    def test_action_bits(self, monkeypatch, p, order):
        calls = []
        ratio = continuation._log_theta_ratio
        monkeypatch.setattr(continuation, "_log_theta_ratio",
                            lambda *args: calls.append(args) or ratio(*args))
        basis = [SpectralData(n=3, lam=self.EVEN3, w=w, k=p.k)
                 for w in self.ORDERS[order]]
        z = TestBraidRelations.Z3
        for i in (1, 2):
            del calls[:]
            got = bits(braid_action(basis, i, z, p))
            assert len(calls) == self.QUOTIENTS[order]
            assert got == bits(block_action(basis, i, z, p))

    @pytest.mark.parametrize("lam, z", [(EVEN3, TestThetaTable.CASES[0][1]),
                                        (LAM3, (1.0, 2.0 + 0.1j, 4.5 + 0.3j)),
                                        (EVEN4, Z4)],
                             ids=["n3-even", "n3", "n4-even"])
    def test_report_equals_walls(self, p, lam, z):
        n = len(lam)
        basis = [SpectralData(n=n, lam=lam, w=w, k=p.k)
                 for w in itertools.permutations(range(n))]
        z = tuple(complex(c) for c in z)
        assert verify_braid_relations(basis[0], p, z) == walls_report(
            basis, z, p)

    def test_each_theta_argument_once(self, monkeypatch, p):
        # the 21 blocks of an n = 3 check take 45 distinct theta
        # arguments: q^k; q^(+-d) and q^(k-+d) of the 3 spectral
        # differences; u and q^k u of the 4 ratios; q^(+-d) u of the 12
        # blocks of distinct (zeta, |d|)
        seen = []
        factory = continuation._log_theta_of

        def counted(q):
            kernel = factory(q)
            return lambda x: seen.append(x) or kernel(x)
        monkeypatch.setattr(continuation, "_log_theta_of", counted)
        verify_braid_relations(SpectralData.make(LAM3, p), p,
                               (1.0, 2.0 + 0.1j, 4.5 + 0.3j))
        assert len(seen) == len(set(seen)) == 45


class TestBraidRelations:
    Z3 = (1.0 * cmath.exp(0.1j), 2.0 * cmath.exp(0.05j),
          4.0 * cmath.exp(0.15j))

    def test_double_crossing_n2(self, p):
        s = SpectralData.make((0.27, -0.27), p)
        report = verify_braid_relations(s, p, (1.0 * cmath.exp(0.2j), 3.0))
        assert report["double_crossing"] < 1e-8

    def test_braid_relation_n3(self, p):
        s = SpectralData.make(LAM3, p)
        report = verify_braid_relations(s, p, self.Z3)
        assert report["double_crossing"] < 1e-8
        assert report["braid_relation"] < 1e-6

    @pytest.mark.parametrize("q", (0.86, 0.9, 0.95))
    def test_relations_near_one(self, q):
        # near q = 1, |Theta_q| falls below 1e-10 far from its zeros, so
        # only a test on the theta arguments can tell resonance apart
        p = QParams(q=q, k=0.4)
        report = verify_braid_relations(SpectralData.make(LAM3, p), p,
                                        self.Z3)
        assert report["double_crossing"] < 1e-8
        assert report["braid_relation"] < 1e-8

    def test_action_is_permutation_block(self, p):
        s_list = [SpectralData(n=3, lam=LAM3, w=w, k=p.k)
                  for w in itertools.permutations(range(3))]
        M = braid_action(s_list, 1, self.Z3, p)
        # every row couples exactly the pair (w, sigma_1 w)
        for j, sd in enumerate(s_list):
            nz = np.flatnonzero(np.abs(M[j]) > 1e-13)
            assert len(nz) == 2


class TestBoltzmannWeights:
    def test_cross_vanishes_at_zero(self):
        xr = XRParams(x=0.85, r=2.5)
        w = boltzmann_w(0.61, 0.0, xr, 2)
        assert abs(w.w_cross) < 1e-12

    def test_factor_recomputation(self):
        xr = XRParams(x=0.85, r=2.5)
        v, mu = 0.23, 0.61
        w = boltzmann_w(mu, v, xr, 2)
        z = xr.x ** (2 * v)
        r1 = (z ** ((xr.r - 1) / xr.r * (2 - 1) / 2)
              * g1(1 / z, xr.x, xr.r, 2) / g1(z, xr.x, xr.r, 2))
        br = lambda u: bracket_v(u, xr)
        assert abs(w.r1 - r1) < 1e-12 * abs(r1)
        ref_cross = r1 * br(v) * br(mu - 1) / (br(v - 1) * br(mu))
        ref_same = r1 * br(v - mu) * br(1) / (br(v - 1) * br(mu))
        assert abs(w.w_cross - ref_cross) < 1e-12 * abs(ref_cross)
        assert abs(w.w_same - ref_same) < 1e-12 * abs(ref_same)

    def test_inversion(self, p):
        for mode in (XRMode.A, XRMode.B):
            xr = XRParams.from_qparams(p, mode)
            for mu, v in ((2.0, 0.37), (1.3 + 0.2j, -0.61), (3.1, 1.9)):
                m1 = boltzmann_exchange_matrix(mu, v, xr, 2)
                m2 = boltzmann_exchange_matrix(mu, -v, xr, 2)
                dev = np.max(np.abs(m2 @ m1 - np.eye(2)))
                assert dev < 1e-8

    @pytest.mark.parametrize("q, k, modes", [(0.92, 0.8, "A"),
                                             (0.95, 0.5, "AB")])
    def test_inversion_near_one(self, q, k, modes):
        # each double product of g_1 lies below 1e-176 here, so the product
        # of two of them underflows to 0
        p = QParams(q=q, k=k)
        for mode in modes:
            xr = XRParams.from_qparams(p, XRMode(mode))
            v = 0.37 * min(1.0, xr.r - 1.0)
            fwd = boltzmann_exchange_matrix(1.3 + 0.2j, v, xr, 2)
            rev = boltzmann_exchange_matrix(1.3 + 0.2j, -v, xr, 2)
            assert np.max(np.abs(rev @ fwd - np.eye(2))) < 1e-12

    def test_underflow_near_one_is_typed(self):
        p = QParams(q=0.98, k=0.5)
        for mode in (XRMode.A, XRMode.B):
            xr = XRParams.from_qparams(p, mode)
            with pytest.raises(QMacdonaldError):
                boltzmann_exchange_matrix(1.3 + 0.2j, 0.37, xr, 2)

    def test_exchange_matrix_matches_weights(self, p):
        # the shared v-dependent factors must not change a single bit
        for mode in (XRMode.A, XRMode.B):
            xr = XRParams.from_qparams(p, mode)
            for mu, v in ((2.0, 0.37), (1.3 + 0.2j, -0.61)):
                M = boltzmann_exchange_matrix(mu, v, xr, 2)
                ref = boltzmann_w(mu, v, xr, 2).matrix(
                    boltzmann_w(-mu, v, xr, 2))
                assert np.array_equal(M, ref)

    def test_three_theta_batches(self, monkeypatch):
        # [v], [v-1], [1] and, per weight set, [mu], [mu-1], [v-mu]: one
        # log theta evaluator per bracket triple, each evaluating its
        # three arguments, where bracket_v one at a time made nine
        evaluated = []
        factory = qcore._log_theta_of

        def counted(q):
            kernel, seen = factory(q), []
            evaluated.append(seen)
            return lambda x: seen.append(x) or kernel(x)
        monkeypatch.setattr(qcore, "_log_theta_of", counted)
        xr = XRParams.from_qparams(QParams(q=0.75, k=0.2), XRMode.B)
        boltzmann_exchange_matrix(1.3 + 0.2j, 0.37, xr, 2)
        assert [len(xs) for xs in evaluated] == [3, 3, 3]

    def test_resonant_bracket_rejected(self):
        xr = XRParams(x=0.85, r=2.5)
        with pytest.raises(ResonanceError):
            boltzmann_w(0.61, 1.0, xr, 2)  # [v-1] = [0] = 0
