"""The four benchmark workloads: seeded input blocks, op runners, tolerances.

A workload is an endless stream of *blocks*.  A block holds one op from
each of the workload's cost classes, in a seeded order, and every
cost-determining parameter is drawn from its own stratum.  Blocks of
different seeds therefore cost about the same, while the inputs differ.
The runner always finishes whole blocks, so a partial block never skews
the op mix of a run.

An op is ``(kind, args)``.  ``run_op`` executes it through the public API
of ``qmacdonald`` and returns its relative residual; the op passes when
that residual is at most ``TOLERANCE[kind]``.  Every call goes through a
module attribute (``qm.evaluate``, ``qm.cli.main``) so that the tracer in
``tracer.py`` can wrap it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import random

import numpy as np
import qmacdonald as qm
import qmacdonald.cli
import qmacdonald.hcseries

# Largest accepted residual per op kind.  Every residual is relative
# except that of ``degeneration``, which is the largest absolute
# coefficient deviation of a monic polynomial.
TOLERANCE = {
    "verify_n2": 1e-8,   # the --tol handed to `qmacdonald verify`
    "verify_n3": 1e-8,
    "eval_n2": 1e-8,
    "eval_n3": 1e-8,
    "eval_n4": 1e-8,
    "poly_n3": 1e-8,
    "poly_n4": 1e-8,
    "poly_n5": 1e-8,
    "a1": 1e-6,          # interpolation error reaches ~3e-8 at m = 34
    "degeneration": 1e-10,
    "bundle": 1e-8,
    "bundle_near1": 1e-8,
}

# Partitions grouped by n and by the size of their dominance ideal, which
# sets the cost of macdonald_poly (a dense solve per ideal member).
_POLY_CLASSES = {
    "n3_small": [
        (3, 0, 0), (3, 1, 0), (3, 2, 0), (4, 1, 1), (3, 3, 0), (4, 2, 1),
        (4, 3, 1), (5, 2, 2), (4, 4, 1), (5, 3, 2), (5, 4, 2), (6, 3, 3),
        (5, 5, 2), (4, 0, 0), (4, 1, 0), (5, 1, 1), (4, 3, 0), (5, 2, 1),
        (4, 4, 0), (6, 2, 2), (5, 4, 1), (6, 3, 2), (5, 5, 1), (5, 0, 0),
        (4, 2, 0), (6, 1, 1), (5, 3, 1), (5, 5, 0), (7, 2, 2), (6, 4, 2)],
    "n3_large": [
        (6, 0, 0), (6, 1, 0), (7, 1, 1), (7, 2, 1), (6, 5, 0), (8, 2, 2),
        (6, 6, 0), (7, 0, 0), (6, 2, 0), (6, 3, 0), (8, 1, 1), (6, 4, 0),
        (7, 3, 1), (7, 4, 1), (7, 1, 0), (8, 2, 1), (8, 0, 0), (7, 2, 0),
        (7, 3, 0), (9, 1, 1), (7, 4, 0), (8, 3, 1), (7, 5, 0)],
    "n4_small": [
        (3, 1, 0, 0), (3, 2, 0, 0), (3, 2, 1, 0), (3, 3, 1, 0), (4, 2, 1, 1),
        (3, 3, 2, 0), (4, 3, 1, 1), (4, 3, 2, 1), (4, 4, 2, 1), (5, 3, 2, 2),
        (4, 4, 3, 1), (4, 0, 0, 0), (4, 1, 0, 0), (4, 1, 1, 0), (3, 3, 0, 0),
        (5, 1, 1, 1), (5, 2, 1, 1), (5, 2, 2, 1), (4, 4, 1, 1), (4, 3, 3, 0),
        (4, 4, 3, 0), (6, 2, 2, 2), (4, 4, 4, 0), (5, 0, 0, 0), (4, 2, 1, 0),
        (4, 2, 2, 0), (6, 1, 1, 1), (4, 3, 2, 0), (5, 3, 2, 1), (5, 3, 3, 1)],
    "n4_large": [
        (6, 1, 0, 0), (6, 1, 1, 0), (5, 3, 1, 0), (5, 3, 2, 0), (7, 2, 1, 1),
        (5, 4, 2, 0), (7, 2, 2, 1), (7, 0, 0, 0), (5, 3, 0, 0), (5, 4, 0, 0),
        (5, 4, 1, 0), (8, 1, 1, 1), (5, 5, 1, 0), (6, 4, 1, 1), (5, 5, 2, 0),
        (6, 2, 1, 0), (6, 2, 2, 0), (5, 5, 0, 0), (6, 3, 3, 0), (6, 2, 0, 0),
        (7, 1, 1, 0), (6, 3, 2, 0), (7, 3, 1, 1), (7, 1, 0, 0), (6, 3, 0, 0),
        (6, 3, 1, 0), (8, 2, 1, 1)],
    "n5_small": [
        (3, 1, 0, 0, 0), (3, 1, 1, 0, 0), (3, 2, 1, 1, 0), (3, 2, 2, 1, 0),
        (4, 2, 1, 1, 1), (4, 2, 2, 1, 1), (3, 3, 2, 2, 0), (3, 3, 3, 2, 0),
        (4, 3, 2, 2, 1), (4, 0, 0, 0, 0), (3, 2, 0, 0, 0), (3, 2, 1, 0, 0),
        (4, 1, 1, 1, 0), (3, 2, 2, 0, 0), (3, 3, 1, 1, 0), (5, 1, 1, 1, 1),
        (3, 3, 2, 1, 0), (4, 3, 1, 1, 1), (3, 3, 3, 1, 0), (4, 3, 2, 1, 1),
        (5, 2, 2, 2, 1), (4, 3, 3, 1, 1), (4, 1, 0, 0, 0), (4, 1, 1, 0, 0),
        (3, 3, 0, 0, 0), (3, 3, 1, 0, 0), (3, 3, 2, 0, 0), (3, 3, 3, 0, 0),
        (5, 2, 1, 1, 1), (4, 2, 2, 2, 0), (5, 2, 2, 1, 1), (4, 4, 1, 1, 1),
        (4, 4, 2, 1, 1)],
    "n5_large": [
        (6, 1, 0, 0, 0), (5, 2, 1, 0, 0), (4, 4, 2, 0, 0), (7, 2, 1, 1, 1),
        (5, 3, 2, 2, 0), (7, 0, 0, 0, 0), (6, 1, 1, 0, 0), (5, 2, 2, 0, 0),
        (5, 3, 1, 1, 0), (8, 1, 1, 1, 1), (5, 3, 0, 0, 0), (5, 3, 2, 1, 0),
        (6, 2, 2, 2, 0), (5, 3, 3, 1, 0), (5, 3, 1, 0, 0), (6, 2, 1, 1, 0),
        (5, 4, 1, 1, 0), (6, 2, 0, 0, 0), (5, 4, 0, 0, 0), (7, 1, 1, 1, 0),
        (5, 3, 2, 0, 0), (6, 2, 2, 1, 0), (5, 3, 3, 0, 0), (5, 4, 2, 1, 0)],
}


class CliExit(Exception):
    """`qmacdonald` returned a nonzero exit code."""

    def __init__(self, code):
        super().__init__(f"exit code {code}")
        self.code = code


# ---------------------------------------------------------------------------
# seeded draws


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list:
    """k draws, one from each of k equal slices of [lo, hi], shuffled."""
    out = [lo + (hi - lo) * (i + rng.random()) / k for i in range(k)]
    rng.shuffle(out)
    return out


def _cycle(rng: random.Random, values):
    """Endless seeded passes over values, each pass in a new order, so a
    run samples a catalog evenly instead of with replacement."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _spectral(rng: random.Random, n: int) -> tuple:
    """A generic real spectral vector with sum zero and separated entries."""
    while True:
        lam = [rng.uniform(-0.45, 0.45) for _ in range(n)]
        mean = sum(lam) / n
        lam = [x - mean for x in lam]
        if min(abs(a - b) for a, b in itertools.combinations(lam, 2)) > 0.08:
            return tuple(lam)


def _zone_point(rng: random.Random, n: int, lo: float, hi: float) -> tuple:
    """|z_1| < ... < |z_n| with every ratio |z_i/z_{i+1}| in [lo, hi]."""
    z = [cmath.exp(1j * rng.uniform(-0.3, 0.3))]
    for _ in range(n - 1):
        z.append(z[-1] / rng.uniform(lo, hi)
                 * cmath.exp(1j * rng.uniform(-0.3, 0.3)))
    return tuple(z)


# ---------------------------------------------------------------------------
# basis_verify: `qmacdonald verify` through qmacdonald.cli.main


def _verify_argv(rng, n, N, q):
    k = rng.uniform(0.2, 0.8)
    lam = _spectral(rng, n)
    z = _zone_point(rng, n, 0.03, 0.06)
    return (["verify", f"--q={q!r}", f"--k={k!r}",
             "--lambda=" + ",".join(repr(x) for x in lam),
             "--points=" + ",".join(repr(c) for c in z),
             f"--N={N}", "--tol=1e-8"],)


# (n, depths) per cost class; the depth sets the cost of `verify`
_VERIFY_CLASSES = ((2, range(24, 41)), (2, range(41, 65)), (2, range(65, 97)),
                   (3, range(10, 13)), (3, range(13, 15)))


def _basis_verify_blocks(rng, state):
    depths = [_cycle(rng, Ns) for _, Ns in _VERIFY_CLASSES]
    # each class sweeps its own q strata, so every class meets small q,
    # where the q-shifted points of D^m lie furthest out of the zone
    qs = [_cycle(rng, _strata(rng, 0.3, 0.7, 4)) for _ in _VERIFY_CLASSES]
    while True:
        block = [(f"verify_n{n}", _verify_argv(rng, n, next(N), next(q)))
                 for (n, _), N, q in zip(_VERIFY_CLASSES, depths, qs)]
        rng.shuffle(block)
        yield block


def _run_verify(state, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qm.cli.main(argv)
        except SystemExit as exc:   # argparse rejects its input this way
            code = exc.code
    if code != 0:
        raise CliExit(code)
    doc = json.loads(out.getvalue())
    if not doc["all_pass"]:
        raise CliExit(1)
    return max(c["residual"] for c in doc["checks"])


# ---------------------------------------------------------------------------
# eval_sweep: evaluation of a pool of solutions solved during set-up

# (n, N, q, k) of the pool.  q and k are fixed: they set how fast the
# series converge, which the accuracy metric would otherwise follow.  The
# median op is an n=4 one, flanked by graded depths: ops of a few ms swing
# with the host's speed far more than the 10 ms ops do.
_POOL = ((2, 96, 0.4, 0.35), (3, 14, 0.5, 0.5), (3, 18, 0.6, 0.65),
         (4, 9, 0.4, 0.35), (4, 10, 0.5, 0.5), (4, 11, 0.6, 0.65),
         (4, 12, 0.45, 0.4))


def _eval_sweep_prepare(rng):
    pool = []
    for n, N, q, k in _POOL:
        p = qm.QParams(q=q, k=k)
        w = tuple(rng.sample(range(n), n))
        s = qm.SpectralData.make(_spectral(rng, n), p, w=w)
        pool.append(qm.solve_coefficients(s, p, N=N))
    return pool


def _eval_sweep_blocks(rng, pool):
    while True:
        block = [(f"eval_n{sol.n}", (j, _zone_point(rng, sol.n, 0.02, 0.06)))
                 for j, sol in enumerate(pool)]
        rng.shuffle(block)
        yield block


def _run_eval(pool, j, z):
    sol = pool[j]
    worst = max(qm.eigen_residual(sol, m, z) for m in range(1, sol.n + 1))
    dual = qm.duality_check(lambda zz: qm.evaluate(sol, zz).value, z,
                            sol.params)
    return max(worst, dual)


# ---------------------------------------------------------------------------
# macpoly: Macdonald polynomials, the n=2 closed form, degeneration


def _macpoly_blocks(rng, state):
    catalogs = [_cycle(rng, parts) for parts in _POLY_CLASSES.values()]
    for b in itertools.count():
        qs = _strata(rng, 0.3, 0.7, 9)
        ks = _strata(rng, 0.2, 0.8, 9)
        params = [(q, k) for q, k in zip(qs, ks)]
        block = [("degeneration", (rng.randint(2, 12),) + params[0]),
                 ("a1", (rng.randint(4, 14),) + params[1]),
                 # the high degrees carry the interpolation error; every
                 # fourth block reaches m = 34 so the worst case is sampled
                 ("a1", (34 - b % 4,) + params[2])]
        for j, catalog in enumerate(catalogs):
            lam = next(catalog)
            point = tuple((1.0 + rng.random())
                          * cmath.exp(2j * math.pi * rng.random())
                          for _ in lam)
            block.append((f"poly_n{len(lam)}", (lam, point) + params[3 + j]))
        rng.shuffle(block)
        yield block


def _run_poly(state, lam, z, q, k):
    p = qm.QParams(q=q, k=k)
    P = qm.macdonald_poly(lam, len(lam), p)
    lhs = qm.macdonald_apply_numeric(P.evaluate, 1, z, p)
    rhs = qm.eigenvalue_c(tuple(reversed(lam)), 1, p) * P.evaluate(z)
    return abs(lhs - rhs) / abs(rhs)


def _run_a1(state, m, q, k):
    p = qm.QParams(q=q, k=k)
    ref = qm.macdonald_a1(m, p)
    scale = max(abs(c) for c in ref.terms.values())
    return qm.macdonald_poly((m, 0), 2, p).max_abs_diff(ref) / scale


def _run_degeneration(state, m, q, k):
    return qm.degeneration_check(m, qm.QParams(q=q, k=k))


# ---------------------------------------------------------------------------
# connect: continuation bundles and q-kernel identities


def _connect_bundle(rng, q, near1):
    k = rng.uniform(0.2, 0.8)
    args = {"q": q, "k": k,
            "gamma_a": rng.uniform(0.1, 3.0),
            "theta_z": rng.uniform(0.3, 1.8)
            * cmath.exp(2j * math.pi * rng.random()),
            # Re(lam2 - lam1 + k) > 0 keeps the residue sum convergent
            "irep_l": rng.uniform(-0.2, min(0.15, k / 2 - 0.05)),
            "irep_z1": rng.uniform(0.1, 0.4)
            * cmath.exp(1j * rng.uniform(-1.0, 1.0)),
            "res_n": rng.randint(0, 8),
            "res_lam12": rng.uniform(-0.45, k - 0.1)}
    if not near1:
        u = rng.uniform(0.4, 1.0)
        # the two halves of the connection formula carry Gamma_q(b - a)
        # poles that cancel as a -> b (1.5e-8 lost at |a - b| = 5e-5)
        a = rng.uniform(0.05, 0.45)
        b = a + rng.uniform(0.05, 0.3)
        args.update({
            "lam": _spectral(rng, 3),
            "z": tuple(r * cmath.exp(1j * rng.uniform(0.0, 0.2))
                       for r in (1.0, rng.uniform(1.8, 2.6),
                                 rng.uniform(4.0, 6.0))),
            "fq": (a, b, a + b + u,
                   q ** ((1 + u) / 2) * cmath.exp(1j * rng.uniform(0.1, 2.0))),
            "mode": rng.choice(["A", "B"]),
            "mu": complex(rng.uniform(1.1, 1.9), rng.uniform(0.1, 0.3)),
            "v_frac": rng.uniform(0.2, 0.8) * rng.choice([-1, 1])})
    return ("bundle_near1" if near1 else "bundle", (args,))


def _connect_blocks(rng, state):
    near1 = _cycle(rng, _strata(rng, 0.93, 0.96, 4))
    while True:
        block = [_connect_bundle(rng, q, False)
                 for q in _strata(rng, 0.3, 0.75, 4)]
        block.append(_connect_bundle(rng, next(near1), True))
        rng.shuffle(block)
        yield block


def _rel(a, b):
    return abs(a - b) / abs(b)


def _run_bundle(state, args):
    q = args["q"]
    p = qm.QParams(q=q, k=args["k"])
    res = []
    a = args["gamma_a"]
    res.append(_rel(qm.qgamma(a + 1.0, q),
                    (1.0 - q ** a) / (1.0 - q) * qm.qgamma(a, q)))
    z = args["theta_z"]
    res.append(_rel(qm.theta(q * z, q), -qm.theta(z, q) / z))
    lam = (args["irep_l"], -args["irep_l"])
    res.append(_rel(qm.integral_rep_fq(lam, args["irep_z1"], 1.0, p),
                    qm.hcseries.integral_rep_fq_reference(
                        lam, args["irep_z1"], 1.0, p)))
    n_pow, lam12 = args["res_n"], args["res_lam12"]
    res.append(_rel(qm.residue_integral_prop6(n_pow, lam12, p),
                    qm.hcseries.one_point_integral_closed_form(
                        n_pow, lam12, p)))
    if "lam" in args:
        s = qm.SpectralData.make(args["lam"], p)
        z3 = args["z"]
        res.extend(qm.verify_braid_relations(s, p, z3).values())
        basis = [qm.SpectralData(n=3, lam=s.lam, w=w, k=p.k)
                 for w in itertools.permutations(range(3))]
        there = qm.braid_action(basis, 2, z3, p)
        back = qm.braid_action(basis, 2, (z3[0], z3[2], z3[1]), p)
        res.append(float(np.max(np.abs(there @ back - np.eye(6)))))
        lhs, rhs = qm.fq_connection(*args["fq"], p)
        res.append(_rel(rhs, lhs))
        xr = qm.XRParams.from_qparams(p, qm.XRMode(args["mode"]))
        # |v| < min(1, r - 1) keeps every bracket denominator off its zeros
        v = args["v_frac"] * min(1.0, xr.r - 1.0)
        fwd = qm.boltzmann_exchange_matrix(args["mu"], v, xr, 2)
        rev = qm.boltzmann_exchange_matrix(args["mu"], -v, xr, 2)
        res.append(float(np.max(np.abs(rev @ fwd - np.eye(2)))))
    return max(res)


# ---------------------------------------------------------------------------
# known defects, probed after the timed loop
#
# A timed op must not fail at the parent commit, so the inputs above stay
# clear of these defects.  Each run calls them once instead and reports
# the outcome: the exception type, the residual of a check, or "ok".


def _probe(defect, q, call):
    try:
        outcome = call()
    except Exception as exc:   # recorded, whatever its type
        outcome = type(exc).__name__
    return {"defect": defect, "q": q,
            "outcome": outcome if isinstance(outcome, (float, str)) else "ok"}


def _connect_probes(rng):
    q_res = rng.uniform(0.86, 0.95)
    q_zero = rng.uniform(0.999, 0.9995)
    q_fq = rng.uniform(0.4, 0.6)
    p_res, p_fq = qm.QParams(q=q_res, k=0.4), qm.QParams(q=q_fq, k=0.4)
    s = qm.SpectralData.make(_spectral(rng, 3), p_res)
    a = rng.uniform(0.3, 0.5)

    def confluent():
        lhs, rhs = qm.fq_connection(a, a + 5e-5, 2 * a + 0.7, 0.55 + 0.3j,
                                    p_fq)
        return _rel(rhs, lhs)

    return [
        _probe("braid_matrix: false ResonanceError, absolute tolerance on "
               "Theta_q", q_res,
               lambda: qm.braid_matrix(s, 1, (1.0, 2.0, 4.0), p_res)),
        _probe("qgamma: bare ZeroDivisionError, (q;q)_inf underflows",
               q_zero, lambda: qm.qgamma(0.3, q_zero)),
        _probe("fq_connection: relative error as b - a -> 0", q_fq,
               confluent),
    ]


def _macpoly_probes(rng):
    q = rng.uniform(0.3, 0.35)
    p = qm.QParams(q=q, k=0.4)

    def degree40():
        ref = qm.macdonald_a1(40, p)
        scale = max(abs(c) for c in ref.terms.values())
        return qm.macdonald_poly((40, 0), 2, p).max_abs_diff(ref) / scale

    return [_probe("macdonald_apply_poly: interpolation error at degree 40, "
                   "DomainError at small q", q, degree40)]


# ---------------------------------------------------------------------------
# registry


class Workload:
    def __init__(self, name, blocks, prepare=None, probes=None,
                 tail_pct=90.0, min_blocks=4):
        self.name = name
        self.blocks = blocks          # (rng, state) -> iterator of blocks
        self.prepare = prepare        # rng -> state, counted in set-up
        self.probes = probes          # rng -> known-defect ledger entries
        self.tail_pct = tail_pct      # fixed tail percentile of the latency
        self.min_blocks = min_blocks  # blocks every run completes

    def setup(self, seed: int):
        """Everything before the first timed op: preparation and the
        seeded block stream."""
        rng = random.Random(seed)
        state = self.prepare(rng) if self.prepare else None
        return state, self.blocks(rng, state)


WORKLOADS = {
    w.name: w for w in (
        Workload("basis_verify", _basis_verify_blocks,
                 tail_pct=90.0, min_blocks=20),
        Workload("eval_sweep", _eval_sweep_blocks,
                 prepare=_eval_sweep_prepare, tail_pct=99.0, min_blocks=200),
        Workload("macpoly", _macpoly_blocks, probes=_macpoly_probes,
                 tail_pct=95.0, min_blocks=40),
        Workload("connect", _connect_blocks, probes=_connect_probes,
                 tail_pct=95.0, min_blocks=30),
    )
}

_RUNNERS = {
    "verify_n2": _run_verify, "verify_n3": _run_verify,
    "eval_n2": _run_eval, "eval_n3": _run_eval, "eval_n4": _run_eval,
    "poly_n3": _run_poly, "poly_n4": _run_poly, "poly_n5": _run_poly,
    "a1": _run_a1, "degeneration": _run_degeneration,
    "bundle": _run_bundle, "bundle_near1": _run_bundle,
}


def run_op(state, op) -> float:
    """Execute one op and return its residual."""
    kind, args = op
    return _RUNNERS[kind](state, *args)
