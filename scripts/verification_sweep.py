#!/usr/bin/env python3
"""Sweep the eigen-equation and braiding checks over a parameter grid.

Solves the full permutation basis in one batched solve per (q, k, n)
for several (q, k) pairs and spectral vectors, reports the worst
eigen-equation residual over that basis, and checks the double-crossing
and braid-relation properties of the continuation matrices.  Exit code 0
if every residual is below the tolerance, 1 otherwise.

Usage:
    python3 scripts/verification_sweep.py [--tol 1e-6] [--N 16]
"""

import argparse
import cmath
import sys

from qmacdonald import (QParams, SpectralData, eigen_residual, solve_basis,
                        verify_braid_relations)

GRID_QK = [(0.3, 0.25), (0.5, 0.4), (0.7, 0.6)]
LAMBDAS = {2: (0.27, -0.27), 3: (0.31, -0.11, -0.20)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--N", type=int, default=16)
    args = ap.parse_args(argv)

    ok = True
    for q, k in GRID_QK:
        p = QParams(q=q, k=k)
        for n, lam in LAMBDAS.items():
            z = tuple(q ** (-3.0 * i) for i in range(n))
            worst = 0.0
            for sol in solve_basis(lam, p, N=args.N):
                for m in range(1, n + 1):
                    worst = max(worst, eigen_residual(sol, m, z))
            status = "ok " if worst < args.tol else "FAIL"
            ok &= worst < args.tol
            print(f"[{status}] eigen  q={q} k={k} n={n}: "
                  f"worst residual {worst:.3e}")

            zc = tuple(zi * cmath.exp(0.07j * (i + 1))
                       for i, zi in enumerate(z))
            rep = verify_braid_relations(SpectralData.make(lam, p), p, zc)
            worst_b = max(rep.values())
            status = "ok " if worst_b < args.tol else "FAIL"
            ok &= worst_b < args.tol
            print(f"[{status}] braid  q={q} k={k} n={n}: "
                  f"worst residual {worst_b:.3e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
