#!/usr/bin/env python3
"""Sweep the eigen-equation and braiding checks over a parameter grid.

Runs the `qmacdonald verify` battery (every eigen-equation of the full
permutation basis, the double-crossing and braid relations) for several
(q, k) pairs and spectral vectors, and reports the worst residual of each
kind per grid point.  Exit code 0 if every residual is below the
tolerance, 1 otherwise.

Usage:
    python3 scripts/verification_sweep.py [--tol 1e-6] [--N 16]
"""

import argparse
import json
import sys

from qmacdonald.cli import RunConfig, cmd_verify

GRID_QK = [(0.3, 0.25), (0.5, 0.4), (0.7, 0.6)]
LAMBDAS = {2: (0.27, -0.27), 3: (0.31, -0.11, -0.20)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--N", type=int, default=16)
    args = ap.parse_args(argv)

    ok = True
    for q, k in GRID_QK:
        for n, lam in LAMBDAS.items():
            out, code = cmd_verify(RunConfig(command="verify", q=q, k=k,
                                             lam=lam, N=args.N, tol=args.tol))
            ok &= code == 0
            checks = json.loads(out)["checks"]
            for kind, is_eigen in (("eigen", True), ("braid", False)):
                worst = max(c["residual"] for c in checks
                            if c["name"].startswith("eigen_") == is_eigen)
                status = "ok " if worst < args.tol else "FAIL"
                print(f"[{status}] {kind:6s} q={q} k={k} n={n}: "
                      f"worst residual {worst:.3e}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
