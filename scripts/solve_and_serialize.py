#!/usr/bin/env python3
"""Solve a series basis element, evaluate it, and round-trip it as JSON.

Demonstrates the programmatic workflow: build the spectral data, run the
coefficient recursion, evaluate with a tail estimate, compute the
leading-coefficient normalizations, and serialize/deserialize the whole
solution.

Usage:
    python3 scripts/solve_and_serialize.py [--out solution.json]
"""

import argparse
import json
import sys

from qmacdonald import (QParams, SpectralData, evaluate, leading_coefficient,
                        solution_from_json, solution_to_json,
                        solve_coefficients)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None,
                    help="write the JSON document to this file")
    args = ap.parse_args(argv)

    p = QParams(q=0.5, k=0.4)
    s = SpectralData.make((0.31, -0.11, -0.20), p, w=(1, 2, 0))
    sol = solve_coefficients(s, p, N=16)

    z = tuple(p.q ** (-3.0 * i) for i in range(3))
    res = evaluate(sol, z)
    print(f"value at z={z}: {res.value:.17g}")
    print(f"tail estimate : {res.tail_estimate:.3e}")
    print(f"lead (mode A) : {leading_coefficient(s, p, 'A')}")
    print(f"lead (mode B) : {leading_coefficient(s, p, 'B')}")

    text = solution_to_json(sol)
    back = solution_from_json(text)
    assert solution_to_json(back) == text, "round trip must be lossless"
    print(f"JSON round trip ok ({len(json.loads(text)['coeffs'])} coefficients)")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
