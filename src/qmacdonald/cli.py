"""Command-line front end.

Subcommands: solve (build a series solution), eval (evaluate it at
points), macpoly (two-variable or general Macdonald polynomial),
connect (continuation matrix across one wall), verify (residual sweep).

Output is a single JSON or CSV document on stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 domain or
validation error, 3 resonance or nondegeneracy error, 4 convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

from .continuation import braid_matrix, verify_braid_relations
from .errors import (ConvergenceError, DomainError, QMacdonaldError,
                     ResonanceError)
from .hcseries import (_fmt, eigen_residual, evaluate, solve_basis,
                       solve_coefficients, solution_to_dict)
from .macpoly import macdonald_a1, macdonald_poly
from .operators import SpectralData
from .qcore import QParams


def _parse_lambda(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"could not parse --lambda: {exc}")


def _parse_w(text: str) -> tuple[int, ...]:
    try:
        w = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"could not parse --w: {exc}")
    return tuple(i - 1 for i in w)  # 1-based on the command line


def _parse_points(text: str) -> list[tuple[complex, ...]]:
    points = []
    for chunk in text.split(";"):
        try:
            points.append(tuple(complex(x) for x in chunk.split(",")))
        except ValueError as exc:
            raise DomainError(f"could not parse --points: {exc}")
    return points


def _default_point(n: int, q: float) -> tuple[complex, ...]:
    return tuple(complex(q ** (-3 * i)) for i in range(n))


def _complex_doc(c: complex) -> dict:
    return {"re": _fmt(c.real), "im": _fmt(c.imag)}


@dataclass
class RunConfig:
    command: str
    q: float = 0.5
    k: float = 0.4
    lam: tuple = (0.27, -0.27)
    w: tuple | None = None
    N: int | None = None
    points: list = field(default_factory=list)
    output_format: str = "json"
    tol: float = 1e-8
    mode: str = "A"
    i: int = 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmacdonald",
        description="Series solutions, continuation matrices and "
                    "verification sweeps for the Macdonald q-difference "
                    "system.")
    ap.add_argument("command",
                    choices=["eval", "solve", "macpoly", "connect", "verify"])
    ap.add_argument("--q", type=float, default=None)
    ap.add_argument("--k", type=float, default=None)
    ap.add_argument("--lambda", dest="lam", type=str, default=None,
                    help="comma-separated spectral vector (or partition "
                         "for macpoly)")
    ap.add_argument("--w", type=str, default=None,
                    help="1-based permutation, comma-separated")
    ap.add_argument("--N", type=int, default=None,
                    help="series truncation degree")
    ap.add_argument("--points", type=str, default=None,
                    help="semicolon-separated points, comma-separated "
                         "complex coordinates")
    ap.add_argument("--format", dest="output_format",
                    choices=["json", "csv"], default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--mode", choices=["A", "B"], default=None)
    ap.add_argument("--i", type=int, default=None,
                    help="wall index for connect (1-based)")
    ap.add_argument("--config", type=str, default=None,
                    help="JSON file providing the same fields; explicit "
                         "flags override it")
    return ap


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.config is not None:
        with open(args.config) as fh:
            doc = json.load(fh)
        for key, attr in (("q", "q"), ("k", "k"), ("lambda", "lam"),
                          ("w", "w"), ("N", "N"), ("points", "points"),
                          ("format", "output_format"), ("tol", "tol"),
                          ("mode", "mode"), ("i", "i")):
            if key in doc:
                setattr(cfg, attr, doc[key])
        if "command" in doc and doc["command"] != args.command:
            raise DomainError("config command disagrees with the "
                              "command-line command")
        cfg.lam = tuple(cfg.lam)
        if cfg.w is not None:
            cfg.w = tuple(i - 1 for i in cfg.w)
        cfg.points = [tuple(complex(c[0], c[1]) for c in pt)
                      for pt in cfg.points]
    if args.q is not None:
        cfg.q = args.q
    if args.k is not None:
        cfg.k = args.k
    if args.lam is not None:
        cfg.lam = _parse_lambda(args.lam)
    if args.w is not None:
        cfg.w = _parse_w(args.w)
    if args.N is not None:
        cfg.N = args.N
    if args.points is not None:
        cfg.points = _parse_points(args.points)
    if args.output_format is not None:
        cfg.output_format = args.output_format
    if args.tol is not None:
        cfg.tol = args.tol
    if args.mode is not None:
        cfg.mode = args.mode
    if args.i is not None:
        cfg.i = args.i
    return cfg


def _make_solution(cfg: RunConfig):
    p = QParams(q=cfg.q, k=cfg.k)
    s = SpectralData.make(cfg.lam, p, w=cfg.w)
    return p, s, solve_coefficients(s, p, N=cfg.N)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_solve(cfg: RunConfig):
    _, _, sol = _make_solution(cfg)
    doc = solution_to_dict(sol)
    if cfg.output_format == "csv":
        n = sol.n
        header = [f"p{i + 1}" for i in range(n - 1)] + ["re", "im"]
        rows = [list(e["p"]) + [format(e["re"], ".17g"),
                                format(e["im"], ".17g")]
                for e in doc["coeffs"]]
        return _csv_text(header, rows), 0
    return json.dumps(doc), 0


def cmd_eval(cfg: RunConfig):
    p, s, sol = _make_solution(cfg)
    points = cfg.points or [_default_point(s.n, p.q)]
    results = []
    for z in points:
        res = evaluate(sol, z)
        results.append((z, res.value, res.tail_estimate))
    if cfg.output_format == "csv":
        header = ["point_index", "re", "im", "tail_estimate"]
        rows = [[j, format(v.real, ".17g"), format(v.imag, ".17g"),
                 format(tail, ".17g")]
                for j, (_, v, tail) in enumerate(results)]
        return _csv_text(header, rows), 0
    doc = {
        "n": s.n,
        "points": [
            {"z": [_complex_doc(c) for c in z],
             "value": _complex_doc(v),
             "tail_estimate": _fmt(tail)}
            for z, v, tail in results
        ],
    }
    return json.dumps(doc), 0


def cmd_macpoly(cfg: RunConfig):
    p = QParams(q=cfg.q, k=cfg.k)
    parts = tuple(int(round(x)) for x in cfg.lam)
    if any(abs(parts[i] - cfg.lam[i]) > 1e-9 for i in range(len(parts))):
        raise DomainError("macpoly expects an integer partition in --lambda")
    n = len(parts)
    if n == 2 and parts[1] == 0:
        poly = macdonald_a1(parts[0], p)
    else:
        poly = macdonald_poly(parts, n, p)
    terms = sorted(poly.terms.items())
    if cfg.output_format == "csv":
        header = [f"exp{i + 1}" for i in range(n)] + ["re", "im"]
        rows = [list(e) + [format(c.real, ".17g"), format(c.imag, ".17g")]
                for e, c in terms]
        return _csv_text(header, rows), 0
    doc = {
        "n": n,
        "terms": [{"exp": list(e), "re": _fmt(c.real), "im": _fmt(c.imag)}
                  for e, c in terms],
    }
    return json.dumps(doc), 0


def cmd_connect(cfg: RunConfig):
    p = QParams(q=cfg.q, k=cfg.k)
    s = SpectralData.make(cfg.lam, p, w=cfg.w)
    z = cfg.points[0] if cfg.points else _default_point(s.n, p.q)
    cm = braid_matrix(s, cfg.i, z, p)
    doc = cm.to_dict()
    doc["ratio"] = _complex_doc(cm.ratio)
    doc["entries"] = [[_complex_doc(e) for e in row] for row in cm.entries]
    if cfg.output_format == "csv":
        header = ["row", "col", "re", "im"]
        rows = [[r, c, format(cm.entries[r][c].real, ".17g"),
                 format(cm.entries[r][c].imag, ".17g")]
                for r in range(2) for c in range(2)]
        return _csv_text(header, rows), 0
    return json.dumps(doc), 0


def cmd_verify(cfg: RunConfig):
    p = QParams(q=cfg.q, k=cfg.k)
    n = len(cfg.lam)
    z = cfg.points[0] if cfg.points else _default_point(n, p.q)
    checks = []
    for sol in solve_basis(cfg.lam, p, N=cfg.N):
        w = sol.spectral.w
        for m in range(1, n + 1):
            r = eigen_residual(sol, m, z)
            checks.append((f"eigen_w{''.join(str(i + 1) for i in w)}_m{m}",
                           r))
    s0 = SpectralData.make(cfg.lam, p)
    zc = tuple(c * complex(1.0, 0.05 * (j + 1)) for j, c in enumerate(z))
    report = verify_braid_relations(s0, p, zc)
    for name, r in report.items():
        checks.append((name, r))
    all_pass = all(r < cfg.tol for _, r in checks)
    if cfg.output_format == "csv":
        header = ["name", "residual", "tol", "pass"]
        rows = [[name, format(r, ".17g"), format(cfg.tol, ".17g"),
                 str(r < cfg.tol).lower()] for name, r in checks]
        return _csv_text(header, rows), 0 if all_pass else 1
    doc = {
        "checks": [{"name": name, "residual": _fmt(r),
                    "tol": _fmt(cfg.tol), "pass": r < cfg.tol}
                   for name, r in checks],
        "all_pass": all_pass,
    }
    return json.dumps(doc), 0 if all_pass else 1


_DISPATCH = {
    "solve": cmd_solve,
    "eval": cmd_eval,
    "macpoly": cmd_macpoly,
    "connect": cmd_connect,
    "verify": cmd_verify,
}


def _error_exit(exc: Exception) -> int:
    if isinstance(exc, ConvergenceError):
        code = 4
    elif isinstance(exc, ResonanceError):
        code = 3
    else:
        code = 2
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(doc))
    print(str(exc), file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = config_from_args(args)
        out, code = _DISPATCH[cfg.command](cfg)
    except QMacdonaldError as exc:
        return _error_exit(exc)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _error_exit(DomainError(str(exc)))
    sys.stdout.write(out)
    if not out.endswith("\n"):
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
