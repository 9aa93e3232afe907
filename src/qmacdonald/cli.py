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
import json
import math
import sys
from dataclasses import dataclass

from .continuation import braid_matrix, verify_braid_relations
from .errors import (ConvergenceError, DomainError, QMacdonaldError,
                     ResonanceError)
from .hcseries import (eigen_residual, evaluate, solve_basis,
                       solve_coefficients, solution_to_dict)
from .macpoly import macdonald_a1, macdonald_poly
from .operators import SpectralData
from .qcore import QParams


def _real(v, text: bool) -> float:
    x = float(v) if text else v
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(x)


def _int(v, text: bool) -> int:
    x = int(v) if text else v
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return x


def _tol(v, text: bool) -> float:
    x = _real(v, text)
    if x <= 0.0:
        raise ValueError(f"expected a positive number, got {v!r}")
    return x


def _seq(item, sep=","):
    """A list of items: flag text split at sep, or a JSON list."""
    def parse(v, text: bool) -> tuple:
        if text:
            v = v.split(sep)
        elif not isinstance(v, list):
            raise TypeError(f"expected a list, got {v!r}")
        return tuple(item(x, text) for x in v)
    return parse


def _perm(v, text: bool) -> tuple[int, ...]:
    return tuple(i - 1 for i in _seq(_int)(v, text))  # 1-based for users


def _coord(v, text: bool) -> complex:
    """A complex coordinate: flag text such as 1+0.5j, or a JSON [re, im]."""
    if text:
        v = [complex(v).real, complex(v).imag]
    re, im = _seq(_real)(v, False)
    return complex(re, im)


def _format(v, text: bool) -> str:
    if v not in ("json", "csv"):
        raise ValueError(f"expected json or csv, got {v!r}")
    return v


# config key (and flag name) -> (RunConfig attribute, parser, help).  The
# parser reads the flag's text (text=True) or checks the config file's JSON
# value (text=False); what it raises becomes a DomainError.
_FIELDS = {
    "q": ("q", _real, "base q in (0,1)"),
    "k": ("k", _real, "t = q**k with k in (0,1)"),
    "lambda": ("lam", _seq(_real), "comma-separated spectral vector (or "
                                   "partition for macpoly)"),
    "w": ("w", _perm, "1-based permutation, comma-separated"),
    "N": ("N", _int, "series truncation degree"),
    "points": ("points", _seq(_seq(_coord), ";"),
               "semicolon-separated points, comma-separated complex "
               "coordinates"),
    "format": ("output_format", _format, "json (default) or csv"),
    "tol": ("tol", _tol, "positive tolerance of verify"),
    "i": ("i", _int, "wall index for connect (1-based)"),
}


def _default_point(n: int, q: float) -> tuple[complex, ...]:
    return tuple(complex(q ** (-3 * i)) for i in range(n))


def _complex_doc(c: complex) -> dict:
    return {"re": float(c.real), "im": float(c.imag)}


@dataclass
class RunConfig:
    command: str
    q: float = 0.5
    k: float = 0.4
    lam: tuple = (0.27, -0.27)
    w: tuple | None = None
    N: int | None = None
    points: tuple = ()
    output_format: str = "json"
    tol: float = 1e-8
    i: int = 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmacdonald",
        description="Series solutions, continuation matrices and "
                    "verification sweeps for the Macdonald q-difference "
                    "system.")
    ap.add_argument("command",
                    choices=["eval", "solve", "macpoly", "connect", "verify"])
    for key, (_, _, help_) in _FIELDS.items():
        ap.add_argument(f"--{key}", help=help_)
    ap.add_argument("--config", type=str, default=None,
                    help="JSON object with the same fields; explicit flags "
                         "override it")
    return ap


def config_from_args(args) -> RunConfig:
    doc = {}
    if args.config is not None:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise DomainError("the config file must hold a JSON object")
        if doc.get("command", args.command) != args.command:
            raise DomainError("config command disagrees with the "
                              "command-line command")
    cfg = RunConfig(command=args.command)
    for key, (attr, parse, _) in _FIELDS.items():
        # the file first, so that an explicit flag overrides it
        for value, text, where in (
                (doc.get(key), False, f"config key {key!r}"),
                (getattr(args, key), True, f"--{key}")):
            if value is not None:
                try:
                    setattr(cfg, attr, parse(value, text))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise DomainError(f"could not parse {where}: {exc}")
    return cfg


def _make_solution(cfg: RunConfig):
    p = QParams(q=cfg.q, k=cfg.k)
    s = SpectralData.make(cfg.lam, p, w=cfg.w)
    return p, s, solve_coefficients(s, p, N=cfg.N)


# Each command returns (JSON document, CSV header, CSV rows, exit code);
# main alone picks the output format.


def cmd_solve(cfg: RunConfig):
    _, _, sol = _make_solution(cfg)
    doc = solution_to_dict(sol)
    header = [f"p{i + 1}" for i in range(sol.n - 1)] + ["re", "im"]
    rows = [list(e["p"]) + [e["re"], e["im"]] for e in doc["coeffs"]]
    return doc, header, rows, 0


def cmd_eval(cfg: RunConfig):
    p, s, sol = _make_solution(cfg)
    points = cfg.points or [_default_point(s.n, p.q)]
    results = []
    for z in points:
        res = evaluate(sol, z)
        results.append((z, res.value, res.tail_estimate))
    doc = {
        "n": s.n,
        "points": [
            {"z": [_complex_doc(c) for c in z],
             "value": _complex_doc(v),
             "tail_estimate": float(tail)}
            for z, v, tail in results
        ],
    }
    header = ["point_index", "re", "im", "tail_estimate"]
    rows = [[j, v.real, v.imag, tail]
            for j, (_, v, tail) in enumerate(results)]
    return doc, header, rows, 0


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
    doc = {
        "n": n,
        "terms": [{"exp": list(e), **_complex_doc(c)} for e, c in terms],
    }
    header = [f"exp{i + 1}" for i in range(n)] + ["re", "im"]
    rows = [list(e) + [c.real, c.imag] for e, c in terms]
    return doc, header, rows, 0


def cmd_connect(cfg: RunConfig):
    p = QParams(q=cfg.q, k=cfg.k)
    s = SpectralData.make(cfg.lam, p, w=cfg.w)
    z = cfg.points[0] if cfg.points else _default_point(s.n, p.q)
    cm = braid_matrix(s, cfg.i, z, p)
    header = ["row", "col", "re", "im"]
    rows = [[r, c, cm.entries[r][c].real, cm.entries[r][c].imag]
            for r in range(2) for c in range(2)]
    return cm.to_dict(), header, rows, 0


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
    doc = {
        "checks": [{"name": name, "residual": float(r),
                    "tol": cfg.tol, "pass": r < cfg.tol}
                   for name, r in checks],
        "all_pass": all_pass,
    }
    header = ["name", "residual", "tol", "pass"]
    rows = [[name, r, cfg.tol, str(r < cfg.tol).lower()]
            for name, r in checks]
    return doc, header, rows, 0 if all_pass else 1


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
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        doc, header, rows, code = _DISPATCH[cfg.command](cfg)
    except QMacdonaldError as exc:
        return _error_exit(exc)
    except (OSError, ValueError) as exc:
        return _error_exit(DomainError(str(exc)))
    if cfg.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(c, ".17g") if isinstance(c, float) else c
                          for c in row] for row in rows)
    else:
        print(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
