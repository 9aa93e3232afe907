"""Layer-boundary tracing of qmacdonald from outside the package.

``Tracer.install`` replaces every public function (``qmacdonald.__all__``,
plus ``cli.main``) in each module that holds a reference to it, so calls
between modules pass through a wrapper too: ``hcseries.eigen_residual``
reaches ``operators.macdonald_apply_numeric`` and, through the black-box
``f``, ``hcseries.evaluate``.  Each call becomes a span (name, start, end,
parent, op id) kept in flat arrays; ``uninstall`` puts the originals back
and reports whether every name is the original again.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict

import qmacdonald
from qmacdonald.hcseries import default_depth

MODULES = ("qcore", "operators", "hcseries", "continuation", "macpoly", "cli")

# Calls whose arguments the summary needs; kept as references and read
# only after the traced pass, outside the timed region.
_ARG_LOGGED = ("solve_coefficients", "macdonald_poly")


class Tracer:
    def __init__(self):
        self.names: list[str] = ["bench.op"]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.args = defaultdict(list)
        # (module, attribute, original, wrapper) for every public function
        # in every module that holds a reference to it
        modules = [qmacdonald] + [importlib.import_module(f"qmacdonald.{m}")
                                  for m in MODULES]
        targets = sorted(set(qmacdonald.__all__) | {"main"})
        wrappers = {}
        self.sites = []
        for mod in modules:
            for attr in targets:
                fn = getattr(mod, attr, None)
                if not (inspect.isfunction(fn)
                        and fn.__module__.startswith("qmacdonald.")):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn)
                self.sites.append((mod, attr, fn, wrappers[fn]))

    # -- wrapping ---------------------------------------------------------

    def install(self):
        for mod, attr, _, wrapper in self.sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> bool:
        """Restore every wrapped name; True when all are the originals."""
        for mod, attr, fn, _ in self.sites:
            setattr(mod, attr, fn)
        return all(getattr(mod, attr) is fn for mod, attr, fn, _ in self.sites)

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[1]
        nid = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        start, end, name, parent, op = (self.start, self.end, self.name,
                                        self.parent, self.op)
        stack, clock = self._stack, time.perf_counter
        log = self.args[fn.__name__] if fn.__name__ in _ARG_LOGGED else None
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            if log is not None:
                log.append(signature.bind(*args, **kwargs).arguments)
            name.append(nid)
            parent.append(stack[-1])
            op.append(op[stack[1]] if len(stack) > 1 else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    # -- root spans -------------------------------------------------------

    def begin_op(self, op_id: int):
        idx = len(self.start)
        self.name.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())

    def end_op(self):
        self.end[self._stack.pop()] = time.perf_counter()

    # -- summary ----------------------------------------------------------

    def self_times(self):
        """Per-span (duration, self time)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(tr: Tracer, op_kinds: list[str]) -> tuple[dict, dict]:
    """The per-layer metrics of a traced pass, and the self time of each
    layer split by op kind."""
    dur, self_t = tr.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    by_kind = defaultdict(lambda: defaultdict(float))
    op_wall = 0.0
    for i, nid in enumerate(tr.name):
        name = tr.names[nid]
        layer = name.split(".", 1)[0]
        if nid == 0:
            op_wall += dur[i]
        else:
            calls[name] += 1
            calls[layer] += 1
        self_s[name] += self_t[i]
        self_s[layer] += self_t[i]
        incl_s[name] += dur[i]
        by_kind[op_kinds[tr.op[i]]][layer] += self_t[i]

    coefficients = 0
    for a in tr.args["solve_coefficients"]:
        n = a["s"].n
        N = a.get("N")
        N = default_depth(n) if N is None else N
        coefficients += math.comb(N + n - 1, n - 1)
    basis_size = sum(len(qmacdonald.dominance_ideal(
        qmacdonald.as_partition(a["lam"], a["n"])))
        for a in tr.args["macdonald_poly"])

    m = {}

    def put(key, value, unit):
        m[key] = {"value": value, "unit": unit}

    for layer in MODULES:
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.self_s", self_s[layer], "s")
        put(f"{layer}.share", self_s[layer] / op_wall, "fraction")
    for fn in ("hcseries.solve_coefficients", "hcseries.evaluate",
               "hcseries.eigen_residual",
               "operators.macdonald_apply_numeric",
               "operators.macdonald_apply_poly", "macpoly.macdonald_poly",
               "continuation.braid_action", "qcore.qpochhammer_inf",
               "qcore.theta", "qcore.qgamma", "qcore.fq", "cli.main"):
        put(f"{fn}.calls", calls[fn], "count")
        put(f"{fn}.self_s", self_s[fn], "s")
    for fn in ("hcseries.leading_coefficient", "operators.eigenvalue_c",
               "operators.duality_check", "macpoly.macdonald_a1",
               "macpoly.degeneration_check",
               "continuation.verify_braid_relations",
               "continuation.fq_connection",
               "continuation.boltzmann_exchange_matrix", "qcore.g1"):
        put(f"{fn}.self_s", self_s[fn], "s")
    put("hcseries.coefficients", coefficients, "count")
    put("hcseries.solve_us_per_coeff",
        1e6 * incl_s["hcseries.solve_coefficients"] / coefficients
        if coefficients else 0.0, "us")
    put("macpoly.basis_size", basis_size, "count")
    shares = {kind: {layer: t / sum(layers.values())
                     for layer, t in sorted(layers.items())}
              for kind, layers in by_kind.items()}
    return m, shares
