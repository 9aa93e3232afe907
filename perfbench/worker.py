"""One benchmark process: set-up, then the timed closed loop.

Started by ``run.py`` with the thread settings pinned; prints one JSON
line.  Modes:

- ``setup``: set up and report the moment the first op would start.
- ``run``: one client runs whole blocks of ops back to back until at
  least ``--seconds`` have passed and at least ``min_blocks`` blocks are
  done, then reports the end-to-end metrics.
- ``trace``: runs each op of the first ``min_blocks`` blocks twice,
  untraced and under the tracer, and reports the per-layer metrics.
"""

import argparse
import itertools
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import qmacdonald  # noqa: E402  (the checkout's own source tree)

from workloads import TOLERANCE, WORKLOADS, CliExit, run_op  # noqa: E402

# A residual below this is reported as this many digits' worth.
_RESIDUAL_FLOOR = 1e-17


def run_ops(state, ops):
    """Time each op; one record (kind, wall_s, residual, error) per op."""
    records = []
    for kind, args in ops:
        t = time.perf_counter()
        try:
            residual = run_op(state, (kind, args))
            error = None if residual <= TOLERANCE[kind] else "residual>tol"
        except CliExit as exc:
            residual, error = math.nan, f"exit_code={exc.code}"
        except Exception as exc:   # every failure is counted, none skipped
            residual, error = math.nan, type(exc).__name__
        records.append((kind, time.perf_counter() - t, residual, error))
    return records


def closed_loop(wl, state, blocks, seconds):
    """Whole blocks until both the time and the block minimum are met;
    returns the records of each block."""
    done = []
    t0 = time.perf_counter()
    for block in blocks:
        done.append(run_ops(state, block))
        if (len(done) >= wl.min_blocks
                and time.perf_counter() - t0 >= seconds):
            break
    return done, time.perf_counter() - t0


def nearest_rank(sorted_values, pct):
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def block_worst(block):
    """Largest residual of a block; an op that raised counts as inf."""
    return max((r[2] if math.isfinite(r[2]) else math.inf) for r in block)


def end_to_end(wl, blocks, wall):
    records = [r for block in blocks for r in block]
    passed = sum(r[3] is None for r in records)
    # a failed op counts as slower than every passing op
    lat = sorted(r[1] if r[3] is None else wall for r in records)
    tail, beyond = nearest_rank(lat, wl.tail_pct)
    # median over the first min_blocks blocks (the same inputs in every
    # run of a seed) of each block's worst residual
    worst = statistics.median(block_worst(b) for b in blocks[:wl.min_blocks])
    metrics = {k: {"value": v, "unit": u} for k, v, u in (
        ("goodput_ops_s", passed / wall, "1/s"),
        ("latency_tail_s", tail, "s"),
        ("pass_rate", passed / len(records), "fraction"),
        ("accuracy_digits", -math.log10(max(worst, _RESIDUAL_FLOOR)),
         "digits"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
         / 1024.0, "MB"))}
    # the median is recorded but not bounded: it follows the share of a
    # run the host spends in its fast phases, which swings between runs
    latency = {"p50_s": statistics.median(lat),
               "tail_percentile": wl.tail_pct, "samples": len(lat),
               "beyond_tail": beyond}
    return metrics, latency


def by_kind(records):
    out = {}
    for kind, wall, residual, error in records:
        k = out.setdefault(kind, {"ops": 0, "failed": 0, "wall_s": [],
                                  "worst_residual": 0.0,
                                  "tolerance": TOLERANCE[kind]})
        k["ops"] += 1
        k["failed"] += error is not None
        k["wall_s"].append(wall)
        if math.isfinite(residual):
            k["worst_residual"] = max(k["worst_residual"], residual)
    for k in out.values():
        k["median_wall_s"] = statistics.median(k.pop("wall_s"))
    return out


def ledger(records):
    return [{"op": i, "kind": r[0], "wall_s": r[1], "residual": r[2],
             "error": r[3]} for i, r in enumerate(records) if r[3]]


def traced_pairs(ops, state):
    """Run every op once untraced and once traced, back to back and in
    alternating order, so that both runs of an op meet the same machine
    speed; the tracer is installed only around the traced run."""
    from tracer import Tracer, layer_metrics

    tr = Tracer()
    untraced, traced = [], []
    restored = True
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.extend(run_ops(state, [op]))
                continue
            tr.install()
            tr.begin_op(i)
            try:
                traced.extend(run_ops(state, [op]))
            finally:
                tr.end_op()
                restored &= tr.uninstall()
    metrics, shares = layer_metrics(tr, [kind for kind, _ in ops])
    metrics["trace.overhead_frac"] = {
        "value": sum(r[1] for r in traced) / sum(r[1] for r in untraced) - 1.0,
        "unit": "fraction"}
    # bit-identical residuals: the wrappers must not change any result
    same = all(a[2] == b[2] or (math.isnan(a[2]) and math.isnan(b[2]))
               for a, b in zip(untraced, traced))
    check = {"residuals_bit_identical": same, "names_restored": restored,
             "wrapped": len(tr.sites), "spans": len(tr.start)}
    return untraced, traced, metrics, shares, check


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"],
                    required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(qmacdonald.__file__).resolve().parents:
        raise SystemExit(f"qmacdonald imported from outside {src}")
    wl = WORKLOADS[args.workload]
    state, blocks = wl.setup(args.seed)
    first = next(blocks)
    ready = time.monotonic()
    out = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__}

    def stream():
        yield first
        yield from blocks

    if args.mode == "run":
        blocks, wall = closed_loop(wl, state, stream(), args.seconds)
        records = [r for block in blocks for r in block]
        metrics, latency = end_to_end(wl, blocks, wall)
        out.update(metrics=metrics, latency=latency, loop_wall_s=wall,
                   kinds=by_kind(records),
                   attempted=len(records),
                   failed=sum(r[3] is not None for r in records),
                   failure_ledger=ledger(records))
        if wl.probes:
            out["known_defects"] = wl.probes(random.Random(args.seed))
        out["correct"] = out["failed"] == 0
    else:
        ops = [op for block in itertools.islice(stream(), wl.min_blocks)
               for op in block]
        untraced, traced, metrics, shares, check = traced_pairs(ops, state)
        records = untraced + traced
        out.update(metrics=metrics, self_share_by_kind=shares,
                   tracer_check=check, kinds=by_kind(untraced),
                   attempted=len(records),
                   failed=sum(r[3] is not None for r in records),
                   failure_ledger=ledger(records))
        out["correct"] = (out["failed"] == 0
                          and check["residuals_bit_identical"]
                          and check["names_restored"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
