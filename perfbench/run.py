#!/usr/bin/env python3
"""qmacdonald benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Runs workload W of ``workloads.py`` in a child process with BLAS/OpenMP
pinned to one thread, checks every op's output and prints, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it is the full record:
environment, set-up samples, tail percentile, per-kind residuals,
failure ledger, known defects and, when traced, the tracer self-check.

Set-up time is measured from spawning a process to its first timed op,
in SETUP_PROBES processes that only set up plus the measuring one; the
median is reported.  Exits 1 without a result if any process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class WorkerFailed(Exception):
    pass


def spawn(args, mode, deadline):
    """Run one worker; return its JSON line with setup_s added."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - t_spawn
    return doc


def commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description="qmacdonald benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if args.trace:
            main_doc = spawn(args, "trace", deadline)
            setups = []
        else:
            setups = [spawn(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            main_doc = spawn(args, "run", deadline)
            setups.append(main_doc["setup_s"])
            main_doc["metrics"]["setup_s"] = {
                "value": statistics.median(setups), "unit": "s"}
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "claim": None,
        "environment": {
            "commit": commit(), **main_doc.pop("versions"),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": THREAD_ENV, "PYTHONHASHSEED": "0"},
        "setup_samples_s": setups,
    }
    record.update({k: v for k, v in main_doc.items()
                   if k not in ("ready", "setup_s", "metrics")})
    print(json.dumps(record))
    print(json.dumps({"correct": main_doc["correct"],
                      "attempted": main_doc["attempted"],
                      "failed": main_doc["failed"],
                      "metrics": main_doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
