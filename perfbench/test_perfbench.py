"""Self-tests of the benchmark: seeded inputs, printed metrics, failure
without a source tree.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_blocks(name, seed, n=3):
    wl = workloads.WORKLOADS[name]
    _, blocks = wl.setup(seed)
    return list(itertools.islice(blocks, n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_blocks(name, 7) == first_blocks(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(name):
    assert first_blocks(name, 7) != first_blocks(name, 8)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_kind_has_a_tolerance():
    for name in workloads.WORKLOADS:
        for block in first_blocks(name, 3, n=1):
            for kind, _ in block:
                assert 0 < workloads.TOLERANCE[kind] < 1e-5


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    proc = bench("--workload", "macpoly", "--seed", "1", "--seconds", "0.5",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    record = json.loads(proc.stdout.splitlines()[-2])
    assert record["claim"] is None
    if trace:
        assert record["tracer_check"]["names_restored"]
        assert record["tracer_check"]["residuals_bit_identical"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "macpoly", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
