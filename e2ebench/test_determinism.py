"""The benchmark's own determinism test.

Two short runs with the same seed must report identical exact counts; a
second seed reorders the inputs but keeps the same metric set.  Cache
hits are not compared.

Run from the root of a checkout::

    python -m pytest e2ebench
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from common import ROOT

SECONDS = "2"

#: Counts that must repeat exactly, per (workload, trace flag).
EXACT = {
    ("alloc-batch", 0): ("spilled", "spill_cost", "dyn_cycles"),
    ("alloc-batch", 1): ("regalloc.passes", "regalloc.graph_builds",
                         "repair.rounds", "repair.conflicts"),
    ("serve-mix", 0): ("spilled", "spill_cost", "dyn_cycles"),
    ("serve-mix", 1): ("regalloc.passes", "regalloc.graph_builds"),
}


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload,trace", sorted(EXACT))
def test_same_seed_same_counts(workload, trace):
    first = bench(workload, 1, trace)["metrics"]
    second = bench(workload, 1, trace)["metrics"]
    for name in EXACT[(workload, trace)]:
        assert first[name] == second[name], name
        assert first[name]["value"] != 0, name


@pytest.mark.parametrize("workload", ["alloc-batch", "serve-mix"])
def test_other_seed_same_metric_set(workload):
    one = bench(workload, 1, 0)
    two = bench(workload, 2, 0)
    assert set(one["metrics"]) == set(two["metrics"])
    for name in EXACT[(workload, 0)]:
        assert one["metrics"][name] == two["metrics"][name], name


def test_missing_source_fails_without_result(tmp_path):
    """Outside a checkout the command fails fast and prints no result."""
    bench_dir = tmp_path / "e2ebench"
    bench_dir.mkdir()
    for path in (ROOT / "e2ebench").glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "alloc-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
