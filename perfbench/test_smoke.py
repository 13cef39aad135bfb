"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py

It checks that each run exits cleanly with a correct result whose metric
names and units are exactly the ones ``BENCHMARK.json`` declares, and that
the benchmark refuses to run without the program's sources.  The inputs
are about 2% of the benchmark's size and each run measures one second.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run_benchmark(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_run_reports_the_declared_metrics(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: metric["unit"] for name, metric
             in result["metrics"].items()}
            == {metric["name"]: metric["unit"] for metric in declared})
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "embed_longtail", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
