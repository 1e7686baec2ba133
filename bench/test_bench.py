"""Smoke test of the benchmark: each workload with a few inputs reports
every metric that BENCHMARK.json names, and fails no op."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(root, *args):
    command = [sys.executable, str(root / "bench" / "run.py"), *args]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported(workload, trace, kind):
    done = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
               "--trace", str(trace), "--jobs", "3")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    if trace == 0:
        del expected["job_ms_p90"]  # needs at least 100 samples; three jobs give three
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
