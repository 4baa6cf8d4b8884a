"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, results, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny", "--results", str(results)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric_and_no_errors(workload, trace, tmp_path):
    result = _run(workload, trace, tmp_path)
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    record = json.loads((tmp_path / f"{workload}-seed5-trace{trace}.json").read_text())
    assert record["failures"] == []
    if trace:
        assert all(c["traced_stdout_sha256"] == c["stdout_sha256"] for c in record["commands"])
        # Every reported layer time comes from a layer this workload runs.
        times = [m["name"] for m in expected if m["unit"] == "s" and not m["name"].startswith("trace.")]
        assert all(line["metrics"][name]["value"] > 0 for name in times)
    assert record["gates"]["error_rate"] == 0
    assert record["gates"]["answer_err"] <= 1
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.build(workload, 3, "tiny").files
    assert first == workloads.build(workload, 3, "tiny").files
    other = workloads.build(workload, 4, "tiny").files
    assert any(first[name] != other[name] for name in first if name.endswith(".csv"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("cli-small", 0, tmp_path / "results", cwd=tmp_path, run=tmp_path / "perfbench" / "run.py")
    assert result.returncode != 0
    assert "metrics" not in result.stdout
