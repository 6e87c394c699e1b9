"""Each workload end to end at smoke-test size, through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_and_no_failure(workload, trace):
    proc = run(["--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert any(line.startswith("trace.overhead_s ") for line in proc.stdout.splitlines())
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
