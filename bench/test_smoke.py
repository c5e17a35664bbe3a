"""Smoke test of the benchmark: every workload, every check and the traced
run at the smoke size, plus the failure without the package source.

    python3 -m pytest -q bench/test_smoke.py

It is outside the package's ``testpaths``; it takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, *args):
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = run(tmp_path, "--workload", "desk20k", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
