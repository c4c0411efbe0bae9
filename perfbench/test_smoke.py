"""Smoke test of the benchmark: each workload at tiny size, untraced and
traced, passes its checks and prints every metric BENCHMARK.json names with
its unit, plus the metrics printed for reading only.

Run with ``python -m pytest perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SAMPLERS = ("elliptical", "neal-mh", "line-slice")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
    assert printed["failed_frac"][1] == "ratio"
    if workload != "block-sweep":
        for kind in SAMPLERS:
            assert printed[f"ess_per_s.{kind}"][1] == "1/s"
            assert printed[f"ess_per_kevals.{kind}"][1] == "1/kevals"
    else:
        # the d=1 prior's block conditionals do not factorize (ROADMAP item 2)
        assert result["failed"] > 0 and printed["failed_frac"][0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = _run(tmp_path, "cox-mining", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
