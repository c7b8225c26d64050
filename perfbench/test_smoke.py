"""Smoke test of the benchmark harness: every workload at tiny sizes, traced
and untraced, plus the refusal to run without the package sources.

    python -m pytest perfbench/test_smoke.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PRINTED_E2E = ("setup_s", "items_per_s", "latency_p50_ms", "peak_rss_mb", "wrong_verdicts", "error_rate")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
        code = run.main(argv, tiny=True)
    *lines, last = out.getvalue().splitlines()
    result = json.loads(last)

    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = dict(line.split()[:2] for line in lines if len(line.split()) >= 2)
    assert all(name in printed for name in PRINTED_E2E)
    assert float(printed["wrong_verdicts"]) == 0
    assert float(printed["error_rate"]) == 0
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self_sum = sum(v for name, v in metrics.items() if name.endswith(".self_ms"))
        wall = metrics["trace.wall_ms"]
        assert abs(self_sum - wall) <= 0.05 * wall + 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable if arg == "python3" else arg for arg in SPEC["command"]]
    done = subprocess.run(
        command + ["--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
