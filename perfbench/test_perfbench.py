"""Smoke tests of the benchmark at tiny section sizes.

Every workload passes its checks; the computed per-cycle counters repeat
exactly across two traced runs with one seed; span self times account for
the traced job wall time; and without the fraclap sources the benchmark
fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7"]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks(workload):
    report, result = _result(workload, 0)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= report["jobs_per_cycle"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["host"]["blas_threads_pinned"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_and_self_times_add_up(workload):
    first, second = (_result(workload, 1)[1] for _ in range(2))
    assert first["correct"] and second["correct"]
    metrics = first["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    counters = [name for name, m in metrics.items() if m["unit"] != "s"]
    assert {n: metrics[n]["value"] for n in counters} == {
        n: second["metrics"][n]["value"] for n in counters
    }
    spans = sum(
        m["value"]
        for name, m in metrics.items()
        if m["unit"] == "s" and not name.startswith(("setup.", "trace."))
    )
    wall = metrics["trace.job_wall.s"]["value"]
    assert spans <= wall <= 1.05 * spans


def test_fails_without_fraclap_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
