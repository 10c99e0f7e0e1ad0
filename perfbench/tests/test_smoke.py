"""Tiny-size runs of every workload through the benchmark's own command."""
import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH.relative_to(ROOT) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert any(line.split()[:2] == ["fail_frac", "0"] for line in lines)
    assert "manifest" in json.loads(lines[-2])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "mc-rate":
        assert metrics["spectral.eigendecompose_calls"] == 3  # one per size: cold cache
    if trace and workload == "warm-queries":
        assert metrics["spectral.eigendecompose_calls"] == 0
        assert metrics["spectral.setup_eigendecompose_calls"] == 1
    if trace and workload == "spectrum-fit":
        assert metrics["spectral.used_frac"] == 0 and metrics["spectral.gft_calls"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "mc-rate", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
