"""Smoke test for the benchmark: every workload at a tiny size, untraced and
traced, emits every metric BENCHMARK.json names and passes its checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Metrics each run prints by name before the result line, gated or not.
TABLE = {
    "train-paper": ["setup_s", "train_step_ms_p50", "train_step_ms_p90",
                    "train_samples_per_s", "peak_rss_mb", "fail_frac"],
    "train-long-lm": ["setup_s", "train_step_ms_p50", "train_step_ms_p90",
                      "train_samples_per_s", "peak_rss_mb", "fail_frac"],
    "analyze": ["setup_s", "gen_data_s", "dump_s", "metrics_s", "peak_rss_mb", "fail_frac"],
}


def bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert set(TABLE[workload]) <= printed
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_shows_the_expected_layers():
    proc = bench(ROOT, "--workload", "train-long-lm", "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--tiny")
    long_lm = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert long_lm["model.pre_loss.calls"]["value"] == 0
    assert long_lm["autodiff.tape_nodes"]["value"] > 0
    proc = bench(ROOT, "--workload", "analyze", "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--tiny")
    analyze = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert analyze["autodiff.tape_nodes"]["value"] == 0
    assert analyze["diagnostics.pca_effective_dim.s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
