"""Self-checks of the benchmark at tiny size.

    python3 -m pytest -q bench/tests

They check that the runner prints every metric named in BENCHMARK.json with
its unit, that a traced pass leaves the program's outputs bit-identical, that
count metrics repeat exactly for a fixed seed, and that the runner refuses a
directory without the program.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {w: [last_json(bench(w, 1)) for _ in range(2)] for w in workloads.WORKLOADS}


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload, traced_runs):
    proc = bench(workload, 0)
    untraced = last_json(proc)
    assert untraced["correct"] and untraced["failed"] == 0
    for result, section in ((untraced, "end_to_end"), (traced_runs[workload][0], "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in ((m["name"], m["unit"]) for m in SPEC["end_to_end"]):
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines()), name
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat(workload, traced_runs):
    first, second = traced_runs[workload]
    assert first["correct"] and second["correct"]
    for name in (*spans.COUNT_METRICS, "cli.bytes_written"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_outputs_bit_identical(workload, tmp_path):
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=0.0, trace=1, size="tiny")
    sys.path.insert(0, str(ROOT / "src"))
    result = run.measure(args, ROOT, tmp_path)
    plain, traced = result["passes"][:2]
    assert not plain["traced"] and traced["traced"]
    keys = ("digests",) if workload in workloads.CLI_WORKLOADS else ("estimate", "std_errors", "fpt")
    for key in keys:
        assert plain[key] and traced[key] == plain[key], key
    assert result["failed"] == 0, result["failures"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("epidemic_cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
