"""Self-test of the benchmark harness at a tiny size.

Runs each workload in BENCHMARK.json on its first few operations, untraced
and traced, and checks that every metric the file names is printed with its
unit, that the outputs are correct, and that two traced runs give identical
counts.  Run with ``python -m pytest perfbench``.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DETERMINISTIC_UNITS = ("count", "bytes", "ratio")


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0.1", "--trace", str(trace), "--ops", "4"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = run_bench(ROOT, workload, 0)
    result = result_of(done)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
        assert f"  {metric['name']} " in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_print_every_per_layer_metric_and_repeat_counts(workload):
    first = result_of(run_bench(ROOT, workload, 1))
    second = result_of(run_bench(ROOT, workload, 1))
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name, printed in first["metrics"].items():
        if printed["unit"] in DETERMINISTIC_UNITS:
            assert second["metrics"][name] == printed, name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
