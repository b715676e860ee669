"""Tests of the benchmark itself.

    python3 -m pytest winbench -q
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: per-layer metrics that are exact counts or ratios of counts
COUNT_UNITS = {"count/window", "count/pass", "count", "bytes/window"}


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "winbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def traced(seed: int) -> tuple[dict, dict]:
    # param_sweep has the shortest pass, one grid_search_parameters call
    return result_of(bench(ROOT, "--workload", "param_sweep", "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"))


def test_benchmark_json_names_every_metric_and_workload():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_untraced_run_prints_every_end_to_end_metric():
    detail, result = result_of(bench(ROOT, "--workload", "param_sweep", "--seed", "5",
                                     "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 320
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["golden_checked"] > 0
    assert len(detail["setup_samples_s"]) == 1 + run.SETUP_PROBES


def test_traced_runs_repeat_counts_and_digest_and_seed_changes_digest():
    detail_a, a = traced(3)
    detail_b, b = traced(3)
    detail_c, _ = traced(4)
    assert a["correct"] and b["correct"]
    counts = [name for name, unit in run.PER_LAYER
              if unit in COUNT_UNITS or name.endswith(("useful_paths_frac", "capacity_used_frac"))]
    assert {n: a["metrics"][n] for n in counts} == {n: b["metrics"][n] for n in counts}
    assert a["metrics"]["pathfinder.ksp_calls"]["value"] == 2.0
    assert detail_a["digest"] == detail_b["digest"] != detail_c["digest"]
    assert detail_a["layer_sum_ms"] == pytest.approx(a["metrics"]["trace.window_ms"]["value"])


def test_unbound_function_reports_zero_calls():
    calls = []

    def build_lattice(rows):
        calls.append(rows)
        return rows

    module = types.ModuleType("fake_harness")
    module.build_lattice = build_lattice
    tracer = spans.Tracer()
    with tracer.installed({module: spans.HARNESS_COUNTERS}):
        with tracer.span("window", new_window=True):
            module.build_lattice(8)
    assert module.build_lattice is build_lattice and calls == [8]
    metrics = spans.layer_metrics(tracer, windows=1, passes=1)
    assert metrics["pathfinder.ksp_calls"] == 0 and metrics["pathfinder.ksp_ms"] == 0
    assert metrics["netmodel.init_ms"] > 0
    total = sum(metrics[m] for m in spans.TIME_METRICS) + metrics[spans.SELF_METRIC]
    assert total == pytest.approx(metrics["trace.window_ms"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "winbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "paper_baseline", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
