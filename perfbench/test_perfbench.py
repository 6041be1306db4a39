"""Tests of the benchmark itself, at the smoke size.

Run from the repository root with ``python -m pytest perfbench``.
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
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_reported_and_nonzero(workload):
    metrics = _result(_bench(workload, 0))["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_calls_exactly_the_layers_of_its_workload(workload):
    metrics = _result(_bench(workload, 1))["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for layer in tracing.LAYERS:
        calls = metrics[f"{layer.name}.calls"]["value"]
        if workload in layer.workloads:
            assert calls > 0, layer.name
        else:
            assert calls == 0, layer.name


def test_spec_lists_every_layer_metric():
    assert _units({m["name"]: m for m in SPEC["per_layer"]}) == tracing.metric_units()
    known = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for layer in tracing.LAYERS:
        assert set(layer.moves) <= known, layer.name
        assert set(layer.workloads) <= set(WORKLOADS), layer.name


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracing.Span(1, "pipeline.run", None, 1, "r", 0.0, 10.0, 1.0),
        tracing.Span(2, "features.extract_dsf_stream", 1, 2, "r", 1.0, 5.0, 1.0),
        tracing.Span(3, "features.extract_dsf_stream", 1, 3, "r", 2.0, 6.0, 1.0),
        tracing.Span(4, "localization.build_report", 1, 1, "r", 8.0, 9.0, 1.0),
    ]
    metrics = tracing.layer_metrics(spans, iterations=1)
    assert metrics["pipeline.run.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert metrics["features.extract_dsf_stream.wall_s"] == pytest.approx(8.0)
    assert metrics["features.extract_dsf_stream.wait_s"] == pytest.approx(6.0)


def test_timing_is_scaled_to_the_reference_host_speed():
    timing = hostspeed.Timing(wall_s=3.0, probe_s=2 * hostspeed.REFERENCE_PROBE_S)
    assert timing.s == pytest.approx(1.5)
    timings = []
    with hostspeed.timed(timings):
        pass
    assert len(timings) == 1 and timings[0].probe_s > 0 and timings[0].wall_s >= 0


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
