"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest perfbench -q

They run small unit lists, except the smoke runs, which run the cheapest
workload through the command line, the way the benchmark is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _first_unit(workload: str) -> list[dict]:
    return workloads.units(workload, 0)[:1]


def test_benchmark_json_names_every_metric_the_run_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_same_units_and_other_seeds_move_them():
    for workload in workloads.WORKLOADS:
        assert workloads.units(workload, 7) == workloads.units(workload, 7)
        assert any(workloads.units(workload, 7) != workloads.units(workload, s)
                   for s in range(8, 12))


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor-sampling",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    assert any(line.startswith("environment ") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_passes_its_checks_and_counts_repeat(workload):
    first = run.measure(workload, 0, 0.1, trace=True, units=_first_unit(workload))
    again = run.measure(workload, 0, 0.1, trace=True, units=_first_unit(workload))
    assert first["correct"] and first["failed_fraction"] == 0, first["failures"]
    assert not first["missing"]
    for name in ("pipeline.runs", "distributions.outcomes", "orderfinding.samples_drawn",
                 "orderfinding.orders_recovered", "cli.bytes_written"):
        assert first["metrics"][name] == again["metrics"][name], name


def test_injected_transform_fault_raises_failed_fraction():
    outcome = run.measure("control-ladder", 0, 0.1, trace=False,
                          units=_first_unit("control-ladder"), fault="qft_column")
    assert outcome["failed_fraction"] > 0
    assert not outcome["correct"]
    assert any("p_analytic" in why for _, reasons in outcome["failures"] for why in reasons)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "control-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_missing_function_makes_its_metrics_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from shorsim import pipeline

    monkeypatch.delattr(pipeline, "apply_qft_register1_gates")
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    values, missing = trace.metrics()
    assert missing == ["pipeline.qft_gates_s"]
    assert "pipeline.qft_gates_s" not in values and "pipeline.qft_direct_s" in values
