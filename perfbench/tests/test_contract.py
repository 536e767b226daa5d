"""BENCHMARK.json and workloads.json agree with what run.py emits."""

import json
from pathlib import Path

from perfbench import layers, run
from perfbench.common import Phase

ROOT = Path(__file__).resolve().parents[2]


def load(name):
    return json.loads((ROOT / name).read_text())


def test_per_layer_metrics_are_the_declared_ones():
    declared = {m["name"]: m["unit"] for m in load("BENCHMARK.json")
                ["per_layer"]}
    emitted = layers.per_layer(Phase(seconds=1.0), [], page_size=512,
                               base_ops_per_s=1.0, base_cpu_ms_per_op=0.0)
    assert {k: unit for k, (_, unit) in emitted.items()} == declared


def test_end_to_end_metrics_are_the_declared_ones():
    declared = {m["name"]: m["unit"] for m in load("BENCHMARK.json")
                ["end_to_end"]}
    phase = Phase(seconds=1.0, ops=1)
    phase.lat["read"].append(0.001)
    emitted = run.end_to_end(phase, [1.0], 10.0, 50.0)
    assert {k: unit for k, (_, unit) in emitted.items()} == declared


def test_workload_records_match_the_runner():
    benchmark = {w["name"] for w in load("BENCHMARK.json")["workloads"]}
    records = load("perfbench/workloads.json")["workloads"]
    assert set(records) == set(run.workloads())
    assert {name for name, r in records.items()
            if r["in_benchmark_json"]} == benchmark
