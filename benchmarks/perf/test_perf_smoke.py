"""Smoke test of the PF1 benchmark through its Python API.

Each workload runs one pair of passes (cold, warm) instead of a full
window; the traced probes run once.  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import bench
import workloads

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_end_to_end_metric(workload):
    result = bench.measure(workload, seed=1, seconds=0, min_ops=1)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_emits_every_layer_metric(tmp_path: Path):
    out = tmp_path / "trace.json"
    result = bench.measure("cli-cold", seed=1, seconds=0, trace=True, trace_out=out)
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.coverage"]["value"] >= 0.90
    spans = json.loads(out.read_text(encoding="utf-8"))["spans"]
    assert {"name", "start", "end", "parent", "trace_id"} <= set(spans[0])
