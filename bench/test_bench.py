"""Smoke test of the benchmark itself: tiny versions of the three workloads.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, SRC_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "greedy-350k": workloads.GreedyShape(nnz=3_000, n_treated=300, n_control=200,
                                         n_low=20, n_high=30),
    "assign-mixed": workloads.MixedShape(side=30, degree=6, gap_low=2, gap_high=4),
    "cli-sweep": workloads.SweepShape(per_group=120, n_min=5, n_max=25, step=5),
}


def _declared(kind):
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(tracing.PER_LAYER)


@pytest.mark.parametrize("name", run.NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", SRC_DIR)   # for the interpreters the run starts
    result, detail = run.measure(name, seed=3, seconds=0.2, trace=trace, shape=TINY[name])
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert detail["shape"]["n_values"]
    json.dumps(result, allow_nan=False)
    if trace:
        # every op's test path ran through traced wrappers
        assert result["metrics"]["greedy.build_sorted_list.calls_per_test"]["value"] == 2
        assert sum(result["metrics"][f"orchestrator.case.{c}"]["value"]
                   for c in tracing.CASES) == pytest.approx(2)
