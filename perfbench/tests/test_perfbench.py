"""Tests of the benchmark itself: its metric names, its tracer, and its bare-directory failure."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mhforge import tensor_ops, training
from perfbench import trace, workloads

ROOT = Path(__file__).resolve().parents[2]
TINY = workloads.Sizes(
    samples_per_combo=4, train_epochs=1, finetune_epochs=1, latency_images=4, latency_samples=8, setup_repeats=1
)


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def declared(section: str) -> set[tuple[str, str]]:
    return {(m["name"], m["unit"]) for m in benchmark_json()[section]}


def test_benchmark_json_declares_the_workloads_and_metrics_of_the_code():
    assert [w["name"] for w in benchmark_json()["workloads"]] == list(workloads.WORKLOADS)
    assert declared("end_to_end") == set(workloads.END_TO_END)
    assert declared("per_layer") == set(workloads.PER_LAYER)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_printed_metric_is_declared(workload, traced, tmp_path):
    result, _ = workloads.run(workload, 0, 0.01, traced, tmp_path / "work", TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    printed = {(name, m["unit"]) for name, m in result["metrics"].items()}
    assert printed == declared("per_layer" if traced else "end_to_end")
    assert not (tmp_path / "work").exists()


def patched_attributes():
    attrs = [(owner, attr) for owner, attr, _ in trace.SPANS]
    attrs += [(training, attr) for attr in (*trace.FORWARD_OPS, *trace.BACKWARD_OPS)]
    attrs.append((tensor_ops.Tensor, "__init__"))
    return attrs


def test_tracer_restores_every_function_it_wrapped():
    originals = [getattr(owner, attr) for owner, attr in patched_attributes()]
    with trace.Tracer():
        wrapped = [getattr(owner, attr) for owner, attr in patched_attributes()]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(owner, attr) is o for (owner, attr), o in zip(patched_attributes(), originals))

    with pytest.raises(RuntimeError):
        with trace.Tracer():
            raise RuntimeError("raised inside the traced block")
    assert all(getattr(owner, attr) is o for (owner, attr), o in zip(patched_attributes(), originals))


@pytest.mark.parametrize("workload", ["train", "finetune"])
def test_traced_training_writes_the_same_model_bytes(workload, tmp_path):
    inputs = workloads.set_up(tmp_path / "setup", 0, TINY)
    plain = workloads.train_once(inputs, workload, TINY, tmp_path / "plain")
    with trace.Tracer() as tracer:
        traced = workloads.train_once(inputs, workload, TINY, tmp_path / "traced")
    assert traced.model.read_bytes() == plain.model.read_bytes()

    # every op was attributed to a spec layer, once per forward_all call
    assert not [key for key in tracer.layers if key[0].startswith("unattributed")]
    forward_calls = tracer.spans["training.forward_all"].calls
    assert sum(s.calls for (layer, d, _), s in tracer.layers.items() if layer == "c1" and d == "fwd") == forward_calls
    backward = {layer for layer, d, _ in tracer.layers if d == "bwd"}
    expected = {"head_shape", "head_position"}
    if workload == "finetune":
        expected |= {"c2", "r2", "p2", "g"}
    assert backward == expected


def test_fails_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
