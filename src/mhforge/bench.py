"""Inference latency measurement: timed forward passes over a fixed image list.

One timing sample is one full pass over the list, image by image at batch
size 1. A warm-up pass runs first and is excluded; its predictions become the
reference that every timed run must reproduce exactly. Each image runs
through every bundle in the list; for the two-model variant, the total thus
reflects both inferences, matching how that variant deploys. The statistics
reach the comparison report through the bench.json the CLI writes; analysis
renders and writes that report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import MhforgeError
from .modelfile import ModelBundle
from .tensor_ops import Tensor
from .training import predict_ids


class BenchError(MhforgeError):
    """Bad benchmark inputs or nondeterministic predictions."""


@dataclass(frozen=True)
class LatencyStats:
    """Per-run wall-clock samples plus derived statistics for one variant."""

    variant: str
    runs: int
    images: int
    per_run_seconds: tuple[float, ...]
    total_seconds: float
    mean_ms: float
    median_ms: float
    std_ms: float
    throughput_images_per_s: float
    min_ms: float
    q1_ms: float  # quartiles by linear interpolation between samples, as np.percentile takes them
    q3_ms: float
    max_ms: float


def _one_pass(bundles: list[ModelBundle], images: list[Tensor]) -> list[tuple[int, ...]]:
    """Forward every image through every bundle; returns flat prediction ids per image."""
    predictions = []
    for img in images:
        ids: list[int] = []
        for bundle in bundles:
            ids.extend(int(a[0]) for a in predict_ids(bundle, img))
        predictions.append(tuple(ids))
    return predictions


def measure_latency(
    bundles: list[ModelBundle], images: list[Tensor], repeats: int = 5, variant: str = ""
) -> LatencyStats:
    """Times `repeats` full passes; the warm-up pass is not counted."""
    if not bundles:
        raise BenchError("no models to benchmark")
    if not images:
        raise BenchError("image list is empty")
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")

    reference = _one_pass(bundles, images)  # warm-up, untimed
    samples = []
    for run in range(repeats):
        t0 = time.perf_counter()
        predictions = _one_pass(bundles, images)
        elapsed = time.perf_counter() - t0
        if predictions != reference:
            raise BenchError(f"run {run}: predictions differ from the warm-up pass")
        samples.append(elapsed)

    arr = np.array(samples)
    total = float(arr.sum())
    low, q1, q3, high = np.percentile(arr, [0, 25, 75, 100]) * 1000.0
    return LatencyStats(
        variant=variant,
        runs=repeats,
        images=len(images),
        per_run_seconds=tuple(samples),
        total_seconds=total,
        mean_ms=float(arr.mean() * 1000.0),
        median_ms=float(np.median(arr) * 1000.0),
        std_ms=float(arr.std() * 1000.0),
        throughput_images_per_s=repeats * len(images) / total,
        min_ms=float(low),
        q1_ms=float(q1),
        q3_ms=float(q3),
        max_ms=float(high),
    )


def timings_csv(stats: LatencyStats) -> str:
    lines = ["run_index,seconds"]
    lines += [f"{i},{s:.9f}" for i, s in enumerate(stats.per_run_seconds)]
    return "\n".join(lines) + "\n"
