"""The benchmark's workloads, their shared set-up, and the checks on their outputs.

Every workload runs in this one process and calls mhforge through its module
attributes (`cli.main`, `training.predict_ids`, `modelfile.load_model`, ...)
so that `trace.Tracer` sees each call. Each workload reports the same three
end-to-end metrics; what the operation is depends on the workload:

    setup_s      imports, data generation, surgery builds, model files written
                 and read back (median of the run's set-ups)
    peak_rss_mb  peak resident memory of the process
    op_s         train, finetune: the mean `mhforge train` of the run;
                 infer: the mean `training.evaluate` over all images

The other figures of a workload go into the run's detail block and its
checks: validation accuracy and model hashes of every training; for infer,
batch-1 latency per variant (p50, p99) and the latency ratios. Batch-1
latency carries no bound: on the 2-CPU host the benchmark was defined on,
its spread across ten-run sets was 0.16-0.43 of its median, above the
largest usable bound.

The workload seed makes the data and the untrained models; every
`mhforge train` runs with `--seed 0`, the acceptance pipeline's setting.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mhforge import cli, dataset, modelfile, netspec, surgery, training
from mhforge.tensor_ops import Tensor

from .trace import Tracer

WORKLOADS = ("train", "finetune", "infer")

# the backbone of tests/test_acceptance.py
BACKBONE = """\
input name=data shape=1x34x34
conv name=c1 in=data out_channels=8 kernel=3 stride=1 pad=1
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
conv name=c2 in=p1 out_channels=16 kernel=3 stride=1 pad=1
relu name=r2 in=c2
maxpool name=p2 in=r2 kernel=2 stride=2
gavgpool name=g in=p2
"""

# only c1 is frozen: backward runs through c2, r2, p2 and g, while the frozen
# prefix a feature cache could cover is just data -> p1
FINETUNE = """\
input name=data shape=1x34x34
conv name=c1 in=data out_channels=8 kernel=3 stride=1 pad=1 frozen=true
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
conv name=c2 in=p1 out_channels=16 kernel=3 stride=1 pad=1
relu name=r2 in=c2
maxpool name=p2 in=r2 kernel=2 stride=2
gavgpool name=g in=p2
fc name=head_shape in=g out=4 head=shape in_features=16
loss name=loss_shape in=head_shape label=shape
accuracy name=acc_shape in=head_shape label=shape
fc name=head_position in=g out=4 head=position in_features=16
loss name=loss_position in=head_position label=position
accuracy name=acc_position in=head_position label=position
"""

BATCH = 8  # the `mhforge train` default, fixed here so a changed default shows
MIN_OPS = 2  # the model-hash check needs a pair of trainings
VAL_ACC_FLOOR = 0.95  # the accuracy the acceptance test asks of every head
# Training seed 0 (backbone init and split) reached 1.0 on every data seed tried;
# some other init seeds stay below the floor (0.875 at seed 17).
TRAIN_SEED = 0
# With c2 trainable, lr 1.0 (the `train` default) ended some data seeds at
# 0.37-0.63 validation accuracy; 0.3 reached 1.0 on every seed tried.
FINETUNE_LR = 0.3
TWO_MODEL_BAND = (1.7, 2.3)  # two_model p50 / proposed p50, as in the acceptance test
HARD_CODED_BAND = (0.9, 1.1)  # hard_coded p50 / proposed p50

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_s", "s"),
)

TRACED_LAYERS = ("c1", "r1", "p1", "c2", "r2", "p2", "g", "head_shape", "head_position", "head_shape_position")
TRACED_BATCHES = (1, 8, 64)
BACKWARD_LAYERS = ("c2", "r2", "p2", "g", "head_shape", "head_position")
MACC_LAYERS = ("c1", "c2", "head_shape", "head_position", "head_shape_position")
SPAN_METRICS = (
    ("training.forward_all", ("s", "self_s", "calls")),
    ("training.backward_multi", ("s", "self_s")),
    ("training.sgd_step", ("s",)),
    ("cli.train", ("s", "self_s")),
    ("dataset.generate_synthetic", ("s",)),
    ("dataset.load_images", ("s",)),
    ("modelfile.save_model", ("s",)),
    ("modelfile.load_model", ("s",)),
)


def _per_layer_names() -> tuple[tuple[str, str], ...]:
    names = []
    for layer in TRACED_LAYERS:
        for b in TRACED_BATCHES:
            names += [(f"layer.{layer}.fwd_s.b{b}", "s"), (f"layer.{layer}.fwd_calls.b{b}", "count")]
    names += [(f"layer.{layer}.bwd_s", "s") for layer in BACKWARD_LAYERS]
    names += [(f"layer.{layer}.macc_per_s", "macc/s") for layer in MACC_LAYERS]
    names.append(("tensor_ops.Tensor.constructions", "count"))
    for span, fields in SPAN_METRICS:
        names += [(f"{span}.{f}", "count" if f == "calls" else "s") for f in fields]
    names += [
        ("training.frozen_prefix.passes_per_image", "ratio"),
        ("modelfile.bytes", "B"),
        ("trace.overhead_s", "s"),
    ]
    return tuple(names)


PER_LAYER = _per_layer_names()


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. The benchmark uses FULL; tests shrink it."""

    samples_per_combo: int = 80  # 16 combinations: 1,280 images
    train_epochs: int = 20
    finetune_epochs: int = 8
    latency_images: int = 100
    latency_samples: int = 2000  # at least, per variant and run, so p99 has 20 samples beyond it
    setup_repeats: int = 5


FULL = Sizes()


class Checks:
    """Counts each output check as one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Inputs:
    """Everything set-up produced: generated files, specs, reloaded untrained models."""

    categories: Path
    manifest: Path
    entries: list  # manifest entries with absolute image paths
    specs: dict[str, Path]  # workload -> network description for `mhforge train`
    variants: dict[str, list]  # variant -> bundles read back from model files
    images: list[Tensor]  # single images for batch-1 latency


def set_up(root: Path, seed: int, sizes: Sizes) -> Inputs:
    data = root / "data"
    config = dataset.SyntheticConfig(samples_per_combo=sizes.samples_per_combo, seed=seed)
    entries, cats = dataset.generate_synthetic(config, str(data))
    categories, manifest = data / "categories.txt", data / "manifest.txt"
    categories.write_text(dataset.serialize_categories(cats))
    manifest.write_text(dataset.serialize_manifest(entries))
    entries = dataset.with_base(entries, str(data))

    backbone = netspec.parse_netspec(BACKBONE)
    proposed = surgery.attach_heads(backbone, cats, "g")
    hard_coded, _ = surgery.build_hard_coded(backbone, cats, [e.labels for e in entries], "g")
    specs = {"train": root / "proposed.ns", "finetune": root / "finetune.ns"}
    specs["train"].write_text(netspec.serialize_netspec(proposed))
    specs["finetune"].write_text(FINETUNE)

    built = {
        "proposed": [proposed],
        "two_model": surgery.build_two_model(backbone, cats, "g"),
        "hard_coded": [hard_coded],
    }
    variants = {}
    for variant, variant_specs in built.items():
        variants[variant] = []
        for i, spec in enumerate(variant_specs):
            path = str(root / f"{variant}_{i}.mhf")
            modelfile.save_model(modelfile.new_bundle(spec, seed=seed), path)
            variants[variant].append(modelfile.load_model(path))

    stacked = dataset.load_images(entries[: sizes.latency_images])
    images = [Tensor(stacked.data[i : i + 1]) for i in range(stacked.shape[0])]
    return Inputs(categories, manifest, entries, specs, variants, images)


def timed_set_up(work: Path, seed: int, sizes: Sizes) -> tuple[Inputs, list[float]]:
    """Sets up `sizes.setup_repeats` times in fresh directories; returns the last inputs."""
    seconds = []
    for i in range(sizes.setup_repeats):
        root = work / f"setup{i}"
        t0 = time.perf_counter()
        inputs = set_up(root, seed, sizes)
        seconds.append(time.perf_counter() - t0)
    return inputs, seconds


@dataclass(frozen=True)
class TrainResult:
    seconds: float
    model: Path
    sha256: str
    val_acc_min: float


def train_once(inputs: Inputs, workload: str, sizes: Sizes, out: Path) -> TrainResult:
    """One `mhforge train` of the workload's spec: load, epochs, save and trainlog."""
    if workload == "train":
        settings = ["--epochs", str(sizes.train_epochs)]
    else:
        settings = ["--epochs", str(sizes.finetune_epochs), "--lr", str(FINETUNE_LR)]
    spec = inputs.specs[workload]
    argv = [
        "train", "--netspec", str(spec), "--categories", str(inputs.categories),
        "--manifest", str(inputs.manifest), "--out", str(out), "--batch", str(BATCH),
        "--seed", str(TRAIN_SEED), *settings,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"mhforge {' '.join(argv)} exited with {code}")
    model = out / f"{spec.stem}.mhf"
    with open(out / f"{spec.stem}_trainlog.csv", newline="") as f:
        last = list(csv.DictReader(f))[-1]
    val_acc_min = min(float(v) for k, v in last.items() if k.startswith("val_acc_"))
    return TrainResult(seconds, model, hashlib.sha256(model.read_bytes()).hexdigest(), val_acc_min)


def latency_pass(variants: dict[str, list], images: list[Tensor], rotation: int, samples: dict[str, list]):
    """Predicts every image with every variant, interleaved image by image.

    The variant order rotates from image to image. Appends one batch-1
    latency in ms per image to `samples[variant]` and returns the predicted
    class ids per variant.
    """
    names = list(variants)
    predictions: dict[str, list] = {name: [] for name in names}
    for i, image in enumerate(images):
        k = (i + rotation) % len(names)
        for name in names[k:] + names[:k]:
            t0 = time.perf_counter()
            ids = [training.predict_ids(bundle, image) for bundle in variants[name]]
            samples[name].append((time.perf_counter() - t0) * 1000.0)
            predictions[name].append(tuple(int(a[0]) for head in ids for a in head))
    return predictions


# On a shared 2-CPU VM, everything ran 1.3-1.8x slower in phases of seconds to
# minutes, so a run's operation times often fall into a quick and a slow group.
# Their median jumps from one group to the other as the slow share of the run
# passes one half, and their minimum follows single lucky passes; their mean
# moves only in proportion to the slow share. Over the same ten runs the spread
# of evaluation passes across runs was 0.14 of the median for the mean, 0.20
# for the median and 0.21 for the minimum, so operation times are means over
# the whole run. Batch-1 latency is taken, as the acceptance test does with its
# interleaved benches, as the lowest per-pass median; the tail (p99) over all
# samples.

def best_p50(passes: list[list[float]]) -> float:
    return min(statistics.median(p) for p in passes)


def p99(passes: list[list[float]]) -> float:
    return float(np.percentile([x for p in passes for x in p], 99))


def _more_ops(times: list[float], deadline: float) -> bool:
    """Another operation runs if the pair is incomplete or a median one still fits."""
    return len(times) < MIN_OPS or time.perf_counter() + statistics.median(times) <= deadline


def run_train(inputs: Inputs, workload: str, seconds: float, sizes: Sizes, work: Path,
              checks: Checks) -> tuple[dict, dict]:
    start = time.perf_counter()
    results: list[TrainResult] = []
    while not results or _more_ops([r.seconds for r in results], start + seconds):
        result = train_once(inputs, workload, sizes, work / f"op{len(results)}")
        if results:
            checks.expect(result.sha256 == results[0].sha256, f"op {len(results)}: model hash {result.sha256} "
                                                                  f"differs from {results[0].sha256}")
        checks.expect(result.val_acc_min >= VAL_ACC_FLOOR,
                      f"op {len(results)}: val_acc_min {result.val_acc_min} below {VAL_ACC_FLOOR}")
        results.append(result)
    times = [r.seconds for r in results]
    metrics = {"op_s": statistics.fmean(times)}
    detail = {
        f"{workload}_s": times,
        "val_acc_min": min(r.val_acc_min for r in results),
        "model_sha256": results[0].sha256,
    }
    return metrics, detail


def evaluate_once(inputs: Inputs) -> tuple[float, dict]:
    proposed = inputs.variants["proposed"][0]
    t0 = time.perf_counter()
    result = training.evaluate(proposed, inputs.entries)
    return time.perf_counter() - t0, result


def run_infer(inputs: Inputs, seconds: float, sizes: Sizes, checks: Checks) -> tuple[dict, dict]:
    """After an untimed warm-up, alternates a timed batch-1 pass with an evaluation pass.

    Both kinds of pass are spread over the whole run, so that neither rests on
    one stretch of host speed. Rounds go on until the run's time is up and
    there are `sizes.latency_samples` batch-1 latencies per variant.
    """
    start = time.perf_counter()
    variants, images = inputs.variants, inputs.images
    warm_up = latency_pass(variants, images, 0, {name: [] for name in variants})
    passes: dict[str, list[list[float]]] = {name: [] for name in variants}
    rounds: list[float] = []
    times: list[float] = []
    reference = None
    while (not rounds or len(rounds) * len(images) < sizes.latency_samples
           or _more_ops(rounds, start + seconds)):
        t0 = time.perf_counter()
        samples: dict[str, list[float]] = {name: [] for name in variants}
        predictions = latency_pass(variants, images, len(rounds) + 1, samples)
        for name in variants:
            passes[name].append(samples[name])
            checks.expect(predictions[name] == warm_up[name],
                          f"latency pass {len(rounds) + 1}: {name} predictions differ from the warm-up")
        elapsed, result = evaluate_once(inputs)
        if reference is None:
            reference = result
        checks.expect(result == reference, f"evaluation pass {len(times)} differs from the first")
        times.append(elapsed)
        rounds.append(time.perf_counter() - t0)
    p50 = {name: best_p50(p) for name, p in passes.items()}
    ratios = {
        "two_model_over_proposed": p50["two_model"] / p50["proposed"],
        "hard_coded_over_proposed": p50["hard_coded"] / p50["proposed"],
    }
    for (name, ratio), (lo, hi) in zip(ratios.items(), (TWO_MODEL_BAND, HARD_CODED_BAND)):
        checks.expect(lo <= ratio <= hi, f"{name} = {ratio:.3f} outside [{lo}, {hi}]")
    metrics = {"op_s": statistics.fmean(times)}
    detail = {
        "infer_proposed_p50_ms": p50["proposed"],
        "infer_proposed_p99_ms": p99(passes["proposed"]),
        "infer_two_model_p50_ms": p50["two_model"],
        "infer_hard_coded_p50_ms": p50["hard_coded"],
        "latency_ratios": ratios,
        "latency_samples_per_variant": sum(map(len, passes["proposed"])),
        "latency_p50_all_samples_ms": {
            name: statistics.median(x for q in p for x in q) for name, p in passes.items()
        },
        "eval_images_per_s": len(inputs.entries) / metrics["op_s"],
        "eval_s": times,
    }
    return metrics, detail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def run_untraced(workload: str, seed: int, seconds: float, work: Path, sizes: Sizes = FULL) -> tuple[dict, dict, Checks]:
    checks = Checks()
    inputs, setup_seconds = timed_set_up(work, seed, sizes)
    if workload == "infer":
        metrics, detail = run_infer(inputs, seconds, sizes, checks)
    else:
        metrics, detail = run_train(inputs, workload, seconds, sizes, work, checks)
    metrics["setup_s"] = statistics.median(setup_seconds)
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail["setup_s"] = setup_seconds
    return {name: metrics[name] for name, _ in END_TO_END}, detail, checks


def run_traced(workload: str, seed: int, work: Path, sizes: Sizes = FULL) -> tuple[dict, dict, Checks]:
    """One set-up, the operation untraced and then traced; for infer also one traced batch-1 pass.

    The traced outputs must equal the untraced ones byte for byte; the
    difference in operation time is the tracing overhead.
    """
    checks = Checks()
    tracer = Tracer()
    with tracer:
        inputs = set_up(work / "setup", seed, sizes)
    if workload == "infer":
        plain_s, plain = evaluate_once(inputs)
        with tracer:
            tracer.begin_op()
            traced_s, traced = evaluate_once(inputs)
            tracer.end_op()
        checks.expect(traced == plain, "traced evaluation differs from the untraced one")
        reference = latency_pass(inputs.variants, inputs.images, 0, {name: [] for name in inputs.variants})
        with tracer:
            predictions = latency_pass(inputs.variants, inputs.images, 1, {name: [] for name in inputs.variants})
        checks.expect(predictions == reference, "traced batch-1 predictions differ from the untraced ones")
    else:
        plain_run = train_once(inputs, workload, sizes, work / "untraced")
        with tracer:
            tracer.begin_op()
            traced_run = train_once(inputs, workload, sizes, work / "traced")
            tracer.end_op()
        plain_s, traced_s = plain_run.seconds, traced_run.seconds
        checks.expect(traced_run.model.read_bytes() == plain_run.model.read_bytes(),
                      "traced model file differs from the untraced one")
    metrics = per_layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced_s - plain_s
    detail = {"untraced_op_s": plain_s, "traced_op_s": traced_s}
    return metrics, detail, checks


def _metric_layer(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def per_layer_metrics(tracer: Tracer) -> dict:
    """Every PER_LAYER metric from a tracer's records; layers that did not run read 0."""
    found: dict[str, float] = {}
    fwd_s: dict[str, float] = {}
    for (layer, direction, batch), span in tracer.layers.items():
        layer = _metric_layer(layer)
        if direction == "fwd":
            fwd_s[layer] = fwd_s.get(layer, 0.0) + span.s
            found[f"layer.{layer}.fwd_s.b{batch}"] = span.s
            found[f"layer.{layer}.fwd_calls.b{batch}"] = span.calls
        else:
            found[f"layer.{layer}.bwd_s"] = span.s
    for layer, macc in tracer.macc.items():
        layer = _metric_layer(layer)
        if fwd_s.get(layer):
            found[f"layer.{layer}.macc_per_s"] = macc / fwd_s[layer]
    found["tensor_ops.Tensor.constructions"] = tracer.tensors
    for span, fields in SPAN_METRICS:
        record = tracer.spans[span]
        for f in fields:
            found[f"{span}.{f}"] = getattr(record, f)
    if tracer.passes_per_image is not None:
        found["training.frozen_prefix.passes_per_image"] = tracer.passes_per_image
    found["modelfile.bytes"] = tracer.saved_bytes
    return {name: found.get(name, 0) for name, _ in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path, sizes: Sizes = FULL) -> tuple[dict, dict]:
    """Runs one workload in `work` (removed afterwards); returns (result line, detail block)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, detail, checks = run_traced(workload, seed, work, sizes)
        else:
            metrics, detail, checks = run_untraced(workload, seed, seconds, work, sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail["failures"] = checks.failures
    return result, detail
