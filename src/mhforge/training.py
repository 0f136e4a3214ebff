"""Multi-loss training: one shared forward traversal, per-head losses, accumulated gradients.

A forward pass (`forward_all`) computes every head's logits and nothing
else. Every head is scored after the pass, in one function, `score_heads`,
one `tensor_ops.score_logits` call per `loss` line: its mean loss, its
accuracy and its logit gradient, times that line's weight. Training batches,
validation and `evaluate` all score through it, so the `loss` and `accuracy`
lines describe training and scoring and are not pass steps. A pass runs the
spec's program for what it keeps (`_pass_program`, built once per kept set
and held in the spec's `pass_programs`): one step per tensor-producing layer.

Gradients for all heads are accumulated in a single reverse sweep, which is
elementwise equal to running one backward pass per loss and summing. Frozen
parameters never receive gradients, and the sweep stops below the deepest
layer under which everything is frozen.

A pass keeps only what the backward that follows it reads. `train` derives
one plan (`backward_plan`) from the spec's `frozen=true` lines before its
first epoch and hands it to every training pass: it says which layers'
backward runs and which input gradients it reads, so the pass keeps those
layers' inputs, a maxpool's record where that pool's backward runs, and a
trainable conv's patch matrix for its weight gradient. Every other pass
(validation, evaluation, prediction) runs under `NO_BACKWARD` and drops each
activation after its last reader. A relu whose input nothing reads after it
writes into that input (`PassProgram.overwrites`).

Inside a pass every activation is channels-last, (N, H, W, C); the `input`
layer turns the NCHW image batch into that layout, a reshape when C = 1
(see `tensor_ops` for where the ops still take an NCHW copy). Head logits
are (N, 1, 1, F).

Every forward pass over a labelled image set goes through one loop,
`_passes`: training batches (the epoch order cut into `batch_size` index
arrays, under the plan) and validation and `evaluate` (one NO_BACKWARD pass
per EVAL_CHUNK images). `train` scores each batch against its rows' labels,
and `_add` sums every head's batch-weighted loss and accuracy. Validation
and `evaluate` keep each pass's head logits and score every head once over
the whole set; given an HC map, `evaluate` decodes the merged head's logits
into per-category scores (`surgery.hc_scores`). The images and label columns
of both split sides and of `evaluate` come from one step, `_arrays`, which
picks each model category's column of the manifest's labels. The image sets
are 8-bit rasters; each pass scales its own rows to float64 (`dataset.scale`).

`train` runs a frozen backbone once per image where that saves work. Its
frontier (`_frontier`) is the one layer with no trainable parameter at or
below it whose output feeds a layer that trains: `g` under the heads of every
acceptance variant. Before epoch 1, passes stopped there (`forward_all`'s
`stop`) compute its outputs for every training and validation image in
EVAL_CHUNK slices, and those float64 channels-last rows replace the rasters;
every training batch and validation pass then starts there (`start`). The
cache is built only over two epochs or more, where each image would cross
the frontier once per epoch, and only where the frontier holds no more bytes
per image than the raster (`g`: 128 against 1,156; a finetune's `p1`: 18,496).
`evaluate`, `predict_ids` and `bench` always run from the images.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import ManifestEntry, epoch_order, scale
# bound as `load_images`, the name under which perfbench's tracer times this module's image loads
from .dataset import load_rasters as load_images
from .errors import MhforgeError
from .modelfile import ModelBundle
from .netspec import validate_shapes
from .surgery import HcLabelMap, convert_manifest_hc, hc_categories, hc_scores
from .tensor_ops import (
    SEED_MASK,
    LayerParams,
    PoolIndexMap,
    Tensor,
    conv2d_backward,
    conv2d_forward,
    fully_connected,
    fully_connected_backward,
    global_avgpool,
    global_avgpool_backward,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    score_logits,
)


# Images per evaluation and validation pass. No larger than a default training
# batch, so evaluation allocates no bigger conv arrays than training does. One
# `evaluate` of 1,280 34x34 images on the acceptance backbone (one BLAS thread,
# 2-CPU VM, channels-last) took 0.12-0.14 ms per image at 8, 0.13-0.15 at 4,
# 0.11-0.12 at 16 and 0.13-0.14 at 64, with a tracemalloc peak of 3.6 MiB at 8
# against 15.7 MiB at 64.
EVAL_CHUNK = 8


class TrainError(MhforgeError):
    """Bad training inputs: label arity, empty data, config bounds."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 1.0
    momentum: float = 0.9
    seed: int = 0
    split_fraction: float = 0.8

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise TrainError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < float("inf"):
            raise TrainError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise TrainError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 < self.split_fraction < 1:
            raise TrainError(f"split_fraction must be in (0, 1), got {self.split_fraction}")


@dataclass(frozen=True)
class BackwardPlan:
    """What a backward sweep runs and reads, and so what the forward pass before it keeps.

    Derived by `backward_plan` from the spec's layers and their frozen flags.
    A layer's backward runs when a head's gradient can reach it and it or
    something feeding it trains.
    """

    trains: frozenset[str]  # layers with unfrozen parameters
    reach: dict[str, bool]  # layer -> does it or anything feeding it train, i.e. is its output gradient read
    runs: frozenset[str]  # layers whose backward runs
    keeps_patches: frozenset[str]  # convs that train: forward keeps the patch matrix their weight gradient multiplies
    keeps: frozenset[str]  # activations a backward that runs reads: the inputs of the layers in `runs`


NO_BACKWARD = BackwardPlan(frozenset(), {}, frozenset(), frozenset(), frozenset())  # a pass no backward follows


@dataclass
class ForwardState:
    """One traversal, shared by all heads: the activations, maxpool records and patch matrices backward reads.

    Every activation is channels-last, (N, H, W, C), the image batch's too
    once the `input` layer has run (`tensor_ops` says where an op still takes
    an NCHW copy). Holds what its plan's backward reads; every other
    activation is dropped as soon as the forward pass is done with it.
    """

    plan: BackwardPlan
    activations: dict[str, Tensor]
    pool_maps: dict[str, PoolIndexMap]
    patches: dict[str, np.ndarray]
    heads: dict[str, Tensor]  # category -> its head's logits, (N, 1, 1, F)
    overwrites: frozenset[str] = frozenset()  # relu layers that write into their input (see _pass_program)


def _conv_forward(bundle, state, lay, x):
    params = bundle.params[lay.name]
    if lay.name not in state.plan.keeps_patches:
        return conv2d_forward(x, params, lay.stride, lay.pad)
    out, state.patches[lay.name] = conv2d_forward(x, params, lay.stride, lay.pad, keep_patches=True)
    return out


def _fc_forward(bundle, state, lay, x):
    out = fully_connected(x, bundle.params[lay.name])
    if lay.head_tag is not None:
        state.heads[lay.head_tag] = out
    return out


def _maxpool_forward(bundle, state, lay, x):
    out, pool_map = maxpool2d(x, lay.kernel, lay.stride)
    if lay.name in state.plan.runs:
        state.pool_maps[lay.name] = pool_map
    return out


# kind -> (forward, backward), for every kind that produces a tensor. The metric sinks (`loss`,
# `accuracy`) have no row: they describe training and scoring (score_heads, after the pass) and are
# not pass steps. forward(bundle, state, lay, x) returns the output; backward(bundle, state, lay, x,
# grad_out, input_grad) returns the input gradient (None when input_grad is false and the kind has
# parameters), then the weight and bias gradients of a parameterised kind, None (and not computed)
# where the layer is frozen. The tensor ops these call are looked up by name at each call, never
# stored, so the function this module's attribute holds at call time (a tracer's wrapper, say) is
# what runs, also in a pass program built before the wrapper was installed.
_LAYER_OPS = {
    # the NCHW image batch, channels-last: a view of the caller's array when C = 1
    "input": (lambda bundle, state, lay, x: Tensor(x.data.transpose(0, 2, 3, 1)), None),
    "conv": (
        _conv_forward,
        lambda bundle, state, lay, x, g, input_grad: conv2d_backward(
            x, bundle.params[lay.name], g, lay.stride, lay.pad, input_grad=input_grad,
            weight_grad=lay.name in state.plan.trains, patches=state.patches.get(lay.name),
        ),
    ),
    "relu": (
        lambda bundle, state, lay, x: relu(x, in_place=lay.name in state.overwrites),
        lambda bundle, state, lay, x, g, input_grad: (relu_backward(x, g),),
    ),
    "maxpool": (
        _maxpool_forward,
        lambda bundle, state, lay, x, g, input_grad: (maxpool2d_backward(state.pool_maps[lay.name], g),),
    ),
    "gavgpool": (
        lambda bundle, state, lay, x: global_avgpool(x),
        lambda bundle, state, lay, x, g, input_grad: (global_avgpool_backward(x.shape, g),),
    ),
    "fc": (
        _fc_forward,
        lambda bundle, state, lay, x, g, input_grad: fully_connected_backward(
            x, bundle.params[lay.name], g, input_grad=input_grad, weight_grad=lay.name in state.plan.trains
        ),
    ),
}


def backward_plan(bundle: ModelBundle) -> BackwardPlan:
    """What a backward sweep of the bundle runs and reads, as its spec freezes layers."""
    layers = bundle.spec.layers
    trains = frozenset(lay.name for lay in layers if lay.has_params and not lay.frozen)
    reach: dict[str, bool] = {}
    for lay in layers:
        reach[lay.name] = lay.name in trains or (reach[lay.inputs[0]] if lay.inputs else False)

    gets_grad = {lay.name for lay in bundle.spec.heads()}
    runs = set()
    for lay in reversed(layers):
        if lay.name in gets_grad and reach[lay.name]:
            runs.add(lay.name)
            if reach[lay.inputs[0]]:
                gets_grad.add(lay.inputs[0])

    keeps = frozenset(lay.inputs[0] for lay in layers if lay.name in runs)
    keeps_patches = frozenset(lay.name for lay in layers if lay.kind == "conv" and lay.name in runs & trains)
    return BackwardPlan(trains, reach, frozenset(runs), keeps_patches, keeps)


class PassProgram(NamedTuple):
    """A forward pass over one spec that keeps one set of activations, as `forward_all` runs it (`_pass_program`)."""

    steps: tuple  # per layer that produces a tensor: (forward op, layer, input name or None, names dropped after it)
    overwrites: frozenset[str]  # relu layers that write into their input
    index: dict[str, int]  # layer -> the position of its step, where a pass's `start` or `stop` cuts the steps
    shapes: dict[str, tuple[int, int, int]]  # layer -> the (C, H, W) of its output, as validate_shapes gives it


def _pass_program(spec, keeps: frozenset[str]) -> PassProgram:
    """One step per layer that produces a tensor, in spec order; a metric sink is not a step.

    A step's input is None for the image batch; after it, the pass drops each
    name no later step reads and `keeps` does not hold. A relu that reads its
    input last writes into it, unless `keeps` holds it or it is the image
    batch (maybe the caller's array) or a head's logits, which the pass returns.
    """
    produces = validate_shapes(spec)  # every layer but the metric sinks, whose kinds have no output shape
    layers = [lay for lay in spec.layers if lay.name in produces]
    last = {name: i for i, lay in enumerate(layers) for name in (lay.name, *lay.inputs)}
    dropped = [tuple(name for name, j in last.items() if j == i and name not in keeps) for i in range(len(layers))]
    last_readers = [lay for lay, d in zip(layers, dropped) if lay.kind == "relu" and lay.inputs[0] in d]
    spared = {lay.name for lay in layers if not lay.inputs or lay.head_tag is not None}  # the image batch, the heads
    steps = tuple((_LAYER_OPS[l.kind][0], l, l.inputs[0] if l.inputs else None, d) for l, d in zip(layers, dropped))
    overwrites = frozenset(lay.name for lay in last_readers if lay.inputs[0] not in spared)
    return PassProgram(steps, overwrites, {lay.name: i for i, lay in enumerate(layers)}, produces)


def forward_all(
    bundle: ModelBundle,
    images: Tensor,
    plan: BackwardPlan = NO_BACKWARD,
    start: str | None = None,
    stop: str | None = None,
) -> ForwardState:
    """Runs the graph once over (N, C, H, W) images and holds each head's logits; scores nothing (see score_heads).

    Runs the spec's pass program for the activations `plan`'s backward reads
    (`_pass_program`): it keeps those, and drops or lets a relu overwrite
    every other one after its last reader. A pass that backward_multi
    follows needs the bundle's `backward_plan`.

    `stop` ends the pass once that layer has run, and `start` takes `images`
    as that layer's channels-last (N, H, W, C) output and runs only the steps
    after it. Such a pass runs the program that also keeps that layer's
    output, so no step drops it or writes into it: `train` runs its cached
    frontier rows from there (`_frontier`).
    """
    spec = bundle.spec
    keeps = plan.keeps if start is None and stop is None else plan.keeps | ({start, stop} - {None})
    program = spec.pass_programs.get(keeps)
    if program is None:
        program = spec.pass_programs[keeps] = _pass_program(spec, keeps)
    activations = {}
    if start is None:
        _, c, h, w = images.shape
        if (c, h, w) != spec.input_shape:
            raise TrainError(f"batch images are {c}x{h}x{w} but the network expects {spec.input_shape}")
    else:
        c, h, w = program.shapes[start]
        if images.shape[1:] != (h, w, c):
            got = "x".join(map(str, images.shape[1:]))
            raise TrainError(f"rows for a pass from layer {start!r} are {got} but its output is {h}x{w}x{c} (HxWxC)")
        activations[start] = images
    first = 0 if start is None else program.index[start] + 1
    last = len(program.steps) if stop is None else program.index[stop] + 1
    state = ForwardState(plan, activations, {}, {}, {}, program.overwrites)
    for op, lay, src, dropped in program.steps[first:last]:
        activations[lay.name] = op(bundle, state, lay, images if src is None else activations[src])
        for name in dropped:
            del activations[name]
    return state


def backward_multi(
    bundle: ModelBundle, state: ForwardState, head_grads: dict[str, np.ndarray]
) -> dict[str, tuple[Tensor, np.ndarray]]:
    """Accumulates all heads' gradients in one reverse sweep over the shared graph.

    head_grads maps category -> gradient w.r.t. that head's logits, (N, F).
    Every activation gradient is channels-last, as the activations are.
    Returns weight/bias gradients for unfrozen layers only; layers with no
    path to any seeded head are absent (their gradient is zero). Follows the
    plan `state` was computed under: an input gradient nothing reads is not
    computed. A state computed under NO_BACKWARD raises TrainError.
    """
    plan = state.plan
    if plan is NO_BACKWARD:
        raise TrainError("backward_multi needs a forward pass run with the bundle's backward_plan")
    param_grads: dict[str, tuple[Tensor, np.ndarray]] = {}
    heads = {lay.head_tag: lay.name for lay in bundle.spec.heads()}
    # one head per category, so each seed is its head's whole output gradient
    out_grads = {heads[c]: np.asarray(g, dtype=np.float64).reshape(state.heads[c].shape) for c, g in head_grads.items()}

    for lay in reversed(bundle.spec.layers):
        if lay.name not in plan.runs or lay.name not in out_grads:
            continue
        g = Tensor(out_grads.pop(lay.name))
        src = lay.inputs[0]
        read = plan.reach[src]
        gx, *weight_grads = _LAYER_OPS[lay.kind][1](bundle, state, lay, state.activations[src], g, read)
        if lay.name in plan.trains:  # each layer is visited once, so its gradients are final here
            param_grads[lay.name] = tuple(weight_grads)
        if read:
            out_grads[src] = out_grads[src] + gx.data if src in out_grads else gx.data
    return param_grads


def score_heads(
    bundle: ModelBundle, heads: dict[str, Tensor], labels: dict[str, np.ndarray]
) -> dict[str, tuple[float, float, np.ndarray]]:
    """Per category: (mean loss, accuracy, loss-weighted logit gradient) of its head's logits against its labels.

    The weight is that of the spec's `loss` line for the head. The one place
    any head is scored: training batches, validation and `evaluate`.
    """
    scores = {}
    for lay in bundle.spec.losses():
        cat = lay.label_slot
        if cat not in labels:
            raise TrainError(f"no labels for category {cat!r}")
        loss, accuracy, grad = score_logits(heads[cat], labels[cat])
        scores[cat] = (loss, accuracy, lay.loss_weight * grad)
    return scores


def sgd_step(
    params: dict[str, LayerParams],
    grads: dict[str, tuple[Tensor, np.ndarray]],
    lr: float,
    momentum: float,
    velocity: dict[str, tuple[np.ndarray, np.ndarray]],
) -> None:
    """v <- momentum*v - lr*g; w <- w + v, in place, for exactly the layers `grads` names.

    `backward_multi` names only layers that train, so a frozen layer never moves.
    """
    for name, (gw, gb) in grads.items():
        p = params[name]
        if name in velocity:
            vw, vb = velocity[name]
        else:
            vw, vb = np.zeros_like(p.weights.data), np.zeros_like(p.bias)
        vw = momentum * vw - lr * gw.data
        vb = momentum * vb - lr * gb
        p.weights.data += vw
        p.bias += vb
        velocity[name] = (vw, vb)


def split_entries(
    entries: list[ManifestEntry], split_fraction: float, seed: int
) -> tuple[list[ManifestEntry], list[ManifestEntry]]:
    """Deterministic stratified split: every label combination lands in both sides.

    Combinations with a single example stay in the training side. Given the
    same seed, datasets whose label tuples are related by a one-to-one
    relabeling (the HC conversion) split into identical memberships.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, e in enumerate(entries):
        groups.setdefault(e.labels, []).append(i)
    rng = np.random.default_rng(np.random.SeedSequence((seed & SEED_MASK, 0x5350)))
    train_idx: list[int] = []
    val_idx: list[int] = []
    for combo in groups:
        members = groups[combo]
        order = rng.permutation(len(members))
        n_train = max(1, min(len(members) - 1, round(split_fraction * len(members)))) if len(members) > 1 else 1
        for j, pos in enumerate(order):
            (train_idx if j < n_train else val_idx).append(members[int(pos)])
    return [entries[i] for i in sorted(train_idx)], [entries[i] for i in sorted(val_idx)]


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: dict[str, float]
    train_acc: dict[str, float]
    val_loss: dict[str, float]
    val_acc: dict[str, float]
    seconds: float


@dataclass
class TrainLog:
    categories: tuple[str, ...]
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        cols = ["epoch"]
        for prefix in ("train_loss", "train_acc", "val_loss", "val_acc"):
            cols += [f"{prefix}_{c}" for c in self.categories]
        cols.append("seconds")
        lines = [",".join(cols)]
        for r in self.records:
            cells = [str(r.epoch)]
            for source in (r.train_loss, r.train_acc, r.val_loss, r.val_acc):
                cells += [f"{source[c]:.6f}" for c in self.categories]
            cells.append(f"{r.seconds:.3f}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _arrays(entries: list[ManifestEntry], full_cats, cats) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The entries' uint8 rasters and, per category of `cats`, its int64 column of the labels in `full_cats` order."""
    table = np.array([e.labels for e in entries], dtype=np.int64)
    return load_images(entries), {cat: table[:, full_cats.index(cat)] for cat in cats.names}


def _manifest_view(bundle: ModelBundle, entries: list[ManifestEntry], manifest_categories):
    """Validates entries against the manifest's categories and the model's subset of them.

    A single-head model trained from a shared multi-category manifest keeps
    the full label tuples for splitting (so every variant sees the same
    train/validation membership) and picks its own columns afterwards.
    """
    model_cats = bundle.spec.categories
    if model_cats is None:
        raise TrainError("model has no bound label categories")
    if not entries:
        raise TrainError("dataset is empty")
    cats = model_cats if manifest_categories is None else manifest_categories
    for name in model_cats.names:
        cats.index(name)
    for e in entries:
        if len(e.labels) != cats.n:
            raise TrainError(f"{e.image_path}: {len(e.labels)} labels for {cats.n} categories")
    return cats


def _quiet_fp() -> np.errstate:
    """Floating-point overflow, invalid values and division by zero pass without a numpy warning."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _check_finite(losses: dict[str, float], where: str) -> None:
    for c, loss in losses.items():
        if not np.isfinite(loss):
            raise TrainError(f"training diverged in {where}: head {c} loss is {loss}")


def _passes(bundle: ModelBundle, data: np.ndarray, batches=None, plan=NO_BACKWARD, start=None, stop=None):
    """Yields (rows, state): one forward pass under `plan` per `rows` of `batches`.

    `data` holds 8-bit rasters, which each pass scales to float64, or, given
    `start`, that layer's float64 channels-last outputs (`_frontier_rows`),
    from which each pass runs; `stop` ends each pass at that layer (see
    `forward_all`). `batches` defaults to EVAL_CHUNK-image slices in
    ascending order. Each pass runs only when asked for, so it sees the
    parameters as the step before left them.
    """
    if batches is None:
        batches = [slice(first, first + EVAL_CHUNK) for first in range(0, data.shape[0], EVAL_CHUNK)]
    for rows in batches:  # no local names the batch: the suspended generator would hold it through the next pass
        yield rows, forward_all(bundle, Tensor(scale(data[rows]) if start is None else data[rows]), plan, start, stop)


def _frontier(bundle: ModelBundle, plan: BackwardPlan, epochs: int) -> str | None:
    """The layer whose outputs `train` computes once per image and caches, or None to run every pass from the images.

    The frontier is the one layer with no trainable parameter at or below it
    whose output a layer that trains reads (`plan.reach`), provided that
    every step after it reads it or a later step, so that a pass can start
    there. It is cached only where that saves both work and memory: over at
    least two epochs, where each image would cross it once per epoch, and
    where its float64 output holds no more bytes per image than the one-byte
    pixels of the raster it replaces.
    """
    if epochs < 2:
        return None
    spec = bundle.spec
    edges = {lay.inputs[0] for lay in spec.layers if plan.reach[lay.name] and not plan.reach[lay.inputs[0]]}
    if len(edges) != 1:
        return None
    (frontier,) = edges
    shapes = validate_shapes(spec)
    names = list(shapes)
    after = names[names.index(frontier) :]  # the frontier, then the steps a pass from it runs
    if any(spec.layer(name).inputs[0] not in after for name in after[1:]):
        return None
    return frontier if 8 * math.prod(shapes[frontier]) <= math.prod(spec.input_shape) else None


def _frontier_rows(bundle: ModelBundle, rasters: np.ndarray, frontier: str) -> np.ndarray:
    """Layer `frontier`'s float64 channels-last outputs for every raster, from one pass per EVAL_CHUNK images."""
    c, h, w = validate_shapes(bundle.spec)[frontier]
    rows = np.empty((rasters.shape[0], h, w, c))
    for chunk, state in _passes(bundle, rasters, stop=frontier):
        rows[chunk] = state.activations[frontier].data
    return rows


def _add(sums: dict[str, list[float]], scores, n: int) -> None:
    """Adds each head's loss and accuracy on one training batch of n images, times n, to sums[head] = [loss, hits]."""
    for c, total in sums.items():
        loss, acc, _ = scores[c]
        total[0] += loss * n
        total[1] += acc * n


def _means(sums: dict[str, list[float]], n: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per head, the mean loss and the mean accuracy of the n images summed into `sums`."""
    return {c: loss / n for c, (loss, _) in sums.items()}, {c: hits / n for c, (_, hits) in sums.items()}


def _evaluate_arrays(bundle: ModelBundle, data: np.ndarray, labels: dict[str, np.ndarray], start=None):
    """Per head, the mean loss and the mean accuracy over the data's images; then each head's logits of them all.

    `data` and `start` are as `_passes` takes them. The forward passes take
    EVAL_CHUNK images each and keep only the heads' logits (and, from
    `start`, a view of their rows); every head is then scored once over the
    whole set, so the result does not depend on the pass size.
    """
    states = [state for _, state in _passes(bundle, data, start=start)]
    logits = {c: Tensor(np.concatenate([s.heads[c].data for s in states])) for c in bundle.spec.categories.names}
    scores = score_heads(bundle, logits, labels)
    return {c: loss for c, (loss, _, _) in scores.items()}, {c: acc for c, (_, acc, _) in scores.items()}, logits


def train(
    bundle: ModelBundle,
    entries: list[ManifestEntry],
    config: TrainConfig,
    manifest_categories=None,
) -> tuple[ModelBundle, TrainLog]:
    """SGD with momentum on the unfrozen layers; returns the mutated bundle and the log.

    A loss that is not finite, on a training batch or on the validation side,
    raises TrainError naming the epoch, the batch and the head.

    Where `_frontier` finds a layer worth caching, its outputs for every
    training and validation image are computed once, before the first epoch,
    and replace the rasters; every pass then runs from them. Epoch 1's
    `seconds` includes that pass.

    `manifest_categories` describes the label columns of `entries` when they
    carry more categories than the model trains on; the split is computed on
    the full tuples before projecting.
    """
    full_cats = _manifest_view(bundle, entries, manifest_categories)
    cats = bundle.spec.categories
    train_set, val_set = split_entries(entries, config.split_fraction, config.seed)
    train_data, train_labels = _arrays(train_set, full_cats, cats)
    val = _arrays(val_set, full_cats, cats) if val_set else None

    epoch_seeds = np.random.SeedSequence((config.seed & SEED_MASK, 0x45)).generate_state(
        max(config.epochs, 1), dtype=np.uint64
    )
    velocity: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    plan = backward_plan(bundle)
    frontier = _frontier(bundle, plan, config.epochs)
    log = TrainLog(cats.names)
    n_train = len(train_set)

    t0 = time.perf_counter()
    if frontier is not None:
        train_data = _frontier_rows(bundle, train_data, frontier)
        if val is not None:
            val = (_frontier_rows(bundle, val[0], frontier), val[1])
    for epoch in range(1, config.epochs + 1):
        order = epoch_order(n_train, int(epoch_seeds[epoch - 1]))
        batches = [order[start : start + config.batch_size] for start in range(0, n_train, config.batch_size)]
        sums = {c: [0.0, 0.0] for c in cats.names}
        # a diverging step overflows silently: the finite-loss check is its one report
        with _quiet_fp():
            for batch, (rows, state) in enumerate(_passes(bundle, train_data, batches, plan, frontier), start=1):
                where = f"epoch {epoch}, batch {batch} of {len(batches)}"
                scores = score_heads(bundle, state.heads, {c: lab[rows] for c, lab in train_labels.items()})
                _check_finite({c: scores[c][0] for c in cats.names}, where)
                grads = backward_multi(bundle, state, {c: grad for c, (_, _, grad) in scores.items()})
                sgd_step(bundle.params, grads, config.learning_rate, config.momentum, velocity)
                _add(sums, scores, len(rows))
            if val is not None:
                val_loss, val_acc, _ = _evaluate_arrays(bundle, *val, frontier)
                _check_finite(val_loss, f"epoch {epoch}, validation")
            else:
                val_loss = val_acc = dict.fromkeys(cats.names, float("nan"))
        t1 = time.perf_counter()
        log.records.append(EpochRecord(epoch, *_means(sums, n_train), val_loss, val_acc, t1 - t0))
        t0 = t1
    return bundle, log


def evaluate(
    bundle: ModelBundle, entries: list[ManifestEntry], manifest_categories=None, hc_map: HcLabelMap | None = None
) -> dict[str, tuple[float, float]]:
    """Per-category (loss, accuracy) without touching any parameter.

    With `hc_map`, the bundle is a hard-coded-label model over the
    combinations of `manifest_categories` (which must then be given), and
    the map must be its own: its combinations, in order, are the class names
    the model was trained and saved with. The result then holds the merged
    category's scores and, per manifest category, those of the decoded
    predictions (`surgery.hc_scores`).
    """
    if hc_map is not None:
        if hc_categories(manifest_categories, hc_map) != bundle.spec.categories:
            raise TrainError("HC map does not match the model: its combinations are not the model's classes, in order")
        converted = convert_manifest_hc(entries, hc_map)  # an unobserved combination names its image
        truth, names = np.array([e.labels for e in entries], dtype=np.int64), manifest_categories.names
        entries, manifest_categories = converted, None
    full_cats = _manifest_view(bundle, entries, manifest_categories)
    loss, acc, logits = _evaluate_arrays(bundle, *_arrays(entries, full_cats, bundle.spec.categories))
    scores = {c: (loss[c], acc[c]) for c in loss}
    if hc_map is None:
        return scores
    n = len(entries)
    (merged,) = logits.values()
    nll, hits = hc_scores(hc_map, merged.data.reshape(n, -1), truth)
    return {**dict(zip(names, zip(nll / n, hits / n))), **scores}  # a head keeps its own name's scores


def predict_ids(bundle: ModelBundle, images: Tensor) -> tuple[np.ndarray, ...]:
    """Argmax class ids per head, in bound-category order."""
    state = forward_all(bundle, images)
    cats = bundle.spec.categories
    names = cats.names if cats is not None else tuple(state.heads)
    return tuple(state.heads[c].data.reshape(images.shape[0], -1).argmax(axis=1) for c in names)
