"""Multi-loss training: one shared forward traversal, per-head losses, accumulated gradients.

Gradients for all heads are accumulated in a single reverse sweep, which is
elementwise equal to running one backward pass per loss and summing. Frozen
parameters never receive gradients, and the sweep stops below the deepest
layer under which everything is frozen.

A pass keeps only what the backward that follows it reads. `train` derives
one plan (`backward_plan`) from the spec and frozen flags before its first
epoch and hands it to every training pass: it says which layers' backward
runs and which input gradients it reads, so the pass keeps those layers'
inputs, a maxpool's record where that pool's backward runs, and a trainable
conv's patch matrix for its weight gradient. Every other pass (validation,
evaluation, prediction) runs under `NO_BACKWARD` and drops each activation
after its last reader.

Validation, `evaluate` and `evaluate_hc` score a labelled image set through
one loop, `_chunks`, which runs one such pass per EVAL_CHUNK images. The
images and label columns of both split sides and of `evaluate` come from one
step, `_arrays`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import ManifestEntry, epoch_order, load_images, project_entries
from .errors import MhforgeError
from .modelfile import ModelBundle
from .surgery import HcLabelMap, hc_encode
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
    softmax_cross_entropy,
    top1_accuracy,
)


EVAL_CHUNK = 64  # images per forward pass in evaluation and validation


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
        if not self.learning_rate > 0:
            raise TrainError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise TrainError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 < self.split_fraction < 1:
            raise TrainError(f"split_fraction must be in (0, 1), got {self.split_fraction}")


@dataclass
class HeadResult:
    """Per-category outputs of one forward pass."""

    layer_name: str
    logits: Tensor
    loss_weight: float
    loss: float | None = None
    accuracy: float | None = None
    grad_logits: np.ndarray | None = None


@dataclass(frozen=True)
class BackwardPlan:
    """What a backward sweep runs and reads, and so what the forward pass before it keeps.

    Derived by `backward_plan` from the spec and the parameters' frozen flags.
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

    Holds what its plan's backward reads; every other activation is dropped
    as soon as the forward pass is done with it.
    """

    plan: BackwardPlan
    activations: dict[str, Tensor]
    pool_maps: dict[str, PoolIndexMap]
    patches: dict[str, np.ndarray]
    heads: dict[str, HeadResult]
    batch_size: int


def _conv_forward(bundle, state, lay, x, labels):
    params = bundle.params[lay.name]
    if lay.name not in state.plan.keeps_patches:
        return conv2d_forward(x, params, lay.stride, lay.pad)
    out, state.patches[lay.name] = conv2d_forward(x, params, lay.stride, lay.pad, keep_patches=True)
    return out


def _fc_forward(bundle, state, lay, x, labels):
    out = fully_connected(x, bundle.params[lay.name])
    if lay.head_tag is not None:
        state.heads[lay.head_tag] = HeadResult(lay.name, out, 1.0)
    return out


def _maxpool_forward(bundle, state, lay, x, labels):
    out, pool_map = maxpool2d(x, lay.kernel, lay.stride)
    if lay.name in state.plan.runs:
        state.pool_maps[lay.name] = pool_map
    return out


def _loss_forward(bundle, state, lay, x, labels):
    hr = state.heads[lay.label_slot]
    hr.loss_weight = lay.loss_weight
    if labels is not None:
        if lay.label_slot not in labels:
            raise TrainError(f"no labels for category {lay.label_slot!r}")
        hr.loss, _, hr.grad_logits = softmax_cross_entropy(hr.logits, labels[lay.label_slot])


def _accuracy_forward(bundle, state, lay, x, labels):
    if labels is not None:
        hr = state.heads[lay.label_slot]
        hr.accuracy = top1_accuracy(hr.logits, labels[lay.label_slot])


# kind -> (forward, backward). forward(bundle, state, lay, x, labels) returns the output, None for a
# metric sink; backward(bundle, state, lay, x, grad_out, input_grad) returns the input gradient (None
# when input_grad is false and the kind has parameters), then the weight and bias gradients of a
# parameterised kind, None (and not computed) where the layer is frozen. Ops are looked up by name at
# each call, never stored, so the function this module's attribute holds at call time (a tracer's
# wrapper, say) is what runs.
_LAYER_OPS = {
    "input": (lambda bundle, state, lay, x, labels: x, None),
    "conv": (
        _conv_forward,
        lambda bundle, state, lay, x, g, input_grad: conv2d_backward(
            x, bundle.params[lay.name], g, lay.stride, lay.pad, input_grad=input_grad,
            weight_grad=lay.name in state.plan.trains, patches=state.patches.get(lay.name),
        ),
    ),
    "relu": (
        lambda bundle, state, lay, x, labels: relu(x),
        lambda bundle, state, lay, x, g, input_grad: (relu_backward(x, g),),
    ),
    "maxpool": (
        _maxpool_forward,
        lambda bundle, state, lay, x, g, input_grad: (maxpool2d_backward(state.pool_maps[lay.name], g),),
    ),
    "gavgpool": (
        lambda bundle, state, lay, x, labels: global_avgpool(x),
        lambda bundle, state, lay, x, g, input_grad: (global_avgpool_backward(x.shape, g),),
    ),
    "fc": (
        _fc_forward,
        lambda bundle, state, lay, x, g, input_grad: fully_connected_backward(
            x, bundle.params[lay.name], g, input_grad=input_grad, weight_grad=lay.name in state.plan.trains
        ),
    ),
    "loss": (_loss_forward, None),
    "accuracy": (_accuracy_forward, None),
}


def backward_plan(bundle: ModelBundle) -> BackwardPlan:
    """What a backward sweep of the bundle, as its parameters are frozen now, runs and reads."""
    layers = bundle.spec.layers
    trains = frozenset(lay.name for lay in layers if lay.has_params and not bundle.params[lay.name].frozen)
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


def forward_all(
    bundle: ModelBundle,
    images: Tensor,
    labels: dict[str, np.ndarray] | None = None,
    plan: BackwardPlan = NO_BACKWARD,
) -> ForwardState:
    """Runs the graph once; with labels, fills per-head loss, accuracy, and logit gradients.

    Keeps what `plan`'s backward reads; every other activation is dropped
    after the last layer that reads it. A pass that backward_multi follows
    needs the bundle's `backward_plan`.
    """
    spec = bundle.spec
    n, c, h, w = images.shape
    if (c, h, w) != spec.input_shape:
        raise TrainError(f"batch images are {c}x{h}x{w} but the network expects {spec.input_shape}")
    state = ForwardState(plan, {}, {}, {}, {}, n)
    activations = state.activations
    for lay, done in zip(spec.layers, spec.last_reads):
        x = activations[lay.inputs[0]] if lay.inputs else images
        out = _LAYER_OPS[lay.kind][0](bundle, state, lay, x, labels)
        if out is not None:
            activations[lay.name] = out
        for name in done:
            if name not in plan.keeps:
                activations.pop(name, None)  # a metric sink stored nothing
    return state


def backward_multi(
    bundle: ModelBundle, state: ForwardState, head_grads: dict[str, np.ndarray]
) -> dict[str, tuple[Tensor, np.ndarray]]:
    """Accumulates all heads' gradients in one reverse sweep over the shared graph.

    head_grads maps category -> gradient w.r.t. that head's logits, (N, F).
    Returns weight/bias gradients for unfrozen layers only; layers with no
    path to any seeded head are absent (their gradient is zero). Follows the
    plan `state` was computed under: an input gradient nothing reads is not
    computed. A state computed under NO_BACKWARD raises TrainError.
    """
    plan = state.plan
    if plan is NO_BACKWARD:
        raise TrainError("backward_multi needs a forward pass run with the bundle's backward_plan")
    out_grads: dict[str, np.ndarray] = {}
    param_grads: dict[str, tuple[Tensor, np.ndarray]] = {}

    for cat, g in head_grads.items():
        hr = state.heads[cat]
        n, f = state.batch_size, hr.logits.shape[1]
        g = np.asarray(g, dtype=np.float64).reshape(n, f, 1, 1)
        name = hr.layer_name
        out_grads[name] = out_grads[name] + g if name in out_grads else g

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


def loss_head_grads(state: ForwardState) -> dict[str, np.ndarray]:
    """Loss-weighted logit gradients for every head whose loss was computed."""
    grads = {}
    for cat, hr in state.heads.items():
        if hr.grad_logits is not None:
            grads[cat] = hr.loss_weight * hr.grad_logits
    return grads


def sgd_step(
    params: dict[str, LayerParams],
    grads: dict[str, tuple[Tensor, np.ndarray]],
    lr: float,
    momentum: float,
    velocity: dict[str, tuple[np.ndarray, np.ndarray]],
) -> None:
    """v <- momentum*v - lr*g; w <- w + v. Updates params and velocity in place."""
    for name, (gw, gb) in grads.items():
        p = params[name]
        if p.frozen:
            continue
        vw, vb = velocity.get(name, (np.zeros_like(p.weights.data), np.zeros_like(p.bias)))
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


def _arrays(entries: list[ManifestEntry], full_cats, cats) -> tuple[Tensor, dict[str, np.ndarray]]:
    """The entries' images and int64 label columns for `cats`, projected from the manifest's `full_cats`."""
    if full_cats.names != cats.names:
        entries = project_entries(entries, full_cats, cats.names)
    labels = {cat: np.array([e.labels[k] for e in entries], dtype=np.int64) for k, cat in enumerate(cats.names)}
    return load_images(entries), labels


def _manifest_view(bundle: ModelBundle, entries: list[ManifestEntry], manifest_categories):
    """Validates entries against the manifest's categories and the model's subset of them.

    A single-head model trained from a shared multi-category manifest keeps
    the full label tuples for splitting (so every variant sees the same
    train/validation membership) and projects to its own columns afterwards.
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


def train(
    bundle: ModelBundle,
    entries: list[ManifestEntry],
    config: TrainConfig,
    manifest_categories=None,
) -> tuple[ModelBundle, TrainLog]:
    """SGD with momentum on the unfrozen layers; returns the mutated bundle and the log.

    A loss that is not finite, on a training batch or on the validation side,
    raises TrainError naming the epoch, the batch and the head.

    `manifest_categories` describes the label columns of `entries` when they
    carry more categories than the model trains on; the split is computed on
    the full tuples before projecting.
    """
    full_cats = _manifest_view(bundle, entries, manifest_categories)
    cats = bundle.spec.categories
    train_set, val_set = split_entries(entries, config.split_fraction, config.seed)
    train_images, train_labels = _arrays(train_set, full_cats, cats)
    val = _arrays(val_set, full_cats, cats) if val_set else None

    epoch_seeds = np.random.SeedSequence((config.seed & SEED_MASK, 0x45)).generate_state(
        max(config.epochs, 1), dtype=np.uint64
    )
    velocity: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    plan = backward_plan(bundle)
    log = TrainLog(cats.names)
    n_train = len(train_set)

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = epoch_order(n_train, int(epoch_seeds[epoch - 1]))
        sums = {c: 0.0 for c in cats.names}
        hits = {c: 0.0 for c in cats.names}
        starts = range(0, n_train, config.batch_size)
        for batch, start in enumerate(starts, start=1):
            idx = order[start : start + config.batch_size]
            images = Tensor(train_images.data[idx])
            labels = {c: train_labels[c][idx] for c in cats.names}
            # a diverging step overflows silently: the finite-loss check is its one report
            with _quiet_fp():
                state = forward_all(bundle, images, labels, plan)
                losses = {c: state.heads[c].loss for c in cats.names}
                _check_finite(losses, f"epoch {epoch}, batch {batch} of {len(starts)}")
                grads = backward_multi(bundle, state, loss_head_grads(state))
                sgd_step(bundle.params, grads, config.learning_rate, config.momentum, velocity)
            for c in cats.names:
                sums[c] += losses[c] * len(idx)
                hits[c] += state.heads[c].accuracy * len(idx)
        train_loss = {c: sums[c] / n_train for c in cats.names}
        train_acc = {c: hits[c] / n_train for c in cats.names}
        if val is not None:
            with _quiet_fp():
                val_metrics = _evaluate_arrays(bundle, *val)
            val_loss = {c: val_metrics[c][0] for c in cats.names}
            _check_finite(val_loss, f"epoch {epoch}, validation")
            val_acc = {c: val_metrics[c][1] for c in cats.names}
        else:
            val_loss = {c: float("nan") for c in cats.names}
            val_acc = {c: float("nan") for c in cats.names}
        log.records.append(
            EpochRecord(epoch, train_loss, train_acc, val_loss, val_acc, time.perf_counter() - t0)
        )
    return bundle, log


def _chunks(bundle: ModelBundle, images: Tensor, labels: dict[str, np.ndarray]):
    """Scores the images EVAL_CHUNK at a time: yields (rows, state), one NO_BACKWARD pass per slice."""
    for start in range(0, images.shape[0], EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        yield rows, forward_all(bundle, Tensor(images.data[rows]), {c: lab[rows] for c, lab in labels.items()})


def _evaluate_arrays(
    bundle: ModelBundle, images: Tensor, labels: dict[str, np.ndarray]
) -> dict[str, tuple[float, float]]:
    cats = bundle.spec.categories
    n = images.shape[0]
    sums = {c: 0.0 for c in cats.names}
    hits = {c: 0.0 for c in cats.names}
    for _, state in _chunks(bundle, images, labels):
        for c in cats.names:
            sums[c] += state.heads[c].loss * state.batch_size
            hits[c] += state.heads[c].accuracy * state.batch_size
    return {c: (sums[c] / n, hits[c] / n) for c in cats.names}


def evaluate(
    bundle: ModelBundle, entries: list[ManifestEntry], manifest_categories=None
) -> dict[str, tuple[float, float]]:
    """Per-category (loss, accuracy) without touching any parameter."""
    full_cats = _manifest_view(bundle, entries, manifest_categories)
    return _evaluate_arrays(bundle, *_arrays(entries, full_cats, bundle.spec.categories))


@dataclass(frozen=True)
class HcEval:
    """Combined-label metrics plus the per-category view recovered by decoding."""

    combined_loss: float
    combined_accuracy: float
    per_category: dict[str, tuple[float, float]]


def evaluate_hc(
    bundle: ModelBundle,
    entries: list[ManifestEntry],
    hc_map: HcLabelMap,
    categories,
) -> HcEval:
    """Evaluates a hard-coded-label model against the original multi-label entries.

    Per-category accuracy compares the decoded argmax combination componentwise;
    per-category loss is the negative log of the marginal probability mass the
    model puts on the true class within that category, taken by log-sum-exp over
    the logits so that it stays finite where the softmax underflows to zero.
    """
    if not entries:
        raise TrainError("dataset is empty")
    hc_ids = np.array([hc_encode(hc_map, e.labels) for e in entries], dtype=np.int64)
    images = load_images(entries)
    cat_name = bundle.spec.categories.names[0]
    n = images.shape[0]

    total_loss = 0.0
    total_hits = 0.0
    cat_hits = np.zeros(categories.n)
    cat_nll = np.zeros(categories.n)
    combos = np.array(hc_map.combos, dtype=np.int64)  # (n_combos, n_cats)
    true_labels = np.array([e.labels for e in entries], dtype=np.int64)

    for rows, state in _chunks(bundle, images, {cat_name: hc_ids}):
        hr = state.heads[cat_name]
        total_loss += hr.loss * state.batch_size
        total_hits += hr.accuracy * state.batch_size
        z = hr.logits.data.reshape(state.batch_size, -1)
        truth = true_labels[rows]
        decoded = combos[z.argmax(axis=1)]  # (batch, n_cats)
        cat_hits += (decoded == truth).sum(axis=0)
        shifted = z - z.max(axis=1, keepdims=True)
        log_total = np.log(np.exp(shifted).sum(axis=1))
        for k in range(categories.n):
            # log of the marginal probability mass on the true class within category k
            sel = combos[None, :, k] == truth[:, k][:, None]
            masked = np.where(sel, shifted, -np.inf)
            top = masked.max(axis=1, keepdims=True)
            log_mass = top[:, 0] + np.log(np.exp(masked - top).sum(axis=1))
            cat_nll[k] += (log_total - log_mass).sum()

    per_category = {
        cat: (cat_nll[k] / n, cat_hits[k] / n) for k, cat in enumerate(categories.names)
    }
    return HcEval(total_loss / n, total_hits / n, per_category)


def predict_ids(bundle: ModelBundle, images: Tensor) -> tuple[np.ndarray, ...]:
    """Argmax class ids per head, in bound-category order."""
    state = forward_all(bundle, images)
    cats = bundle.spec.categories
    names = cats.names if cats is not None else tuple(state.heads)
    return tuple(state.heads[c].logits.data.reshape(images.shape[0], -1).argmax(axis=1) for c in names)
