"""Training loop tests: shared-traversal forward, accumulated backward, SGD, splits."""

import dataclasses
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    ACCEPTANCE_BACKBONE,
    channels_last_conv2d_backward,
    channels_last_conv2d_forward,
    finite_diff,
    random_spec_text,
    reference_pass,
    rel_err,
)

import mhforge.training as training_mod
from mhforge.dataset import (
    LabelCategories,
    ManifestEntry,
    SyntheticConfig,
    epoch_order,
    generate_synthetic,
    load_images,
    save_pgm,
    with_base,
)
from mhforge.errors import MhforgeError
from mhforge.modelfile import ModelBundle, new_bundle, save_model
from mhforge.netspec import KINDS, LayerSpec, bind_categories, parse_netspec
from mhforge.surgery import (
    HcLabelMap,
    SurgeryError,
    attach_heads,
    build_hard_coded,
    build_two_model,
    convert_manifest_hc,
    hc_encode,
)
from mhforge.tensor_ops import LayerParams, Tensor, score_logits
from mhforge.training import (
    EpochRecord,
    TrainConfig,
    TrainError,
    TrainLog,
    backward_multi,
    backward_plan,
    evaluate,
    forward_all,
    predict_ids,
    score_heads,
    sgd_step,
    split_entries,
    train,
)
from perfbench.trace import Tracer

TWO_HEAD = """\
input name=img shape=1x4x4
conv name=c1 in=img out_channels=3 kernel=3
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2
gavgpool name=g in=p1
fc name=head_kind in=g out=3 head=kind in_features=3
loss name=loss_kind in=head_kind label=kind
accuracy name=acc_kind in=head_kind label=kind
fc name=head_spot in=g out=2 head=spot in_features=3
loss name=loss_spot in=head_spot label=spot weight=0.5
accuracy name=acc_spot in=head_spot label=spot
"""

CATS = LabelCategories(("kind", "spot"), (("a", "b", "c"), ("x", "y")))


def make_bundle(seed=7):
    spec = bind_categories(parse_netspec(TWO_HEAD), CATS)
    return new_bundle(spec, seed=seed)


def loss_grads(bundle, state, labels):
    """The loss-weighted logit gradients score_heads gives the heads of one pass: backward_multi's seeds."""
    return {c: grad for c, (_, _, grad) in score_heads(bundle, state.heads, labels).items()}


def total_loss(bundle, images, labels):
    """Every head's loss weighted by its loss line: the objective the seeds are the gradient of."""
    scores = score_heads(bundle, forward_all(bundle, images).heads, labels)
    return sum(lay.loss_weight * scores[lay.label_slot][0] for lay in bundle.spec.losses())


def make_batch(seed=11, n=3):
    rng = np.random.default_rng(seed)
    images = Tensor(rng.uniform(0.2, 1.0, (n, 1, 4, 4)))
    labels = {
        "kind": rng.integers(0, 3, n).astype(np.int64),
        "spot": rng.integers(0, 2, n).astype(np.int64),
    }
    return images, labels


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 20
        assert cfg.split_fraction == 0.8

    def test_negative_epochs(self):
        with pytest.raises(TrainError, match="epochs must be >= 0"):
            TrainConfig(epochs=-1)

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0

    def test_batch_size_bound(self):
        with pytest.raises(TrainError, match="batch_size must be >= 1"):
            TrainConfig(batch_size=0)

    def test_learning_rate_bound(self):
        for bad in (0.0, float("inf")):
            with pytest.raises(TrainError, match="learning_rate must be positive"):
                TrainConfig(learning_rate=bad)

    def test_momentum_bounds(self):
        with pytest.raises(TrainError, match="momentum must be in"):
            TrainConfig(momentum=1.0)
        with pytest.raises(TrainError, match="momentum must be in"):
            TrainConfig(momentum=-0.1)
        assert TrainConfig(momentum=0.0).momentum == 0.0

    def test_split_fraction_bounds(self):
        with pytest.raises(TrainError, match="split_fraction must be in"):
            TrainConfig(split_fraction=1.0)
        with pytest.raises(TrainError, match="split_fraction must be in"):
            TrainConfig(split_fraction=0.0)


class TestForwardAll:
    def test_every_layer_kind_has_its_ops(self):
        # every kind that produces a tensor (has an out_shape) is a pass step with ops; the metric sinks are not
        from mhforge.netspec import _LAYER_KINDS
        from mhforge.training import _LAYER_OPS

        assert list(_LAYER_OPS) == [k for k in KINDS if _LAYER_KINDS[k].out_shape is not None]
        assert [k for k in KINDS if k not in _LAYER_OPS] == ["loss", "accuracy"]
        assert {k for k, (_, backward) in _LAYER_OPS.items() if backward is None} == {"input"}

    def test_activation_and_head_inventory(self):
        # c1 trains: backward reads the input of every layer from the heads down to c1,
        # p1's record and c1's patch matrix; the head outputs live on in the heads' logits
        bundle = make_bundle()
        images, labels = make_batch()
        state = forward_all(bundle, images, backward_plan(bundle))
        assert set(state.activations) == {"img", "c1", "r1", "p1", "g"}
        assert set(state.pool_maps) == {"p1"}
        assert set(state.patches) == {"c1"}
        assert set(state.heads) == {"kind", "spot"}
        assert all(logits.shape[0] == 3 for logits in state.heads.values())
        # frozen backbone: the heads' backward reads g alone
        backbone = parse_netspec("\n".join(TWO_HEAD.splitlines()[:5]) + "\n")
        frozen = new_bundle(attach_heads(backbone, CATS, "g"), seed=2)
        state = forward_all(frozen, images, backward_plan(frozen))
        assert set(state.activations) == {"g"}
        assert state.pool_maps == {} and state.patches == {}
        assert set(state.heads) == {"kind", "spot"}
        # a pass no backward follows keeps nothing but the heads
        for b in (bundle, frozen):
            state = forward_all(b, images)
            assert state.activations == {} and state.pool_maps == {} and state.patches == {}
            assert set(state.heads) == {"kind", "spot"}

    def test_with_labels_metrics_filled(self):
        bundle = make_bundle()
        images, labels = make_batch()
        state = forward_all(bundle, images)
        for cat, (loss, accuracy, grad) in score_heads(bundle, state.heads, labels).items():
            assert loss > 0.0
            assert 0.0 <= accuracy <= 1.0
            assert grad.shape == (3, CATS.class_counts[CATS.names.index(cat)])

    def test_loss_weight_taken_from_spec(self):
        images, labels = make_batch()
        for spot_weight in (0.5, 2.0):
            spec = parse_netspec(TWO_HEAD.replace("weight=0.5", f"weight={spot_weight}"))
            bundle = new_bundle(bind_categories(spec, CATS), seed=7)
            heads = forward_all(bundle, images).heads
            scores = score_heads(bundle, heads, labels)
            for cat, weight in (("kind", 1.0), ("spot", spot_weight)):
                unweighted = score_logits(heads[cat], labels[cat])[2]
                assert scores[cat][2].tobytes() == (weight * unweighted).tobytes()

    def test_zero_head_gives_log_class_count_loss(self):
        bundle = make_bundle()
        for name in ("head_kind", "head_spot"):
            bundle.params[name].weights.data[:] = 0.0
            bundle.params[name].bias[:] = 0.0
        images, labels = make_batch()
        scores = score_heads(bundle, forward_all(bundle, images).heads, labels)
        assert abs(scores["kind"][0] - math.log(3)) < 1e-12
        assert abs(scores["spot"][0] - math.log(2)) < 1e-12

    def test_wrong_image_shape_rejected(self):
        bundle = make_bundle()
        with pytest.raises(TrainError, match="expects"):
            forward_all(bundle, Tensor.zeros((2, 1, 5, 5)))

    def test_missing_label_category_rejected(self):
        bundle = make_bundle()
        images, labels = make_batch()
        del labels["spot"]
        heads = forward_all(bundle, images).heads
        with pytest.raises(TrainError, match="no labels for category 'spot'"):
            score_heads(bundle, heads, labels)


class TestBackwardMulti:
    def test_gradients_match_finite_differences(self):
        bundle = make_bundle(seed=3)
        images, labels = make_batch(seed=5)
        state = forward_all(bundle, images, backward_plan(bundle))
        grads = backward_multi(bundle, state, loss_grads(bundle, state, labels))
        assert set(grads) == {"c1", "head_kind", "head_spot"}

        for name in grads:
            gw, gb = grads[name]
            p = bundle.params[name]
            num_w = finite_diff(lambda: total_loss(bundle, images, labels), p.weights.data)
            num_b = finite_diff(lambda: total_loss(bundle, images, labels), p.bias)
            assert rel_err(gw.data, num_w) < 1e-6, name
            assert rel_err(gb, num_b) < 1e-6, name

    def test_joint_sweep_equals_sum_of_single_loss_sweeps(self):
        bundle = make_bundle(seed=13)
        images, labels = make_batch(seed=17)
        state = forward_all(bundle, images, backward_plan(bundle))
        seeds = loss_grads(bundle, state, labels)
        joint = backward_multi(bundle, state, seeds)
        only_kind = backward_multi(bundle, state, {"kind": seeds["kind"]})
        only_spot = backward_multi(bundle, state, {"spot": seeds["spot"]})
        for name, (gw, gb) in joint.items():
            sw = only_kind[name][0].data if name in only_kind else 0.0
            sb = only_kind[name][1] if name in only_kind else 0.0
            if name in only_spot:
                sw = sw + only_spot[name][0].data
                sb = sb + only_spot[name][1]
            assert np.max(np.abs(gw.data - sw)) <= 1e-12
            assert np.max(np.abs(gb - sb)) <= 1e-12

    def test_single_head_seed_reaches_shared_layers_only_once(self):
        bundle = make_bundle()
        images, labels = make_batch()
        state = forward_all(bundle, images, backward_plan(bundle))
        grads = backward_multi(bundle, state, {"kind": loss_grads(bundle, state, labels)["kind"]})
        assert set(grads) == {"c1", "head_kind"}

    def test_frozen_backbone_yields_head_gradients_only(self):
        backbone = parse_netspec("\n".join(TWO_HEAD.splitlines()[:5]) + "\n")
        bundle = new_bundle(attach_heads(backbone, CATS, "g"), seed=2)
        images, labels = make_batch()
        state = forward_all(bundle, images, backward_plan(bundle))
        grads = backward_multi(bundle, state, loss_grads(bundle, state, labels))
        assert set(grads) == {"head_kind", "head_spot"}

    def test_sweep_stops_below_deepest_unfrozen_layer(self, monkeypatch):
        backbone = parse_netspec("\n".join(TWO_HEAD.splitlines()[:5]) + "\n")
        bundle = new_bundle(attach_heads(backbone, CATS, "g"), seed=2)
        images, labels = make_batch()
        state = forward_all(bundle, images, backward_plan(bundle))

        def bomb(*args, **kwargs):
            raise AssertionError("backward touched a layer below every unfrozen parameter")

        import mhforge.training as training_mod

        monkeypatch.setattr(training_mod, "conv2d_backward", bomb)
        monkeypatch.setattr(training_mod, "maxpool2d_backward", bomb)
        monkeypatch.setattr(training_mod, "global_avgpool_backward", bomb)
        grads = backward_multi(bundle, state, loss_grads(bundle, state, labels))
        assert set(grads) == {"head_kind", "head_spot"}

    def test_empty_seed_gradients_give_empty_result(self):
        bundle = make_bundle()
        images, labels = make_batch()
        state = forward_all(bundle, images, backward_plan(bundle))
        assert backward_multi(bundle, state, {}) == {}

    def test_a_pass_without_a_plan_cannot_run_backward(self):
        bundle = make_bundle()
        images, labels = make_batch()
        state = forward_all(bundle, images)
        with pytest.raises(TrainError, match="backward_plan"):
            backward_multi(bundle, state, loss_grads(bundle, state, labels))
        with pytest.raises(TrainError, match="backward_plan"):
            backward_multi(bundle, state, {})

    def test_score_heads_seeds_apply_loss_weights(self):
        bundle = make_bundle()
        images, labels = make_batch()
        state = forward_all(bundle, images)
        seeds = loss_grads(bundle, state, labels)
        grad_logits = {c: score_logits(state.heads[c], labels[c])[2] for c in labels}
        assert np.allclose(seeds["kind"], grad_logits["kind"])
        assert np.allclose(seeds["spot"], 0.5 * grad_logits["spot"])


def forward_keeping_everything(bundle, images, patches=False):
    """The reference forward pass: the program that keeps every activation, so it drops and overwrites nothing.

    It keeps no patch matrix, so backward builds its own, unless `patches`: then it keeps those of the
    bundle's plan.
    """
    plan = training_mod.backward_plan(bundle)
    every_layer = frozenset(l.name for l in bundle.spec.layers if l.kind not in ("loss", "accuracy"))
    everything = dataclasses.replace(plan, keeps=every_layer)
    if not patches:
        everything = dataclasses.replace(everything, keeps_patches=frozenset())
    state = forward_all(bundle, images, everything)
    assert set(state.activations) == every_layer and state.overwrites == frozenset()
    return state


class ReadLog(dict):
    """A dict that records which of its keys are read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        if key in self:
            self.read.add(key)
        return super().get(key, default)


def finetune_shaped_spec(cats=CATS):
    """The acceptance backbone under one head per category, frozen but for c2."""
    spec = attach_heads(parse_netspec(ACCEPTANCE_BACKBONE), cats, "g")
    layers = tuple(dataclasses.replace(l, frozen=l.frozen and l.name != "c2") for l in spec.layers)
    return dataclasses.replace(spec, layers=layers)


def training_only(bundle, trains):
    """The bundle's own parameter arrays under a description in which exactly `trains` is unfrozen."""
    layers = tuple(
        dataclasses.replace(l, frozen=l.name not in trains) if l.has_params else l for l in bundle.spec.layers
    )
    return ModelBundle(dataclasses.replace(bundle.spec, layers=layers), bundle.params)


def weight_grads_always(monkeypatch):
    """Makes the conv and fc backward ops compute weight gradients for frozen layers too, which backward_multi
    then discards: the reference a backward that skips them must match."""
    for op in ("conv2d_backward", "fully_connected_backward"):
        def always(*args, full=getattr(training_mod, op), weight_grad=None, **kwargs):
            return full(*args, **kwargs)  # weight_grad left at its default, True
        monkeypatch.setattr(training_mod, op, always)


def spy_weight_grads(monkeypatch, names):
    """Records (layer, weight_grad, weight gradient returned) for every conv and fc backward call."""
    calls = []
    for op in ("conv2d_backward", "fully_connected_backward"):
        def spy(x, params, *args, op=getattr(training_mod, op), **kwargs):
            result = op(x, params, *args, **kwargs)
            calls.append((names[id(params)], kwargs["weight_grad"], result[1] is not None))
            return result
        monkeypatch.setattr(training_mod, op, spy)
    return calls


# an fc over a conv output and one over a pool output, both with H*W > 1; c1's output gets two gradients
FC_ON_SPATIAL = """\
input name=img shape=2x7x6
conv name=c1 in=img out_channels=3 kernel=3 stride=1 pad=1
fc name=head_kind in=c1 out=3 head=kind in_features=126
loss name=loss_kind in=head_kind label=kind
accuracy name=acc_kind in=head_kind label=kind
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
fc name=head_spot in=p1 out=2 head=spot in_features=27
loss name=loss_spot in=head_spot label=spot weight=0.5
accuracy name=acc_spot in=head_spot label=spot
"""

THREE_CHANNELS = """\
input name=img shape=3x11x9
conv name=c1 in=img out_channels=4 kernel=3 stride=2 pad=1
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=3 stride=1
conv name=c2 in=p1 out_channels=5 kernel=2 stride=1 pad=0
relu name=r2 in=c2
gavgpool name=g in=r2
"""


class TestChannelsLastMatchesNchwReference:
    """A pass's logits and every gradient equal, bit for bit, those of an NCHW pass built from the oracles
    (helpers.reference_pass: tensordot conv, the reference maxpool, an NCHW gavgpool and fc flatten).

    The specs cross each place the channels-last activations meet NCHW: a three-channel image batch, an fc
    over a spatial conv or pool output, and gavgpool, on the acceptance backbone too. Every layer trains,
    so backward_multi returns every weight and bias gradient.
    """

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize(
        "text", [FC_ON_SPATIAL, THREE_CHANNELS, ACCEPTANCE_BACKBONE], ids=["fc_on_spatial", "three_channels", "acceptance"]
    )
    def test_logits_and_gradients(self, text, n):
        spec = parse_netspec(text)
        spec = bind_categories(spec, CATS) if spec.heads() else attach_heads(spec, CATS, spec.layers[-1].name)
        bundle = training_only(new_bundle(spec, seed=n), {l.name for l in spec.layers})
        rng = np.random.default_rng(n)
        for p in bundle.params.values():
            p.bias[:] = rng.uniform(-0.5, 0.5, p.bias.shape)
        images = rng.uniform(0, 1, (n, *spec.input_shape))
        labels = {"kind": rng.integers(0, 3, n), "spot": rng.integers(0, 2, n)}

        state = forward_all(bundle, Tensor(images), backward_plan(bundle))
        seeds = loss_grads(bundle, state, labels)
        want_logits, want_grads = reference_pass(bundle, images, seeds)
        for cat, logits in want_logits.items():
            assert state.heads[cat].shape == (n, 1, 1, logits.shape[1])
            assert state.heads[cat].data.tobytes() == logits.tobytes(), cat
        got = backward_multi(bundle, state, seeds)
        assert set(got) == set(want_grads) == set(bundle.params)
        for name, (gw, gb) in want_grads.items():
            assert got[name][0].data.tobytes() == gw.tobytes(), name
            assert got[name][1].tobytes() == gb.tobytes(), name

    def test_one_plan_serves_every_step(self):
        """The sweep backward_plan builds once, held in the plan: over three SGD steps, every step's gradients
        equal the reference's for the parameters as the step before left them."""
        spec = attach_heads(parse_netspec(ACCEPTANCE_BACKBONE), CATS, "g")
        bundle = training_only(new_bundle(spec, seed=5), {l.name for l in spec.layers})
        plan = backward_plan(bundle)
        assert [lay for _, lay, *_ in plan.sweep] == [l for l in reversed(bundle.spec.layers) if l.name in plan.runs]
        assert plan.heads == {"kind": "head_kind", "spot": "head_spot"}
        rng = np.random.default_rng(5)
        velocity = {}
        for _ in range(3):
            images = rng.uniform(0, 1, (4, *spec.input_shape))
            labels = {"kind": rng.integers(0, 3, 4), "spot": rng.integers(0, 2, 4)}
            state = forward_all(bundle, Tensor(images), plan)
            seeds = loss_grads(bundle, state, labels)
            _, want_grads = reference_pass(bundle, images, seeds)
            got = backward_multi(bundle, state, seeds)
            assert set(got) == set(want_grads) == set(bundle.params)
            for name, (gw, gb) in want_grads.items():
                assert got[name][0].data.tobytes() == gw.tobytes(), name
                assert got[name][1].tobytes() == gb.tobytes(), name
            sgd_step(bundle.params, got, 0.1, 0.9, velocity)


class TestInPlaceRelu:
    """A relu writes into its input where nothing reads that input after it: not a kept activation, the
    image batch or a head's logits."""

    @staticmethod
    def spy_relu(monkeypatch):
        """Records (in_place, returned its input) per relu call."""
        calls = []
        relu = training_mod.relu

        def spy(x, **kwargs):
            out = relu(x, **kwargs)
            calls.append((kwargs.get("in_place", False), out is x))
            return out

        monkeypatch.setattr(training_mod, "relu", spy)
        return calls

    def test_finetune_shaped_plan_overwrites_c1_and_keeps_what_backward_reads(self, monkeypatch):
        bundle = new_bundle(finetune_shaped_spec(), seed=0)
        images = Tensor(np.random.default_rng(6).uniform(0, 1, (4, 1, 34, 34)))
        ref = forward_keeping_everything(bundle, images, patches=True)  # keeps every activation, overwrites none
        calls = self.spy_relu(monkeypatch)

        plan = backward_plan(bundle)
        state = forward_all(bundle, images, plan)
        # r1 overwrites c1's output; r2 leaves c2's, which relu_backward reads
        program = bundle.spec.pass_programs[plan.keeps]
        assert program.overwrites == state.overwrites == {"r1"} and "c2" in plan.keeps
        assert calls == [(True, True), (False, False)]
        assert set(state.activations) == plan.keeps
        for name, kept in state.activations.items():
            assert kept.data.tobytes() == ref.activations[name].data.tobytes(), name
        assert set(state.pool_maps) == set(ref.pool_maps) == {"p2"}
        for name, pool_map in state.pool_maps.items():
            assert pool_map.input.data.tobytes() == ref.pool_maps[name].input.data.tobytes(), name
            assert pool_map.output.data.tobytes() == ref.pool_maps[name].output.data.tobytes(), name
        assert set(state.patches) == set(ref.patches) == {"c2"}
        assert state.patches["c2"].tobytes() == ref.patches["c2"].tobytes()

        calls.clear()
        plain = forward_all(bundle, images)
        assert bundle.spec.pass_programs[frozenset()].overwrites == plain.overwrites == {"r1", "r2"}
        assert calls == [(True, True), (True, True)]
        for cat, logits in ref.heads.items():
            assert plain.heads[cat].data.tobytes() == state.heads[cat].data.tobytes() == logits.data.tobytes()

    def test_the_image_batch_and_head_logits_are_never_overwritten(self, monkeypatch):
        text = TWO_HEAD.replace("conv name=c1 in=img", "relu name=r0 in=img\nconv name=c1 in=r0")
        text += "relu name=r_kind in=head_kind\n"
        bundle = new_bundle(bind_categories(parse_netspec(text), CATS), seed=1)
        bundle.params["head_kind"].bias[:] = [-1.0, 0.5, -2.0]  # the head starts at zero weights
        images = Tensor(np.random.default_rng(8).uniform(-1, 1, (3, 1, 4, 4)))
        pixels = images.data.copy()
        calls = self.spy_relu(monkeypatch)
        state = forward_all(bundle, images)
        assert state.overwrites == {"r1"}
        assert calls == [(False, False), (True, True), (False, False)]
        assert images.data.tobytes() == pixels.tobytes()
        assert (state.heads["kind"].data < 0).any()


def variant_bundles():
    """The acceptance backbone's deployed variants: proposed, both two_model specs and hard_coded, each with
    random head weights and random biases (a new bundle's heads are zero)."""
    backbone = parse_netspec(ACCEPTANCE_BACKBONE)
    specs = {"proposed": attach_heads(backbone, CATS, "g")}
    for spec in build_two_model(backbone, CATS, "g"):
        specs[f"two_model_{spec.categories.names[0]}"] = spec
    specs["hard_coded"] = build_hard_coded(backbone, CATS, [(k, s) for k in range(3) for s in range(2)], "g")[0]
    rng = np.random.default_rng(21)
    bundles = {}
    for name, spec in specs.items():
        bundles[name] = bundle = new_bundle(spec, seed=0)
        for head in spec.heads():
            bundle.params[head.name].weights.data[:] = rng.normal(0.0, 1.0, bundle.params[head.name].weights.shape)
        for p in bundle.params.values():
            p.bias[:] = rng.uniform(-0.5, 0.5, p.bias.shape)
    return bundles


# op name in training -> the layer kind it computes; the input layer's op is a transpose and has none
FORWARD_OPS = {
    "conv2d_forward": "conv",
    "relu": "relu",
    "maxpool2d": "maxpool",
    "global_avgpool": "gavgpool",
    "fully_connected": "fc",
}


class TestPassProgram:
    """A pass runs its spec's program: one step per layer that produces a tensor, built once per kept set."""

    @pytest.mark.parametrize("n", [1, 8])
    def test_head_logits_equal_the_whole_network_reference(self, n):
        images = np.random.default_rng(n).uniform(0, 1, (n, 1, 34, 34))
        bundles = variant_bundles()
        assert len(bundles) == 4
        for name, bundle in bundles.items():
            want, _ = reference_pass(bundle, images, {})
            heads = forward_all(bundle, Tensor(images)).heads
            assert set(heads) == set(want) == set(bundle.spec.categories.names), name
            for cat, logits in want.items():
                assert heads[cat].data.tobytes() == logits.tobytes(), (name, cat)
            for ids, cat in zip(predict_ids(bundle, Tensor(images)), bundle.spec.categories.names):
                assert np.array_equal(ids, want[cat].argmax(axis=1)), (name, cat)

    def test_one_forward_op_per_layer_that_produces_a_tensor_and_none_for_the_sinks(self, monkeypatch):
        bundle = variant_bundles()["proposed"]
        spec = bundle.spec
        images = Tensor(np.random.default_rng(2).uniform(0, 1, (2, 1, 34, 34)))
        plans = (training_mod.NO_BACKWARD, backward_plan(bundle))
        for plan in plans:  # the programs exist before the spies do: ops are looked up at each call
            forward_all(bundle, images, plan)
        calls = []
        for attr, kind in FORWARD_OPS.items():
            def spy(*args, op=getattr(training_mod, attr), kind=kind, **kwargs):
                calls.append(kind)
                return op(*args, **kwargs)
            monkeypatch.setattr(training_mod, attr, spy)

        def scorer(*args, **kwargs):
            raise AssertionError("a forward pass scored a head")

        monkeypatch.setattr(training_mod, "score_logits", scorer)
        tensor_layers = [l for l in spec.layers if l.kind not in ("loss", "accuracy")]
        assert (len(spec.layers), len(tensor_layers)) == (14, 10)
        for plan in plans:
            calls.clear()
            forward_all(bundle, images, plan)
            assert calls == [l.kind for l in tensor_layers if l.kind != "input"]
            assert [lay for _, lay, _, _ in spec.pass_programs[plan.keeps].steps] == tensor_layers

    def test_ten_predictions_build_one_program_and_a_replaced_spec_builds_its_own(self, monkeypatch):
        bundle = variant_bundles()["proposed"]
        images = Tensor(np.random.default_rng(3).uniform(0, 1, (1, 1, 34, 34)))
        built = []
        build = training_mod._pass_program

        def counting(spec, keeps):
            built.append((spec, keeps))
            return build(spec, keeps)

        monkeypatch.setattr(training_mod, "_pass_program", counting)
        first = predict_ids(bundle, images)
        for _ in range(9):
            assert [a.tobytes() for a in predict_ids(bundle, images)] == [a.tobytes() for a in first]
        assert len(built) == 1 and built[0][0] is bundle.spec and built[0][1] == frozenset()
        assert set(bundle.spec.pass_programs) == {frozenset()}

        replaced = ModelBundle(dataclasses.replace(bundle.spec, categories=bundle.spec.categories), bundle.params)
        assert replaced.spec == bundle.spec and replaced.spec.pass_programs == {}
        predict_ids(replaced, images)
        assert len(built) == 2 and built[1][0] is replaced.spec

        # a training pass keeps what its backward reads: its own program, also built once
        plan = backward_plan(bundle)
        for _ in range(3):
            forward_all(bundle, images, plan)
        assert len(built) == 3 and set(bundle.spec.pass_programs) == {frozenset(), plan.keeps}


class TestBackwardPlan:
    def test_random_specs_match_a_forward_that_keeps_everything(self, monkeypatch):
        """Each random spec runs with its frozen flags as drawn, then with only its lowest parameterised
        layer trainable, so that frozen layers sit above a trainable one."""
        rng = np.random.default_rng(2024)
        frozen_above_trainable = 0  # backward calls that passed a gradient through a frozen conv or fc
        for case in range(60):
            spec = parse_netspec(random_spec_text(rng))
            bundle = new_bundle(spec, seed=case)
            names = {id(p): n for n, p in bundle.params.items()}
            images = Tensor(rng.uniform(-1, 1, (3, *spec.input_shape)))
            labels = {h.head_tag: rng.integers(0, h.out_features, 3) for h in spec.heads()}
            lowest = next(l.name for l in spec.layers if l.has_params)
            for flags in ("as drawn", "lowest trains"):
                if flags == "lowest trains":
                    bundle = training_only(bundle, {lowest})
                where = (case, flags)
                plan = backward_plan(bundle)
                state = forward_all(bundle, images, plan)
                plain = forward_all(bundle, images)
                ref = forward_keeping_everything(bundle, images)
                # the pass ran its program's steps, one per layer that produces a tensor, and kept what plan keeps
                steps = bundle.spec.pass_programs[plan.keeps].steps
                assert [lay for _, lay, _, _ in steps] == [l for l in bundle.spec.layers if l.name in ref.activations]
                assert set(state.activations) == plan.keeps, where
                kept, dropped = score_heads(bundle, state.heads, labels), score_heads(bundle, plain.heads, labels)
                for cat, (loss, _, _) in score_heads(bundle, ref.heads, labels).items():
                    assert np.float64(kept[cat][0]).tobytes() == np.float64(loss).tobytes(), (where, cat)
                    assert np.float64(dropped[cat][0]).tobytes() == np.float64(loss).tobytes(), (where, cat)
                    assert plain.heads[cat].data.tobytes() == ref.heads[cat].data.tobytes(), (where, cat)
                # a pass no backward follows is left holding nothing
                assert plain.activations == {} and plain.pool_maps == {} and plain.patches == {}, where
                seeds = loss_grads(bundle, ref, labels)
                with monkeypatch.context() as m:
                    weight_grads_always(m)
                    want = backward_multi(bundle, ref, seeds)
                # what the pass kept is exactly what backward reads
                for field in ("activations", "pool_maps", "patches"):
                    setattr(state, field, ReadLog(getattr(state, field)))
                with monkeypatch.context() as m:
                    calls = spy_weight_grads(m, names)
                    got = backward_multi(bundle, state, seeds)
                for field in ("activations", "pool_maps", "patches"):
                    assert getattr(state, field).read == set(getattr(state, field)), (where, field)
                # only a layer that trains gets its weight gradients computed
                assert all(asked == returned == (name in plan.trains) for name, asked, returned in calls), where
                frozen_above_trainable += sum(not asked for _, asked, _ in calls)
                assert set(got) == set(want), where
                for name, (gw, gb) in want.items():
                    assert got[name][0].data.tobytes() == gw.data.tobytes(), (where, name)
                    assert got[name][1].tobytes() == gb.tobytes(), (where, name)
        assert frozen_above_trainable >= 30

    def test_frozen_layers_above_a_trainable_conv_compute_no_weight_gradients(self, monkeypatch):
        import mhforge.tensor_ops as tensor_ops_mod

        # c1 and head_kind train; c2 and head_spot only pass gradients down to c1
        bundle = new_bundle(attach_heads(parse_netspec(ACCEPTANCE_BACKBONE), CATS, "g"), seed=0)
        bundle = training_only(bundle, {"c1", "head_kind"})
        names = {id(p): n for n, p in bundle.params.items()}
        _, labels = make_batch(n=2)
        images = Tensor(np.random.default_rng(4).uniform(0, 1, (2, 1, 34, 34)))
        state = forward_all(bundle, images, backward_plan(bundle))
        seeds = loss_grads(bundle, state, labels)
        with monkeypatch.context() as m:
            weight_grads_always(m)
            want = backward_multi(bundle, state, seeds)

        in_backward = []  # the layer whose backward is running
        patch_builds = []  # per _patch_matrix call: that layer, or None in a forward pass
        build = tensor_ops_mod._patch_matrix

        def spy_build(*args):
            patch_builds.append(in_backward[-1] if in_backward else None)
            return build(*args)

        calls = spy_weight_grads(monkeypatch, names)
        conv_backward = training_mod.conv2d_backward

        def conv_backward_in(x, params, *args, **kwargs):
            in_backward.append(names[id(params)])
            try:
                return conv_backward(x, params, *args, **kwargs)
            finally:
                in_backward.pop()

        monkeypatch.setattr(tensor_ops_mod, "_patch_matrix", spy_build)
        monkeypatch.setattr(training_mod, "conv2d_backward", conv_backward_in)
        state = forward_all(bundle, images, backward_plan(bundle))
        got = backward_multi(bundle, state, seeds)
        assert patch_builds == [None, None]  # c1 and c2 forward; c1 multiplies its kept matrix
        assert sorted(calls) == [("c1", True, True), ("c2", False, False), ("head_kind", True, True),
                                 ("head_spot", False, False)]
        assert set(got) == set(want) == {"c1", "head_kind"}
        for name, (gw, gb) in want.items():
            assert got[name][0].data.tobytes() == gw.data.tobytes(), name
            assert got[name][1].tobytes() == gb.tobytes(), name

    def test_finetune_shaped_steps_build_patches_once_and_skip_unread_input_gradients(self, monkeypatch):
        import mhforge.tensor_ops as tensor_ops_mod

        spec = finetune_shaped_spec()
        trains_c2 = new_bundle(spec, seed=0)
        heads_only = training_only(new_bundle(spec, seed=0), {"head_kind", "head_spot"})
        names = {id(p): n for bundle in (trains_c2, heads_only) for n, p in bundle.params.items()}

        patch_builds = []  # one entry per _patch_matrix call: was a backward op running?
        backward_calls = []  # (layer, input_grad, input gradient returned)
        in_backward = []
        build = tensor_ops_mod._patch_matrix

        def spy_build(*args):
            patch_builds.append(bool(in_backward))
            return build(*args)

        monkeypatch.setattr(tensor_ops_mod, "_patch_matrix", spy_build)
        for op in ("conv2d_backward", "fully_connected_backward"):
            def spy(x, params, *args, op=getattr(training_mod, op), **kwargs):
                in_backward.append(True)
                try:
                    result = op(x, params, *args, **kwargs)
                finally:
                    in_backward.pop()
                backward_calls.append((names[id(params)], kwargs["input_grad"], result[0] is not None))
                return result
            monkeypatch.setattr(training_mod, op, spy)

        _, labels = make_batch(n=2)
        images = Tensor(np.random.default_rng(3).uniform(0, 1, (2, 1, 34, 34)))
        heads = {"head_kind", "head_spot"}
        for _ in range(2):
            for bundle, trained in ((trains_c2, heads | {"c2"}), (heads_only, heads)):
                patch_builds.clear()
                backward_calls.clear()
                state = forward_all(bundle, images, backward_plan(bundle))
                grads = backward_multi(bundle, state, loss_grads(bundle, state, labels))
                assert set(grads) == trained
                assert patch_builds == [False, False]  # c1 and c2 forward, none in backward
                gx_read = "c2" in trained
                assert sorted(backward_calls) == sorted(
                    [(n, gx_read, gx_read) for n in heads] + [("c2", False, False)] * gx_read
                )
        assert backward_plan(trains_c2) == backward_plan(trains_c2)
        assert backward_plan(trains_c2).keeps_patches == {"c2"}
        assert backward_plan(heads_only).keeps_patches == frozenset()
        # a changed frozen flag gets the bundle a new plan
        heads_only = ModelBundle(spec, heads_only.params)
        assert backward_plan(heads_only).keeps_patches == {"c2"}

    @staticmethod
    def acceptance_entries(tmp_path):
        """Twelve random 34x34 images, each (kind, spot) combination twice: one image trains, one validates."""
        rng = np.random.default_rng(8)
        entries = []
        for i in range(12):
            path = str(tmp_path / f"img_{i:02d}.pgm")
            save_pgm(path, rng.uniform(0, 1, (34, 34)))
            entries.append(ManifestEntry(path, (i % 3, i // 3 % 2)))
        return entries

    def test_train_keeps_patches_on_training_batches_only(self, tmp_path, monkeypatch):
        entries = self.acceptance_entries(tmp_path)
        bundle = new_bundle(finetune_shaped_spec(), seed=0)
        names = {id(p): n for n, p in bundle.params.items()}

        phase = ["training"]
        seen = []  # (phase, conv layer, keep_patches) per conv forward
        conv = training_mod.conv2d_forward
        evaluate_arrays = training_mod._evaluate_arrays

        def spy_conv(x, params, *args, **kwargs):
            seen.append((phase[0], names[id(params)], kwargs.get("keep_patches", False)))
            return conv(x, params, *args, **kwargs)

        def spy_validation(*args):
            phase[0] = "validation"
            try:
                return evaluate_arrays(*args)
            finally:
                phase[0] = "training"

        monkeypatch.setattr(training_mod, "conv2d_forward", spy_conv)
        monkeypatch.setattr(training_mod, "_evaluate_arrays", spy_validation)
        train(bundle, entries, TrainConfig(epochs=2, batch_size=4, learning_rate=0.1, seed=0))
        # per epoch: two training batches of 4 and 2 images, then one validation chunk of 6
        epoch = [("training", "c1", False), ("training", "c2", True)] * 2
        epoch += [("validation", "c1", False), ("validation", "c2", False)]
        assert seen == epoch * 2

    def test_the_description_alone_decides_what_trains(self, tmp_path):
        entries = self.acceptance_entries(tmp_path)
        proposed = attach_heads(parse_netspec(ACCEPTANCE_BACKBONE), CATS, "g")
        frozen = new_bundle(proposed, seed=0)
        # c2 is unfrozen in the description only: the parameters are built for the spec that freezes it
        unfrozen = ModelBundle(finetune_shaped_spec(), new_bundle(proposed, seed=0).params)
        assert "c2" in backward_plan(unfrozen).trains
        assert "c2" not in backward_plan(frozen).trains

        def c2_bytes(bundle):
            return bundle.params["c2"].weights.data.tobytes() + bundle.params["c2"].bias.tobytes()

        before = c2_bytes(frozen)
        assert c2_bytes(unfrozen) == before
        config = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, seed=0)
        train(frozen, entries, config)
        train(unfrozen, entries, config)
        assert c2_bytes(frozen) == before
        assert c2_bytes(unfrozen) != before


class TestSgdStep:
    @staticmethod
    def one_param(w, b):
        weights = Tensor(np.full((1, 1, 1, 1), w, dtype=np.float64))
        return {"fc": LayerParams(weights, np.array([b], dtype=np.float64))}

    @staticmethod
    def grad(gw, gb):
        return {"fc": (Tensor(np.full((1, 1, 1, 1), gw, dtype=np.float64)), np.array([gb], dtype=np.float64))}

    def test_plain_step_without_momentum(self):
        params = self.one_param(1.0, 0.5)
        velocity = {}
        sgd_step(params, self.grad(2.0, 1.0), lr=0.1, momentum=0.0, velocity=velocity)
        assert params["fc"].weights.data.item() == pytest.approx(0.8, abs=1e-15)
        assert params["fc"].bias[0] == pytest.approx(0.4, abs=1e-15)

    def test_two_steps_follow_momentum_recurrence(self):
        # v1 = -lr*g = -0.2, w1 = 0.8; v2 = 0.9*v1 - lr*g = -0.38, w2 = 0.42
        params = self.one_param(1.0, 0.0)
        velocity = {}
        g = self.grad(2.0, 0.0)
        sgd_step(params, g, lr=0.1, momentum=0.9, velocity=velocity)
        assert params["fc"].weights.data.item() == pytest.approx(0.8, abs=1e-15)
        assert velocity["fc"][0].item() == pytest.approx(-0.2, abs=1e-15)
        sgd_step(params, g, lr=0.1, momentum=0.9, velocity=velocity)
        assert params["fc"].weights.data.item() == pytest.approx(0.42, abs=1e-15)
        assert velocity["fc"][0].item() == pytest.approx(-0.38, abs=1e-15)

    def test_zero_velocity_is_built_on_the_first_step_only(self, monkeypatch):
        built = []
        zeros_like = np.zeros_like
        monkeypatch.setattr(np, "zeros_like", lambda a: built.append(a.shape) or zeros_like(a))
        params = self.one_param(1.0, 0.5)
        velocity = {}
        for _ in range(3):
            sgd_step(params, self.grad(2.0, 1.0), lr=0.1, momentum=0.9, velocity=velocity)
        assert built == [(1, 1, 1, 1), (1,)]

    @pytest.mark.parametrize("lr,momentum", [(0.1, 0.9), (1.0, 0.0), (0.3, 0.5), (1e-3, 0.99)])
    def test_in_place_velocity_equals_the_momentum_recurrence(self, lr, momentum):
        # bit for bit against v <- momentum * v - lr * g; w <- w + v, over steps whose gradients hold
        # +0.0 and -0.0: some entries only ever get signed zeros, others get them once their velocity moved
        rng = np.random.default_rng(int(1000 * lr + 10 * momentum))
        w, b = rng.normal(size=(3, 4, 1, 1)), rng.normal(size=3)
        params = {"fc": LayerParams(Tensor(w.copy()), b.copy())}
        velocity = {}
        vw, vb = np.zeros_like(w), np.zeros_like(b)
        for step in range(4):
            gw, gb = rng.normal(size=w.shape), rng.normal(size=b.shape)
            gw.flat[:2] = (0.0, -0.0)
            gb[0] = -0.0 if step % 2 else 0.0
            if step >= 2:
                gw.flat[2:4] = (-0.0, 0.0)
                gb[1] = -0.0
            sgd_step(params, {"fc": (Tensor(gw), gb)}, lr, momentum, velocity)
            vw, vb = momentum * vw - lr * gw, momentum * vb - lr * gb
            w, b = w + vw, b + vb
            assert velocity["fc"][0].tobytes() == vw.tobytes() and velocity["fc"][1].tobytes() == vb.tobytes()
            assert params["fc"].weights.data.tobytes() == w.tobytes() and params["fc"].bias.tobytes() == b.tobytes()

    def test_updates_happen_in_place(self):
        params = self.one_param(1.0, 0.5)
        w_ref = params["fc"].weights.data
        b_ref = params["fc"].bias
        sgd_step(params, self.grad(2.0, 1.0), lr=0.1, momentum=0.0, velocity={})
        assert params["fc"].weights.data is w_ref
        assert params["fc"].bias is b_ref


def entry_block(combo, count, start):
    return [ManifestEntry(f"img_{start + i:03d}.pgm", combo) for i in range(count)]


class TestSplitEntries:
    def build(self):
        entries = []
        entries += entry_block((0, 0), 5, 0)
        entries += entry_block((0, 1), 5, 5)
        entries += entry_block((1, 0), 3, 10)
        entries += entry_block((1, 1), 1, 13)
        return entries

    def test_partition_is_disjoint_and_complete(self):
        entries = self.build()
        tr, va = split_entries(entries, 0.8, seed=0)
        tr_paths = {e.image_path for e in tr}
        va_paths = {e.image_path for e in va}
        assert tr_paths.isdisjoint(va_paths)
        assert tr_paths | va_paths == {e.image_path for e in entries}

    def test_per_combination_counts(self):
        entries = self.build()
        tr, va = split_entries(entries, 0.8, seed=0)

        def count(side, combo):
            return sum(1 for e in side if e.labels == combo)

        assert count(tr, (0, 0)) == 4 and count(va, (0, 0)) == 1
        assert count(tr, (0, 1)) == 4 and count(va, (0, 1)) == 1
        assert count(tr, (1, 0)) == 2 and count(va, (1, 0)) == 1
        assert count(tr, (1, 1)) == 1 and count(va, (1, 1)) == 0

    def test_every_multi_member_combination_lands_in_both_sides(self):
        entries = self.build()
        tr, va = split_entries(entries, 0.5, seed=9)
        for combo in ((0, 0), (0, 1), (1, 0)):
            assert any(e.labels == combo for e in tr)
            assert any(e.labels == combo for e in va)

    def test_same_seed_reproduces_membership(self):
        entries = self.build()
        assert split_entries(entries, 0.8, seed=4) == split_entries(entries, 0.8, seed=4)

    def test_relabeled_dataset_splits_identically(self):
        # a one-to-one relabeling of the label tuples must not move any image
        entries = self.build()
        spec_backbone = parse_netspec("input name=d shape=4x1x1\n")
        cats = LabelCategories(("r", "c"), (("0", "1"), ("0", "1")))
        _, hc_map = build_hard_coded(
            spec_backbone, cats, [e.labels for e in entries], "d"
        )
        converted = convert_manifest_hc(entries, hc_map)
        tr_a, va_a = split_entries(entries, 0.8, seed=21)
        tr_b, va_b = split_entries(converted, 0.8, seed=21)
        assert [e.image_path for e in tr_a] == [e.image_path for e in tr_b]
        assert [e.image_path for e in va_a] == [e.image_path for e in va_b]

    def test_order_preserved_within_sides(self):
        entries = self.build()
        tr, va = split_entries(entries, 0.8, seed=1)
        paths = [e.image_path for e in entries]
        assert [e.image_path for e in tr] == sorted(
            (e.image_path for e in tr), key=paths.index
        )
        assert [e.image_path for e in va] == sorted(
            (e.image_path for e in va), key=paths.index
        )


PIXEL_NET = """\
input name=img shape=1x2x2
conv name=feat in=img out_channels=4 kernel=2
fc name=head_row in=feat out=2 head=row in_features=4
loss name=loss_row in=head_row label=row
accuracy name=acc_row in=head_row label=row
fc name=head_col in=feat out=2 head=col in_features=4
loss name=loss_col in=head_col label=col
accuracy name=acc_col in=head_col label=col
"""

PIXEL_CATS = LabelCategories(("row", "col"), (("top", "bottom"), ("left", "right")))


@pytest.fixture(scope="module")
def pixel_dataset(tmp_path_factory):
    """2x2 images with a single bright pixel; labels are its row and column."""
    root = tmp_path_factory.mktemp("pixels")
    rng = np.random.default_rng(42)
    entries = []
    i = 0
    for row in (0, 1):
        for col in (0, 1):
            for _ in range(6):
                img = rng.normal(0.0, 0.05, (2, 2))
                img[row, col] += 1.0
                img = np.clip(img, 0.0, 1.0)
                path = os.path.join(root, f"img_{i:03d}.pgm")
                save_pgm(path, img)
                entries.append(ManifestEntry(path, (row, col)))
                i += 1
    return entries


def pixel_bundle(seed=7):
    spec = bind_categories(parse_netspec(PIXEL_NET), PIXEL_CATS)
    return new_bundle(spec, seed=seed)


class TestTrain:
    CFG = TrainConfig(epochs=25, batch_size=8, learning_rate=0.3, momentum=0.9, seed=5, split_fraction=0.75)

    def test_zero_epochs_changes_nothing(self, pixel_dataset):
        bundle = pixel_bundle()
        before = {n: (p.weights.data.copy(), p.bias.copy()) for n, p in bundle.params.items()}
        _, log = train(bundle, pixel_dataset, TrainConfig(epochs=0))
        assert log.records == []
        for n, p in bundle.params.items():
            assert np.array_equal(p.weights.data, before[n][0])
            assert np.array_equal(p.bias, before[n][1])

    def test_learns_pixel_position(self, pixel_dataset):
        bundle, log = train(pixel_bundle(), pixel_dataset, self.CFG)
        assert len(log.records) == 25
        assert [r.epoch for r in log.records] == list(range(1, 26))
        first, last = log.records[0], log.records[-1]
        for cat in ("row", "col"):
            assert last.train_loss[cat] < first.train_loss[cat]
            assert last.val_acc[cat] >= 0.9

    def test_training_is_deterministic(self, pixel_dataset):
        b1, log1 = train(pixel_bundle(seed=7), pixel_dataset, self.CFG)
        b2, log2 = train(pixel_bundle(seed=7), pixel_dataset, self.CFG)
        for name in b1.params:
            assert np.array_equal(b1.params[name].weights.data, b2.params[name].weights.data)
            assert np.array_equal(b1.params[name].bias, b2.params[name].bias)
        assert [r.train_loss for r in log1.records] == [r.train_loss for r in log2.records]
        assert [r.val_acc for r in log1.records] == [r.val_acc for r in log2.records]

    def test_frozen_backbone_stays_bit_identical(self, pixel_dataset):
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        bundle = new_bundle(attach_heads(backbone, PIXEL_CATS, "feat"), seed=1)
        conv_w = bundle.params["feat"].weights.data.copy()
        conv_b = bundle.params["feat"].bias.copy()
        head_w = bundle.params["head_row"].weights.data.copy()
        train(bundle, pixel_dataset, TrainConfig(epochs=3, batch_size=8, seed=0))
        assert np.array_equal(bundle.params["feat"].weights.data, conv_w)
        assert np.array_equal(bundle.params["feat"].bias, conv_b)
        assert not np.array_equal(bundle.params["head_row"].weights.data, head_w)

    def test_evaluate_matches_final_validation_record(self, pixel_dataset):
        bundle, log = train(pixel_bundle(), pixel_dataset, self.CFG)
        _, val_set = split_entries(pixel_dataset, self.CFG.split_fraction, self.CFG.seed)
        metrics = evaluate(bundle, val_set)
        last = log.records[-1]
        for cat in ("row", "col"):
            assert metrics[cat][0] == pytest.approx(last.val_loss[cat], abs=1e-12)
            assert metrics[cat][1] == pytest.approx(last.val_acc[cat], abs=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainError, match="dataset is empty"):
            train(pixel_bundle(), [], TrainConfig(epochs=1))

    @pytest.mark.parametrize(
        "batch_size,where",
        [(2, r"epoch 1, batch [1-8] of 8"), (8, r"epoch 1, validation")],  # 16 training images
        ids=["batch", "validation"],
    )
    def test_diverging_loss_names_epoch_batch_and_head(self, pixel_dataset, batch_size, where):
        config = TrainConfig(epochs=2, batch_size=batch_size, learning_rate=1e308, seed=5, split_fraction=0.75)
        with np.errstate(all="ignore"), pytest.raises(TrainError) as raised:
            train(pixel_bundle(), pixel_dataset, config)
        assert re.fullmatch(rf"training diverged in {where}: head (row|col) loss is (inf|nan)", str(raised.value))

    @pytest.mark.parametrize(
        "batch_size,where",
        [(2, r"epoch 1, batch [1-8] of 8"), (8, r"epoch 1, validation")],
        ids=["batch", "validation"],
    )
    def test_diverging_loss_is_the_one_report(self, pixel_dataset, batch_size, where):
        # no numpy RuntimeWarning (overflow, invalid value) comes before the TrainError
        config = TrainConfig(epochs=2, batch_size=batch_size, learning_rate=1e308, seed=5, split_fraction=0.75)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainError, match=rf"training diverged in {where}: head (row|col) loss is (inf|nan)"):
                train(pixel_bundle(), pixel_dataset, config)

    def test_label_arity_mismatch_rejected(self, pixel_dataset):
        bad = [ManifestEntry(pixel_dataset[0].image_path, (0,))]
        with pytest.raises(TrainError, match="1 labels for 2 categories"):
            train(pixel_bundle(), bad, TrainConfig(epochs=1))

    def test_unbound_categories_rejected(self, pixel_dataset):
        bundle = new_bundle(parse_netspec(PIXEL_NET), seed=0)
        with pytest.raises(TrainError, match="no bound label categories"):
            train(bundle, pixel_dataset, TrainConfig(epochs=1))

    def test_single_head_model_trains_identically_to_its_shared_head(self, pixel_dataset):
        # same split, same zero head init, same batch order, frozen trunk:
        # the shared model's head and the standalone model coincide exactly
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        cfg = TrainConfig(epochs=4, batch_size=8, seed=3)
        shared = new_bundle(attach_heads(backbone, PIXEL_CATS, "feat"), seed=1)
        shared, shared_log = train(shared, pixel_dataset, cfg)
        for spec in build_two_model(backbone, PIXEL_CATS, "feat"):
            cat = spec.categories.names[0]
            single = new_bundle(spec, seed=1)
            single, single_log = train(single, pixel_dataset, cfg, manifest_categories=PIXEL_CATS)
            name = f"head_{cat}"
            assert np.array_equal(
                single.params[name].weights.data, shared.params[name].weights.data
            )
            assert np.array_equal(single.params[name].bias, shared.params[name].bias)
            assert [r.val_acc[cat] for r in single_log.records] == [
                r.val_acc[cat] for r in shared_log.records
            ]

    def test_manifest_categories_must_cover_model_categories(self, pixel_dataset):
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        spec = attach_heads(backbone, PIXEL_CATS.subset(["row"]), "feat")
        bundle = new_bundle(spec, seed=0)
        other = LabelCategories(("hue", "size"), (("r", "g"), ("s", "l")))
        with pytest.raises(MhforgeError, match="unknown category 'row'"):
            train(bundle, pixel_dataset, TrainConfig(epochs=1), manifest_categories=other)

    def test_evaluate_projects_shared_manifest(self, pixel_dataset):
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        spec = attach_heads(backbone, PIXEL_CATS.subset(["col"]), "feat")
        bundle = new_bundle(spec, seed=2)
        whole = evaluate(bundle, pixel_dataset, manifest_categories=PIXEL_CATS)
        col = PIXEL_CATS.index("col")
        projected = evaluate(bundle, [ManifestEntry(e.image_path, (e.labels[col],)) for e in pixel_dataset])
        assert whole == projected

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_wrong_label_count_names_the_image(self, pixel_dataset, run):
        # a single-head model over the shared two-column manifest, one entry of which has only its own column
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        bundle = new_bundle(attach_heads(backbone, PIXEL_CATS.subset(["col"]), "feat"), seed=0)
        bad = ManifestEntry(pixel_dataset[5].image_path, (1,))
        entries = [*pixel_dataset[:5], bad, *pixel_dataset[6:]]
        with pytest.raises(TrainError, match=re.escape(f"{bad.image_path}: 1 labels for 2 categories")):
            if run == "train":
                train(bundle, entries, TrainConfig(epochs=1), manifest_categories=PIXEL_CATS)
            else:
                evaluate(bundle, entries, manifest_categories=PIXEL_CATS)

    @staticmethod
    def spy_passes(monkeypatch):
        """Records every forward_all call, and runs none."""
        passes = []
        monkeypatch.setattr(training_mod, "forward_all", lambda *args: passes.append(args))
        return passes

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    @pytest.mark.parametrize("label", [2, 9, -1])
    def test_out_of_range_label_is_refused_before_any_pass(self, pixel_dataset, monkeypatch, run, label):
        # col has two classes: 2 is one past the last
        passes = self.spy_passes(monkeypatch)
        bad = ManifestEntry(pixel_dataset[7].image_path, (pixel_dataset[7].labels[0], label))
        entries = [*pixel_dataset[:7], bad, *pixel_dataset[8:]]
        want = f"{bad.image_path}: category 'col' label {label} out of range [0, 2)"
        with pytest.raises(TrainError, match=f"^{re.escape(want)}$"):
            if run == "train":
                train(pixel_bundle(), entries, TrainConfig(epochs=2))
            else:
                evaluate(pixel_bundle(), entries)
        assert passes == []

    def test_first_of_several_bad_labels_is_named(self, pixel_dataset, monkeypatch):
        passes = self.spy_passes(monkeypatch)
        entries = list(pixel_dataset)
        for i, label in ((3, 3), (9, -1), (12, 9)):
            entries[i] = ManifestEntry(entries[i].image_path, (label, 0))
        want = f"{entries[3].image_path}: category 'row' label 3 out of range [0, 2)"
        with pytest.raises(TrainError, match=f"^{re.escape(want)}$"):
            evaluate(pixel_bundle(), entries)
        assert passes == []

    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_a_column_the_model_does_not_score_is_not_checked(self, pixel_dataset, run):
        # a single-head col model over the shared two-column manifest, one of whose row labels is out of range
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        bundle = new_bundle(attach_heads(backbone, PIXEL_CATS.subset(["col"]), "feat"), seed=0)
        entries = list(pixel_dataset)
        entries[5] = ManifestEntry(entries[5].image_path, (9, entries[5].labels[1]))
        if run == "train":
            train(bundle, entries, TrainConfig(epochs=1), manifest_categories=PIXEL_CATS)
        else:
            assert set(evaluate(bundle, entries, manifest_categories=PIXEL_CATS)) == {"col"}


def hc_pixel_model(entries, seed):
    backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
    spec, hc_map = build_hard_coded(backbone, PIXEL_CATS, [e.labels for e in entries], "feat")
    return new_bundle(spec, seed=seed), hc_map


def assert_hc_matches_manual_decode_and_marginals(bundle, hc_map, entries, result):
    """evaluate's result with an HC map against one whole-set forward pass, decoded and marginalised by hand."""
    images = load_images(entries)
    state = forward_all(bundle, images)
    head_name = bundle.spec.categories.names[0]
    logits = state.heads[head_name].data.reshape(len(entries), -1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)

    combos = np.array(hc_map.combos)
    true = np.array([e.labels for e in entries])
    true_ids = np.array([hc_encode(hc_map, e.labels) for e in entries])
    pred_ids = logits.argmax(axis=1)

    want_loss = float(np.mean(-np.log(probs[np.arange(len(true_ids)), true_ids])))
    want_acc = float(np.mean(pred_ids == true_ids))
    assert result[head_name][0] == pytest.approx(want_loss, abs=1e-10)
    assert result[head_name][1] == pytest.approx(want_acc, abs=1e-10)

    decoded = combos[pred_ids]
    for k, cat in enumerate(PIXEL_CATS.names):
        want_cat_acc = float(np.mean(decoded[:, k] == true[:, k]))
        mass = np.array(
            [probs[i, combos[:, k] == true[i, k]].sum() for i in range(len(true))]
        )
        want_cat_loss = float(np.mean(-np.log(mass)))
        assert result[cat][1] == pytest.approx(want_cat_acc, abs=1e-10)
        assert result[cat][0] == pytest.approx(want_cat_loss, abs=1e-10)


class TestEvaluateHc:
    def test_matches_manual_decode_and_marginals(self, pixel_dataset):
        bundle, hc_map = hc_pixel_model(pixel_dataset, seed=9)
        result = evaluate(bundle, pixel_dataset, PIXEL_CATS, hc_map=hc_map)
        assert_hc_matches_manual_decode_and_marginals(bundle, hc_map, pixel_dataset, result)

    def test_confident_wrong_prediction_has_finite_category_loss(self, pixel_dataset):
        # every image gets logit 1000 on combination 0 and 0 elsewhere: where the true
        # class differs from combination 0's, the softmax mass on it underflows to 0
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        spec, hc_map = build_hard_coded(backbone, PIXEL_CATS, [e.labels for e in pixel_dataset], "feat")
        bundle = new_bundle(spec, seed=0)
        (head,) = spec.heads()
        bundle.params[head.name].weights.data[:] = 0.0
        bundle.params[head.name].bias[:] = 0.0
        bundle.params[head.name].bias[0] = 1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = evaluate(bundle, pixel_dataset, PIXEL_CATS, hc_map=hc_map)
        for k, cat in enumerate(PIXEL_CATS.names):
            winner = hc_map.combos[0][k]
            # -log(sum of e^0 over the combinations holding the true class) + log(e^1000 + ...)
            want = [
                0.0 if e.labels[k] == winner else 1000.0 - math.log(sum(c[k] == e.labels[k] for c in hc_map.combos))
                for e in pixel_dataset
            ]
            assert any(want)
            assert result[cat][0] == pytest.approx(sum(want) / len(want), rel=1e-12)
            assert result[cat][1] == pytest.approx(
                np.mean([e.labels[k] == winner for e in pixel_dataset]), abs=1e-12
            )

    def test_per_category_accuracy_at_least_combined(self, pixel_dataset):
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        observed = [e.labels for e in pixel_dataset]
        spec, hc_map = build_hard_coded(backbone, PIXEL_CATS, observed, "feat")
        bundle = new_bundle(spec, seed=31)
        result = evaluate(bundle, pixel_dataset, PIXEL_CATS, hc_map=hc_map)
        for cat in PIXEL_CATS.names:
            assert result[cat][1] >= result[spec.categories.names[0]][1]

    def test_empty_dataset_rejected(self, pixel_dataset):
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        spec, hc_map = build_hard_coded(
            backbone, PIXEL_CATS, [e.labels for e in pixel_dataset], "feat"
        )
        with pytest.raises(TrainError, match="dataset is empty"):
            evaluate(new_bundle(spec, seed=0), [], PIXEL_CATS, hc_map=hc_map)

    def test_one_category_map_keeps_the_merged_heads_scores(self, pixel_dataset):
        # with one category, the merged category has that category's name
        cats = PIXEL_CATS.subset(["row"])
        entries = [ManifestEntry(e.image_path, e.labels[:1]) for e in pixel_dataset]
        backbone = parse_netspec("\n".join(PIXEL_NET.splitlines()[:2]) + "\n")
        spec, hc_map = build_hard_coded(backbone, cats, [e.labels for e in entries], "feat")
        bundle = with_random_heads(new_bundle(spec, seed=0), seed=2)
        result = evaluate(bundle, entries, cats, hc_map=hc_map)
        assert result == evaluate(bundle, convert_manifest_hc(entries, hc_map))

    @pytest.mark.parametrize("change", ["renumbered", "extended", "truncated"])
    def test_map_that_is_not_the_models_is_refused(self, pixel_dataset, change):
        bundle, hc_map = hc_pixel_model(pixel_dataset, seed=9)
        combos = hc_map.combos
        other = {
            "renumbered": combos[1:] + combos[:1],
            "extended": combos + ((0, 5),),
            "truncated": combos[:-1],
        }[change]
        with pytest.raises(TrainError, match="HC map does not match the model"):
            evaluate(bundle, pixel_dataset, PIXEL_CATS, hc_map=HcLabelMap(other))

    # `train --hc-map` converts its manifest with convert_manifest_hc; `eval --hc-map` runs evaluate with the map
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unobserved_combination_names_the_image(self, tmp_path, command):
        entries = []
        for i, combo in enumerate([(0, 0), (1, 1), (0, 0), (1, 1), (0, 1)]):
            path = str(tmp_path / f"img_{i}.pgm")
            save_pgm(path, np.full((2, 2), i / 8))
            entries.append(ManifestEntry(path, combo))
        bundle, hc_map = hc_pixel_model(entries[:4], seed=0)
        want = re.escape(f"{entries[4].image_path}: combination (0, 1) was never observed")
        with pytest.raises(SurgeryError, match=want):
            if command == "train":
                convert_manifest_hc(entries, hc_map)
            else:
                evaluate(bundle, entries, PIXEL_CATS, hc_map=hc_map)


def with_random_heads(bundle, seed):
    """Normal(0, 1) head weights and biases, so that every image gets its own logits."""
    rng = np.random.default_rng(seed)
    for lay in bundle.spec.heads():
        p = bundle.params[lay.name]
        p.weights.data[:] = rng.normal(0.0, 1.0, p.weights.shape)
        p.bias[:] = rng.normal(0.0, 1.0, p.bias.shape)
    return bundle


class TestChunkBoundaries:
    """With EVAL_CHUNK at 5, the 24 pixel images are scored in chunks of 5, 5, 5, 5 and 4."""

    @pytest.fixture(autouse=True)
    def five_image_chunks(self, monkeypatch):
        monkeypatch.setattr(training_mod, "EVAL_CHUNK", 5)

    @pytest.fixture
    def passes(self, monkeypatch):
        """(batch size, run under NO_BACKWARD) of every forward_all call the training module makes."""
        seen = []

        def spy(bundle, images, plan=training_mod.NO_BACKWARD):
            seen.append((images.shape[0], plan is training_mod.NO_BACKWARD))
            return forward_all(bundle, images, plan)

        monkeypatch.setattr(training_mod, "forward_all", spy)
        return seen

    def test_evaluate_matches_one_whole_set_pass(self, pixel_dataset, passes):
        bundle = with_random_heads(pixel_bundle(), seed=4)
        labels = {c: np.array([e.labels[k] for e in pixel_dataset]) for k, c in enumerate(PIXEL_CATS.names)}
        whole = score_heads(bundle, forward_all(bundle, load_images(pixel_dataset)).heads, labels)
        metrics = evaluate(bundle, pixel_dataset)
        assert passes == [(5, True)] * 4 + [(4, True)]
        for cat in PIXEL_CATS.names:
            assert metrics[cat][0] == pytest.approx(whole[cat][0], abs=1e-12)
            assert metrics[cat][1] == pytest.approx(whole[cat][1], abs=1e-12)

    def test_evaluate_hc_matches_manual_decode_and_marginals(self, pixel_dataset, passes):
        bundle, hc_map = hc_pixel_model(pixel_dataset, seed=9)
        result = evaluate(with_random_heads(bundle, seed=5), pixel_dataset, PIXEL_CATS, hc_map=hc_map)
        assert passes == [(5, True)] * 4 + [(4, True)]
        assert_hc_matches_manual_decode_and_marginals(bundle, hc_map, pixel_dataset, result)

    def test_validation_is_scored_in_chunks_after_each_epoch(self, pixel_dataset, passes):
        # split_fraction 0.75 leaves 16 training images (batches 8, 8) and 8 validation images (chunks 5, 3)
        config = TrainConfig(epochs=2, batch_size=8, seed=5, split_fraction=0.75)
        bundle, log = train(pixel_bundle(), pixel_dataset, config)
        epoch = [(8, False), (8, False), (5, True), (3, True)]
        assert passes == epoch * 2
        _, val_set = split_entries(pixel_dataset, 0.75, 5)
        metrics = evaluate(bundle, val_set)
        for cat in PIXEL_CATS.names:
            assert metrics[cat] == (log.records[-1].val_loss[cat], log.records[-1].val_acc[cat])


class TestPassSize:
    """Evaluation scores each category once over the whole set, so its result does not depend on EVAL_CHUNK."""

    @pytest.fixture(scope="class")
    def synthetic(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("synthetic"))
        entries, cats = generate_synthetic(SyntheticConfig(samples_per_combo=4, seed=2), root)
        return with_base(entries, root), cats  # 64 images of 34x34

    @staticmethod
    def proposed(cats, seed):
        return with_random_heads(new_bundle(attach_heads(parse_netspec(ACCEPTANCE_BACKBONE), cats, "g"), seed=0), seed)

    def test_evaluate_is_bit_identical_at_every_pass_size(self, synthetic, monkeypatch):
        entries, cats = synthetic
        entries = entries[3:]  # 61 images: every pass size below 64 leaves a short last pass
        bundle = self.proposed(cats, seed=1)
        hc_spec, hc_map = build_hard_coded(parse_netspec(ACCEPTANCE_BACKBONE), cats, [e.labels for e in entries], "g")
        hc_bundle = with_random_heads(new_bundle(hc_spec, seed=0), seed=2)
        results = {}
        for chunk in (4, 8, 16, 64):
            monkeypatch.setattr(training_mod, "EVAL_CHUNK", chunk)
            results[chunk] = (evaluate(bundle, entries), evaluate(hc_bundle, entries, cats, hc_map=hc_map))
        for chunk, result in results.items():
            # holds only while each image's logits are bitwise the same at every pass size, which a BLAS
            # build whose GEMM rows depend on the number of rows would break
            assert result == results[8], f"EVAL_CHUNK {chunk} scores differ from EVAL_CHUNK 8"
        labels = {c: np.array([e.labels[k] for e in entries]) for k, c in enumerate(cats.names)}
        whole = score_heads(bundle, forward_all(bundle, load_images(entries)).heads, labels)
        assert results[8][0] == {c: whole[c][:2] for c in cats.names}

    def test_validation_equals_evaluate_of_the_validation_side_at_any_pass_size(self, synthetic, monkeypatch):
        entries, cats = synthetic
        config = TrainConfig(epochs=1, learning_rate=0.3, seed=0)
        bundle, log = train(self.proposed(cats, seed=3), entries, config)
        record = log.records[-1]
        _, val_set = split_entries(entries, config.split_fraction, config.seed)
        for chunk in (4, 64):
            monkeypatch.setattr(training_mod, "EVAL_CHUNK", chunk)
            assert evaluate(bundle, val_set) == {c: (record.val_loss[c], record.val_acc[c]) for c in cats.names}

    def test_evaluate_working_set_stays_small(self, synthetic):
        entries, cats = synthetic
        bundle = self.proposed(cats, seed=4)
        evaluate(bundle, entries)  # the conv gather indices are cached per geometry on first use
        tracemalloc.start()
        try:
            evaluate(bundle, entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000, f"one evaluate of 64 images peaked at {peak} traced bytes"


class TestRasterPasses:
    """Labelled image sets are held as uint8 rasters; every pass scales its own rows to load_images' pixels."""

    def test_arrays_hold_one_byte_per_pixel(self, pixel_dataset):
        rasters, _ = training_mod._arrays(pixel_dataset, PIXEL_CATS, PIXEL_CATS)
        assert rasters.dtype == np.uint8
        assert rasters.nbytes == len(pixel_dataset) * 2 * 2

    @pytest.mark.parametrize("cut", ["training_batches", "eval_chunks"])
    def test_each_pass_input_equals_the_float_stack_rows(self, pixel_dataset, monkeypatch, cut):
        monkeypatch.setattr(training_mod, "EVAL_CHUNK", 5)
        monkeypatch.setattr(training_mod, "forward_all", lambda bundle, images, plan: images)
        rasters, _ = training_mod._arrays(pixel_dataset, PIXEL_CATS, PIXEL_CATS)
        floats = load_images(pixel_dataset).data
        order = epoch_order(len(pixel_dataset), 3)
        # training cuts the epoch order into index arrays; evaluation takes EVAL_CHUNK slices
        batches = [order[start : start + 8] for start in range(0, len(order), 8)] if cut == "training_batches" else None
        seen = list(training_mod._passes(pixel_bundle(), rasters, batches))
        assert len(seen) == {"training_batches": 3, "eval_chunks": 5}[cut]
        for rows, images in seen:
            assert images.data.dtype == np.float64
            assert images.data.tobytes() == floats[rows].tobytes()
        assert sorted(np.concatenate([np.arange(len(floats))[rows] for rows, _ in seen])) == list(range(len(floats)))


class TestModelBytesMatchTensordotConv:
    """Two epochs of training write the same model file with the GEMM convolution as with
    the tensordot convolution it replaced; the float64 parameters are equal bit for bit too.
    The NCHW oracle stands in for the channels-last op through layout copies."""

    @pytest.fixture(scope="class")
    def synthetic(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("synthetic"))
        entries, cats = generate_synthetic(SyntheticConfig(samples_per_combo=3, seed=1), root)
        return with_base(entries, root), cats

    @staticmethod
    def trained(spec, entries, path):
        bundle, _ = train(new_bundle(spec, seed=0), entries, TrainConfig(epochs=2, learning_rate=0.3, seed=0))
        save_model(bundle, str(path))
        params = {name: (p.weights.data.tobytes(), p.bias.tobytes()) for name, p in bundle.params.items()}
        return path.read_bytes(), params

    # proposed: the acceptance backbone frozen under its heads; finetune-shaped: c2 trains too
    @pytest.mark.parametrize("trained_convs", [(), ("c2",)], ids=["proposed", "finetune_shaped"])
    def test_two_epochs(self, synthetic, trained_convs, monkeypatch, tmp_path):
        entries, cats = synthetic
        spec = attach_heads(parse_netspec(ACCEPTANCE_BACKBONE), cats, "g")
        layers = tuple(dataclasses.replace(l, frozen=False) if l.name in trained_convs else l for l in spec.layers)
        spec = dataclasses.replace(spec, layers=layers)
        got = self.trained(spec, entries, tmp_path / "gemm.mhf")

        calls = []
        for op, ref in (
            ("conv2d_forward", channels_last_conv2d_forward),
            ("conv2d_backward", channels_last_conv2d_backward),
        ):
            monkeypatch.setattr(training_mod, op, lambda *a, op=op, ref=ref, **kw: calls.append(op) or ref(*a, **kw))
        want = self.trained(spec, entries, tmp_path / "tensordot.mhf")

        assert "conv2d_forward" in calls
        assert ("conv2d_backward" in calls) == bool(trained_convs)
        assert got[0] == want[0]
        assert got[1] == want[1]


def relu_beside_frontier_spec(cats):
    """The proposed spec without r2, so that g has negative entries, and with its second head frozen behind a
    relu of g: that relu reads g last, so a pass that let it write in place would change g's rows."""
    backbone = ACCEPTANCE_BACKBONE.replace("relu name=r2 in=c2\n", "").replace("in=r2", "in=c2")
    spec = attach_heads(parse_netspec(backbone), cats, "g")
    second = spec.heads()[1]
    layers = []
    for lay in spec.layers:
        if lay is second:
            layers.append(LayerSpec(name="rg", kind="relu", inputs=("g",)))
            lay = dataclasses.replace(lay, inputs=("rg",), frozen=True)
        layers.append(lay)
    return dataclasses.replace(spec, layers=tuple(layers))


def frozen_head_below_frontier_spec(cats, sinks):
    """A frozen shape head over a pool of p1, defined before c2, and a trained position head over g. Its loss and
    accuracy lines follow the head ("beside_head") or come after every other line ("last")."""
    n_shape, n_position = cats.class_counts
    shape_sinks = "loss name=loss_shape in=head_shape label=shape\naccuracy name=acc_shape in=head_shape label=shape\n"
    text = ACCEPTANCE_BACKBONE.replace(
        "conv name=c2",
        "gavgpool name=gp in=p1\n"
        f"fc name=head_shape in=gp out={n_shape} head=shape frozen=true\n"
        + (shape_sinks if sinks == "beside_head" else "")
        + "conv name=c2",
    )
    text += f"fc name=head_position in=g out={n_position} head=position\n"
    text += "loss name=loss_position in=head_position label=position\n"
    text += "accuracy name=acc_position in=head_position label=position\n"
    text += shape_sinks if sinks == "last" else ""
    spec = bind_categories(parse_netspec(text), cats)
    layers = tuple(dataclasses.replace(l, frozen=l.name != "head_position") if l.has_params else l for l in spec.layers)
    return dataclasses.replace(spec, layers=layers)


class TestFrontierCache:
    """`train` runs a frozen backbone once per image and caches the frontier's outputs where that saves work."""

    @pytest.fixture(scope="class")
    def synthetic(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("synthetic"))
        entries, cats = generate_synthetic(SyntheticConfig(samples_per_combo=3, seed=1), root)
        # 46 images: 31 train and 15 validate, so batches of 5, 8 and 16 and 8-image chunks all end short
        return with_base(entries, root)[2:], cats

    @staticmethod
    def variant(name, entries, cats):
        """(bundle, entries, manifest categories) for training one acceptance variant."""
        backbone = parse_netspec(ACCEPTANCE_BACKBONE)
        if name == "proposed":
            return new_bundle(attach_heads(backbone, cats, "g"), seed=0), entries, None
        if name == "two_model":
            return new_bundle(build_two_model(backbone, cats, "g")[1], seed=0), entries, cats
        if name == "hard_coded":
            spec, hc_map = build_hard_coded(backbone, cats, [e.labels for e in entries], "g")
            return new_bundle(spec, seed=0), convert_manifest_hc(entries, hc_map), None
        if name == "relu_beside_frontier":
            return new_bundle(relu_beside_frontier_spec(cats), seed=0), entries, None
        return new_bundle(finetune_shaped_spec(cats), seed=0), entries, None

    @staticmethod
    def trained(bundle, entries, manifest_categories, config, path):
        bundle, log = train(bundle, entries, config, manifest_categories)
        save_model(bundle, str(path))
        params = {name: (p.weights.data.tobytes(), p.bias.tobytes()) for name, p in bundle.params.items()}
        rows = [line.rsplit(",", 1)[0] for line in log.to_csv().splitlines()]  # every column but `seconds`
        return path.read_bytes(), params, rows

    @pytest.mark.parametrize("batch_size", [5, 8, 16])
    @pytest.mark.parametrize("name", ["proposed", "two_model", "hard_coded", "relu_beside_frontier"])
    def test_cached_training_equals_uncached(self, synthetic, name, batch_size, monkeypatch, tmp_path):
        config = TrainConfig(epochs=2, batch_size=batch_size, learning_rate=0.3, seed=0)
        bundle, entries, manifest_categories = self.variant(name, *synthetic)
        prefix, net = training_mod._frontier(bundle, backward_plan(bundle), config.epochs)
        assert prefix.spec.layers[-1].name == net.spec.layers[0].name == "g"
        cached = self.trained(bundle, entries, manifest_categories, config, tmp_path / "cached.mhf")

        monkeypatch.setattr(training_mod, "_frontier", lambda *args: None)
        bundle, entries, manifest_categories = self.variant(name, *synthetic)
        uncached = self.trained(bundle, entries, manifest_categories, config, tmp_path / "uncached.mhf")
        # holds only while each image's frontier row and head logits are bitwise the same in any batch, which a
        # BLAS build whose GEMM rows depend on the rows beside them would break
        assert cached[0] == uncached[0], "model file bytes differ"
        assert cached[1] == uncached[1], "float64 parameters differ"
        assert cached[2] == uncached[2], "trainlog differs outside the seconds column"

    @pytest.mark.parametrize("sinks", ["beside_head", "last"])
    def test_a_head_below_the_frontier_leaves_the_network_whole(self, synthetic, sinks, monkeypatch, tmp_path):
        entries, cats = synthetic
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.3, seed=0)
        bundle = new_bundle(frozen_head_below_frontier_spec(cats, sinks), seed=0)
        plan = backward_plan(bundle)
        assert plan.trains == {"head_position"} and plan.keeps == {"g"}
        assert training_mod._frontier(bundle, plan, config.epochs) is None
        trained = self.trained(bundle, entries, None, config, tmp_path / "trained.mhf")

        monkeypatch.setattr(training_mod, "_frontier", lambda *args: None)
        bundle = new_bundle(frozen_head_below_frontier_spec(cats, sinks), seed=0)
        assert trained == self.trained(bundle, entries, None, config, tmp_path / "whole.mhf")

    @staticmethod
    def spy_forward_ops(monkeypatch, bundle):
        """Per conv and fc forward call: (layer, input rows as bytes)."""
        names = {id(p): n for n, p in bundle.params.items()}
        calls = []
        for op in ("conv2d_forward", "fully_connected"):
            def spy(x, params, *args, op=getattr(training_mod, op), **kwargs):
                calls.append((names[id(params)], [row.tobytes() for row in x.data]))
                return op(x, params, *args, **kwargs)
            monkeypatch.setattr(training_mod, op, spy)
        return calls

    def test_a_cached_train_runs_each_image_through_the_backbone_once(self, synthetic, monkeypatch):
        bundle, entries, _ = self.variant("proposed", *synthetic)
        calls = self.spy_forward_ops(monkeypatch, bundle)
        config = TrainConfig(epochs=3, batch_size=5, learning_rate=0.3, seed=0)
        train(bundle, entries, config)
        c1_rows = [row for layer, rows in calls if layer == "c1" for row in rows]
        assert len(c1_rows) == len(set(c1_rows)) == len(entries) == 46
        assert sum(layer == "c1" for layer, _ in calls) == math.ceil(31 / 8) + math.ceil(15 / 8)
        for head in ("head_shape", "head_position"):
            # per epoch: 7 training batches, then 2 validation chunks
            assert sum(layer == head for layer, _ in calls) == 3 * (math.ceil(31 / 5) + math.ceil(15 / 8))

    def test_a_traced_cached_train_attributes_every_op_and_writes_the_same_model(self, synthetic, tmp_path):
        config = TrainConfig(epochs=2, batch_size=5, learning_rate=0.3, seed=0)
        bundle, entries, _ = self.variant("proposed", *synthetic)
        plain = self.trained(bundle, entries, None, config, tmp_path / "plain.mhf")
        bundle, entries, _ = self.variant("proposed", *synthetic)
        with Tracer() as tracer:
            tracer.begin_op()
            traced = self.trained(bundle, entries, None, config, tmp_path / "traced.mhf")
            tracer.end_op()
        assert traced[0] == plain[0]
        assert not [key for key in tracer.layers if key[0].startswith("unattributed")]
        forward = {layer: [0, 0] for layer in ("c1", "head_shape", "head_position")}  # layer -> [calls, rows]
        for (layer, direction, n), span in tracer.layers.items():
            if direction == "fwd" and layer in forward:
                forward[layer][0] += span.calls
                forward[layer][1] += span.calls * n
        assert forward["c1"][1] == len({e.image_path for e in entries}) == 46
        assert tracer.passes_per_image == 1.0
        for head in ("head_shape", "head_position"):
            # per epoch: 7 training batches of 5 or fewer, then 2 validation chunks
            assert forward[head][0] == config.epochs * (math.ceil(31 / 5) + math.ceil(15 / 8))

    def test_a_cached_train_checks_each_label_column_once_and_builds_no_more_tensors(self, synthetic, monkeypatch):
        checked = []
        check_labels = training_mod._check_labels

        def spy(entries, cat, column, classes):
            checked.append((cat, len(column), classes))
            check_labels(entries, cat, column, classes)

        monkeypatch.setattr(training_mod, "_check_labels", spy)
        bundle, entries, _ = self.variant("proposed", *synthetic)
        with Tracer() as tracer:
            train(bundle, entries, TrainConfig(epochs=2, batch_size=5, learning_rate=0.3, seed=0))
        # counted on this train while score_logits still checked its labels on every head of every batch
        assert tracer.tensors <= 174
        # 4 + 2 prefix passes, then per epoch 7 training batches and 2 validation chunks
        assert tracer.spans["training.forward_all"].calls == 24
        # once per label column per side of the split, not per head and batch
        assert sorted(checked) == [("position", 15, 4), ("position", 31, 4), ("shape", 15, 4), ("shape", 31, 4)]

    @pytest.mark.parametrize(
        "name,epochs", [("finetune_shaped", 3), ("pixel", 3), ("proposed", 0), ("proposed", 1)]
    )
    def test_where_a_cache_saves_nothing_every_epoch_runs_the_backbone(
        self, synthetic, pixel_dataset, name, epochs, monkeypatch
    ):
        # finetune_shaped: the frontier p1 holds 18,496 bytes per image against the raster's 1,156
        # pixel: c1 trains, so the frontier is the input, eight times the raster's bytes
        if name == "pixel":
            bundle, entries = pixel_bundle(), pixel_dataset
        else:
            bundle, entries, _ = self.variant(name, *synthetic)
        conv = next(lay.name for lay in bundle.spec.layers if lay.kind == "conv")
        assert training_mod._frontier(bundle, backward_plan(bundle), epochs) is None
        calls = self.spy_forward_ops(monkeypatch, bundle)
        train(bundle, entries, TrainConfig(epochs=epochs, batch_size=5, learning_rate=0.1, seed=0))
        assert sum(len(rows) for layer, rows in calls if layer == conv) == epochs * len(entries)

    @pytest.mark.parametrize("name", ["proposed", "relu_beside_frontier"])
    def test_cached_rows_equal_a_fresh_prefix_pass_after_training(self, synthetic, name, monkeypatch):
        bundle, entries, _ = self.variant(name, *synthetic)
        cached = []
        frontier_rows = training_mod._frontier_rows

        def keep(prefix, rasters):
            rows = frontier_rows(prefix, rasters)
            cached.append((rasters, rows))
            return rows

        monkeypatch.setattr(training_mod, "_frontier_rows", keep)
        train(bundle, entries, TrainConfig(epochs=3, batch_size=8, learning_rate=0.3, seed=0))
        assert [len(rows) for _, rows in cached] == [31, 15]
        plan = backward_plan(bundle)  # its backward reads g, so the whole-network pass keeps g
        for rasters, rows in cached:
            for first in range(0, len(rasters), 8):
                images = Tensor(rasters[first : first + 8] / 255.0)
                fresh = forward_all(bundle, images, plan).activations["g"].data.transpose(0, 3, 1, 2)
                assert rows[first : first + 8].tobytes() == fresh.tobytes()

    def test_the_net_refuses_rows_of_the_wrong_shape(self):
        bundle = variant_bundles()["proposed"]
        _, net = training_mod._frontier(bundle, backward_plan(bundle), 2)
        for shape, got in (((2, 15, 1, 1), "15x1x1"), ((2, 1, 1, 16), "1x1x16")):
            want = f"batch images are {got} but the network expects (16, 1, 1)"
            with pytest.raises(TrainError, match=re.escape(want)):
                forward_all(net, Tensor(np.zeros(shape)))

    def test_epoch_one_seconds_include_the_frontier_pass(self, synthetic, monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(training_mod, "time", type("Clock", (), {"perf_counter": staticmethod(lambda: clock[0])}))
        frontier_rows = training_mod._frontier_rows

        def slow(*args):
            clock[0] += 1000.0
            return frontier_rows(*args)

        monkeypatch.setattr(training_mod, "_frontier_rows", slow)
        bundle, entries, _ = self.variant("proposed", *synthetic)
        _, log = train(bundle, entries, TrainConfig(epochs=3, learning_rate=0.3, seed=0))
        assert [r.seconds for r in log.records] == [2000.0, 0.0, 0.0]


class TestPredictIds:
    def test_matches_argmax_per_head_in_category_order(self):
        bundle = make_bundle()
        images, _ = make_batch(n=4)
        state = forward_all(bundle, images)
        got = predict_ids(bundle, images)
        assert len(got) == 2
        for ids, cat in zip(got, CATS.names):
            logits = state.heads[cat].data.reshape(4, -1)
            assert np.array_equal(ids, logits.argmax(axis=1))


class TestTrainLog:
    def test_csv_layout(self):
        log = TrainLog(("kind", "spot"))
        log.records.append(
            EpochRecord(
                epoch=1,
                train_loss={"kind": 1.0986, "spot": 0.6931},
                train_acc={"kind": 0.5, "spot": 0.75},
                val_loss={"kind": 1.2, "spot": 0.7},
                val_acc={"kind": 0.25, "spot": 0.5},
                seconds=0.1234,
            )
        )
        text = log.to_csv()
        lines = text.splitlines()
        assert lines[0] == (
            "epoch,train_loss_kind,train_loss_spot,train_acc_kind,train_acc_spot,"
            "val_loss_kind,val_loss_spot,val_acc_kind,val_acc_spot,seconds"
        )
        assert lines[1] == (
            "1,1.098600,0.693100,0.500000,0.750000,1.200000,0.700000,0.250000,0.500000,0.123"
        )
        assert text.endswith("\n")
