"""Parser, shape validator, serializer round-trips, liveness (through training's pass program), and category binding."""

import dataclasses

import numpy as np
import pytest

from mhforge.dataset import LabelCategories
from mhforge.errors import MhforgeError
from mhforge.netspec import (
    NetspecError,
    ParseError,
    ValidationError,
    bind_categories,
    parse_netspec,
    serialize_netspec,
    validate_shapes,
)
from mhforge.modelfile import new_bundle
from mhforge.tensor_ops import Tensor, glorot_uniform, he_normal
from mhforge.training import _pass_program, forward_all

from helpers import random_spec_text

TINYNET = """\
input name=data shape=3x32x32
conv name=c1 in=data out_channels=8 kernel=3 stride=1 pad=1
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
conv name=c2 in=p1 out_channels=16 kernel=3 stride=1 pad=1
relu name=r2 in=c2
maxpool name=p2 in=r2 kernel=2 stride=2
gavgpool name=g in=p2
fc name=head_make in=g out=48 head=make
fc name=head_type in=g out=8 head=type
loss name=loss_make in=head_make label=make weight=1.0
loss name=loss_type in=head_type label=type weight=1.0
accuracy name=acc_make in=head_make label=make
accuracy name=acc_type in=head_type label=type
"""


class TestParse:
    def test_tinynet(self):
        spec = parse_netspec(TINYNET)
        assert len(spec.layers) == 14
        assert spec.input_shape == (3, 32, 32)
        assert [h.head_tag for h in spec.heads()] == ["make", "type"]
        assert spec.layer("c1").out_channels == 8
        assert spec.layer("loss_make").loss_weight == 1.0

    def test_empty_text(self):
        with pytest.raises(ParseError, match="no input layer"):
            parse_netspec("")

    def test_comments_and_blanks(self):
        spec = parse_netspec("# full comment line\n\ninput name=d shape=1x8x8  # trailing\n")
        assert len(spec.layers) == 1

    def test_kernel_zero(self):
        with pytest.raises(ParseError, match="kernel must be >= 1"):
            parse_netspec("input name=d shape=1x8x8\nconv name=c1 in=d kernel=0\n")

    def test_duplicate_name(self):
        text = "input name=d shape=1x8x8\nrelu name=d in=d\n"
        with pytest.raises(ParseError, match="duplicate name 'd'"):
            parse_netspec(text)

    def test_unknown_kind_reports_position(self):
        with pytest.raises(ParseError, match="line 2, col 1: unknown kind 'convv'"):
            parse_netspec("input name=d shape=1x8x8\nconvv name=c in=d\n")

    def test_dangling_reference(self):
        with pytest.raises(ParseError, match="references undefined layer 'nope'"):
            parse_netspec("input name=d shape=1x8x8\nrelu name=r in=nope\n")

    def test_forward_reference_rejected(self):
        text = "input name=d shape=1x8x8\nrelu name=r1 in=r2\nrelu name=r2 in=d\n"
        with pytest.raises(ParseError, match="undefined layer 'r2'"):
            parse_netspec(text)

    def test_second_input(self):
        with pytest.raises(ParseError, match="second input layer"):
            parse_netspec("input name=a shape=1x8x8\ninput name=b shape=1x8x8\n")

    def test_missing_required_key(self):
        with pytest.raises(ParseError, match="conv 'c' is missing kernel=, out_channels="):
            parse_netspec("input name=d shape=1x8x8\nconv name=c in=d\n")

    def test_unknown_key_for_kind(self):
        with pytest.raises(ParseError, match="relu does not take 'kernel'"):
            parse_netspec("input name=d shape=1x8x8\nrelu name=r in=d kernel=3\n")

    def test_bad_integer(self):
        with pytest.raises(ParseError, match="kernel must be an integer"):
            parse_netspec("input name=d shape=1x8x8\nconv name=c in=d out_channels=1 kernel=x\n")

    def test_bad_shape(self):
        with pytest.raises(ParseError, match="shape must be CxHxW"):
            parse_netspec("input name=d shape=8x8\n")

    def test_nonpositive_weight(self):
        base = "input name=d shape=1x8x8\nfc name=f in=d out=2 head=a\n"
        with pytest.raises(ParseError, match="weight must be a finite positive number"):
            parse_netspec(base + "loss name=l in=f label=a weight=0\n")
        with pytest.raises(ParseError, match="weight must be a finite positive number"):
            parse_netspec(base + "loss name=l in=f label=a weight=nan\n")

    def test_token_without_equals(self):
        with pytest.raises(ParseError, match="expected key=value, got 'shape'"):
            parse_netspec("input name=d shape\n")

    def test_frozen_flag(self):
        spec = parse_netspec("input name=d shape=1x8x8\nconv name=c in=d out_channels=1 kernel=3 frozen=true\n")
        assert spec.layer("c").frozen

    def test_maxpool_stride_defaults_to_kernel(self):
        spec = parse_netspec("input name=d shape=1x8x8\nmaxpool name=p in=d kernel=2\n")
        assert spec.layer("p").stride == 2

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(0, 120))
            blob = bytes(rng.integers(0, 256, n, dtype=np.uint8)).decode("latin-1")
            try:
                parse_netspec(blob)
            except NetspecError:
                pass


class TestValidate:
    def test_conv_and_fc_draw_from_their_kinds_initialiser(self):
        spec = parse_netspec(TINYNET)
        assert spec.layer("c1").initialiser is he_normal
        assert spec.layer("head_make").initialiser is glorot_uniform

    def test_tinynet_shapes(self):
        spec = parse_netspec(TINYNET)
        shapes = validate_shapes(spec)
        assert shapes["g"] == (16, 1, 1)
        assert shapes["head_make"] == (48, 1, 1)
        assert shapes["p2"] == (16, 8, 8)
        assert "loss_make" not in shapes

    def test_identity_padding_preserves_dims(self):
        spec = parse_netspec("input name=d shape=3x9x11\nconv name=c in=d out_channels=4 kernel=3 stride=1 pad=1\n")
        assert validate_shapes(spec)["c"] == (4, 9, 11)

    def test_floor_semantics(self):
        spec = parse_netspec("input name=d shape=1x5x5\nconv name=c in=d out_channels=1 kernel=2 stride=2\n")
        assert validate_shapes(spec)["c"] == (1, 2, 2)

    def test_fc_in_features_mismatch(self):
        text = "input name=d shape=2x4x4\nfc name=f in=d out=3 in_features=16\n"
        with pytest.raises(ValidationError, match="f: fc expected input dim 16, found 32"):
            validate_shapes(parse_netspec(text))

    def test_conv_too_big_names_arithmetic(self):
        text = "input name=d shape=1x4x4\nconv name=c in=d out_channels=1 kernel=7\n"
        with pytest.raises(ValidationError, match="layer c: conv output"):
            validate_shapes(parse_netspec(text))

    def test_pool_window_exceeds_input(self):
        text = "input name=d shape=1x4x4\nmaxpool name=p in=d kernel=5\n"
        with pytest.raises(ValidationError, match="pool window 5 exceeds"):
            validate_shapes(parse_netspec(text))

    def test_loss_on_non_fc(self):
        text = "input name=d shape=1x4x4\nrelu name=r in=d\nloss name=l in=r label=a\n"
        with pytest.raises(ValidationError, match="loss must consume an fc layer"):
            validate_shapes(parse_netspec(text))

    def test_loss_on_untagged_fc(self):
        text = "input name=d shape=1x4x4\nfc name=f in=d out=2\nloss name=l in=f label=a\n"
        with pytest.raises(ValidationError, match="has no head= tag"):
            validate_shapes(parse_netspec(text))

    def test_label_head_tag_mismatch(self):
        text = "input name=d shape=1x4x4\nfc name=f in=d out=2 head=a\nloss name=l in=f label=b\n"
        with pytest.raises(ValidationError, match="label 'b' does not match head tag 'a'"):
            validate_shapes(parse_netspec(text))

    def test_loss_without_accuracy(self):
        text = "input name=d shape=1x4x4\nfc name=f in=d out=2 head=a\nloss name=l in=f label=a\n"
        with pytest.raises(ValidationError, match="every loss layer needs exactly one accuracy"):
            validate_shapes(parse_netspec(text))

    def test_consuming_a_loss_layer(self):
        text = (
            "input name=d shape=1x4x4\nfc name=f in=d out=2 head=a\n"
            "loss name=l in=f label=a\nrelu name=r in=l\n"
        )
        with pytest.raises(ValidationError, match="produces no tensor"):
            validate_shapes(parse_netspec(text))


class TestSerialize:
    def test_tinynet_round_trip(self):
        spec = parse_netspec(TINYNET)
        again = parse_netspec(serialize_netspec(spec))
        assert again == spec

    def test_single_input_round_trip(self):
        spec = parse_netspec("input name=only shape=5x7x9\n")
        assert parse_netspec(serialize_netspec(spec)) == spec

    def test_random_specs_round_trip(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            spec = parse_netspec(random_spec_text(rng))
            validate_shapes(spec)
            assert parse_netspec(serialize_netspec(spec)) == spec

    def test_serialization_is_canonical(self):
        # defaults are made explicit, so serializing twice is a fixed point
        text = "input name=d shape=1x8x8\nconv name=c in=d out_channels=2 kernel=3\nmaxpool name=p in=c kernel=2\n"
        once = serialize_netspec(parse_netspec(text))
        assert serialize_netspec(parse_netspec(once)) == once
        assert "stride=1 pad=0" in once


class TestLastReads:
    """Liveness as the pass program `training` builds for a spec states it, in the spec's `pass_programs` slot."""

    @staticmethod
    def dropped(spec, keeps=frozenset()):
        return tuple(d for _, _, _, d in _pass_program(spec, keeps).steps)

    def test_tinynet(self):
        # each output is done with at its last reader; an output nothing reads, at its own layer.
        # The loss and accuracy sinks are not steps, so a head is done with at once.
        spec = parse_netspec(TINYNET)
        steps = _pass_program(spec, frozenset()).steps
        assert [lay.name for _, lay, _, _ in steps] == [l.name for l in spec.layers if l.kind not in ("loss", "accuracy")]
        assert [src for _, _, src, _ in steps] == [None, "data", "c1", "r1", "p1", "c2", "r2", "p2", "g", "g"]
        backbone = ((), ("data",), ("c1",), ("r1",), ("p1",), ("c2",), ("r2",), ("p2",))
        assert self.dropped(spec) == backbone + (("head_make",), ("g", "head_type"))
        # a kept output is never dropped
        assert self.dropped(spec, frozenset({"c1", "g"})) == (
            (), ("data",), (), ("r1",), ("p1",), ("c2",), ("r2",), ("p2",), ("head_make",), ("head_type",)
        )

    def test_replace_recomputes(self):
        spec = parse_netspec(TINYNET)
        forward_all(new_bundle(spec, seed=0), Tensor.zeros((1, 3, 32, 32)))
        assert set(spec.pass_programs) == {frozenset()}
        trunk = dataclasses.replace(spec, layers=spec.layers[:8])
        assert trunk.pass_programs == {}
        forward_all(new_bundle(trunk, seed=0), Tensor.zeros((1, 3, 32, 32)))
        assert tuple(d for _, _, _, d in trunk.pass_programs[frozenset()].steps) == (
            (), ("data",), ("c1",), ("r1",), ("p1",), ("c2",), ("r2",), ("p2", "g")
        )
        # the slot is not compared, hashed, printed or serialized
        fresh = parse_netspec(TINYNET)
        assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
        assert serialize_netspec(spec) == serialize_netspec(fresh)


class TestBindCategories:
    def cats(self):
        return LabelCategories(
            ("make", "type"),
            (tuple(f"m{i}" for i in range(48)), tuple(f"t{i}" for i in range(8))),
        )

    def test_bind_tinynet(self):
        spec = bind_categories(parse_netspec(TINYNET), self.cats())
        assert spec.categories.names == ("make", "type")
        assert spec.categories.class_counts == (48, 8)

    def test_bind_drops_unreferenced(self):
        extra = LabelCategories(
            ("make", "color", "type"),
            (tuple(f"m{i}" for i in range(48)), ("red", "blue"), tuple(f"t{i}" for i in range(8))),
        )
        spec = bind_categories(parse_netspec(TINYNET), extra)
        assert spec.categories.names == ("make", "type")

    def test_bind_wrong_count(self):
        bad = LabelCategories(("make", "type"), (("a", "b"), tuple(f"t{i}" for i in range(8))))
        with pytest.raises(ValidationError, match="head head_make: out=48 but category make has 2"):
            bind_categories(parse_netspec(TINYNET), bad)

    def test_bind_missing_category(self):
        only = LabelCategories(("make",), (tuple(f"m{i}" for i in range(48)),))
        with pytest.raises(MhforgeError, match="unknown categories \\['type'\\]"):
            bind_categories(parse_netspec(TINYNET), only)

    def test_headless_spec_rejected(self):
        spec = parse_netspec("input name=d shape=1x8x8\n")
        with pytest.raises(ValidationError, match="no head fc layers"):
            bind_categories(spec, self.cats())
