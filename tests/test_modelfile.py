"""Model file round-trips, byte-exact sizing, and corruption handling."""

import dataclasses
import re
import struct
import warnings

import numpy as np
import pytest

from helpers import model_file_bytes

from mhforge.dataset import LabelCategories
from mhforge.modelfile import (
    FORMAT_VERSION,
    MAGIC,
    ModelFileError,
    header_bytes,
    load_model,
    new_bundle,
    parse_label_maps,
    save_model,
    serialize_label_maps,
)
from mhforge.netspec import bind_categories, parse_netspec, serialize_netspec

SMALL = """\
input name=data shape=1x8x8
conv name=c1 in=data out_channels=2 kernel=3 stride=1 pad=1 frozen=true
relu name=r1 in=c1
gavgpool name=g in=r1
fc name=head_a in=g out=3 head=a
fc name=head_b in=g out=2 head=b
loss name=loss_a in=head_a label=a weight=1.0
loss name=loss_b in=head_b label=b weight=1.0
accuracy name=acc_a in=head_a label=a
accuracy name=acc_b in=head_b label=b
"""


def small_bundle(seed=0):
    cats = LabelCategories(("a", "b"), (("a0", "a1", "a2"), ("b0", "b1")))
    spec = bind_categories(parse_netspec(SMALL), cats)
    return new_bundle(spec, seed=seed)


def param_count(bundle):
    return sum(p.weights.data.size + p.bias.size for p in bundle.params.values())


class TestLabelMaps:
    def test_round_trip(self):
        cats = LabelCategories(("a", "b"), (("x", "y"), ("p", "q", "r")))
        assert serialize_label_maps(cats) == "category a\n0: x\n1: y\ncategory b\n0: p\n1: q\n2: r\n"
        assert parse_label_maps(serialize_label_maps(cats)) == cats

    def test_comma_joined_names_survive(self):
        cats = LabelCategories(("a+b",), (("0,0", "0,1", "1,0"),))
        assert parse_label_maps(serialize_label_maps(cats)) == cats

    def test_empty(self):
        assert serialize_label_maps(None) == ""
        assert parse_label_maps("") is None

    def test_out_of_order_index(self):
        with pytest.raises(ModelFileError, match="out of order"):
            parse_label_maps("category a\n1: x\n")

    def test_class_before_header(self):
        with pytest.raises(ModelFileError, match="before any category header"):
            parse_label_maps("0: x\n")


class TestNewBundle:
    def test_deterministic(self):
        a, b = small_bundle(7), small_bundle(7)
        for name in a.params:
            assert np.array_equal(a.params[name].weights.data, b.params[name].weights.data)

    def test_seed_matters(self):
        a, b = small_bundle(1), small_bundle(2)
        assert not np.array_equal(a.params["c1"].weights.data, b.params["c1"].weights.data)

    def test_frozen_flags_follow_spec(self):
        b = small_bundle()
        assert b.params["c1"].frozen
        assert not b.params["head_a"].frozen

    def test_label_maps_from_binding(self):
        b = small_bundle()
        assert b.spec.categories == LabelCategories(("a", "b"), (("a0", "a1", "a2"), ("b0", "b1")))

    def test_classifier_heads_start_at_zero(self):
        b = small_bundle()
        for name in ("head_a", "head_b"):
            assert np.all(b.params[name].weights.data == 0.0)
            assert np.all(b.params[name].bias == 0.0)
        assert np.any(b.params["c1"].weights.data != 0.0)

    def test_plain_fc_layers_get_random_weights(self):
        spec = parse_netspec(
            "input name=d shape=4x1x1\nfc name=f in=d out=3 in_features=4\n"
        )
        b = new_bundle(spec, seed=5)
        assert np.any(b.params["f"].weights.data != 0.0)


class TestSaveLoad:
    def test_byte_count_equals_file_length_and_estimate(self, tmp_path):
        b = small_bundle()
        path = str(tmp_path / "m.mhf")
        written = save_model(b, path)
        assert written == (tmp_path / "m.mhf").stat().st_size
        assert written == header_bytes(b.spec) + 4 * param_count(b)

    def test_round_trip_within_f32(self, tmp_path):
        b = small_bundle(3)
        path = str(tmp_path / "m.mhf")
        save_model(b, path)
        back = load_model(path)
        assert back.spec == b.spec
        assert back.spec.categories == b.spec.categories
        for name in b.params:
            orig = b.params[name]
            got = back.params[name]
            assert got.frozen == orig.frozen
            assert np.max(np.abs(got.weights.data - orig.weights.data)) < 1e-7
            assert np.array_equal(got.bias, orig.bias)  # zeros are exact in f32

    def test_save_load_save_byte_identical(self, tmp_path):
        b = small_bundle(11)
        p1, p2 = str(tmp_path / "1.mhf"), str(tmp_path / "2.mhf")
        save_model(b, p1)
        save_model(load_model(p1), p2)
        assert (tmp_path / "1.mhf").read_bytes() == (tmp_path / "2.mhf").read_bytes()

    def test_zero_param_spec(self, tmp_path):
        spec = parse_netspec("input name=d shape=1x8x8\ngavgpool name=g in=d\n")
        b = new_bundle(spec)
        path = str(tmp_path / "hdr.mhf")
        assert save_model(b, path) == header_bytes(spec)
        assert load_model(path).params == {}

    def test_save_refuses_weights_float32_cannot_hold(self, tmp_path):
        b = small_bundle()
        b.params["head_b"].weights.data[1, 0, 0, 0] = 1e40  # finite in float64, inf in float32
        path = tmp_path / "m.mhf"
        with pytest.raises(ModelFileError, match="layer head_b: weights or bias are not finite"):
            save_model(b, str(path))
        assert not path.exists()

    def test_load_rebinds_categories(self, tmp_path):
        b = small_bundle()
        path = str(tmp_path / "m.mhf")
        save_model(b, path)
        back = load_model(path)
        assert back.spec.categories is not None
        assert back.spec.categories.class_counts == (3, 2)

    def test_load_refuses_a_category_no_head_classifies(self, tmp_path):
        b = small_bundle()
        extra = LabelCategories(("a", "b", "c"), (("a0", "a1", "a2"), ("b0", "b1"), ("c0", "c1")))
        b.spec = dataclasses.replace(b.spec, categories=extra)
        path = str(tmp_path / "m.mhf")
        save_model(b, path)
        with pytest.raises(ModelFileError, match=rf"{re.escape(path)}: label maps name categories no head classifies: \['c'\]"):
            load_model(path)


class TestCorruption:
    def saved(self, tmp_path):
        path = tmp_path / "m.mhf"
        save_model(small_bundle(), str(path))
        return path

    def test_bad_magic(self, tmp_path):
        p = self.saved(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(b"NOTMODEL" + blob[8:])
        with pytest.raises(ModelFileError, match="bad magic"):
            load_model(str(p))

    def test_version_mismatch(self, tmp_path):
        p = self.saved(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[8:12] = struct.pack("<I", FORMAT_VERSION + 5)
        p.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="format version 6 not supported"):
            load_model(str(p))

    def test_truncated_weights(self, tmp_path):
        p = self.saved(tmp_path)
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ModelFileError, match="truncated file"):
            load_model(str(p))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "h.mhf"
        p.write_bytes(MAGIC + b"\x01")
        with pytest.raises(ModelFileError, match="truncated file while reading format version"):
            load_model(str(p))

    def test_trailing_garbage(self, tmp_path):
        p = self.saved(tmp_path)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(ModelFileError, match="2 trailing bytes"):
            load_model(str(p))

    @pytest.mark.parametrize("what", ["network description", "label maps"])
    def test_text_that_is_not_utf8_names_the_file_and_the_text(self, tmp_path, what):
        p = self.saved(tmp_path)
        blob = bytearray(p.read_bytes())
        # the description text starts after magic, version and its length; the maps text after it and its length
        at = 16 if what == "network description" else 20 + len(serialize_netspec(small_bundle().spec).encode())
        blob[at] = 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match=rf"{re.escape(str(p))}: {what} is not UTF-8 text"):
            load_model(str(p))

    @pytest.mark.parametrize(
        "what,spec_text,maps_text,message",
        [
            ("network description", "inpt name=data shape=1x8x8\n", "", "line 1, col 1: unknown kind 'inpt'"),
            ("label maps", SMALL, "category a\n", "category a has no classes"),
            ("label maps", SMALL, "category a\n0: x\n1: x\n2: y\ncategory b\n0: p\n1: q\n", "duplicate class names"),
            ("label maps", SMALL, "0: x\n", "label maps line 1: class line before any category header"),
            ("label maps", SMALL, "category a\n0: x\n1: y\ncategory b\n0: p\n1: q\n", "head head_a: out=3"),
        ],
        ids=["unknown-kind", "no-classes", "duplicate-class", "class-before-header", "class-count-mismatch"],
    )
    def test_bad_text_names_the_file_and_the_text(self, tmp_path, what, spec_text, maps_text, message):
        p = tmp_path / "m.mhf"
        p.write_bytes(model_file_bytes(spec_text, maps_text))
        with pytest.raises(ModelFileError, match=rf"^{re.escape(str(p))}: {what}: .*{re.escape(message)}"):
            load_model(str(p))

    @pytest.mark.parametrize("layer,value", [("c1", float("nan")), ("head_b", float("inf"))])
    def test_non_finite_parameter_names_its_layer(self, tmp_path, layer, value):
        p = self.saved(tmp_path)
        blob = bytearray(p.read_bytes())
        # the first weight of c1 opens the payload; the last bias of head_b closes the file
        at = header_bytes(small_bundle().spec) if layer == "c1" else len(blob) - 4
        blob[at : at + 4] = struct.pack("<f", value)
        p.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match=f"layer {layer} holds non-finite weights or bias"):
            load_model(str(p))

    def test_signalling_nan_is_refused_without_a_numpy_warning(self, tmp_path):
        p = self.saved(tmp_path)
        blob = bytearray(p.read_bytes())
        at = header_bytes(small_bundle().spec)
        blob[at : at + 4] = struct.pack("<I", 0x7FA00000)  # float32 signalling NaN: the first weight of c1
        p.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFileError, match="layer c1 holds non-finite weights or bias"):
                load_model(str(p))
