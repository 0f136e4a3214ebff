"""Variant construction: head attachment, two-model split, hard-coded label space."""

import pytest

from mhforge.dataset import LabelCategories, ManifestEntry
from mhforge.netspec import parse_netspec, serialize_netspec, validate_shapes
from mhforge.surgery import (
    HcLabelMap,
    SurgeryError,
    attach_heads,
    build_hard_coded,
    build_two_model,
    convert_manifest_hc,
    freeze_layers,
    hc_categories,
    hc_encode,
    parse_hc_map,
    serialize_hc_map,
)

BACKBONE = """\
input name=data shape=1x8x8
conv name=c1 in=data out_channels=2 kernel=3 stride=1 pad=1
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
gavgpool name=g in=p1
"""

WIDE = "input name=data shape=1024x1x1\n"


def cats_ab():
    return LabelCategories(("a", "b"), (("a0", "a1", "a2"), ("b0", "b1")))


def cats_wide():
    return LabelCategories(
        ("make", "type"),
        (tuple(f"m{i}" for i in range(48)), tuple(f"t{i}" for i in range(8))),
    )


class TestAttachHeads:
    def test_structure(self):
        spec = attach_heads(parse_netspec(BACKBONE), cats_ab(), "g")
        assert [h.name for h in spec.heads()] == ["head_a", "head_b"]
        assert [h.out_features for h in spec.heads()] == [3, 2]
        assert len(spec.losses()) == 2
        assert len(spec.accuracies()) == 2
        assert spec.categories.names == ("a", "b")
        validate_shapes(spec)

    def test_backbone_frozen_heads_not(self):
        spec = attach_heads(parse_netspec(BACKBONE), cats_ab(), "g")
        assert spec.layer("c1").frozen
        assert not spec.layer("head_a").frozen
        assert not spec.layer("head_b").frozen

    def test_serialized_backbone_prefix_unchanged(self):
        backbone = parse_netspec(BACKBONE)
        spec = attach_heads(backbone, cats_ab(), "g")
        assert serialize_netspec(spec).startswith(serialize_netspec(freeze_layers(backbone)))

    def test_head_param_arithmetic(self):
        spec = attach_heads(parse_netspec(WIDE), cats_wide(), "data")
        heads = spec.heads()
        total = sum(1024 * h.out_features + h.out_features for h in heads)
        assert total == 57400
        assert all(h.in_features == 1024 for h in heads)

    def test_single_category(self):
        one = LabelCategories(("only",), (("x", "y", "z"),))
        spec = attach_heads(parse_netspec(BACKBONE), one, "g")
        assert len(spec.heads()) == 1
        assert len(spec.losses()) == 1

    def test_missing_feature_layer(self):
        with pytest.raises(SurgeryError, match="missing feature layer 'nope'"):
            attach_heads(parse_netspec(BACKBONE), cats_ab(), "nope")

    def test_tiny_category_rejected(self):
        bad = LabelCategories(("a",), (("only",),))
        with pytest.raises(SurgeryError, match="category a has 1 class"):
            attach_heads(parse_netspec(BACKBONE), bad, "g")

    def test_backbone_with_heads_rejected(self):
        spec = attach_heads(parse_netspec(BACKBONE), cats_ab(), "g")
        with pytest.raises(SurgeryError, match="already has classification heads"):
            attach_heads(spec, cats_ab(), "g")

    def test_non_flat_feature_layer(self):
        with pytest.raises(SurgeryError, match="yields 2x4x4, not a flat vector"):
            attach_heads(parse_netspec(BACKBONE), cats_ab(), "p1")

    def test_name_collision(self):
        text = BACKBONE + "fc name=head_a in=g out=5\n"
        with pytest.raises(SurgeryError, match="already has a layer named 'head_a'"):
            attach_heads(parse_netspec(text), cats_ab(), "g")


class TestTwoModel:
    def test_one_spec_per_category(self):
        specs = build_two_model(parse_netspec(WIDE), cats_wide(), "data")
        assert [s.heads()[0].out_features for s in specs] == [48, 8]
        assert [s.categories.names for s in specs] == [("make",), ("type",)]
        for s in specs:
            validate_shapes(s)

    def test_single_category_equals_attach(self):
        one = LabelCategories(("only",), (("x", "y"),))
        assert build_two_model(parse_netspec(BACKBONE), one, "g") == [
            attach_heads(parse_netspec(BACKBONE), one, "g")
        ]


class TestHardCoded:
    def observed(self):
        return [(0, 0), (0, 1), (1, 0), (2, 1), (0, 0)]  # one duplicate

    def test_build(self):
        spec, hc_map = build_hard_coded(parse_netspec(BACKBONE), cats_ab(), self.observed(), "g")
        assert hc_map.combos == ((0, 0), (0, 1), (1, 0), (2, 1))
        assert spec.heads()[0].out_features == 4
        assert spec.categories.names == ("a+b",)
        assert spec.categories.class_names[0] == ("0,0", "0,1", "1,0", "2,1")

    def test_full_product(self):
        observed = [(i, j) for i in range(3) for j in range(2)]
        spec, hc_map = build_hard_coded(parse_netspec(BACKBONE), cats_ab(), observed, "g")
        assert len(hc_map.combos) == 6
        assert spec.heads()[0].out_features == 6

    def test_single_combo_rejected(self):
        with pytest.raises(SurgeryError, match="HC requires at least 2 classes"):
            build_hard_coded(parse_netspec(BACKBONE), cats_ab(), [(0, 0), (0, 0)], "g")

    def test_empty_observed(self):
        with pytest.raises(SurgeryError, match="observed combination set is empty"):
            build_hard_coded(parse_netspec(BACKBONE), cats_ab(), [], "g")

    def test_out_of_range(self):
        with pytest.raises(SurgeryError, match="label 9 out of range for category b"):
            build_hard_coded(parse_netspec(BACKBONE), cats_ab(), [(0, 9), (0, 0)], "g")

    def test_wrong_arity(self):
        with pytest.raises(SurgeryError, match="has 3 labels, expected 2"):
            build_hard_coded(parse_netspec(BACKBONE), cats_ab(), [(0, 0, 0)], "g")


class TestHcMap:
    def the_map(self):
        return HcLabelMap(((0, 0), (0, 1), (1, 0), (2, 1)))

    def test_lexicographic_first_is_zero(self):
        assert hc_encode(self.the_map(), (0, 0)) == 0

    def test_round_trip_all(self):
        m = self.the_map()
        for combo in m.combos:
            assert m.combos[hc_encode(m, combo)] == combo

    def test_index_is_built_once(self):
        m = self.the_map()
        assert m.index is m.index
        assert m.index == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (2, 1): 3}
        # a read index changes neither equality nor hash
        assert m == self.the_map() and hash(m) == hash(self.the_map())

    def test_encode_unobserved(self):
        with pytest.raises(SurgeryError, match=r"\(1, 1\) was never observed"):
            hc_encode(self.the_map(), (1, 1))

    def test_convert_manifest(self):
        entries = [ManifestEntry("a.pgm", (0, 0)), ManifestEntry("b.pgm", (2, 1))]
        converted = convert_manifest_hc(entries, self.the_map())
        assert [e.labels for e in converted] == [(0,), (3,)]
        assert converted[0].image_path == "a.pgm"

    def test_convert_unobserved(self):
        with pytest.raises(SurgeryError, match="never observed"):
            convert_manifest_hc([ManifestEntry("x.pgm", (1, 1))], self.the_map())

    def test_serialize_round_trip(self):
        m = self.the_map()
        assert parse_hc_map(serialize_hc_map(m)) == m

    def test_serialized_form(self):
        assert serialize_hc_map(HcLabelMap(((0, 0), (1, 2)))) == "0: 0,0\n1: 1,2\n"

    def test_parse_errors(self):
        with pytest.raises(SurgeryError, match="line 1: expected"):
            parse_hc_map("not a map\n")
        with pytest.raises(SurgeryError, match="id 1 out of order"):
            parse_hc_map("1: 0,0\n")
        with pytest.raises(SurgeryError, match="no combinations"):
            parse_hc_map("\n")
        with pytest.raises(SurgeryError, match="line 3: 1 labels, but the first line has 2"):
            parse_hc_map("0: 0,0\n1: 1,1\n2: 3\n")

    def test_hc_categories_naming(self):
        cats = hc_categories(cats_ab(), self.the_map())
        assert cats.names == ("a+b",)
        assert cats.class_counts == (4,)
