"""Cost formulas against instrumented execution, plus the comparison report shape."""

import itertools
import json

import numpy as np
import pytest

from mhforge.analysis import (
    AnalysisError,
    VariantMetrics,
    class_coverage,
    compare_variants,
    count_macc,
    estimate_size,
    render_csv,
    render_json,
    render_text,
    sum_breakdowns,
)
from mhforge.dataset import LabelCategories
from mhforge.modelfile import header_bytes, new_bundle, save_model
from mhforge.netspec import parse_netspec, validate_shapes
from mhforge.surgery import attach_heads, build_hard_coded, build_two_model

from helpers import instrumented_forward_macc, random_spec_text

WIDE = "input name=data shape=1024x1x1\n"


def cats_wide():
    return LabelCategories(
        ("make", "type"),
        (tuple(f"m{i}" for i in range(48)), tuple(f"t{i}" for i in range(8))),
    )


class TestMacc:
    def test_small_conv_instrumented(self):
        text = "input name=d shape=1x4x4\nconv name=c in=d out_channels=1 kernel=3\n"
        spec = parse_netspec(text)
        b = count_macc(spec)
        assert b.macc_total == 36
        assert instrumented_forward_macc(spec, new_bundle(spec)) == 36

    def test_input_only_spec_all_zero(self):
        b = count_macc(parse_netspec("input name=d shape=3x9x9\n"))
        assert b.macc_total == 0
        assert b.params_total == 0
        assert b.macc_trained == 0

    def test_frozen_split(self):
        text = (
            "input name=d shape=1x4x4\n"
            "conv name=c in=d out_channels=2 kernel=3 frozen=true\n"
            "gavgpool name=g in=c\n"
            "fc name=f in=g out=5\n"
        )
        b = count_macc(parse_netspec(text))
        conv_macc = 3 * 3 * 1 * 2 * 2 * 2
        assert b.macc_total == conv_macc + 2 * 5
        assert b.macc_trained == 2 * 5

    def test_stanford_shaped_heads(self):
        spec = attach_heads(parse_netspec(WIDE), cats_wide(), "data")
        b = count_macc(spec)
        assert b.macc_trained == 57344
        assert b.macc_total == 57344

    def test_hard_coded_105_classes(self):
        # the published table's class count; any 105 distinct pairs will do
        observed = list(itertools.product(range(48), range(8)))[:105]
        spec, _ = build_hard_coded(parse_netspec(WIDE), cats_wide(), observed, "data")
        assert count_macc(spec).macc_trained == 107520

    def test_random_specs_match_instrumented_counter(self):
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 55:
            spec = parse_netspec(random_spec_text(rng, max_mid_layers=3))
            bundle = new_bundle(spec, seed=checked)
            b = count_macc(spec)
            assert instrumented_forward_macc(spec, bundle) == b.macc_total, spec
            assert instrumented_forward_macc(spec, bundle, trained_only=True) == b.macc_trained, spec
            checked += 1

    def test_unvalidated_shapes_error(self):
        spec = parse_netspec("input name=d shape=1x4x4\nconv name=c in=d out_channels=1 kernel=3\n")
        with pytest.raises(AnalysisError, match="spec not validated"):
            count_macc(spec, shapes={})


class TestParams:
    def test_heads_on_1024(self):
        spec = attach_heads(parse_netspec(WIDE), cats_wide(), "data")
        b = count_macc(spec)
        assert b.params_total == 57400
        # cross-check against actual parameter array sizes
        bundle = new_bundle(spec)
        assert b.params_total == sum(p.weights.data.size + p.bias.size for p in bundle.params.values())

    def test_one_by_one_conv(self):
        b = count_macc(parse_netspec("input name=d shape=1x2x2\nconv name=c in=d out_channels=1 kernel=1\n"))
        assert b.params_total == 2

    def test_two_model_sum_identity(self):
        backbone = parse_netspec(
            "input name=d shape=1x8x8\nconv name=c1 in=d out_channels=2 kernel=3 pad=1\ngavgpool name=g in=c1\n"
        )
        cats = LabelCategories(("a", "b"), (("x", "y", "z"), ("p", "q")))
        proposed = count_macc(attach_heads(backbone, cats, "g"))
        pair = [count_macc(s) for s in build_two_model(backbone, cats, "g")]
        backbone_params = count_macc(backbone).params_total
        head_params = sum(b.params_total - backbone_params for b in pair)
        assert sum(b.params_total for b in pair) == 2 * backbone_params + head_params
        assert proposed.params_total == backbone_params + head_params


class TestSize:
    def test_zero_param_spec_is_header_only(self):
        spec = parse_netspec("input name=d shape=1x8x8\ngavgpool name=g in=d\n")
        assert estimate_size(spec) == header_bytes(spec)

    def test_estimate_equals_file_bytes(self, tmp_path):
        spec = attach_heads(
            parse_netspec("input name=d shape=1x8x8\nconv name=c in=d out_channels=2 kernel=3\ngavgpool name=g in=c\n"),
            LabelCategories(("a", "b"), (("x", "y"), ("p", "q", "r"))),
            "g",
        )
        bundle = new_bundle(spec, seed=4)
        written = save_model(bundle, str(tmp_path / "m.mhf"))
        assert written == estimate_size(spec)
        assert written == (tmp_path / "m.mhf").stat().st_size

    def test_ratio_below_052_with_wide_backbone(self):
        text = (
            "input name=d shape=1x36x36\n"
            "conv name=c1 in=d out_channels=16 kernel=3 pad=1\n"
            "relu name=r1 in=c1\n"
            "maxpool name=p1 in=r1 kernel=2 stride=2\n"
            "conv name=c2 in=p1 out_channels=32 kernel=3 pad=1\n"
            "relu name=r2 in=c2\n"
            "maxpool name=p2 in=r2 kernel=2 stride=2\n"
            "gavgpool name=g in=p2\n"
        )
        backbone = parse_netspec(text)
        cats = LabelCategories(("a", "b"), (("0", "1", "2", "3"), ("4", "5", "6", "7")))
        proposed = count_macc(attach_heads(backbone, cats, "g"))
        pair = sum_breakdowns([count_macc(s) for s in build_two_model(backbone, cats, "g")])
        backbone_params = count_macc(backbone).params_total
        head_params = proposed.params_total - backbone_params
        assert backbone_params >= 10 * head_params
        assert proposed.size_bytes_estimate / pair.size_bytes_estimate < 0.52


class TestCoverage:
    def test_two_wide_categories(self):
        assert class_coverage([48, 8]) == 384

    def test_single_category(self):
        assert class_coverage([7]) == 7

    def test_three_categories_brute_force(self):
        assert class_coverage([3, 4, 5]) == len(set(itertools.product(range(3), range(4), range(5))))

    def test_from_categories_object(self):
        assert class_coverage(cats_wide()) == 384

    def test_breakdown_coverage(self):
        spec = attach_heads(parse_netspec(WIDE), cats_wide(), "data")
        assert count_macc(spec).coverage == 384

    def test_hc_coverage_is_observed_count(self):
        observed = [(0, 0), (1, 1), (2, 2)]
        spec, _ = build_hard_coded(parse_netspec(WIDE), cats_wide(), observed, "data")
        assert count_macc(spec).coverage == 3

    def test_bad_count(self):
        with pytest.raises(AnalysisError, match="class counts must be >= 1"):
            class_coverage([0, 3])


class TestSumBreakdowns:
    def test_additive_costs_multiplicative_coverage(self):
        backbone = parse_netspec(
            "input name=d shape=1x8x8\nconv name=c in=d out_channels=2 kernel=3\ngavgpool name=g in=c\n"
        )
        cats = LabelCategories(("a", "b"), (("0", "1"), ("2", "3", "4")))
        spec = attach_heads(backbone, cats, "g")
        pair = build_two_model(backbone, cats, "g")
        summed = sum_breakdowns([count_macc(s) for s in pair])
        assert summed.macc_total == sum(count_macc(s).macc_total for s in pair)
        assert summed.coverage == 2 * 3
        assert summed.params_total == sum(count_macc(s).params_total for s in pair)
        # shared backbone beats two copies on every cost axis
        assert count_macc(spec).macc_total < summed.macc_total


def three_breakdowns():
    backbone = parse_netspec(
        "input name=d shape=1x8x8\nconv name=c in=d out_channels=2 kernel=3\ngavgpool name=g in=c\n"
    )
    cats = LabelCategories(("a", "b"), (("0", "1"), ("2", "3", "4")))
    proposed = count_macc(attach_heads(backbone, cats, "g"))
    pair = sum_breakdowns([count_macc(s) for s in build_two_model(backbone, cats, "g")])
    observed = [(0, 0), (0, 1), (1, 2)]
    hc_spec, _ = build_hard_coded(backbone, cats, observed, "g")
    return {"proposed": proposed, "two_model": pair, "hard_coded": count_macc(hc_spec)}


class TestCompare:
    def test_identical_slots_all_ratios_one(self):
        b = three_breakdowns()["proposed"]
        report = compare_variants({"proposed": b, "two_model": b, "hard_coded": b})
        ratio_rows = [r for r in report.rows if "ratio" in r.label]
        assert ratio_rows
        for row in ratio_rows:
            assert all(v == 1.0 for v in row.cells.values())

    def test_missing_variant(self):
        b = three_breakdowns()
        del b["hard_coded"]
        with pytest.raises(AnalysisError, match="missing variant entry 'hard_coded'"):
            compare_variants(b)

    def test_row_structure_with_metrics(self):
        metrics = {
            "proposed": VariantMetrics({"a": 0.97, "b": 0.99}, {"a": 0.1, "b": 0.05}, 1.0, 10.0),
            "two_model": VariantMetrics({"a": 0.96, "b": 0.98}, {"a": 0.12, "b": 0.06}, 2.0, 20.0),
            "hard_coded": VariantMetrics({"a": 0.95, "b": 0.97}, {"a": 0.2, "b": 0.1}, 1.05, 10.5),
        }
        report = compare_variants(three_breakdowns(), metrics)
        labels = [r.label for r in report.rows]
        assert labels[:4] == ["Accuracy/a", "Accuracy/b", "Loss/a", "Loss/b"]
        for want in ("Size (bytes)", "Parameters", "Trained MACC", "Total MACC", "Coverage", "Latency total (s)"):
            assert want in labels
        assert report.variants == ("proposed", "two_model", "hard_coded")
        latency = next(r for r in report.rows if r.label == "Latency ratio (proposed/col)")
        assert latency.cells["two_model"] == 0.5
        assert latency.cells["proposed"] == 1.0

    def test_cost_only_report(self):
        report = compare_variants(three_breakdowns())
        labels = [r.label for r in report.rows]
        assert "Accuracy/a" not in labels
        assert "Latency total (s)" not in labels
        assert "Size (bytes)" in labels


class TestRenderers:
    def report(self):
        metrics = {
            "proposed": VariantMetrics({"a": 0.9751}, {"a": 0.08}, 1.0, 10.0),
            "two_model": VariantMetrics({"a": 0.9633}, {"a": 0.11}, 2.06, 20.6),
            "hard_coded": VariantMetrics({"a": 0.9512}, {"a": 0.19}, 1.03, 10.3),
        }
        return compare_variants(three_breakdowns(), metrics)

    def test_csv_column_count(self):
        lines = [l for l in render_csv(self.report()).splitlines() if l]
        for line in lines:
            assert line.count(",") == 3  # metric + three variants

    def test_json_round_trips_and_matches_csv(self):
        report = self.report()
        payload = json.loads(render_json(report))
        assert payload["variants"] == ["proposed", "two_model", "hard_coded"]
        by_label = {r["label"]: r["cells"] for r in payload["rows"]}
        assert by_label["Accuracy/a"]["proposed"] == 0.9751
        csv_lines = {l.split(",")[0]: l.split(",")[1:] for l in render_csv(report).splitlines()[1:]}
        assert csv_lines["Accuracy/a"][0] == "0.9751"
        lat = by_label["Latency ratio (proposed/col)"]
        assert lat["two_model"] == round(1.0 / 2.06, 3)

    def test_text_layout(self):
        text = render_text(self.report())
        lines = text.splitlines()
        assert lines[0].split() == ["metric", "proposed", "two_model", "hard_coded"]
        assert set(lines[1]) <= {"-", " "}
        assert any(l.startswith("Size (bytes)") for l in lines)

    def test_three_formats_agree_on_values(self):
        report = self.report()
        payload = json.loads(render_json(report))
        text = render_text(report)
        for row in payload["rows"]:
            if row["cells"]["proposed"] is None:
                continue
            target = str(row["cells"]["proposed"])
            line = next(l for l in text.splitlines() if l.startswith(row["label"]))
            numbers = [float(x) for x in line[len(row["label"]) :].split() if x != "-"]
            assert float(target) in numbers
