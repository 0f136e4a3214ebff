"""Whole-package acceptance checks run against one full command-line pipeline.

Each test prints a single summary line so the run log reads as a checklist:
cost arithmetic, gradient correctness, training quality, latency and size
ratios, coverage accounting, format stability, and report structure.
"""

import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from helpers import ACCEPTANCE_BACKBONE, finite_diff, instrumented_forward_macc, random_spec_text

from mhforge.analysis import (
    class_coverage,
    compare_variants,
    count_macc,
    sum_breakdowns,
)
from mhforge.cli import main
from mhforge.dataset import LabelCategories, parse_categories, parse_manifest
from mhforge.errors import MhforgeError
from mhforge.modelfile import load_model, new_bundle, save_model
from mhforge.netspec import parse_netspec, serialize_netspec
from mhforge.surgery import attach_heads, build_hard_coded, build_two_model
from mhforge.tensor_ops import Tensor
from mhforge.training import (
    backward_multi,
    backward_plan,
    forward_all,
    score_heads,
    sgd_step,
    split_entries,
)

FEATURE_1024 = "input name=feat shape=1024x1x1\n"


# On a shared 2-CPU VM the CPU speed drifts in phases of one to several seconds,
# which fall between the benches of a round: single-round merged/proposed ratios
# ranged from 0.8 to 1.4 around a true ratio near 0.96. Resampling 108 recorded
# rounds, the median of four rounds left [0.9, 1.1] in a quarter of the draws,
# the median of sixteen in under 2%.
BENCH_ROUNDS = 16


def wide_categories():
    return LabelCategories(
        ("make", "kind"),
        (tuple(f"m{i}" for i in range(48)), tuple(f"t{i}" for i in range(8))),
    )


def note(label, detail):
    print(f"[acceptance] {label}: PASS ({detail})")


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"command {argv} returned {code}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Data generation, three builds, four trainings plus a repeat, evals, benches, report."""
    root = tmp_path_factory.mktemp("acceptance")
    backbone = root / "backbone.ns"
    backbone.write_text(ACCEPTANCE_BACKBONE)
    data = root / "data"
    run_ok(["gen-data", "--out", str(data), "--image-size", "34", "--samples", "80",
            "--noise", "0.02", "--seed", "0"])
    cats = str(data / "categories.txt")
    manifest = str(data / "manifest.txt")

    proposed, two_model, hard_coded = str(root / "proposed"), str(root / "2m"), str(root / "hc")
    for variant, out in (("proposed", proposed), ("2m", two_model)):
        run_ok(["build", "--netspec", str(backbone), "--categories", cats,
                "--variant", variant, "--out", out])
    run_ok(["build", "--netspec", str(backbone), "--categories", cats,
            "--variant", "hc", "--manifest", manifest, "--out", hard_coded])

    train_common = ["--categories", cats, "--manifest", manifest, "--epochs", "20",
                    "--batch", "8", "--lr", "1.0", "--momentum", "0.9", "--seed", "0"]
    run_ok(["train", "--netspec", f"{proposed}/model.ns", "--out", proposed] + train_common)
    run_ok(["train", "--netspec", f"{two_model}/model_shape.ns", "--out", two_model] + train_common)
    run_ok(["train", "--netspec", f"{two_model}/model_position.ns", "--out", two_model] + train_common)
    run_ok(["train", "--netspec", f"{hard_coded}/model.ns", "--hc-map", f"{hard_coded}/hc_map.txt",
            "--out", hard_coded] + train_common)
    rerun = str(root / "proposed_rerun")
    run_ok(["train", "--netspec", f"{proposed}/model.ns", "--out", rerun] + train_common)

    eval_common = ["--categories", cats, "--manifest", manifest,
                   "--side", "val", "--split", "0.8", "--seed", "0"]
    run_ok(["eval", "--model", f"{proposed}/model.mhf"] + eval_common)
    run_ok(["eval", "--model", f"{two_model}/model_shape.mhf",
            "--model", f"{two_model}/model_position.mhf"] + eval_common)
    run_ok(["eval", "--model", f"{hard_coded}/model.mhf",
            "--hc-map", f"{hard_coded}/hc_map.txt"] + eval_common)

    bench_common = ["--categories", cats, "--manifest", manifest,
                    "--limit", "100", "--repeats", "5"]
    # throwaway measurement first: lets CPU clocks settle after the training
    # burst so the timed commands run under comparable conditions
    run_ok(["bench", "--model", f"{proposed}/model.mhf", "--variant", "warmup",
            "--out", str(root / "warmup")] + bench_common)
    # interleaved rounds, one measurement per variant each; comparing variants
    # within a round suppresses drift between the rounds
    bench_jobs = (
        ("proposed", [f"{proposed}/model.mhf"], proposed),
        ("two_model", [f"{two_model}/model_shape.mhf", f"{two_model}/model_position.mhf"], two_model),
        ("hard_coded", [f"{hard_coded}/model.mhf"], hard_coded),
    )
    bench_samples = {variant: [] for variant, _, _ in bench_jobs}
    for _ in range(BENCH_ROUNDS):
        for variant, models, out in bench_jobs:
            argv = ["bench"]
            for m in models:
                argv += ["--model", m]
            run_ok(argv + ["--variant", variant, "--out", out] + bench_common)
            with open(f"{out}/bench.json") as f:
                bench_samples[variant].append(json.load(f)["total_seconds"])

    report = str(root / "report")
    run_ok(["compare", "--proposed", proposed, "--two-model", two_model,
            "--hard-coded", hard_coded, "--out", report])

    def slurp(path):
        with open(path) as f:
            return json.load(f)

    return {
        "root": root, "data": str(data), "cats": cats, "manifest": manifest,
        "proposed": proposed, "two_model": two_model, "hard_coded": hard_coded,
        "rerun": rerun, "report": report, "bench_samples": bench_samples,
        "eval": {
            "proposed": slurp(f"{proposed}/eval.json")["categories"],
            "two_model": slurp(f"{two_model}/eval.json")["categories"],
            "hard_coded": slurp(f"{hard_coded}/eval.json")["categories"],
        },
        "bench": {
            "proposed": slurp(f"{proposed}/bench.json"),
            "two_model": slurp(f"{two_model}/bench.json"),
            "hard_coded": slurp(f"{hard_coded}/bench.json"),
        },
        "report_json": slurp(f"{report}/report.json"),
    }


def report_row(payload, label):
    for row in payload["rows"]:
        if row["label"] == label:
            return row["cells"]
    raise AssertionError(f"report has no row {label!r}: {[r['label'] for r in payload['rows']]}")


def test_trained_macc_counts_for_wide_and_merged_heads():
    cats = wide_categories()
    feature = parse_netspec(FEATURE_1024)
    shared = count_macc(attach_heads(feature, cats, "feat"))
    # 1024 features into 48-way and 8-way heads
    assert shared.macc_trained == 1024 * (48 + 8) == 57344
    observed = list(itertools.product(range(48), range(8)))[:105]
    merged_spec, _ = build_hard_coded(feature, cats, observed, "feat")
    merged = count_macc(merged_spec)
    # 1024 features into one 105-way head
    assert merged.macc_trained == 1024 * 105 == 107520
    note("trained-macc exactness", "57344 shared, 107520 merged")


def test_macc_formula_matches_instrumented_execution_on_random_nets():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 55:
        spec = parse_netspec(random_spec_text(rng, max_mid_layers=3))
        bundle = new_bundle(spec, seed=1000 + checked)
        analytic = count_macc(spec)
        assert instrumented_forward_macc(spec, bundle) == analytic.macc_total
        assert instrumented_forward_macc(spec, bundle, trained_only=True) == analytic.macc_trained
        checked += 1
    note("macc counter oracle", f"{checked} random networks, exact match")


GRAD_NET = """\
input name=img shape=1x6x6
conv name=c1 in=img out_channels=3 kernel=3 stride=1 pad=1
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
gavgpool name=g in=p1
fc name=head_a in=g out=3 head=a in_features=3
loss name=loss_a in=head_a label=a
accuracy name=acc_a in=head_a label=a
fc name=head_b in=g out=2 head=b in_features=3
loss name=loss_b in=head_b label=b weight=0.5
accuracy name=acc_b in=head_b label=b
"""

GRAD_CATS = LabelCategories(("a", "b"), (("p", "q", "r"), ("u", "v")))


def grad_fixture():
    from mhforge.netspec import bind_categories

    spec = bind_categories(parse_netspec(GRAD_NET), GRAD_CATS)
    bundle = new_bundle(spec, seed=3)
    rng = np.random.default_rng(17)
    images = Tensor(rng.uniform(0.1, 0.9, (4, 1, 6, 6)))
    labels = {
        "a": rng.integers(0, 3, 4).astype(np.int64),
        "b": rng.integers(0, 2, 4).astype(np.int64),
    }
    return bundle, images, labels


def total_loss(bundle, images, labels):
    scores = score_heads(bundle, forward_all(bundle, images).heads, labels)
    return sum(lay.loss_weight * scores[lay.label_slot][0] for lay in bundle.spec.losses())


def loss_grads(bundle, state, labels):
    """backward_multi's seeds: each head's loss-weighted logit gradient."""
    return {c: grad for c, (_, _, grad) in score_heads(bundle, state.heads, labels).items()}


def test_backward_passes_match_central_finite_differences():
    bundle, images, labels = grad_fixture()
    state = forward_all(bundle, images, backward_plan(bundle))
    grads = backward_multi(bundle, state, loss_grads(bundle, state, labels))
    worst = 0.0
    for name in ("c1", "head_a", "head_b"):
        gw, gb = grads[name]
        p = bundle.params[name]
        for analytic, array in ((gw.data, p.weights.data), (gb, p.bias)):
            fd = finite_diff(lambda: total_loss(bundle, images, labels), array)
            scale = max(1.0, float(np.abs(fd).max()))
            rel = float(np.abs(analytic - fd).max()) / scale
            worst = max(worst, rel)
            assert rel < 1e-6, f"{name}: relative error {rel}"
    note("gradient oracle", f"worst relative error {worst:.2e}")


def test_joint_gradients_sum_exactly_and_frozen_weights_never_move():
    bundle, images, labels = grad_fixture()
    state = forward_all(bundle, images, backward_plan(bundle))
    head_grads = loss_grads(bundle, state, labels)
    joint = backward_multi(bundle, state, head_grads)
    parts = [backward_multi(bundle, state, {cat: head_grads[cat]}) for cat in head_grads]
    for name, (gw, gb) in joint.items():
        sw = sum(p[name][0].data for p in parts if name in p)
        sb = sum(p[name][1] for p in parts if name in p)
        assert np.abs(gw.data - sw).max() <= 1e-12
        assert np.abs(gb - sb).max() <= 1e-12

    # freezing: heads attached to a backbone train while the trunk stays put
    backbone_lines = [l for l in GRAD_NET.splitlines() if not l.startswith(("fc", "loss", "accuracy"))]
    frozen_spec = attach_heads(parse_netspec("\n".join(backbone_lines) + "\n"), GRAD_CATS, "g")
    fb = new_bundle(frozen_spec, seed=5)
    before_w = fb.params["c1"].weights.data.tobytes()
    before_b = fb.params["c1"].bias.tobytes()
    head_before = fb.params["head_a"].weights.data.copy()
    rng = np.random.default_rng(23)
    velocity = {}
    for _ in range(100):
        imgs = Tensor(rng.uniform(0.1, 0.9, (4, 1, 6, 6)))
        lbls = {"a": rng.integers(0, 3, 4).astype(np.int64),
                "b": rng.integers(0, 2, 4).astype(np.int64)}
        st = forward_all(fb, imgs, backward_plan(fb))
        sgd_step(fb.params, backward_multi(fb, st, loss_grads(fb, st, lbls)), 0.1, 0.9, velocity)
    assert fb.params["c1"].weights.data.tobytes() == before_w
    assert fb.params["c1"].bias.tobytes() == before_b
    assert not np.array_equal(fb.params["head_a"].weights.data, head_before)
    note("multi-loss identity", "joint equals per-head sum; trunk bit-identical after 100 steps")


def test_pipeline_training_reaches_accuracy_targets_on_all_variants(pipeline):
    with open(pipeline["cats"]) as f:
        cats = parse_categories(f.read())
    with open(pipeline["manifest"]) as f:
        entries = parse_manifest(f.read(), cats)
    train_side, val_side = split_entries(entries, 0.8, 0)
    assert len(train_side) >= 160
    assert len(val_side) > 0

    prop = pipeline["eval"]["proposed"]
    for cat in ("shape", "position"):
        assert prop[cat]["accuracy"] >= 0.95, f"{cat}: {prop[cat]['accuracy']}"

    # per seed the whole run is reproducible bit for bit
    a = Path(pipeline["proposed"], "model.mhf").read_bytes()
    b = Path(pipeline["rerun"], "model.mhf").read_bytes()
    assert a == b

    for variant in ("hard_coded", "two_model"):
        other = pipeline["eval"][variant]
        for cat in ("shape", "position"):
            gap = abs(other[cat]["accuracy"] - prop[cat]["accuracy"])
            assert gap <= 0.05, f"{variant}/{cat}: gap {gap}"
    detail = ", ".join(f"{c}={prop[c]['accuracy']:.3f}" for c in ("shape", "position"))
    note("toy training", f"validation accuracy {detail}; variants within 0.05; rerun byte-identical")


def test_latency_ratios_match_structural_expectations(pipeline):
    for stats in pipeline["bench"].values():
        assert stats["images"] == 100
        assert stats["runs"] >= 5
    samples = pipeline["bench_samples"]
    assert all(len(totals) == BENCH_ROUNDS for totals in samples.values())
    # ratios within each interleaved round share its machine state; their median
    # is not moved by one lucky or unlucky round
    rounds = {variant: np.array(totals) / np.array(samples["proposed"]) for variant, totals in samples.items()}
    two = float(np.median(rounds["two_model"]))
    merged = float(np.median(rounds["hard_coded"]))
    assert 1.7 <= two <= 2.3, f"dedicated-pair ratio {two} from {samples}"
    assert 0.9 <= merged <= 1.1, f"merged-head ratio {merged} from {samples}"
    per_round = {variant: " ".join(f"{r:.3f}" for r in rounds[variant]) for variant in ("two_model", "hard_coded")}
    note(
        "latency ratios",
        f"median two-model/proposed {two:.3f} (rounds {per_round['two_model']}), "
        f"merged/proposed {merged:.3f} (rounds {per_round['hard_coded']})",
    )


def test_saved_sizes_equal_estimates_and_shared_model_halves_storage(pipeline):
    checked = 0
    for variant in ("proposed", "two_model", "hard_coded"):
        run_dir = pipeline[variant]
        for name in sorted(os.listdir(run_dir)):
            if not name.endswith(".mhf"):
                continue
            path = os.path.join(run_dir, name)
            bundle = load_model(path)
            assert os.path.getsize(path) == count_macc(bundle.spec).size_bytes_estimate, path
            checked += 1
    assert checked == 4

    wide = parse_netspec(
        "input name=d shape=1x36x36\n"
        "conv name=c1 in=d out_channels=16 kernel=3 pad=1\n"
        "relu name=r1 in=c1\n"
        "maxpool name=p1 in=r1 kernel=2 stride=2\n"
        "conv name=c2 in=p1 out_channels=32 kernel=3 pad=1\n"
        "relu name=r2 in=c2\n"
        "maxpool name=p2 in=r2 kernel=2 stride=2\n"
        "gavgpool name=g in=p2\n"
    )
    cats = LabelCategories(("a", "b"), (("0", "1", "2", "3"), ("4", "5", "6", "7")))
    shared = attach_heads(wide, cats, "g")
    backbone_params = count_macc(wide).params_total
    head_params = count_macc(shared).params_total - backbone_params
    assert backbone_params >= 10 * head_params
    pair_size = sum(count_macc(s).size_bytes_estimate for s in build_two_model(wide, cats, "g"))
    ratio = count_macc(shared).size_bytes_estimate / pair_size
    assert ratio < 0.52, ratio
    note("size arithmetic", f"4 files exact; shared/pair ratio {ratio:.3f}")


def test_class_coverage_product_and_report_coverage_row(pipeline):
    assert class_coverage([48, 8]) == 384

    coverage = report_row(pipeline["report_json"], "Coverage")
    assert coverage == {"proposed": 16, "two_model": 16, "hard_coded": 16}

    # at full label-space scale: 48x8 heads versus 108 observed combinations
    cats = wide_categories()
    feature = parse_netspec(FEATURE_1024)
    shared = attach_heads(feature, cats, "feat")
    observed = list(itertools.product(range(48), range(8)))[:108]
    merged_spec, _ = build_hard_coded(feature, cats, observed, "feat")
    report = compare_variants({
        "proposed": count_macc(shared),
        "two_model": sum_breakdowns([count_macc(s) for s in build_two_model(feature, cats, "feat")]),
        "hard_coded": count_macc(merged_spec),
    })
    payload = json.loads(json.dumps({"rows": [
        {"label": r.label, "cells": r.cells} for r in report.rows
    ]}))
    cells = report_row(payload, "Coverage")
    assert cells["proposed"] == 384
    assert cells["hard_coded"] == 108
    note("class coverage", "product 384; report shows 384 vs 108, synthetic 16 vs 16")


def test_netspec_round_trip_fuzz_and_model_file_stability(pipeline, tmp_path):
    rng = np.random.default_rng(99)
    for i in range(30):
        spec = parse_netspec(random_spec_text(rng))
        text = serialize_netspec(spec)
        again = parse_netspec(text)
        assert again == spec
        assert serialize_netspec(again) == text

    tokens = ["input", "conv", "fc", "relu", "name=", "in=", "shape=", "=", "x", "3",
              "-1", "\n", " ", "\t", "###", "head", "kernel=0", "\x00", "é", "loss"]
    for i in range(200):
        n = int(rng.integers(0, 12))
        junk = "".join(str(rng.choice(tokens)) for _ in range(n))
        try:
            parse_netspec(junk)
        except MhforgeError:
            pass

    source = f"{pipeline['proposed']}/model.mhf"
    original = Path(source).read_bytes()
    bundle = load_model(source)
    copy = tmp_path / "copy.mhf"
    save_model(bundle, str(copy))
    assert copy.read_bytes() == original
    save_model(load_model(str(copy)), str(tmp_path / "copy2.mhf"))
    assert (tmp_path / "copy2.mhf").read_bytes() == original
    note("formats", "30 round trips, 200 fuzz inputs contained, model bytes stable")


def test_report_tabulates_all_variants_and_rows(pipeline):
    payload = pipeline["report_json"]
    assert payload["variants"] == ["proposed", "two_model", "hard_coded"]
    labels = [row["label"] for row in payload["rows"]]
    for expected in (
        "Accuracy/shape", "Accuracy/position", "Loss/shape", "Loss/position",
        "Size (bytes)", "Parameters", "Trained MACC", "Total MACC", "Coverage",
        "Latency total (s)", "Latency/image (ms)",
        "Size ratio (proposed/col)", "Parameter ratio (proposed/col)",
        "Trained MACC ratio (proposed/col)", "Total MACC ratio (proposed/col)",
        "Latency ratio (proposed/col)",
    ):
        assert expected in labels, expected
    for row in payload["rows"]:
        assert set(row["cells"]) == {"proposed", "two_model", "hard_coded"}
        for variant, value in row["cells"].items():
            assert value is not None, (row["label"], variant)

    with open(f"{pipeline['report']}/report.csv") as f:
        lines = f.read().splitlines()
    assert lines[0] == "metric,proposed,two_model,hard_coded"
    assert len(lines) == 1 + len(payload["rows"])
    with open(f"{pipeline['report']}/report.txt") as f:
        head = f.readline()
    assert head.split() == ["metric", "proposed", "two_model", "hard_coded"]
    note("report structure", f"{len(payload['rows'])} rows across all three variants")
