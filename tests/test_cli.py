"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import MALFORMED_PGMS, model_file_bytes

import mhforge
from mhforge.cli import build_parser, main
from mhforge.dataset import SyntheticConfig
from mhforge.modelfile import new_bundle, save_model
from mhforge.netspec import parse_netspec
from mhforge.surgery import HcLabelMap, parse_hc_map, serialize_hc_map
from mhforge.training import TrainConfig

BACKBONE = """\
input name=data shape=1x18x18
conv name=c1 in=data out_channels=8 kernel=3 stride=1 pad=1
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
conv name=c2 in=p1 out_channels=16 kernel=3 stride=1 pad=1
relu name=r2 in=c2
maxpool name=p2 in=r2 kernel=2 stride=2
gavgpool name=g in=p2
"""


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"command {argv} returned {code}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pass: data, three builds, four trainings, evals, benches, report."""
    root = tmp_path_factory.mktemp("cli")
    backbone = root / "backbone.ns"
    backbone.write_text(BACKBONE)
    data = root / "data"
    run_ok(["gen-data", "--out", str(data), "--image-size", "18", "--samples", "4",
            "--noise", "0.02", "--seed", "0"])
    cats = str(data / "categories.txt")
    manifest = str(data / "manifest.txt")

    proposed, two_model, hard_coded = str(root / "proposed"), str(root / "2m"), str(root / "hc")
    run_ok(["build", "--netspec", str(backbone), "--categories", cats,
            "--variant", "proposed", "--out", proposed])
    run_ok(["build", "--netspec", str(backbone), "--categories", cats,
            "--variant", "2m", "--out", two_model])
    run_ok(["build", "--netspec", str(backbone), "--categories", cats,
            "--variant", "hc", "--manifest", manifest, "--out", hard_coded])

    common = ["--categories", cats, "--manifest", manifest, "--epochs", "2"]
    run_ok(["train", "--netspec", f"{proposed}/model.ns", "--out", proposed] + common)
    run_ok(["train", "--netspec", f"{two_model}/model_shape.ns", "--out", two_model] + common)
    run_ok(["train", "--netspec", f"{two_model}/model_position.ns", "--out", two_model] + common)
    run_ok(["train", "--netspec", f"{hard_coded}/model.ns", "--hc-map", f"{hard_coded}/hc_map.txt",
            "--out", hard_coded] + common)

    run_ok(["eval", "--model", f"{proposed}/model.mhf", "--categories", cats,
            "--manifest", manifest, "--side", "val"])
    run_ok(["eval", "--model", f"{two_model}/model_shape.mhf",
            "--model", f"{two_model}/model_position.mhf",
            "--categories", cats, "--manifest", manifest, "--side", "val"])
    run_ok(["eval", "--model", f"{hard_coded}/model.mhf", "--hc-map", f"{hard_coded}/hc_map.txt",
            "--categories", cats, "--manifest", manifest, "--side", "val"])

    bench_common = ["--categories", cats, "--manifest", manifest,
                    "--limit", "8", "--repeats", "2"]
    run_ok(["bench", "--model", f"{proposed}/model.mhf", "--variant", "proposed"] + bench_common)
    run_ok(["bench", "--model", f"{two_model}/model_shape.mhf",
            "--model", f"{two_model}/model_position.mhf",
            "--variant", "two_model", "--out", two_model] + bench_common)
    run_ok(["bench", "--model", f"{hard_coded}/model.mhf", "--variant", "hard_coded"] + bench_common)

    report = str(root / "report")
    run_ok(["compare", "--proposed", proposed, "--two-model", two_model,
            "--hard-coded", hard_coded, "--out", report])
    return {
        "root": root, "backbone": str(backbone), "data": str(data),
        "cats": cats, "manifest": manifest, "proposed": proposed,
        "two_model": two_model, "hard_coded": hard_coded, "report": report,
    }


def tree_digest(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


class TestParser:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_hc_build_without_manifest_fails(self, tmp_path):
        spec = tmp_path / "b.ns"
        spec.write_text(BACKBONE)
        catsfile = tmp_path / "c.txt"
        catsfile.write_text("shape: a,b\nposition: c,d\n")
        with pytest.raises(SystemExit) as exc:
            main(["build", "--netspec", str(spec), "--categories", str(catsfile),
                  "--variant", "hc", "--out", str(tmp_path / "out")])
        assert exc.value.code != 0

    def test_missing_input_file_maps_to_exit_1(self, tmp_path, capsys):
        code = main(["analyze", "--netspec", str(tmp_path / "nope.ns")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_defaults_are_the_config_defaults(self):
        parser = build_parser()
        t = parser.parse_args(["train", "--netspec", "n", "--categories", "c", "--manifest", "m", "--out", "o"])
        assert TrainConfig(t.epochs, t.batch, t.lr, t.momentum, t.seed, t.split) == TrainConfig()
        e = parser.parse_args(["eval", "--model", "m", "--categories", "c", "--manifest", "m"])
        assert (e.split, e.seed) == (TrainConfig().split_fraction, TrainConfig().seed)
        g = parser.parse_args(["gen-data", "--out", "o"])
        generated = SyntheticConfig(image_size=g.image_size, samples_per_combo=g.samples, noise_std=g.noise, seed=g.seed)
        assert generated == SyntheticConfig()

    def test_bad_netspec_maps_to_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.ns"
        bad.write_text("conv name=c in=missing out_channels=4 kernel=3\n")
        assert main(["analyze", "--netspec", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestTextThatIsNotUtf8:
    def test_categories_file_names_its_path(self, tmp_path, capsys):
        spec = tmp_path / "b.ns"
        spec.write_text(BACKBONE)
        cats = tmp_path / "c.txt"
        cats.write_bytes(b"shape: a,b\nposition: c,\xffd\n")
        assert main(["analyze", "--netspec", str(spec), "--categories", str(cats)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{cats}: not UTF-8 text (byte 23:" in err

    def test_model_spec_text_names_its_path_and_the_text(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        model = run / "model.mhf"
        save_model(new_bundle(parse_netspec(BACKBONE)), str(model))
        blob = bytearray(model.read_bytes())
        blob[16] = 0xFF  # the first byte of the network description, after magic, version and length
        model.write_bytes(bytes(blob))
        code = main(["compare", "--proposed", str(run), "--two-model", str(run),
                     "--hard-coded", str(run), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{model}: network description is not UTF-8 text" in err


class TestGenData:
    def test_writes_images_manifest_categories_and_run_file(self, pipeline):
        data = pipeline["data"]
        pgms = [f for f in os.listdir(data) if f.endswith(".pgm")]
        assert len(pgms) == 4 * 4 * 4
        for name in ("manifest.txt", "categories.txt", "run_gen_data.json"):
            assert os.path.exists(os.path.join(data, name))

    def test_run_file_records_command_seed_and_artifacts(self, pipeline):
        with open(os.path.join(pipeline["data"], "run_gen_data.json")) as f:
            run = json.load(f)
        assert run["command"] == "gen-data"
        assert run["seed"] == 0
        assert sorted(run["artifacts"]) == ["categories.txt", "manifest.txt"]
        assert run["config"]["image_size"] == 18

    def test_same_seed_regenerates_identical_bytes(self, pipeline, tmp_path):
        other = tmp_path / "data2"
        run_ok(["gen-data", "--out", str(other), "--image-size", "18", "--samples", "4",
                "--noise", "0.02", "--seed", "0"])
        for name in ("manifest.txt", "img_00000.pgm", "img_00063.pgm"):
            a = open(os.path.join(pipeline["data"], name), "rb").read()
            b = open(os.path.join(str(other), name), "rb").read()
            assert a == b, name

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_refused(self, tmp_path, capsys, noise):
        code = main(["gen-data", "--out", str(tmp_path / "data"), "--image-size", "18", "--samples", "1",
                     "--noise", noise])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "noise_std" in err
        assert not (tmp_path / "data" / "manifest.txt").exists()


class TestBuild:
    def test_variant_artifacts(self, pipeline):
        assert os.path.exists(os.path.join(pipeline["proposed"], "model.ns"))
        assert os.path.exists(os.path.join(pipeline["two_model"], "model_shape.ns"))
        assert os.path.exists(os.path.join(pipeline["two_model"], "model_position.ns"))
        assert os.path.exists(os.path.join(pipeline["hard_coded"], "model.ns"))
        assert os.path.exists(os.path.join(pipeline["hard_coded"], "hc_map.txt"))

    def test_heads_default_to_last_backbone_layer(self, pipeline):
        with open(os.path.join(pipeline["proposed"], "model.ns")) as f:
            text = f.read()
        assert "fc name=head_shape in=g" in text
        assert "fc name=head_position in=g" in text

    def test_backbone_is_frozen_in_built_spec(self, pipeline):
        with open(os.path.join(pipeline["proposed"], "model.ns")) as f:
            lines = f.read().splitlines()
        conv_lines = [l for l in lines if l.startswith("conv ")]
        assert conv_lines and all("frozen=true" in l for l in conv_lines)


class TestTrain:
    def test_artifacts_and_run_file(self, pipeline):
        for name in ("model.mhf", "model_trainlog.csv", "run_train.json"):
            assert os.path.exists(os.path.join(pipeline["proposed"], name))
        with open(os.path.join(pipeline["proposed"], "run_train.json")) as f:
            run = json.load(f)
        assert run["command"] == "train"
        assert set(run["artifacts"]) == {"model.mhf", "model_trainlog.csv"}

    def test_two_model_files_named_after_their_netspec(self, pipeline):
        assert os.path.exists(os.path.join(pipeline["two_model"], "model_shape.mhf"))
        assert os.path.exists(os.path.join(pipeline["two_model"], "model_position.mhf"))

    def test_rerun_reproduces_model_bytes_and_log_numbers(self, pipeline, tmp_path):
        args = ["train", "--netspec", f"{pipeline['proposed']}/model.ns",
                "--categories", pipeline["cats"], "--manifest", pipeline["manifest"],
                "--epochs", "2"]
        a, b = tmp_path / "a", tmp_path / "b"
        run_ok(args + ["--out", str(a)])
        run_ok(args + ["--out", str(b)])
        assert (a / "model.mhf").read_bytes() == (b / "model.mhf").read_bytes()
        # trainlog rows match except for the wall-clock seconds column
        rows_a = (a / "model_trainlog.csv").read_text().splitlines()
        rows_b = (b / "model_trainlog.csv").read_text().splitlines()
        assert [r.rsplit(",", 1)[0] for r in rows_a] == [r.rsplit(",", 1)[0] for r in rows_b]

    @pytest.mark.parametrize("data, message", MALFORMED_PGMS.values(), ids=MALFORMED_PGMS.keys())
    def test_malformed_image_is_one_error_line_naming_the_file(self, pipeline, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(data)
        with open(pipeline["manifest"]) as f:
            lines = [os.path.join(pipeline["data"], line) for line in f.read().splitlines()]
        lines[3] = f"{bad} {lines[3].split(' ', 1)[1]}"
        (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
        code = main(["train", "--netspec", f"{pipeline['proposed']}/model.ns", "--categories", pipeline["cats"],
                     "--manifest", str(tmp_path / "manifest.txt"), "--epochs", "1", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "out").exists()


class TestNoInputMutation:
    def test_dataset_directory_is_untouched_by_consumers(self, pipeline, tmp_path):
        before = tree_digest(pipeline["data"])
        run_ok(["train", "--netspec", f"{pipeline['proposed']}/model.ns",
                "--categories", pipeline["cats"], "--manifest", pipeline["manifest"],
                "--out", str(tmp_path / "scratch"), "--epochs", "1"])
        run_ok(["analyze", "--netspec", f"{pipeline['proposed']}/model.ns",
                "--categories", pipeline["cats"]])
        assert tree_digest(pipeline["data"]) == before


class TestEval:
    def test_multi_head_eval_json(self, pipeline):
        with open(os.path.join(pipeline["proposed"], "eval.json")) as f:
            payload = json.load(f)
        assert set(payload["categories"]) == {"shape", "position"}
        for cell in payload["categories"].values():
            assert 0.0 <= cell["accuracy"] <= 1.0
            assert cell["loss"] >= 0.0

    def test_two_model_eval_merges_both_heads(self, pipeline):
        with open(os.path.join(pipeline["two_model"], "eval.json")) as f:
            payload = json.load(f)
        assert set(payload["categories"]) == {"shape", "position"}

    def test_hc_eval_reports_combined_and_decoded(self, pipeline):
        with open(os.path.join(pipeline["hard_coded"], "eval.json")) as f:
            payload = json.load(f)
        assert set(payload["categories"]) == {"shape", "position"}
        assert "combined" in payload
        assert payload["combined"]["accuracy"] <= min(
            c["accuracy"] for c in payload["categories"].values()
        ) + 1e-9

    @pytest.mark.parametrize("change", ["renumbered", "extended", "truncated"])
    def test_hc_map_that_is_not_the_models_is_refused(self, pipeline, tmp_path, capsys, change):
        with open(os.path.join(pipeline["hard_coded"], "hc_map.txt")) as f:
            combos = parse_hc_map(f.read()).combos
        other = {
            "renumbered": combos[1:] + combos[:1],
            "extended": combos + ((0, 9),),
            "truncated": combos[:-1],
        }[change]
        hc_map = tmp_path / "hc_map.txt"
        hc_map.write_text(serialize_hc_map(HcLabelMap(other)))
        code = main(["eval", "--model", os.path.join(pipeline["hard_coded"], "model.mhf"),
                     "--hc-map", str(hc_map), "--categories", pipeline["cats"],
                     "--manifest", pipeline["manifest"], "--out", str(tmp_path / "eval.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "HC map does not match the model" in err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("hc", [False, True], ids=["heads", "hc-map"])
    def test_category_scored_by_two_models_is_refused(self, pipeline, tmp_path, capsys, hc):
        if hc:
            first = second = os.path.join(pipeline["hard_coded"], "model.mhf")
            extra = ["--hc-map", os.path.join(pipeline["hard_coded"], "hc_map.txt")]
        else:
            first = os.path.join(pipeline["proposed"], "model.mhf")
            second = os.path.join(pipeline["two_model"], "model_shape.mhf")
            extra = []
        out = tmp_path / "out"
        out.mkdir()
        code = main(["eval", "--model", first, "--model", second, "--categories", pipeline["cats"],
                     "--manifest", pipeline["manifest"], "--out", str(out / "eval.json")] + extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: category 'shape' is scored by both")
        assert first in err and second in err
        assert list(out.iterdir()) == []

    def test_two_model_head_metrics_equal_proposed(self, pipeline):
        # identical split, zero head init, and a frozen trunk make the
        # dedicated models retrace the shared model's head trajectories
        with open(os.path.join(pipeline["proposed"], "eval.json")) as f:
            prop = json.load(f)["categories"]
        with open(os.path.join(pipeline["two_model"], "eval.json")) as f:
            two = json.load(f)["categories"]
        for cat in ("shape", "position"):
            assert two[cat]["accuracy"] == pytest.approx(prop[cat]["accuracy"], abs=1e-12)
            assert two[cat]["loss"] == pytest.approx(prop[cat]["loss"], abs=1e-9)


class TestAnalyze:
    def test_prints_cost_json(self, pipeline, capsys):
        run_ok(["analyze", "--netspec", f"{pipeline['proposed']}/model.ns",
                "--categories", pipeline["cats"]])
        payload = json.loads(capsys.readouterr().out)
        assert payload["macc_total"] > payload["macc_trained"] > 0
        assert payload["coverage"] == 16
        names = [c["name"] for c in payload["per_layer"]]
        assert "head_shape" in names and "head_position" in names

    def test_out_flag_writes_file_and_run_manifest(self, pipeline, tmp_path):
        out = tmp_path / "costs.json"
        run_ok(["analyze", "--netspec", f"{pipeline['proposed']}/model.ns",
                "--categories", pipeline["cats"], "--out", str(out)])
        assert json.loads(out.read_text())["params_total"] > 0
        assert (tmp_path / "run_analyze.json").exists()

    def test_without_out_flag_writes_nothing(self, tmp_path, capsys):
        spec = tmp_path / "b.ns"
        spec.write_text(BACKBONE)
        run_ok(["analyze", "--netspec", str(spec)])
        capsys.readouterr()
        assert sorted(os.listdir(tmp_path)) == ["b.ns"]


class TestBench:
    def test_artifacts(self, pipeline):
        for name in ("bench.json", "timings.csv", "run_bench.json"):
            assert os.path.exists(os.path.join(pipeline["proposed"], name))

    def test_stats_reflect_limit_and_repeats(self, pipeline):
        with open(os.path.join(pipeline["proposed"], "bench.json")) as f:
            stats = json.load(f)
        assert stats["images"] == 8
        assert stats["runs"] == 2
        assert len(stats["per_run_seconds"]) == 2
        assert stats["variant"] == "proposed"

    def test_spread_fields_match_per_run_seconds(self, pipeline):
        with open(os.path.join(pipeline["proposed"], "bench.json")) as f:
            stats = json.load(f)
        ms = np.array(stats["per_run_seconds"]) * 1000.0
        spread = [stats[k] for k in ("min_ms", "q1_ms", "median_ms", "q3_ms", "max_ms")]
        assert spread == sorted(spread)
        assert spread == pytest.approx(list(np.percentile(ms, [0, 25, 50, 75, 100])), rel=1e-12)

    def test_timings_csv_has_one_row_per_run(self, pipeline):
        with open(os.path.join(pipeline["proposed"], "timings.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "run_index,seconds"
        assert len(lines) == 3

    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_limit_below_one_is_refused(self, pipeline, tmp_path, capsys, limit):
        code = main(["bench", "--model", f"{pipeline['proposed']}/model.mhf", "--categories", pipeline["cats"],
                     "--manifest", pipeline["manifest"], "--limit", limit, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --limit must be >= 1, got {limit}")
        assert os.listdir(tmp_path) == []


class TestCompare:
    def test_writes_all_three_formats_by_default(self, pipeline):
        for name in ("report.txt", "report.json", "report.csv", "run_compare.json"):
            assert os.path.exists(os.path.join(pipeline["report"], name))

    def test_report_rows_cover_costs_metrics_and_ratios(self, pipeline):
        with open(os.path.join(pipeline["report"], "report.json")) as f:
            payload = json.load(f)
        labels = [row["label"] for row in payload["rows"]]
        for expected in ("Accuracy/shape", "Loss/position", "Parameters", "Trained MACC",
                         "Coverage", "Latency total (s)", "Size ratio (proposed/col)"):
            assert expected in labels

    def test_single_format_flag(self, pipeline, tmp_path):
        out = tmp_path / "csvonly"
        run_ok(["compare", "--proposed", pipeline["proposed"],
                "--two-model", pipeline["two_model"],
                "--hard-coded", pipeline["hard_coded"],
                "--out", str(out), "--format", "csv"])
        assert sorted(os.listdir(out)) == ["report.csv", "run_compare.json"]

    def test_identical_run_dirs_give_unit_ratios(self, pipeline, tmp_path):
        out = tmp_path / "self"
        run_ok(["compare", "--proposed", pipeline["proposed"],
                "--two-model", pipeline["proposed"],
                "--hard-coded", pipeline["proposed"], "--out", str(out)])
        with open(out / "report.json") as f:
            payload = json.load(f)
        ratio_rows = [r for r in payload["rows"] if "ratio" in r["label"]]
        assert ratio_rows
        for row in ratio_rows:
            assert all(cell == 1.0 for cell in row["cells"].values()), row

    def test_missing_model_dir_errors(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["compare", "--proposed", str(empty),
                     "--two-model", pipeline["two_model"],
                     "--hard-coded", pipeline["hard_coded"],
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "no model files" in capsys.readouterr().err

    def test_model_label_maps_error_names_its_path(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        model = run / "model.mhf"
        model.write_bytes(model_file_bytes(BACKBONE, "0: x\n"))  # a class line before any category header
        code = main(["compare", "--proposed", str(run), "--two-model", str(run),
                     "--hard-coded", str(run), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{model}: label maps: label maps line 1: class line before any category header" in err


class TestMalformedRunFiles:
    """A run directory's eval.json or bench.json that cannot be read fails with `error:` and its path."""

    @pytest.mark.parametrize("name,text,reason", [
        ("bench.json", '{"total_seconds": 1.0}', "no 'mean_ms' field"),
        ("bench.json", '{"total_seconds": 1.0, "mean_ms": 2.0, "images": 0}', "images is 0"),
        ("eval.json", '{"categories": {"shape": {"loss": 0.5}}}', "no 'accuracy' field"),
        ("eval.json", '{"categor', "JSONDecodeError: "),
    ], ids=["bench_without_mean_ms", "bench_with_zero_images", "eval_cell_without_accuracy", "eval_truncated"])
    def test_names_the_file(self, tmp_path, capsys, name, text, reason):
        run = tmp_path / "run"
        run.mkdir()
        save_model(new_bundle(parse_netspec(BACKBONE)), str(run / "model.mhf"))
        (run / name).write_text(text)
        code = main(["compare", "--proposed", str(run), "--two-model", str(run),
                     "--hard-coded", str(run), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run / name}: {reason}")


class TestThreadCap:
    @staticmethod
    def omp_threads_after_import(env):
        """OMP_NUM_THREADS once a fresh interpreter, importing this mhforge, has loaded the cli."""
        src = os.path.dirname(os.path.dirname(mhforge.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "import mhforge.cli, os; print(os.environ['OMP_NUM_THREADS'])"],
            capture_output=True, text=True, env=env, check=True,
        )
        return out.stdout.strip()

    def test_thread_env_defaults_applied_before_numpy_loads(self):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["MHFORGE_THREADS"] = "3"
        assert self.omp_threads_after_import(env) == "3"

    def test_explicit_blas_setting_wins(self):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = "7"
        env["MHFORGE_THREADS"] = "2"
        assert self.omp_threads_after_import(env) == "7"

    # the variable is read when the cli is imported, so each value needs a fresh interpreter
    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2x", ""])
    def test_value_that_is_not_a_positive_integer_is_refused(self, tmp_path, value):
        src = os.path.dirname(os.path.dirname(mhforge.__file__))
        env = dict(os.environ, MHFORGE_THREADS=value)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "data"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from mhforge.cli import main; sys.exit(main(sys.argv[1:]))",
             "gen-data", "--out", str(out), "--samples", "1"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 1
        assert run.stderr == f"error: MHFORGE_THREADS must be a positive integer, got {value!r}\n"
        assert not out.exists()
