"""Latency measurement, and writing the comparison report in each of its formats."""

import json

import numpy as np
import pytest

from mhforge.analysis import AnalysisError, compare_variants, count_macc, write_report
from mhforge.bench import BenchError, LatencyStats, measure_latency, timings_csv
from mhforge.dataset import LabelCategories
from mhforge.modelfile import new_bundle
from mhforge.netspec import parse_netspec
from mhforge.surgery import VARIANT_KINDS, attach_heads, build_two_model
from mhforge.tensor_ops import Tensor

BACKBONE = """\
input name=img shape=1x16x16
conv name=c1 in=img out_channels=8 kernel=3
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2
gavgpool name=g in=p1
"""

CATS = LabelCategories(("kind", "spot"), (("a", "b", "c"), ("x", "y")))


def bundles_and_images(n_images=4, seed=0):
    backbone = parse_netspec(BACKBONE)
    proposed = new_bundle(attach_heads(backbone, CATS, "g"), seed=seed)
    pair = [new_bundle(s, seed=seed + i) for i, s in enumerate(build_two_model(backbone, CATS, "g"))]
    rng = np.random.default_rng(seed)
    images = [Tensor(rng.uniform(0.0, 1.0, (1, 1, 16, 16))) for _ in range(n_images)]
    return proposed, pair, images


class TestMeasureLatency:
    def test_stats_are_consistent_with_samples(self):
        proposed, _, images = bundles_and_images()
        stats = measure_latency([proposed], images, repeats=4, variant="proposed")
        assert stats.variant == "proposed"
        assert stats.runs == 4
        assert stats.images == len(images)
        assert len(stats.per_run_seconds) == 4
        assert all(s > 0 for s in stats.per_run_seconds)
        arr = np.array(stats.per_run_seconds)
        assert stats.total_seconds == pytest.approx(arr.sum(), rel=1e-12)
        assert stats.mean_ms == pytest.approx(arr.mean() * 1000, rel=1e-12)
        assert stats.median_ms == pytest.approx(np.median(arr) * 1000, rel=1e-12)
        assert stats.std_ms == pytest.approx(arr.std() * 1000, rel=1e-9, abs=1e-12)
        assert stats.throughput_images_per_s == pytest.approx(
            stats.runs * stats.images / stats.total_seconds, rel=1e-12
        )

    def test_spread_is_ordered_and_matches_samples(self):
        proposed, _, images = bundles_and_images(n_images=2)
        stats = measure_latency([proposed], images, repeats=5)
        ms = sorted(s * 1000.0 for s in stats.per_run_seconds)
        assert stats.min_ms <= stats.q1_ms <= stats.median_ms <= stats.q3_ms <= stats.max_ms
        assert stats.min_ms == pytest.approx(ms[0], rel=1e-12)
        assert stats.q1_ms == pytest.approx(ms[1], rel=1e-12)  # five samples: the quartiles fall on samples
        assert stats.median_ms == pytest.approx(ms[2], rel=1e-12)
        assert stats.q3_ms == pytest.approx(ms[3], rel=1e-12)
        assert stats.max_ms == pytest.approx(ms[4], rel=1e-12)

    def test_single_repeat(self):
        proposed, _, images = bundles_and_images(n_images=2)
        stats = measure_latency([proposed], images, repeats=1)
        assert stats.runs == 1
        assert stats.std_ms == 0.0

    def test_accepts_bundle_list(self):
        _, pair, images = bundles_and_images(n_images=2)
        stats = measure_latency(pair, images, repeats=2, variant="two_model")
        assert stats.runs == 2
        assert stats.images == 2

    def test_two_model_pass_is_slower_than_shared_pass(self):
        # the pair does strictly more arithmetic per image than one shared model
        proposed, pair, images = bundles_and_images(n_images=6)
        single = measure_latency([proposed], images, repeats=3)
        double = measure_latency(pair, images, repeats=3)
        assert double.mean_ms > single.mean_ms

    def test_empty_bundle_list_rejected(self):
        _, _, images = bundles_and_images()
        with pytest.raises(BenchError, match="no models"):
            measure_latency([], images, repeats=1)

    def test_empty_image_list_rejected(self):
        proposed, _, _ = bundles_and_images()
        with pytest.raises(BenchError, match="image list is empty"):
            measure_latency([proposed], [], repeats=1)

    def test_bad_repeats_rejected(self):
        proposed, _, images = bundles_and_images()
        with pytest.raises(BenchError, match="repeats must be >= 1"):
            measure_latency([proposed], images, repeats=0)

    def test_prediction_drift_between_runs_rejected(self, monkeypatch):
        proposed, _, images = bundles_and_images(n_images=2)
        calls = {"n": 0}

        def drifting(bundle, image):
            calls["n"] += 1
            return (np.array([calls["n"]]), np.array([0]))

        import mhforge.bench as bench_mod

        monkeypatch.setattr(bench_mod, "predict_ids", drifting)
        with pytest.raises(BenchError, match="predictions differ from the warm-up pass"):
            measure_latency([proposed], images, repeats=1)


class TestTimingsCsv:
    def test_layout(self):
        stats = LatencyStats(
            variant="proposed",
            runs=2,
            images=3,
            per_run_seconds=(0.5, 0.25),
            total_seconds=0.75,
            mean_ms=375.0,
            median_ms=375.0,
            std_ms=125.0,
            throughput_images_per_s=8.0,
            min_ms=250.0,
            q1_ms=312.5,
            q3_ms=437.5,
            max_ms=500.0,
        )
        assert timings_csv(stats) == "run_index,seconds\n0,0.500000000\n1,0.250000000\n"


class TestEmitReport:
    """analysis.write_report, one test per format and one for a format it does not know."""

    def make_report(self):
        backbone = parse_netspec(BACKBONE)
        spec = attach_heads(backbone, CATS, "g")
        breakdowns = {kind: count_macc(spec) for kind in VARIANT_KINDS}
        return compare_variants(breakdowns)

    def test_text_format(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.txt"
        written = write_report(report, "text", str(path))
        data = path.read_bytes()
        assert written == len(data)
        first = data.decode().splitlines()[0].split()
        assert first == ["metric", "proposed", "two_model", "hard_coded"]

    def test_json_format(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        write_report(report, "json", str(path))
        payload = json.loads(path.read_text())
        assert payload["variants"] == ["proposed", "two_model", "hard_coded"]
        assert {r["label"] for r in payload["rows"]} >= {"Parameters", "Trained MACC"}

    def test_csv_format(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        write_report(report, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,proposed,two_model,hard_coded"
        assert len(lines) == 1 + len(report.rows)

    def test_unknown_format_rejected(self, tmp_path):
        report = self.make_report()
        with pytest.raises(AnalysisError, match="format must be one of"):
            write_report(report, "yaml", str(tmp_path / "x"))
