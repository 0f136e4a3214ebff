"""Category/manifest parsing, graymap round-trips, and the synthetic generator."""

import os
import re

import numpy as np
import pytest

from helpers import MALFORMED_PGMS

from mhforge.dataset import (
    DataError,
    LabelCategories,
    ManifestEntry,
    SyntheticConfig,
    generate_synthetic,
    glyph_mask,
    load_images,
    load_pgm,
    load_rasters,
    parse_categories,
    parse_manifest,
    quadrant_center,
    save_pgm,
    scale,
    serialize_categories,
    serialize_manifest,
    with_base,
)


def small_cats():
    return LabelCategories(("shape", "position"), (("square", "circle"), ("nw", "se")))


class TestLabelCategories:
    def test_counts(self):
        c = small_cats()
        assert c.n == 2
        assert c.class_counts == (2, 2)

    def test_duplicate_class_rejected(self):
        with pytest.raises(DataError, match="duplicate class"):
            LabelCategories(("a",), (("x", "x"),))

    def test_duplicate_category_rejected(self):
        with pytest.raises(DataError, match="unique"):
            LabelCategories(("a", "a"), (("x",), ("y",)))

    def test_subset_keeps_order(self):
        c = LabelCategories(("a", "b", "c"), (("1",), ("2",), ("3",)))
        s = c.subset(["c", "a"])
        assert s.names == ("a", "c")

    def test_subset_unknown(self):
        with pytest.raises(DataError, match="unknown categories"):
            small_cats().subset(["nope"])

    def test_index(self):
        assert small_cats().index("position") == 1
        with pytest.raises(DataError, match="unknown category"):
            small_cats().index("z")


class TestCategoryFile:
    def test_round_trip(self):
        text = serialize_categories(small_cats())
        assert parse_categories(text) == small_cats()

    def test_parse_example(self):
        c = parse_categories("make: toyota,nissan,honda\ntype: suv,coupe\n")
        assert c.names == ("make", "type")
        assert c.class_counts == (3, 2)

    def test_missing_colon(self):
        with pytest.raises(DataError, match="line 1"):
            parse_categories("justwords\n")

    def test_empty_class(self):
        with pytest.raises(DataError, match="line 1: empty"):
            parse_categories("a: x,,y\n")

    def test_no_categories(self):
        with pytest.raises(DataError, match="no categories"):
            parse_categories("\n\n")


class TestManifest:
    def test_basic(self):
        entries = parse_manifest("img0.pgm 0 0\n", small_cats())
        assert entries == [ManifestEntry("img0.pgm", (0, 0))]

    def test_boundary_labels(self):
        cats = LabelCategories(("a", "b"), (tuple(map(str, range(48))), tuple(map(str, range(8)))))
        entries = parse_manifest("img1.pgm 47 7\n", cats)
        assert entries[0].labels == (47, 7)

    def test_arity_error(self):
        with pytest.raises(DataError, match="line 1: expected 2 labels, got 1"):
            parse_manifest("img2.pgm 3\n", small_cats())

    def test_out_of_range(self):
        with pytest.raises(DataError, match="label 2 out of range for category shape"):
            parse_manifest("x.pgm 2 0\n", small_cats())

    def test_non_integer(self):
        with pytest.raises(DataError, match="label 'q' is not an integer"):
            parse_manifest("x.pgm q 0\n", small_cats())

    def test_blank_lines_skipped_and_numbered(self):
        with pytest.raises(DataError, match="line 3"):
            parse_manifest("a.pgm 0 0\n\nb.pgm 9 9\n", small_cats())

    def test_round_trip(self):
        entries = [ManifestEntry("a.pgm", (0, 1)), ManifestEntry("b.pgm", (1, 0))]
        assert parse_manifest(serialize_manifest(entries), small_cats()) == entries

    def test_with_base(self):
        joined = with_base([ManifestEntry("a.pgm", (0,))], "/data")
        assert joined[0].image_path == os.path.join("/data", "a.pgm")


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (9, 7))
        p = str(tmp_path / "t.pgm")
        save_pgm(p, img)
        back = scale(load_pgm(p))
        # 8-bit quantization: half a level of error at most
        assert back.shape == (9, 7)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_exact_levels_round_trip(self, tmp_path):
        img = np.arange(256).reshape(16, 16) / 255.0
        p = str(tmp_path / "levels.pgm")
        save_pgm(p, img)
        raster = load_pgm(p)
        assert raster.dtype == np.uint8
        assert np.array_equal(raster, np.arange(256).reshape(16, 16))
        assert np.array_equal(scale(raster), img)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P6\n2 2\n255\n----")
        with pytest.raises(DataError, match="missing P5 magic"):
            load_pgm(str(p))

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\nab")
        with pytest.raises(DataError, match="expected 16 pixel bytes, found 2"):
            load_pgm(str(p))

    def test_header_comment(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# made by hand\n2 1\n255\nAB")
        img = load_pgm(str(p))
        assert img.shape == (1, 2)

    @pytest.mark.parametrize("data, message", MALFORMED_PGMS.values(), ids=MALFORMED_PGMS.keys())
    def test_malformed_header_is_refused_naming_the_file(self, tmp_path, data, message):
        p = tmp_path / "bad.pgm"
        p.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(f"{p}: {message}")):
            load_pgm(str(p))

    @pytest.mark.parametrize(
        "data, pixels",
        [
            (b"P5# made by hand\n2 1\n255\nAB", [[65, 66]]),
            (b"P5\n2\n# height next\n1\n255\nAB", [[65, 66]]),
            (b"P5\n2# width\n1\n255\nAB", [[65, 66]]),
            # one whitespace byte ends the header, so the LF of a CRLF is the first pixel
            (b"P5\n2 1\n255\r\nAB", [[10, 65]]),
        ],
        ids=["comment_after_magic", "comment_between_fields", "comment_right_after_a_field", "crlf_after_maxval"],
    )
    def test_valid_header_forms(self, tmp_path, data, pixels):
        p = tmp_path / "ok.pgm"
        p.write_bytes(data)
        assert load_pgm(str(p)).tolist() == pixels


class TestGlyphs:
    def test_masks_distinct(self):
        center = quadrant_center(34, "nw")
        masks = [glyph_mask(g, 34, center) for g in ("square", "circle", "triangle", "cross")]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(masks[i], masks[j])

    def test_size_roughly_40_percent(self):
        m = glyph_mask("square", 40, quadrant_center(40, "se"))
        rows = np.where(m.any(axis=1))[0]
        assert 14 <= rows[-1] - rows[0] + 1 <= 18

    def test_quadrant_centers(self):
        assert quadrant_center(34, "nw") == (8, 8)
        assert quadrant_center(34, "se") == (25, 25)


class TestGenerate:
    def test_counts_and_coverage(self, tmp_path):
        cfg = SyntheticConfig(samples_per_combo=10, noise_std=0.0, seed=1)
        entries, cats = generate_synthetic(cfg, str(tmp_path))
        assert len(entries) == 160
        assert cats.class_counts == (4, 4)
        combos = {e.labels for e in entries}
        assert len(combos) == 16

    def test_deterministic_bytes(self, tmp_path):
        cfg = SyntheticConfig(samples_per_combo=2, noise_std=0.07, seed=9)
        a, b = tmp_path / "a", tmp_path / "b"
        ea, _ = generate_synthetic(cfg, str(a))
        eb, _ = generate_synthetic(cfg, str(b))
        assert [e.labels for e in ea] == [e.labels for e in eb]
        for e in ea:
            assert (a / e.image_path).read_bytes() == (b / e.image_path).read_bytes()

    def test_centroid_in_labeled_quadrant(self, tmp_path):
        cfg = SyntheticConfig(samples_per_combo=1, noise_std=0.0, seed=3)
        entries, cats = generate_synthetic(cfg, str(tmp_path))
        half = cfg.image_size / 2
        for e in with_base(entries, str(tmp_path)):
            img = load_pgm(e.image_path)
            ys, xs = np.nonzero(img)
            cy, cx = ys.mean(), xs.mean()
            quadrant = cats.class_names[1][e.labels[1]]
            assert (cy < half) == (quadrant in ("nw", "ne")), e.image_path
            assert (cx < half) == (quadrant in ("nw", "sw")), e.image_path

    def test_bad_config(self):
        with pytest.raises(DataError, match="image_size"):
            SyntheticConfig(image_size=4)
        with pytest.raises(DataError, match="noise_std"):
            SyntheticConfig(noise_std=-0.1)


class TestBatches:
    def write_set(self, tmp_path, n=10):
        cats = LabelCategories(("a", "b"), (("0", "1"), ("0", "1", "2")))
        entries = []
        for i in range(n):
            name = f"i{i}.pgm"
            save_pgm(str(tmp_path / name), np.full((6, 6), i / 255.0))
            entries.append(ManifestEntry(str(tmp_path / name), (i % 2, i % 3)))
        return entries, cats

    def test_pixel_scaling(self, tmp_path):
        entries, _ = self.write_set(tmp_path, 3)
        t = load_images(entries)
        assert t.shape == (3, 1, 6, 6)
        assert abs(t.data[2, 0, 0, 0] - 2 / 255.0) < 1e-12

    def test_rasters_are_the_files_bytes(self, tmp_path):
        entries, _ = self.write_set(tmp_path, 4)
        rasters = load_rasters(entries)
        assert rasters.dtype == np.uint8 and rasters.shape == (4, 1, 6, 6)
        for i, e in enumerate(entries):
            with open(e.image_path, "rb") as f:
                assert rasters[i, 0].tobytes() == f.read()[-36:]

    def test_size_mismatch_names_the_image(self, tmp_path):
        entries, _ = self.write_set(tmp_path, 3)
        save_pgm(entries[2].image_path, np.zeros((6, 5)))
        with pytest.raises(DataError, match=re.escape(f"{entries[2].image_path}: size (6, 5) differs from (6, 6)")):
            load_rasters(entries)


def per_image_float_reference(entries, h, w):
    """The (N, 1, h, w) float64 pixels, each image's trailing h*w raster bytes decoded on its own as levels / 255."""
    images = []
    for e in entries:
        with open(e.image_path, "rb") as f:
            data = f.read()
        raster = data[len(data) - h * w :]
        images.append(np.frombuffer(raster, np.uint8).astype(np.float64).reshape(1, h, w) / 255.0)
    return np.stack(images)


class TestImagesEqualPerImageReference:
    """load_images scales the whole stack of rasters at once; its pixels are the per-image decode's, bit for bit."""

    def test_all_256_levels(self, tmp_path):
        path = str(tmp_path / "levels.pgm")
        save_pgm(path, np.arange(256).reshape(16, 16) / 255.0)
        entries = [ManifestEntry(path, (0,))]
        got = load_images(entries).data
        assert got.dtype == np.float64
        assert got.tobytes() == per_image_float_reference(entries, 16, 16).tobytes()

    def test_noisy_synthetic_set(self, tmp_path):
        entries, _ = generate_synthetic(SyntheticConfig(samples_per_combo=3, noise_std=0.2, seed=4), str(tmp_path))
        entries = with_base(entries, str(tmp_path))
        got = load_images(entries).data
        assert got.shape == (48, 1, 34, 34)
        assert got.tobytes() == per_image_float_reference(entries, 34, 34).tobytes()
