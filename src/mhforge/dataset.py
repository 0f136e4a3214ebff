"""Label-category metadata, manifest parsing, and a deterministic synthetic image set.

The synthetic images carry two mutually exclusive attributes: which glyph is
drawn (square, circle, triangle, cross) and which quadrant holds it. That
gives a tiny multi-label task a small CNN can master in minutes.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import MhforgeError
from .tensor_ops import SEED_MASK, Tensor


class DataError(MhforgeError):
    """Malformed manifest, category file, image, or generator config."""


@dataclass(frozen=True)
class LabelCategories:
    """Ordered label categories, each with its class-index -> name table."""

    names: tuple[str, ...]
    class_names: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.names) < 1:
            raise DataError("need at least one label category")
        if len(self.names) != len(set(self.names)):
            raise DataError("category names must be unique")
        if len(self.class_names) != len(self.names):
            raise DataError(f"{len(self.names)} categories but {len(self.class_names)} class lists")
        for name, classes in zip(self.names, self.class_names):
            if len(classes) < 1:
                raise DataError(f"category {name} has no classes")
            if len(classes) != len(set(classes)):
                raise DataError(f"category {name} has duplicate class names")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.class_names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown category {name!r}; have {list(self.names)}") from None

    def subset(self, wanted: list[str] | tuple[str, ...]) -> "LabelCategories":
        """The categories named in `wanted`, kept in this object's order."""
        keep = [k for k, name in enumerate(self.names) if name in wanted]
        missing = set(wanted) - set(self.names)
        if missing:
            raise DataError(f"unknown categories {sorted(missing)}; have {list(self.names)}")
        return LabelCategories(
            tuple(self.names[k] for k in keep),
            tuple(self.class_names[k] for k in keep),
        )


def parse_categories(text: str) -> LabelCategories:
    """Parses `name: class0,class1,...` lines; blank lines are skipped."""
    names = []
    class_lists = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise DataError(f"line {lineno}: expected 'name: class0,class1,...'")
        name, _, rest = line.partition(":")
        name = name.strip()
        classes = tuple(c.strip() for c in rest.split(","))
        if not name or any(not c for c in classes):
            raise DataError(f"line {lineno}: empty category or class name")
        names.append(name)
        class_lists.append(classes)
    if not names:
        raise DataError("category file defines no categories")
    return LabelCategories(tuple(names), tuple(class_lists))


def serialize_categories(categories: LabelCategories) -> str:
    lines = [f"{name}: {','.join(classes)}" for name, classes in zip(categories.names, categories.class_names)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ManifestEntry:
    """One image path plus its per-category class ids."""

    image_path: str
    labels: tuple[int, ...]


def parse_manifest(text: str, categories: LabelCategories) -> list[ManifestEntry]:
    """Parses `path lab_1 ... lab_n` lines and range-checks every label."""
    n = categories.n
    counts = categories.class_counts
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        path, labs = parts[0], parts[1:]
        if len(labs) != n:
            raise DataError(f"line {lineno}: expected {n} labels, got {len(labs)}")
        values = []
        for k, tok in enumerate(labs):
            try:
                v = int(tok)
            except ValueError:
                raise DataError(f"line {lineno}: label {tok!r} is not an integer") from None
            if v < 0 or v >= counts[k]:
                raise DataError(
                    f"line {lineno}: label {v} out of range for category "
                    f"{categories.names[k]} ({counts[k]} classes)"
                )
            values.append(v)
        entries.append(ManifestEntry(path, tuple(values)))
    return entries


def serialize_manifest(entries: list[ManifestEntry]) -> str:
    lines = [" ".join([e.image_path, *map(str, e.labels)]) for e in entries]
    return "\n".join(lines) + "\n"


def with_base(entries: list[ManifestEntry], base_dir: str) -> list[ManifestEntry]:
    """Returns entries with image paths joined onto base_dir (manifest-relative -> absolute)."""
    return [ManifestEntry(os.path.join(base_dir, e.image_path), e.labels) for e in entries]


def save_pgm(path: str, image: np.ndarray) -> None:
    """Writes a 2-D array of [0,1] floats as an 8-bit binary portable graymap."""
    if image.ndim != 2:
        raise DataError(f"image must be 2-D, got shape {image.shape}")
    h, w = image.shape
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


# magic; width, height and maxval as unsigned decimals, each after whitespace or
# '#' comments; then exactly one whitespace byte before the raster
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def load_pgm(path: str) -> np.ndarray:
    """Reads an 8-bit binary portable graymap's raster as a 2-D uint8 array; `scale` gives its pixels."""
    with open(path, "rb", buffering=0) as f:  # one read of the whole file, no buffer in between
        data = f.readall()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary portable graymap (missing P5 magic)")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise DataError(f"{path}: malformed header")
    w, h, maxval = map(int, header.groups())
    if w < 1 or h < 1:
        raise DataError(f"{path}: image is {w}x{h}; width and height must be at least 1")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    found = len(data) - header.end()
    if found != w * h:
        raise DataError(f"{path}: expected {w * h} pixel bytes, found {found}")
    return np.frombuffer(data, dtype=np.uint8, offset=header.end()).reshape(h, w)


def scale(rasters: np.ndarray) -> np.ndarray:
    """The float64 pixels of 8-bit rasters: each byte / 255, in [0, 1]."""
    pixels = rasters.astype(np.float64)
    pixels /= 255.0
    return pixels


GLYPHS = ("square", "circle", "triangle", "cross")
QUADRANTS = ("nw", "ne", "sw", "se")


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings. Defaults produce 16 combos learnable by a small net."""

    image_size: int = 34
    samples_per_combo: int = 80
    noise_std: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.image_size < 8:
            raise DataError(f"image_size must be >= 8, got {self.image_size}")
        if self.samples_per_combo < 1:
            raise DataError(f"samples_per_combo must be >= 1, got {self.samples_per_combo}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise DataError(f"noise_std must be finite and >= 0, got {self.noise_std}")


def quadrant_center(size: int, quadrant: str) -> tuple[int, int]:
    lo, hi = size // 4, 3 * size // 4
    return {
        "nw": (lo, lo),
        "ne": (lo, hi),
        "sw": (hi, lo),
        "se": (hi, hi),
    }[quadrant]


def glyph_mask(shape: str, size: int, center: tuple[int, int]) -> np.ndarray:
    """Boolean mask of one glyph roughly 40% of the image wide, centered at (row, col)."""
    g = max(3, round(0.4 * size))
    half = g // 2
    r, c = center
    yy, xx = np.ogrid[0:size, 0:size]
    if shape == "square":
        return (np.abs(yy - r) <= half) & (np.abs(xx - c) <= half)
    if shape == "circle":
        return (yy - r) ** 2 + (xx - c) ** 2 <= half * half
    if shape == "triangle":
        # filled isoceles pointing up: width grows linearly from apex to base
        dy = yy - (r - half)
        inside_rows = (dy >= 0) & (dy <= g)
        width = dy * half / max(g, 1)
        return inside_rows & (np.abs(xx - c) <= width)
    if shape == "cross":
        t = max(1, g // 6)
        horiz = (np.abs(yy - r) <= t) & (np.abs(xx - c) <= half)
        vert = (np.abs(xx - c) <= t) & (np.abs(yy - r) <= half)
        return horiz | vert
    raise DataError(f"unknown glyph {shape!r}")


def render_image(shape: str, quadrant: str, size: int, noise_std: float, rng) -> np.ndarray:
    img = glyph_mask(shape, size, quadrant_center(size, quadrant)).astype(np.float64)
    if noise_std > 0:
        img = img + rng.normal(0.0, noise_std, img.shape)
    return np.clip(img, 0.0, 1.0)


def generate_synthetic(config: SyntheticConfig, out_dir: str) -> tuple[list[ManifestEntry], LabelCategories]:
    """Writes one portable graymap per (shape, position, sample) and returns the manifest entries.

    Entry paths are relative to out_dir. Fully deterministic for a given seed.
    """
    categories = LabelCategories(("shape", "position"), (GLYPHS, QUADRANTS))
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed & SEED_MASK)
    entries = []
    idx = 0
    for si, shape in enumerate(GLYPHS):
        for pi, pos in enumerate(QUADRANTS):
            for _ in range(config.samples_per_combo):
                img = render_image(shape, pos, config.image_size, config.noise_std, rng)
                name = f"img_{idx:05d}.pgm"
                save_pgm(os.path.join(out_dir, name), img)
                entries.append(ManifestEntry(name, (si, pi)))
                idx += 1
    return entries, categories


def epoch_order(count: int, seed: int) -> np.ndarray:
    """Deterministic shuffled visit order for one epoch."""
    rng = np.random.default_rng(np.random.SeedSequence(seed & SEED_MASK))
    return rng.permutation(count)


def load_rasters(entries: list[ManifestEntry]) -> np.ndarray:
    """Decodes every entry's graymap into one (N, 1, H, W) uint8 stack of rasters."""
    if not entries:
        raise DataError("no entries to load")
    first = load_pgm(entries[0].image_path)
    stack = np.empty((len(entries), 1, *first.shape), dtype=np.uint8)
    stack[0, 0] = first
    for i, e in enumerate(entries[1:], start=1):
        img = load_pgm(e.image_path)
        if img.shape != first.shape:
            raise DataError(f"{e.image_path}: size {img.shape} differs from {first.shape}")
        stack[i, 0] = img
    return stack


def load_images(entries: list[ManifestEntry]) -> Tensor:
    """Decodes every entry's graymap into one (N, 1, H, W) tensor of pixels in [0, 1]."""
    return Tensor(scale(load_rasters(entries)))
