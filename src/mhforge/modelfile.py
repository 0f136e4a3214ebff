"""Self-describing binary model files: spec text, label maps, and 32-bit weights.

Layout, all integers little-endian u32:

    8 bytes   magic "MHFORGE1"
    4 bytes   format version (currently 1)
    4 bytes   byte length of the network description text, then that text (UTF-8)
    4 bytes   byte length of the label-maps text, then that text (UTF-8)
    then, for each conv/fc layer in description order:
              weights then bias as raw little-endian float32

Weight shapes are fully determined by the description, so the payload needs
no per-layer framing and the total file size is computable from the
description alone (see analysis.estimate_size).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .dataset import LabelCategories
from .errors import MhforgeError
from .fileio import write_atomic
from .netspec import NetworkSpec, bind_categories, parse_netspec, serialize_netspec, weight_shapes
from .tensor_ops import SEED_MASK, LayerParams, Tensor, init_params

MAGIC = b"MHFORGE1"
FORMAT_VERSION = 1


class ModelFileError(MhforgeError):
    """Corrupt, truncated, or foreign model file."""


@dataclass
class ModelBundle:
    """A network description plus its parameters and label-index -> name maps."""

    spec: NetworkSpec
    params: dict[str, LayerParams]
    label_maps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        for lay in self.spec.param_layers():
            if lay.name not in self.params:
                raise ModelFileError(f"layer {lay.name} has no parameters")


def label_maps_from_categories(categories: LabelCategories | None) -> dict[str, tuple[str, ...]]:
    if categories is None:
        return {}
    return dict(zip(categories.names, categories.class_names))


def serialize_label_maps(label_maps: dict[str, tuple[str, ...]]) -> str:
    lines = []
    for name, classes in label_maps.items():
        lines.append(f"category {name}")
        for i, cls in enumerate(classes):
            lines.append(f"{i}: {cls}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_label_maps(text: str) -> dict[str, tuple[str, ...]]:
    maps: dict[str, list[str]] = {}
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("category "):
            name = line[len("category ") :].strip()
            if not name or name in maps:
                raise ModelFileError(f"label maps line {lineno}: bad category header {line!r}")
            current = maps.setdefault(name, [])
            continue
        if current is None:
            raise ModelFileError(f"label maps line {lineno}: class line before any category header")
        idx_s, sep, cls = line.partition(":")
        cls = cls.strip()
        if not sep or not cls or not idx_s.strip().isdigit():
            raise ModelFileError(f"label maps line {lineno}: expected 'index: class-name'")
        if int(idx_s) != len(current):
            raise ModelFileError(f"label maps line {lineno}: index {idx_s.strip()} out of order")
        current.append(cls)
    return {k: tuple(v) for k, v in maps.items()}


def categories_from_label_maps(label_maps: dict[str, tuple[str, ...]]) -> LabelCategories | None:
    if not label_maps:
        return None
    return LabelCategories(tuple(label_maps), tuple(label_maps.values()))


def new_bundle(spec: NetworkSpec, seed: int = 0) -> ModelBundle:
    """Fresh deterministic parameters for every conv/fc layer of a validated spec."""
    shapes = weight_shapes(spec)
    ss = np.random.SeedSequence(seed & SEED_MASK)
    layer_seeds = ss.generate_state(max(len(shapes), 1), dtype=np.uint64)
    params = {}
    for (name, wshape), layer_seed in zip(shapes.items(), layer_seeds):
        lay = spec.layer(name)
        if lay.head_tag is not None:
            # classifier heads start at zero: uniform initial predictions, and
            # the first update already points along the class feature means
            params[name] = LayerParams(Tensor.zeros(wshape), np.zeros(wshape[0]), lay.frozen)
        else:
            out_dim, in_dim, kernel, _ = wshape
            params[name] = init_params(
                lay.kind, out_dim=out_dim, in_dim=in_dim, kernel=kernel, seed=int(layer_seed), frozen=lay.frozen
            )
    return ModelBundle(spec, params, label_maps_from_categories(spec.categories))


def _header(spec: NetworkSpec, label_maps: dict[str, tuple[str, ...]], version: int) -> list[bytes]:
    """Magic, version, and the two length-prefixed texts: the network description and the label maps."""
    spec_text = serialize_netspec(spec).encode("utf-8")
    maps_text = serialize_label_maps(label_maps).encode("utf-8")
    u32 = struct.Struct("<I").pack
    return [MAGIC, u32(version), u32(len(spec_text)), spec_text, u32(len(maps_text)), maps_text]


def header_bytes(spec: NetworkSpec) -> int:
    """Bytes before the weight payload (magic, version, both texts) of a file saved from `new_bundle(spec)`."""
    return sum(map(len, _header(spec, label_maps_from_categories(spec.categories), FORMAT_VERSION)))


def save_model(bundle: ModelBundle, path: str) -> int:
    """Writes the bundle; returns the byte count, which always equals the file length.

    Refuses, before anything is written, parameters that are not finite as
    float32. The file is replaced whole (see fileio.write_atomic): a failed
    save leaves the previous file as it was.
    """
    payload = []
    for lay in bundle.spec.param_layers():
        p = bundle.params[lay.name]
        with np.errstate(over="ignore"):
            arrays = (p.weights.data.astype("<f4"), p.bias.astype("<f4"))
        if not all(np.isfinite(a).all() for a in arrays):
            raise ModelFileError(f"layer {lay.name}: weights or bias are not finite as float32; nothing written")
        payload += [a.tobytes() for a in arrays]
    return write_atomic(path, _header(bundle.spec, bundle.label_maps, bundle.format_version) + payload)


def load_model(path: str) -> ModelBundle:
    with open(path, "rb") as f:
        blob = f.read()

    if blob[: len(MAGIC)] != MAGIC:
        raise ModelFileError(f"{path}: bad magic, not a model file")
    pos = len(MAGIC)

    def take(count: int, what: str) -> bytes:
        nonlocal pos
        if pos + count > len(blob):
            raise ModelFileError(f"{path}: truncated file while reading {what}")
        chunk = blob[pos : pos + count]
        pos += count
        return chunk

    (version,) = struct.unpack("<I", take(4, "format version"))
    if version != FORMAT_VERSION:
        raise ModelFileError(f"{path}: format version {version} not supported (want {FORMAT_VERSION})")
    (spec_len,) = struct.unpack("<I", take(4, "spec length"))
    spec_text = take(spec_len, "network description").decode("utf-8")
    (maps_len,) = struct.unpack("<I", take(4, "label maps length"))
    maps_text = take(maps_len, "label maps").decode("utf-8")

    spec = parse_netspec(spec_text)
    label_maps = parse_label_maps(maps_text)
    categories = categories_from_label_maps(label_maps)
    if categories is not None:
        spec = bind_categories(spec, categories)

    params = {}
    for name, wshape in weight_shapes(spec).items():
        wraw = take(4 * prod(wshape), f"{name} weights")
        braw = take(4 * wshape[0], f"{name} bias")
        weights = np.frombuffer(wraw, dtype="<f4").astype(np.float64).reshape(wshape)
        bias = np.frombuffer(braw, dtype="<f4").astype(np.float64)
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ModelFileError(f"{path}: layer {name} holds non-finite weights or bias")
        params[name] = LayerParams(Tensor(weights), bias, spec.layer(name).frozen)
    if pos != len(blob):
        raise ModelFileError(f"{path}: {len(blob) - pos} trailing bytes after weights")
    return ModelBundle(spec, params, label_maps, version)
