"""Self-describing binary model files: spec text, label maps, and 32-bit weights.

A bundle is its spec and its parameters: the label maps are the spec's bound
categories, which are exactly its head tags, so loading refuses label maps
that name a category no head classifies.

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
from dataclasses import dataclass
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
    """A network description (with its bound label categories) plus its parameters."""

    spec: NetworkSpec
    params: dict[str, LayerParams]

    def __post_init__(self) -> None:
        for lay in self.spec.param_layers():
            if lay.name not in self.params:
                raise ModelFileError(f"layer {lay.name} has no parameters")


def serialize_label_maps(categories: LabelCategories | None) -> str:
    if categories is None:
        return ""
    lines = []
    for name, classes in zip(categories.names, categories.class_names):
        lines.append(f"category {name}")
        for i, cls in enumerate(classes):
            lines.append(f"{i}: {cls}")
    return "\n".join(lines) + "\n"


def parse_label_maps(text: str) -> LabelCategories | None:
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
    return LabelCategories(tuple(maps), tuple(map(tuple, maps.values()))) if maps else None


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
    return ModelBundle(spec, params)


def _header(spec: NetworkSpec) -> list[bytes]:
    """Magic, version, and the two length-prefixed texts: the network description and the label maps."""
    spec_text = serialize_netspec(spec).encode("utf-8")
    maps_text = serialize_label_maps(spec.categories).encode("utf-8")
    u32 = struct.Struct("<I").pack
    return [MAGIC, u32(FORMAT_VERSION), u32(len(spec_text)), spec_text, u32(len(maps_text)), maps_text]


def header_bytes(spec: NetworkSpec) -> int:
    """Bytes before the weight payload (magic, version, both texts) of a file saved from a bundle of `spec`."""
    return sum(map(len, _header(spec)))


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
    return write_atomic(path, _header(bundle.spec) + payload)


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

    def text(what: str) -> str:
        (length,) = struct.unpack("<I", take(4, f"{what} length"))
        try:
            return take(length, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"{path}: {what} is not UTF-8 text (byte {exc.start} of it: {exc.reason})") from None

    (version,) = struct.unpack("<I", take(4, "format version"))
    if version != FORMAT_VERSION:
        raise ModelFileError(f"{path}: format version {version} not supported (want {FORMAT_VERSION})")
    spec_text = text("network description")
    maps_text = text("label maps")

    spec = parse_netspec(spec_text)
    categories = parse_label_maps(maps_text)
    if categories is not None:
        spec = bind_categories(spec, categories)
        extra = [name for name in categories.names if name not in spec.categories.names]
        if extra:
            raise ModelFileError(f"{path}: label maps name categories no head classifies: {extra}")

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
    return ModelBundle(spec, params)
