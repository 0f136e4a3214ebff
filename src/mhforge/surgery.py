"""Builds the three comparison variants from one backbone.

proposed: one shared backbone with one classification head per label category.
two_model: n independent single-head copies of the backbone, one per category.
hard_coded: one head over the combined label space, restricted to the label
combinations actually observed in the data.

In every variant the backbone is frozen and only head parameters train.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import LabelCategories, ManifestEntry
from .errors import MhforgeError
from .netspec import LayerSpec, NetworkSpec, validate_shapes

PROPOSED = "proposed"
TWO_MODEL = "two_model"
HARD_CODED = "hard_coded"
VARIANT_KINDS = (PROPOSED, TWO_MODEL, HARD_CODED)


class SurgeryError(MhforgeError):
    """Backbone unsuitable for head attachment, or bad label-combination data."""


def freeze_layers(spec: NetworkSpec) -> NetworkSpec:
    """Marks every parameterized layer frozen; other kinds carry no parameters."""
    frozen = tuple(replace(l, frozen=True) if l.has_params else l for l in spec.layers)
    return replace(spec, layers=frozen)


def attach_heads(backbone: NetworkSpec, categories: LabelCategories, feature_layer: str) -> NetworkSpec:
    """Freezes the backbone and appends one fc+loss+accuracy triple per category.

    The serialized result starts with the serialization of the frozen
    backbone: attachment never rewrites existing topology.
    """
    names = {l.name for l in backbone.layers}
    if feature_layer not in names:
        raise SurgeryError(f"missing feature layer {feature_layer!r}")
    if backbone.heads() or backbone.losses() or backbone.accuracies():
        raise SurgeryError("backbone already has classification heads attached")
    for cat, count in zip(categories.names, categories.class_counts):
        if count < 2:
            raise SurgeryError(f"category {cat} has {count} class; heads need at least 2")

    shapes = validate_shapes(backbone)
    c, h, w = shapes[feature_layer]
    if h != 1 or w != 1:
        raise SurgeryError(f"feature layer {feature_layer!r} yields {c}x{h}x{w}, not a flat vector")

    new_layers = list(freeze_layers(backbone).layers)
    for cat, count in zip(categories.names, categories.class_counts):
        head, loss, acc = f"head_{cat}", f"loss_{cat}", f"acc_{cat}"
        for name in (head, loss, acc):
            if name in names:
                raise SurgeryError(f"backbone already has a layer named {name!r}")
        new_layers.append(
            LayerSpec(name=head, kind="fc", inputs=(feature_layer,), out_features=count, in_features=c, head_tag=cat)
        )
        new_layers.append(LayerSpec(name=loss, kind="loss", inputs=(head,), label_slot=cat, loss_weight=1.0))
        new_layers.append(LayerSpec(name=acc, kind="accuracy", inputs=(head,), label_slot=cat))

    spec = replace(backbone, layers=tuple(new_layers), categories=categories)
    validate_shapes(spec)
    return spec


def build_two_model(backbone: NetworkSpec, categories: LabelCategories, feature_layer: str) -> list[NetworkSpec]:
    """One independent single-head spec per category; costs add across them."""
    return [attach_heads(backbone, categories.subset([name]), feature_layer) for name in categories.names]


@dataclass(frozen=True)
class HcLabelMap:
    """Dense numbering of the observed label combinations, in lexicographic order."""

    combos: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """Combination -> dense class id, built on first read."""
        return {combo: i for i, combo in enumerate(self.combos)}


def hc_category_name(categories: LabelCategories) -> str:
    return "+".join(categories.names)


def hc_categories(categories: LabelCategories, hc_map: HcLabelMap) -> LabelCategories:
    """The single merged category whose class names are the comma-joined label combinations."""
    class_names = tuple(",".join(map(str, combo)) for combo in hc_map.combos)
    return LabelCategories((hc_category_name(categories),), (class_names,))


def build_hard_coded(
    backbone: NetworkSpec,
    categories: LabelCategories,
    observed: list[tuple[int, ...]],
    feature_layer: str,
) -> tuple[NetworkSpec, HcLabelMap]:
    """Single head over the distinct observed combinations, densely numbered."""
    if not observed:
        raise SurgeryError("observed combination set is empty")
    counts = categories.class_counts
    for combo in observed:
        if len(combo) != categories.n:
            raise SurgeryError(f"combination {combo} has {len(combo)} labels, expected {categories.n}")
        for k, v in enumerate(combo):
            if v < 0 or v >= counts[k]:
                raise SurgeryError(
                    f"combination {combo}: label {v} out of range for category {categories.names[k]}"
                )
    combos = tuple(sorted(set(map(tuple, observed))))
    if len(combos) < 2:
        raise SurgeryError(f"HC requires at least 2 classes, observed only {len(combos)}")
    hc_map = HcLabelMap(combos)
    spec = attach_heads(backbone, hc_categories(categories, hc_map), feature_layer)
    return spec, hc_map


def hc_encode(hc_map: HcLabelMap, combo: tuple[int, ...]) -> int:
    try:
        return hc_map.index[tuple(combo)]
    except KeyError:
        raise SurgeryError(
            f"combination {tuple(combo)} was never observed; the hard-coded label space cannot express it"
        ) from None


def convert_manifest_hc(entries: list[ManifestEntry], hc_map: HcLabelMap) -> list[ManifestEntry]:
    """Replaces each entry's n labels with its single dense HC class id; an unobserved combination names the image."""
    converted = []
    for e in entries:
        try:
            hc_id = hc_encode(hc_map, e.labels)
        except SurgeryError as exc:
            raise SurgeryError(f"{e.image_path}: {exc}") from None
        converted.append(ManifestEntry(e.image_path, (hc_id,)))
    return converted


def hc_scores(hc_map: HcLabelMap, logits: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per category, the NLL sum and the hits of a set of merged-label predictions, decoded through the map.

    `logits` are the merged head's (images, combinations) outputs and `truth`
    the (images, categories) true label tuples. A hit is a decoded argmax
    combination that holds the true class; the NLL is the negative log of
    the marginal probability mass on the true class within the category,
    taken by log-sum-exp over the logits so that it stays finite where the
    softmax underflows to zero.
    """
    combos = np.array(hc_map.combos, dtype=np.int64)  # (n_combos, n_cats)
    hits = (combos[logits.argmax(axis=1)] == truth).sum(axis=0)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_total = np.log(np.exp(shifted).sum(axis=1))
    nll = np.zeros(combos.shape[1])
    for k in range(combos.shape[1]):
        # log of the marginal probability mass on the true class within category k
        sel = combos[None, :, k] == truth[:, k][:, None]
        masked = np.where(sel, shifted, -np.inf)
        top = masked.max(axis=1, keepdims=True)
        log_mass = top[:, 0] + np.log(np.exp(masked - top).sum(axis=1))
        nll[k] = (log_total - log_mass).sum()
    return nll, hits


def serialize_hc_map(hc_map: HcLabelMap) -> str:
    return "\n".join(f"{i}: {','.join(map(str, combo))}" for i, combo in enumerate(hc_map.combos)) + "\n"


def parse_hc_map(text: str) -> HcLabelMap:
    combos = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        idx_s, sep, rest = line.partition(":")
        if not sep or not idx_s.strip().isdigit():
            raise SurgeryError(f"HC map line {lineno}: expected 'id: lab_1,...,lab_n'")
        if int(idx_s) != len(combos):
            raise SurgeryError(f"HC map line {lineno}: id {idx_s.strip()} out of order")
        try:
            combo = tuple(int(tok) for tok in rest.strip().split(","))
        except ValueError:
            raise SurgeryError(f"HC map line {lineno}: non-integer label in {rest.strip()!r}") from None
        if combos and len(combo) != len(combos[0]):
            raise SurgeryError(f"HC map line {lineno}: {len(combo)} labels, but the first line has {len(combos[0])}")
        combos.append(combo)
    if not combos:
        raise SurgeryError("HC map file holds no combinations")
    return HcLabelMap(tuple(combos))
