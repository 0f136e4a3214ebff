"""Network description language: a line-based text format, its parser, and the shape validator.

One directive per line, `key=value` pairs, `#` comments:

    input name=data shape=3x32x32
    conv name=c1 in=data out_channels=8 kernel=3 stride=1 pad=1
    relu name=r1 in=c1
    maxpool name=p1 in=r1 kernel=2 stride=2
    gavgpool name=g in=p1
    fc name=head_make in=g out=48 head=make
    loss name=loss_make in=head_make label=make weight=1.0
    accuracy name=acc_make in=head_make label=make

Layers must be defined before they are referenced. conv and fc layers accept
`frozen=true`; fc layers accept `in_features=D` to pin their expected input
width. A category binding (which label categories feed which heads) is not
part of the text: it is attached separately with bind_categories.

Each layer kind is described once, in `_LAYER_KINDS`: the keys it takes, its
output shape, its weight shape and how its weights are initialised. Parsing,
serializing, shape validation, the cost model and the model file all read
that table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from math import prod
from typing import Callable

from .dataset import LabelCategories
from .errors import MhforgeError
from .tensor_ops import Initialiser, Shape4, glorot_uniform, he_normal, window_out_dim

Shape3 = tuple[int, int, int]

_NAME_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")
_INT_RE = re.compile(r"-?\d+\Z")
_SHAPE_RE = re.compile(r"(\d+)x(\d+)x(\d+)\Z")
_TOKEN_RE = re.compile(r"\S+")


class NetspecError(MhforgeError):
    """Base for parse and validation failures."""


class ParseError(NetspecError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None) -> None:
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)


class ValidationError(NetspecError):
    """A structurally parsed spec whose shapes or wiring do not add up."""


@dataclass(frozen=True)
class LayerSpec:
    """One directive. Fields that do not apply to the kind stay None."""

    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    kernel: int | None = None
    stride: int | None = None
    pad: int | None = None
    out_channels: int | None = None
    out_features: int | None = None
    in_features: int | None = None
    label_slot: str | None = None
    loss_weight: float | None = None
    frozen: bool = False
    head_tag: str | None = None

    @property
    def has_params(self) -> bool:
        return _LAYER_KINDS[self.kind].weight_shape is not None

    def weight_shape(self, in_shape: Shape3) -> Shape4:
        """(out, in, K, K) weights of this parameterised layer when its input is `in_shape`."""
        return _LAYER_KINDS[self.kind].weight_shape(self, in_shape)

    @property
    def initialiser(self) -> Initialiser:
        """How this parameterised layer's initial weights are drawn."""
        return _LAYER_KINDS[self.kind].initialiser


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered, define-before-use layer list plus the input shape (C, H, W)."""

    layers: tuple[LayerSpec, ...]
    input_shape: Shape3
    categories: LabelCategories | None = None
    # kept set -> the forward-pass program `training` builds for this spec on first use: one step per layer
    # that produces a tensor. The loss and accuracy sinks describe training and scoring and are not pass
    # steps. Not compared, hashed, printed or serialized; dataclasses.replace starts an empty one.
    pass_programs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def layer(self, name: str) -> LayerSpec:
        for lay in self.layers:
            if lay.name == name:
                return lay
        raise ValidationError(f"no layer named {name!r}")

    def heads(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.kind == "fc" and l.head_tag is not None)

    def losses(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.kind == "loss")

    def accuracies(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.kind == "accuracy")

    def param_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.has_params)


@dataclass(frozen=True)
class LayerKind:
    """What every module needs to know about one layer kind."""

    keys: tuple[str, ...]  # accepted beyond name=, in the order serialize_netspec writes them
    required: tuple[str, ...]
    out_shape: Callable[[LayerSpec, Shape3], Shape3] | None = None  # raises on impossible sizes; None: metric sink
    weight_shape: Callable[[LayerSpec, Shape3], Shape4] | None = None  # (out, in, K, K); None: no parameters
    initialiser: Initialiser | None = None  # draws the initial weights of a kind with parameters
    defaults: Callable[[dict], dict] = lambda f: {}  # parsed keys -> values of the unstated optional ones


def _conv_shape(lay: LayerSpec, in_shape: Shape3) -> Shape3:
    _, h, w = in_shape
    k, s, p = lay.kernel, lay.stride, lay.pad
    ho, wo = window_out_dim(h, k, s, p), window_out_dim(w, k, s, p)
    if ho < 1 or wo < 1:
        raise ValidationError(
            f"layer {lay.name}: conv output ({h}+2*{p}-{k})//{s}+1 = {ho} by "
            f"({w}+2*{p}-{k})//{s}+1 = {wo} must be >= 1"
        )
    return lay.out_channels, ho, wo


def _pool_shape(lay: LayerSpec, in_shape: Shape3) -> Shape3:
    c, h, w = in_shape
    k, s = lay.kernel, lay.stride
    if k > h or k > w:
        raise ValidationError(f"layer {lay.name}: pool window {k} exceeds input {h}x{w}")
    return c, window_out_dim(h, k, s), window_out_dim(w, k, s)


def _fc_shape(lay: LayerSpec, in_shape: Shape3) -> Shape3:
    d = prod(in_shape)
    if lay.in_features is not None and lay.in_features != d:
        raise ValidationError(f"layer {lay.name}: fc expected input dim {lay.in_features}, found {d}")
    return lay.out_features, 1, 1


_LAYER_KINDS = {
    "input": LayerKind(("shape",), ("shape",), lambda lay, s: s),
    "conv": LayerKind(
        ("in", "out_channels", "kernel", "stride", "pad", "frozen"), ("in", "out_channels", "kernel"), _conv_shape,
        lambda lay, s: (lay.out_channels, s[0], lay.kernel, lay.kernel), he_normal, lambda f: {"stride": 1, "pad": 0},
    ),
    "relu": LayerKind(("in",), ("in",), lambda lay, s: s),
    "maxpool": LayerKind(  # an unstated pool stride is the window size
        ("in", "kernel", "stride"), ("in", "kernel"), _pool_shape, defaults=lambda f: {"stride": f["kernel"]}
    ),
    "gavgpool": LayerKind(("in",), ("in",), lambda lay, s: (s[0], 1, 1)),
    "fc": LayerKind(
        ("in", "out", "in_features", "head", "frozen"), ("in", "out"), _fc_shape,
        lambda lay, s: (lay.out_features, prod(s), 1, 1), glorot_uniform,
    ),
    "loss": LayerKind(("in", "label", "weight"), ("in", "label"), defaults=lambda f: {"weight": 1.0}),
    "accuracy": LayerKind(("in", "label"), ("in", "label")),
}

KINDS = tuple(_LAYER_KINDS)

# text key -> LayerSpec field, where the two differ; `shape` belongs to the NetworkSpec
_FIELDS = {"in": "inputs", "out": "out_features", "head": "head_tag", "label": "label_slot", "weight": "loss_weight"}

_MIN_INT = {"kernel": 1, "stride": 1, "pad": 0, "out_channels": 1, "out": 1, "in_features": 1}


def _parse_int(key: str, value: str, lineno: int, col: int) -> int:
    if not _INT_RE.match(value):
        raise ParseError(f"{key} must be an integer, got {value!r}", lineno, col)
    n = int(value)
    if n < _MIN_INT[key]:
        raise ParseError(f"{key} must be >= {_MIN_INT[key]}, got {n}", lineno, col)
    return n


def _parse_name(key: str, value: str, lineno: int, col: int) -> str:
    if not _NAME_RE.match(value):
        raise ParseError(f"{key} must be a name of [A-Za-z0-9_.+-], got {value!r}", lineno, col)
    return value


def parse_netspec(text: str) -> NetworkSpec:
    """Parses the line grammar. Every malformed line raises with its line number."""
    layers: list[LayerSpec] = []
    seen: dict[str, str] = {}
    input_shape: Shape3 | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = list(_TOKEN_RE.finditer(line))
        if not tokens:
            continue
        kind = tokens[0].group()
        if kind not in KINDS:
            raise ParseError(f"unknown kind {kind!r}, expected one of {', '.join(KINDS)}", lineno, tokens[0].start() + 1)
        layer_kind = _LAYER_KINDS[kind]

        fields: dict[str, object] = {}
        for tok in tokens[1:]:
            col = tok.start() + 1
            piece = tok.group()
            if "=" not in piece:
                raise ParseError(f"expected key=value, got {piece!r}", lineno, col)
            key, _, value = piece.partition("=")
            if key != "name" and key not in layer_kind.keys:
                raise ParseError(
                    f"{kind} does not take {key!r} (allowed: name, {', '.join(sorted(layer_kind.keys))})", lineno, col
                )
            if key in fields:
                raise ParseError(f"duplicate key {key!r}", lineno, col)
            if not value:
                raise ParseError(f"empty value for {key!r}", lineno, col)

            if key in ("name", "in", "head", "label"):
                fields[key] = _parse_name(key, value, lineno, col)
            elif key in _MIN_INT:
                fields[key] = _parse_int(key, value, lineno, col)
            elif key == "shape":
                m = _SHAPE_RE.match(value)
                if not m:
                    raise ParseError(f"shape must be CxHxW of positive integers, got {value!r}", lineno, col)
                dims = tuple(int(d) for d in m.groups())
                if min(dims) < 1:
                    raise ParseError(f"shape dims must be >= 1, got {value!r}", lineno, col)
                fields[key] = dims
            elif key == "weight":
                try:
                    w = float(value)
                except ValueError:
                    raise ParseError(f"weight must be a number, got {value!r}", lineno, col) from None
                if not (w > 0) or w != w or w == float("inf"):
                    raise ParseError(f"weight must be a finite positive number, got {value!r}", lineno, col)
                fields[key] = w
            else:  # frozen
                if value not in ("true", "false"):
                    raise ParseError(f"frozen must be true or false, got {value!r}", lineno, col)
                fields[key] = value == "true"

        if "name" not in fields:
            raise ParseError(f"{kind} directive needs name=", lineno, tokens[0].start() + 1)
        name = fields.pop("name")
        if name in seen:
            raise ParseError(f"duplicate name {name!r} (already a {seen[name]} layer)", lineno)
        missing = sorted(set(layer_kind.required) - set(fields))
        if missing:
            raise ParseError(f"{kind} {name!r} is missing {', '.join(k + '=' for k in missing)}", lineno)
        fields = {**layer_kind.defaults(fields), **fields}

        if "shape" in fields:
            if input_shape is not None:
                raise ParseError("second input layer; exactly one is allowed", lineno)
            input_shape = fields.pop("shape")  # type: ignore[assignment]
        else:
            src = fields["in"]
            if src not in seen:
                raise ParseError(f"{name!r} references undefined layer {src!r}", lineno)
            fields["in"] = (src,)
        layers.append(LayerSpec(name=name, kind=kind, **{_FIELDS.get(k, k): v for k, v in fields.items()}))
        seen[name] = kind

    if input_shape is None:
        raise ParseError("no input layer")
    return NetworkSpec(tuple(layers), input_shape)


def _key_text(spec: NetworkSpec, lay: LayerSpec, key: str) -> str | None:
    """The text of one key of a layer, or None where the line leaves the key out."""
    if key == "shape":
        return "x".join(map(str, spec.input_shape))
    value = getattr(lay, _FIELDS.get(key, key))
    if key == "in":
        return value[0]
    if key == "frozen":
        return "true" if value else None
    return None if value is None else str(value)


def serialize_netspec(spec: NetworkSpec) -> str:
    """Canonical text form; parse_netspec(serialize_netspec(s)) is structurally equal to s."""
    lines = []
    for lay in spec.layers:
        parts = [lay.kind, f"name={lay.name}"]
        for key in _LAYER_KINDS[lay.kind].keys:
            text = _key_text(spec, lay, key)
            if text is not None:
                parts.append(f"{key}={text}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def validate_shapes(spec: NetworkSpec) -> dict[str, Shape3]:
    """Propagates (C, H, W) shapes through the graph and checks all wiring rules.

    Returns a map for every tensor-producing layer; loss and accuracy layers
    are metric sinks and have no entry.
    """
    shapes: dict[str, Shape3] = {}
    kinds = {l.name: l.kind for l in spec.layers}

    for lay in spec.layers:
        out_shape = _LAYER_KINDS[lay.kind].out_shape
        src = lay.inputs[0] if lay.inputs else None
        if out_shape is None:  # a metric sink: loss or accuracy over one tagged fc head
            if kinds[src] != "fc":
                raise ValidationError(f"layer {lay.name}: {lay.kind} must consume an fc layer, not {kinds[src]}")
            head = spec.layer(src)
            if head.head_tag is None:
                raise ValidationError(f"layer {lay.name}: fc {src!r} has no head= tag")
            if head.head_tag != lay.label_slot:
                raise ValidationError(
                    f"layer {lay.name}: label {lay.label_slot!r} does not match head tag {head.head_tag!r} of {src!r}"
                )
        elif src is None:
            shapes[lay.name] = out_shape(lay, spec.input_shape)
        elif _LAYER_KINDS[kinds[src]].out_shape is None:
            raise ValidationError(f"layer {lay.name}: input {src!r} is a {kinds[src]} layer and produces no tensor")
        else:
            shapes[lay.name] = out_shape(lay, shapes[src])

    loss_pairs = [(l.inputs[0], l.label_slot) for l in spec.losses()]
    acc_pairs = [(l.inputs[0], l.label_slot) for l in spec.accuracies()]
    if len(set(loss_pairs)) != len(loss_pairs):
        raise ValidationError("two loss layers share the same head and label slot")
    if len(set(acc_pairs)) != len(acc_pairs):
        raise ValidationError("two accuracy layers share the same head and label slot")
    if set(loss_pairs) != set(acc_pairs):
        raise ValidationError("every loss layer needs exactly one accuracy layer over the same head and label")

    if spec.categories is not None:
        cats = spec.categories
        heads = spec.heads()
        tags = [h.head_tag for h in heads]
        if sorted(tags) != sorted(cats.names):
            raise ValidationError(f"head tags {sorted(tags)} do not match bound categories {sorted(cats.names)}")
        if len(spec.losses()) != cats.n:
            raise ValidationError(f"{len(spec.losses())} loss layers for {cats.n} bound categories")
        for head in heads:
            m = cats.class_counts[cats.index(head.head_tag)]
            if head.out_features != m:
                raise ValidationError(
                    f"head {head.name}: out={head.out_features} but category {head.head_tag} has {m} classes"
                )
    return shapes


def weight_shapes(spec: NetworkSpec) -> dict[str, Shape4]:
    """Weight shape of every parameterised layer of a valid spec, in description order."""
    shapes = validate_shapes(spec)
    return {lay.name: lay.weight_shape(shapes[lay.inputs[0]]) for lay in spec.param_layers()}


def bind_categories(spec: NetworkSpec, categories: LabelCategories) -> NetworkSpec:
    """Attaches the label categories the spec's heads refer to.

    Categories not named by any head are dropped; the kept ones stay in the
    order `categories` lists them, which fixes the label-column order.
    """
    tags = [h.head_tag for h in spec.heads()]
    if not tags:
        raise ValidationError("spec has no head fc layers to bind categories to")
    bound = replace(spec, categories=categories.subset(tags))
    validate_shapes(bound)
    return bound
