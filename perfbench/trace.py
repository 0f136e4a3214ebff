"""Per-layer tracing from outside the package.

`Tracer` replaces, for the duration of a `with` block, the functions that
mhforge modules import from one another (`training.conv2d_forward`,
`cli.train`, `modelfile.save_model`, ...) with wrappers that record calls,
wall time and self time: a wrapper's time minus the time of the wrappers
nested inside it. Leaving the block puts every original back, also when the
block raises. Records stay in memory until the caller reads them.

Layer ops carry no layer name, so they are attributed to spec layers here:
a forward op by its position inside `training.forward_all`, which runs each
layer of the spec once and in order; a backward op by the identity of the
parameters, input activation or pool map that `training.backward_multi`
hands it.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass

from mhforge import cli, dataset, modelfile, tensor_ops, training
from mhforge.analysis import count_macc

# op name in `training` -> layer kind
FORWARD_OPS = {
    "conv2d_forward": "conv",
    "relu": "relu",
    "maxpool2d": "maxpool",
    "global_avgpool": "gavgpool",
    "fully_connected": "fc",
}
BACKWARD_OPS = {
    "conv2d_backward": "conv",
    "relu_backward": "relu",
    "maxpool2d_backward": "maxpool",
    "global_avgpool_backward": "gavgpool",
    "fully_connected_backward": "fc",
}

# (module, attribute, span name). The attribute is the caller's reference:
# `cli.train` is the `training.train` that `cli` imported.
SPANS = (
    (training, "forward_all", "training.forward_all"),
    (training, "backward_multi", "training.backward_multi"),
    (training, "sgd_step", "training.sgd_step"),
    (training, "load_images", "dataset.load_images"),
    (dataset, "load_images", "dataset.load_images"),
    (dataset, "generate_synthetic", "dataset.generate_synthetic"),
    (cli, "train", "cli.train"),
    (cli, "save_model", "modelfile.save_model"),
    (modelfile, "save_model", "modelfile.save_model"),
    (cli, "load_model", "modelfile.load_model"),
    (modelfile, "load_model", "modelfile.load_model"),
)


@dataclass
class Span:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


@dataclass
class _SpecInfo:
    """What the forward wrappers need about one spec, computed once per spec."""

    spec: object  # held so that id(spec) cannot be reused while cached
    order: dict[str, tuple[str, ...]]  # kind -> layer names in spec order
    macc: dict[str, int]  # layer -> MACC per image
    first_frozen: str | None


class Tracer:
    """Records spans and per-layer op times while installed (`with Tracer() as t:`)."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        # (layer, "fwd", batch) or (layer, "bwd", None)
        self.layers: dict[tuple[str, str, int | None], Span] = defaultdict(Span)
        self.macc: dict[str, int] = defaultdict(int)  # layer -> MACC done by its forward calls
        self.tensors = 0
        self.saved_bytes = 0
        self.passes_per_image: float | None = None
        self._child: list[float] = []  # per open wrapper: time of the wrappers nested in it
        self._forward: list[tuple[_SpecInfo, dict[str, deque]]] = []
        self._backward: list[tuple[dict[int, str], dict[str, str]]] = []
        self._specs: dict[int, _SpecInfo] = {}
        self._prefix: tuple[list[int], set] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in SPANS:
                self._patch(owner, attr, self._span(name, getattr(owner, attr)))
            for attr, kind in FORWARD_OPS.items():
                self._patch(training, attr, self._forward_op(kind, getattr(training, attr)))
            for attr, kind in BACKWARD_OPS.items():
                self._patch(training, attr, self._backward_op(kind, getattr(training, attr)))
            self._patch(tensor_ops.Tensor, "__init__", self._counting_init(tensor_ops.Tensor.__init__))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- frozen-prefix accounting ------------------------------------------

    def begin_op(self) -> None:
        """Starts counting rows through each model's first frozen layer."""
        self._prefix = ([0], set())

    def end_op(self) -> None:
        """Records rows through the first frozen layer per distinct (model, image) pair."""
        rows, seen = self._prefix
        self._prefix = None
        if seen:
            self.passes_per_image = rows[0] / len(seen)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, record: Span, fn, args, kwargs):
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._child.pop()
            if self._child:
                self._child[-1] += dt
            record.calls += 1
            record.s += dt
            record.self_s += dt - child

    def _span(self, name: str, fn):
        record = self.spans[name]
        if name == "training.forward_all":
            def wrapper(bundle, *args, **kwargs):
                info = self._spec_info(bundle.spec)
                self._forward.append((info, {k: deque(v) for k, v in info.order.items()}))
                try:
                    return self._timed(record, fn, (bundle, *args), kwargs)
                finally:
                    self._forward.pop()
        elif name == "training.backward_multi":
            def wrapper(bundle, state, *args, **kwargs):
                self._backward.append(_backward_names(bundle, state))
                try:
                    return self._timed(record, fn, (bundle, state, *args), kwargs)
                finally:
                    self._backward.pop()
        elif name == "modelfile.save_model":
            def wrapper(*args, **kwargs):
                written = self._timed(record, fn, args, kwargs)
                self.saved_bytes += written
                return written
        else:
            def wrapper(*args, **kwargs):
                return self._timed(record, fn, args, kwargs)
        return wrapper

    def _forward_op(self, kind: str, fn):
        def wrapper(input, *args, **kwargs):
            layer = f"unattributed_{kind}"
            n = input.shape[0]
            if self._forward:
                info, queues = self._forward[-1]
                if queues.get(kind):
                    layer = queues[kind].popleft()
                    self.macc[layer] += info.macc[layer] * n
                    if layer == info.first_frozen and self._prefix is not None:
                        self._count_prefix(info, input)
            return self._timed(self.layers[(layer, "fwd", n)], fn, (input, *args), kwargs)
        return wrapper

    def _backward_op(self, kind: str, fn):
        def wrapper(*args, **kwargs):
            layer = f"unattributed_{kind}"
            if self._backward:
                by_id, by_kind = self._backward[-1]
                # conv/fc backward take (input, params, ...): identify by params
                key = args[1] if kind in ("conv", "fc") else args[0]
                layer = by_id.get(id(key)) or by_kind.get(kind, layer)
            return self._timed(self.layers[(layer, "bwd", None)], fn, args, kwargs)
        return wrapper

    def _counting_init(self, init):
        def __init__(tensor, *args, **kwargs):
            self.tensors += 1
            init(tensor, *args, **kwargs)
        return __init__

    # -- helpers ---------------------------------------------------------------

    def _spec_info(self, spec) -> _SpecInfo:
        info = self._specs.get(id(spec))
        if info is None:
            order: dict[str, list[str]] = defaultdict(list)
            for lay in spec.layers:
                order[lay.kind].append(lay.name)
            macc = {c.name: c.macc for c in count_macc(spec).layers}
            frozen = [lay.name for lay in spec.param_layers() if lay.frozen]
            info = _SpecInfo(spec, {k: tuple(v) for k, v in order.items()}, macc, frozen[0] if frozen else None)
            self._specs[id(spec)] = info
        return info

    def _count_prefix(self, info: _SpecInfo, input) -> None:
        rows, seen = self._prefix
        rows[0] += input.shape[0]
        for row in input.data:
            seen.add((id(info.spec), hash(row.tobytes())))


def _backward_names(bundle, state) -> tuple[dict[int, str], dict[str, str]]:
    """Maps the objects each backward op receives to the layer it serves."""
    by_id: dict[int, str] = {}
    kinds: dict[str, list[str]] = defaultdict(list)
    for lay in bundle.spec.layers:
        kinds[lay.kind].append(lay.name)
        if lay.kind in ("conv", "fc"):
            by_id[id(bundle.params[lay.name])] = lay.name
        elif lay.kind == "relu" and lay.inputs[0] in state.activations:
            by_id[id(state.activations[lay.inputs[0]])] = lay.name
        elif lay.kind == "maxpool" and lay.name in state.pool_maps:
            by_id[id(state.pool_maps[lay.name])] = lay.name
    # global_avgpool_backward gets only a shape: attribute it when the kind is unique
    by_kind = {kind: names[0] for kind, names in kinds.items() if len(names) == 1}
    return by_id, by_kind
