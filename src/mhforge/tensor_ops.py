"""Dense 4-D tensor arithmetic: forward and backward math for every supported layer kind, and head scoring.

All arithmetic runs in float64. Activations are channels-last, (N, H, W, C):
a conv's GEMM writes its output rows in that layout, so no op transposes them
back. NCHW remains only where the order of the arithmetic depends on it, each
time on a C-contiguous NCHW copy: the mean of `global_avgpool`, the flatten
of an fc over a spatial input (H*W > 1), whose weights are laid out in
(c, h, w) order, and the output gradient of `conv2d_backward`, from which it
sums the bias gradient and builds its GEMM operands. Every op is
a pure function of its inputs, except `relu` when asked to write in place;
tensors are otherwise treated as immutable except for explicit optimizer
updates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MhforgeError

Shape4 = tuple[int, int, int, int]
# (rng, weight shape) -> initial weights; a string names the rng type, so importing this does not load numpy.random
Initialiser = Callable[["np.random.Generator", Shape4], np.ndarray]

SEED_MASK = (1 << 64) - 1  # seeds are reduced to 64 bits wherever numpy takes them


class ShapeMismatch(MhforgeError):
    """An operand dimension does not match what the op requires."""


class Tensor:
    """Dense 4-D array of float64, row-major.

    An activation is channels-last, (N, H, W, C); conv weights are
    (Cout, Cin, K, K) and fc weights (F, D, 1, 1). An image batch handed to
    `training.forward_all` is (N, C, H, W), its public layout; the ops take
    NCHW copies only where the module docstring says. Wraps a C-contiguous
    ndarray. Construction copies only when needed.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeMismatch(f"tensor must be 4-D, got {arr.ndim}-D shape {arr.shape}")
        self.data = arr

    @property
    def shape(self) -> Shape4:
        return self.data.shape  # type: ignore[return-value]

    @classmethod
    def zeros(cls, shape: Shape4) -> "Tensor":
        return cls(np.zeros(shape))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


@dataclass
class LayerParams:
    """Weights and bias of one conv or fc layer.

    `weights` is 4-D: (Cout, Cin, K, K) for conv, (F, D, 1, 1) for fc.
    `bias` is 1-D with length equal to the output channels/features.
    Whether the layer trains is its spec layer's `frozen` flag, not theirs.
    """

    weights: Tensor
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        if self.bias.ndim != 1:
            raise ShapeMismatch(f"bias must be 1-D, got shape {self.bias.shape}")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise ShapeMismatch(
                f"bias length {self.bias.shape[0]} != output channels {self.weights.shape[0]}"
            )


def window_out_dim(size: int, kernel: int, stride: int, pad: int = 0) -> int:
    """Output positions along one spatial dim of a conv or pool window sweep."""
    return (size + 2 * pad - kernel) // stride + 1


def _check_conv_args(input: Tensor, params: LayerParams, stride: int, pad: int) -> tuple[int, int, int, int, int]:
    if stride < 1:
        raise ShapeMismatch(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeMismatch(f"pad must be >= 0, got {pad}")
    cout, cin, kh, kw = params.weights.shape
    if kh != kw:
        raise ShapeMismatch(f"conv kernel must be square, got {kh}x{kw}")
    n, h, w, c = input.shape
    if c != cin:
        raise ShapeMismatch(f"input has {c} channels but kernel expects {cin}")
    hout = window_out_dim(h, kh, stride, pad)
    wout = window_out_dim(w, kh, stride, pad)
    if hout < 1 or wout < 1:
        raise ShapeMismatch(
            f"conv output would be {hout}x{wout} for input {h}x{w}, kernel {kh}, stride {stride}, pad {pad}"
        )
    return cout, kh, hout, wout, cin


@functools.lru_cache(maxsize=64)
def _patch_index(c: int, h: int, w: int, k: int, stride: int, pad: int) -> np.ndarray:
    """Read-only (Hout*Wout, C*K*K) intp array: where each patch-matrix entry of one image sits in its flat row.

    The row is the image's channels-last H*W*C values followed by one 0.0; an
    entry that falls on the zero padding points at that trailing zero,
    position H*W*C. The columns stay in (c, kh, kw) order. It is a view of its
    `base`, the same indices writeable: np.take copies a read-only index.
    """
    hout, wout = window_out_dim(h, k, stride, pad), window_out_dim(w, k, stride, pad)
    ch = np.arange(c)[None, None, :, None, None]
    row = np.arange(hout)[:, None, None, None, None] * stride + np.arange(k)[:, None] - pad
    col = np.arange(wout)[None, :, None, None, None] * stride + np.arange(k) - pad
    inside = (row >= 0) & (row < h) & (col >= 0) & (col < w)
    index = np.where(inside, (row * w + col) * c + ch, h * w * c).reshape(hout * wout, c * k * k).astype(np.intp)
    view = index.view()
    view.flags.writeable = False
    return view


def _patch_matrix(x: np.ndarray, k: int, stride: int, pad: int, hout: int, wout: int) -> np.ndarray:
    """C-contiguous (N*Hout*Wout, C*K*K) im2col matrix of a channels-last input: one receptive field per row,
    rows in (n, oh, ow) order, columns in (c, kh, kw) order.

    These are the values, order and layout np.tensordot copies the window view
    into, so a GEMM on it adds the same products in the same order. (With a 1x1
    kernel at stride 1 on one image, tensordot reshapes the view without a copy
    and multiplies a column-major matrix instead.) Filled by one gather: each
    image is copied once into a flat row that ends in a 0.0, and np.take reads
    the row at `_patch_index`'s base, built once per input geometry; padding
    reads the trailing zero.
    """
    n, h, w, c = x.shape
    rows = np.empty((n, h * w * c + 1))
    rows[:, :-1] = x.reshape(n, -1)
    rows[:, -1] = 0.0
    return np.take(rows, _patch_index(c, h, w, k, stride, pad).base, axis=1).reshape(n * hout * wout, c * k * k)


def conv2d_forward(
    input: Tensor, params: LayerParams, stride: int = 1, pad: int = 0, keep_patches: bool = False
) -> Tensor | tuple[Tensor, np.ndarray]:
    """2-D convolution of a channels-last input: each output element is the receptive field dotted with the kernel,
    plus bias.

    One GEMM of the patch matrix with the (C*K*K, Cout) weight view, the
    operands np.tensordot would build, so the result is bitwise tensordot's.
    Its (N*Hout*Wout, Cout) rows are the channels-last output; the bias is
    added in place as one Hout*Wout*Cout row. The patch matrix is one gather
    from the input through an index built once per input geometry
    (`_patch_index`). With keep_patches, also returns the patch matrix, which
    conv2d_backward then multiplies instead of building it again.
    """
    cout, k, hout, wout, _ = _check_conv_args(input, params, stride, pad)
    n = input.shape[0]
    cols = _patch_matrix(input.data, k, stride, pad, hout, wout)
    res = np.dot(cols, params.weights.data.transpose(1, 2, 3, 0).reshape(-1, cout))
    if not keep_patches:
        del cols  # freed before the bias row is allocated
    per_image = res.reshape(n, hout * wout * cout)  # a view: one image's channels-last output per row
    per_image += np.tile(params.bias, hout * wout)
    out = Tensor(res.reshape(n, hout, wout, cout))
    return (out, cols) if keep_patches else out


def conv2d_backward(
    input: Tensor,
    params: LayerParams,
    grad_out: Tensor,
    stride: int = 1,
    pad: int = 0,
    input_grad: bool = True,
    patches: np.ndarray | None = None,
    weight_grad: bool = True,
) -> tuple[Tensor | None, Tensor | None, np.ndarray | None]:
    """Gradients of sum(grad_out * conv2d_forward(...)) w.r.t. input, weights, and bias; input, grad_out and the
    input gradient are channels-last.

    Every GEMM gets the operands np.tensordot would build, so all three are
    bitwise tensordot's; the input gradient adds the K*K offsets in (kh, kw) order.
    They are built, and the bias gradient summed, from a C-contiguous NCHW
    copy of grad_out, as tensordot builds them from an NCHW gradient: the
    reduction order of the bias sum depends on that layout, and so does the
    input gradient's (N*Hout*Wout, Cout) operand, a column-major view when
    N = 1 and a row-major copy otherwise.
    Without input_grad the input gradient is None and is not computed; without
    weight_grad the weight and bias gradients are None and are not computed,
    nor is a patch matrix built. `patches` is the patch matrix conv2d_forward
    returned for this input, multiplied instead of being built again.
    """
    cout, k, hout, wout, cin = _check_conv_args(input, params, stride, pad)
    n, h, w, _ = input.shape
    if grad_out.shape != (n, hout, wout, cout):
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != conv output shape {(n, hout, wout, cout)}")
    if patches is not None and patches.shape != (n * hout * wout, cin * k * k):
        raise ShapeMismatch(f"patch matrix shape {patches.shape} != {(n * hout * wout, cin * k * k)} for this input")
    g = np.ascontiguousarray(grad_out.data.transpose(0, 3, 1, 2))

    grad_w = grad_bias = None
    if weight_grad:
        grad_bias = g.sum(axis=(0, 2, 3))
        cols = _patch_matrix(input.data, k, stride, pad, hout, wout) if patches is None else patches
        grad_w = Tensor(np.dot(g.transpose(1, 0, 2, 3).reshape(cout, -1), cols).reshape(cout, cin, k, k))
        del cols
    if not input_grad:
        return None, grad_w, grad_bias

    g_rows = g.transpose(0, 2, 3, 1).reshape(-1, cout)  # (N*Hout*Wout, Cout)
    gxp = np.zeros((n, h + 2 * pad, w + 2 * pad, cin))  # with the padding border
    wdat = params.weights.data
    for kh in range(k):
        for kw in range(k):
            contrib = np.dot(g_rows, wdat[:, :, kh, kw]).reshape(n, hout, wout, cin)
            gxp[:, kh : kh + hout * stride : stride, kw : kw + wout * stride : stride] += contrib
    return Tensor(gxp[:, pad : pad + h, pad : pad + w]), grad_w, grad_bias


@dataclass(frozen=True)
class PoolIndexMap:
    """What the backward pass of one maxpool forward pass reads: its input and output tensors, kernel and stride.

    Holds the tensors themselves, which must not change afterwards.
    """

    input: Tensor
    output: Tensor
    kernel: int
    stride: int


def _pool_views(x: np.ndarray, k: int, stride: int) -> list[np.ndarray]:
    """The strided view of a channels-last (N, H, W, C) array at each k x k window offset, in row-major (i, j) order.

    Element [n, oh, ow, c] of offset (i, j)'s view is element (i, j) of window
    (oh, ow) of channel c. Every op on the views is elementwise, so the layout
    changes no result and pooling takes no NCHW copy.
    """
    _, h, w, _ = x.shape
    hspan = (window_out_dim(h, k, stride) - 1) * stride + 1
    wspan = (window_out_dim(w, k, stride) - 1) * stride + 1
    return [x[:, i : i + hspan : stride, j : j + wspan : stride] for i in range(k) for j in range(k)]


def maxpool2d(input: Tensor, k: int, stride: int) -> tuple[Tensor, PoolIndexMap]:
    """Max over each k x k window of a channels-last input; also returns the record the backward pass reads.

    The max is taken over the k*k strided slices, one window offset at a time,
    starting from the max of the first two. The running max is the second
    operand of np.maximum, which returns that operand on ties, so the
    earliest window element wins, signed zeros included; a NaN propagates.
    """
    if k < 1 or stride < 1:
        raise ShapeMismatch(f"kernel and stride must be >= 1, got k={k}, stride={stride}")
    _, h, w, _ = input.shape
    if k > h or k > w:
        raise ShapeMismatch(f"pool window {k}x{k} exceeds spatial dims {h}x{w}")
    first, *rest = _pool_views(input.data, k, stride)
    out = np.maximum(rest[0], first) if rest else first.copy()
    for part in rest[1:]:
        np.maximum(part, out, out=out)
    pooled = Tensor(out)
    return pooled, PoolIndexMap(input, pooled, k, stride)


def maxpool2d_backward(pool_map: PoolIndexMap, grad_out: Tensor) -> Tensor:
    """Routes each grad_out element to its window's first max (first NaN in a NaN window); everything else gets zero.

    The window offsets are scanned in maxpool2d's order, and a window is
    claimed by the first offset whose input equals the forward output. Claims
    are then added in descending offset order, which is ascending window order
    for any one input cell: where windows overlap (stride < k), a cell sums
    its gradients window by window in ascending output order. Unclaimed cells
    add 0.0, which changes no sum: a sum that starts at +0.0 is never -0.0.
    """
    x, out, k, stride = pool_map.input.data, pool_map.output.data, pool_map.kernel, pool_map.stride
    if grad_out.shape != out.shape:
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != pool output shape {out.shape}")
    gx = np.zeros(x.shape)
    unclaimed = np.ones(out.shape, dtype=bool)
    claims = []
    for part, cells in zip(_pool_views(x, k, stride), _pool_views(gx, k, stride)):
        hit = part == out
        hit |= np.isnan(part)
        hit &= unclaimed
        unclaimed ^= hit
        claims.append((cells, hit))
    for cells, hit in reversed(claims):
        cells += np.where(hit, grad_out.data, 0.0)
    return Tensor(gx)


def global_avgpool(input: Tensor) -> Tensor:
    """Mean over the spatial dims, per channel: (N,H,W,C) -> (N,1,1,C).

    Taken over a C-contiguous NCHW copy, so each channel's H*W values are
    summed in the same order as numpy sums an NCHW tensor.
    """
    n, _, _, c = input.shape
    return Tensor(np.ascontiguousarray(input.data.transpose(0, 3, 1, 2)).mean(axis=(2, 3)).reshape(n, 1, 1, c))


def global_avgpool_backward(input_shape: Shape4, grad_out: Tensor) -> Tensor:
    n, h, w, c = input_shape
    if grad_out.shape != (n, 1, 1, c):
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != expected {(n, 1, 1, c)}")
    return Tensor(np.broadcast_to(grad_out.data / (h * w), input_shape).copy())


def relu(input: Tensor, in_place: bool = False) -> Tensor:
    """max(input, 0) elementwise; in_place writes it into the input's array and returns the input itself."""
    if not in_place:
        return Tensor(np.maximum(input.data, 0.0))
    np.maximum(input.data, 0.0, out=input.data)
    return input


def relu_backward(input: Tensor, grad_out: Tensor) -> Tensor:
    """Passes gradient where input > 0; the subgradient at exactly 0 is 0."""
    if grad_out.shape != input.shape:
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != input shape {input.shape}")
    return Tensor(grad_out.data * (input.data > 0.0))


def _check_fc_args(input: Tensor, params: LayerParams) -> tuple[int, int, int]:
    f, d, kh, kw = params.weights.shape
    if kh != 1 or kw != 1:
        raise ShapeMismatch(f"fc weights must be (F, D, 1, 1), got {params.weights.shape}")
    n, h, w, c = input.shape
    found = c * h * w
    if found != d:
        raise ShapeMismatch(f"fc expected input dim {d}, found {found}")
    return n, f, d


def _flatten(input: Tensor, n: int, d: int) -> np.ndarray:
    """The C-contiguous (N, D) rows of a channels-last input in (c, h, w) order, the order of an fc weight row.

    A view where H = W = 1; otherwise a copy of the NCHW transpose.
    """
    return input.data.transpose(0, 3, 1, 2).reshape(n, d)


def fully_connected(input: Tensor, params: LayerParams) -> Tensor:
    """Flattens (N,H,W,C) to (N,D) in (c, h, w) order and applies out = x @ W.T + bias, returned as (N,1,1,F)."""
    n, f, d = _check_fc_args(input, params)
    w2 = params.weights.data.reshape(f, d)
    out = _flatten(input, n, d) @ w2.T + params.bias
    return Tensor(out.reshape(n, 1, 1, f))


def fully_connected_backward(
    input: Tensor, params: LayerParams, grad_out: Tensor, input_grad: bool = True, weight_grad: bool = True
) -> tuple[Tensor | None, Tensor | None, np.ndarray | None]:
    """Gradients w.r.t. input, weights and bias.

    Without input_grad the input gradient is None and is not computed; without
    weight_grad the weight and bias gradients are None and are not computed.
    """
    n, f, d = _check_fc_args(input, params)
    if grad_out.shape != (n, 1, 1, f):
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != expected {(n, 1, 1, f)}")
    g2 = grad_out.data.reshape(n, f)
    grad_w = grad_b = None
    if weight_grad:
        grad_w = Tensor((g2.T @ _flatten(input, n, d)).reshape(f, d, 1, 1))
        grad_b = g2.sum(axis=0)
    if not input_grad:
        return None, grad_w, grad_b
    _, h, w, c = input.shape
    grad_x = (g2 @ params.weights.data.reshape(f, d)).reshape(n, c, h, w).transpose(0, 2, 3, 1)
    return Tensor(grad_x), grad_w, grad_b


def _logits_2d(logits: Tensor) -> np.ndarray:
    n, h, w, f = logits.shape
    if h != 1 or w != 1:
        raise ShapeMismatch(f"logits must be (N, 1, 1, F), got {logits.shape}")
    return logits.data.reshape(n, f)


def score_logits(logits: Tensor, labels: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(mean negative log-likelihood, top-1 accuracy, logit gradient) of a batch of logits against its labels.

    `labels` must be checked int64 class ids, one per row, each in [0, F):
    only their count is checked here. `training` checks every label column
    once, against its category's class count, where it reads the manifest.
    The softmax, taken after subtracting each row's max so huge logits cannot
    overflow, becomes the gradient (probs - onehot) / N in place. Argmax ties
    go to the lowest index. The loss and accuracy are a sum and a count over
    N, the values `.mean()` gives.
    """
    z = _logits_2d(logits)
    n = z.shape[0]
    if len(labels) != n:
        raise ShapeMismatch(f"got {len(labels)} labels for batch of {n}")
    shifted = z - z.max(axis=1, keepdims=True)
    grad = np.exp(shifted)
    total = grad.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    # log(p) via the shifted logits directly, avoiding log(exp(...)) rounding
    loss = float(-(shifted[idx, labels] - np.log(total[:, 0])).sum() / n)
    grad /= total
    grad[idx, labels] -= 1.0
    grad /= n
    return loss, np.count_nonzero(z.argmax(axis=1) == labels) / n, grad


def he_normal(rng: np.random.Generator, shape: Shape4) -> np.ndarray:
    """Conv weights: zero-mean Gaussian with std sqrt(2 / (K*K*Cin))."""
    _, in_dim, kernel, _ = shape
    return rng.standard_normal(shape) * np.sqrt(2.0 / (kernel * kernel * in_dim))


def glorot_uniform(rng: np.random.Generator, shape: Shape4) -> np.ndarray:
    """Fc weights: uniform in +/- sqrt(6 / (D + F))."""
    out_dim, in_dim, _, _ = shape
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, shape)


def init_params(draw: Initialiser, shape: Shape4, seed: int) -> LayerParams:
    """Deterministic parameters for one layer: weights `draw(rng, shape)`, zero biases.

    The same 64-bit seed always yields identical params.
    """
    rng = np.random.default_rng(seed & SEED_MASK)
    return LayerParams(Tensor(draw(rng, shape)), np.zeros(shape[0]))
