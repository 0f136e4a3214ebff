"""Dense 4-D tensor arithmetic: forward and backward math for every supported layer kind.

All arithmetic runs in float64. Every op is a pure function of its inputs;
tensors are treated as immutable except for explicit optimizer updates.
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
    """Dense (N, C, H, W) array of float64, row-major.

    Wraps a C-contiguous ndarray; the flat data length always equals
    N*C*H*W. Construction copies only when needed.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 4:
            raise ShapeMismatch(f"tensor must be 4-D (N,C,H,W), got {arr.ndim}-D shape {arr.shape}")
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
    n, c, h, w = input.shape
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

    The row is the image's C*H*W values followed by one 0.0; an entry that
    falls on the zero padding points at that trailing zero, position C*H*W.
    """
    hout, wout = window_out_dim(h, k, stride, pad), window_out_dim(w, k, stride, pad)
    ch = np.arange(c)[None, None, :, None, None]
    row = np.arange(hout)[:, None, None, None, None] * stride + np.arange(k)[:, None] - pad
    col = np.arange(wout)[None, :, None, None, None] * stride + np.arange(k) - pad
    inside = (row >= 0) & (row < h) & (col >= 0) & (col < w)
    index = np.where(inside, (ch * h + row) * w + col, c * h * w).astype(np.intp)
    index = index.reshape(hout * wout, c * k * k)
    index.flags.writeable = False
    return index


def _patch_matrix(x: np.ndarray, k: int, stride: int, pad: int, hout: int, wout: int) -> np.ndarray:
    """C-contiguous (N*Hout*Wout, C*K*K) im2col matrix: one receptive field per row, columns in (c, kh, kw) order.

    These are the values, order and layout np.tensordot copies the window view
    into, so a GEMM on it adds the same products in the same order. (With a 1x1
    kernel at stride 1 on one image, tensordot reshapes the view without a copy
    and multiplies a column-major matrix instead.) Filled by one gather: each
    image is copied once into a flat row that ends in a 0.0, and np.take reads
    the row at `_patch_index`, built once per input geometry; padding reads the
    trailing zero.
    """
    n, c, h, w = x.shape
    rows = np.empty((n, c * h * w + 1))
    rows[:, :-1] = x.reshape(n, -1)
    rows[:, -1] = 0.0
    return np.take(rows, _patch_index(c, h, w, k, stride, pad), axis=1).reshape(n * hout * wout, c * k * k)


def conv2d_forward(
    input: Tensor, params: LayerParams, stride: int = 1, pad: int = 0, keep_patches: bool = False
) -> Tensor | tuple[Tensor, np.ndarray]:
    """2-D convolution: each output element is the receptive field dotted with the kernel, plus bias.

    One GEMM of the patch matrix with the (C*K*K, Cout) weight view, the
    operands np.tensordot would build, so the result is bitwise tensordot's.
    The patch matrix is one gather from the input through an index built once
    per input geometry (`_patch_index`). With keep_patches, also returns the
    patch matrix, which conv2d_backward then multiplies instead of building it
    again.
    """
    cout, k, hout, wout, _ = _check_conv_args(input, params, stride, pad)
    n = input.shape[0]
    cols = _patch_matrix(input.data, k, stride, pad, hout, wout)
    res = np.dot(cols, params.weights.data.transpose(1, 2, 3, 0).reshape(-1, cout))
    if not keep_patches:
        del cols  # freed before the output is allocated
    out = np.empty((n, cout, hout, wout))
    np.add(res.reshape(n, hout, wout, cout).transpose(0, 3, 1, 2), params.bias[:, None, None], out=out)
    return (Tensor(out), cols) if keep_patches else Tensor(out)


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
    """Gradients of sum(grad_out * conv2d_forward(...)) w.r.t. input, weights, and bias.

    Every GEMM gets the operands np.tensordot would build, so all three are
    bitwise tensordot's; the input gradient adds the K*K offsets in (kh, kw) order.
    Without input_grad the input gradient is None and is not computed; without
    weight_grad the weight and bias gradients are None and are not computed,
    nor is a patch matrix built. `patches` is the patch matrix conv2d_forward
    returned for this input, multiplied instead of being built again.
    """
    cout, k, hout, wout, cin = _check_conv_args(input, params, stride, pad)
    n, c, h, w = input.shape
    if grad_out.shape != (n, cout, hout, wout):
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != conv output shape {(n, cout, hout, wout)}")
    if patches is not None and patches.shape != (n * hout * wout, cin * k * k):
        raise ShapeMismatch(f"patch matrix shape {patches.shape} != {(n * hout * wout, cin * k * k)} for this input")
    g = grad_out.data

    grad_w = grad_bias = None
    if weight_grad:
        grad_bias = g.sum(axis=(0, 2, 3))
        cols = _patch_matrix(input.data, k, stride, pad, hout, wout) if patches is None else patches
        grad_w = Tensor(np.dot(g.transpose(1, 0, 2, 3).reshape(cout, -1), cols).reshape(cout, cin, k, k))
        del cols
    if not input_grad:
        return None, grad_w, grad_bias

    g_rows = g.transpose(0, 2, 3, 1).reshape(-1, cout)  # (N*Hout*Wout, Cout)
    gxp = np.zeros((n, h + 2 * pad, w + 2 * pad, cin))  # channels-last, with the padding border
    wdat = params.weights.data
    for kh in range(k):
        for kw in range(k):
            contrib = np.dot(g_rows, wdat[:, :, kh, kw]).reshape(n, hout, wout, cin)
            gxp[:, kh : kh + hout * stride : stride, kw : kw + wout * stride : stride] += contrib
    gx = gxp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2)
    return Tensor(gx), grad_w, grad_bias


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
    """The strided view of an (N, C, H, W) array at each k x k window offset, in row-major (i, j) order.

    Element [oh, ow] of offset (i, j)'s view is element (i, j) of window (oh, ow).
    """
    _, _, h, w = x.shape
    hspan = (window_out_dim(h, k, stride) - 1) * stride + 1
    wspan = (window_out_dim(w, k, stride) - 1) * stride + 1
    return [x[:, :, i : i + hspan : stride, j : j + wspan : stride] for i in range(k) for j in range(k)]


def maxpool2d(input: Tensor, k: int, stride: int) -> tuple[Tensor, PoolIndexMap]:
    """Max over each k x k window; also returns the record the backward pass reads.

    The max is taken over the k*k strided slices, one window offset at a time.
    The running max is the second operand of np.maximum, which returns that
    operand on ties, so the earliest window element wins, signed zeros
    included; a NaN propagates.
    """
    if k < 1 or stride < 1:
        raise ShapeMismatch(f"kernel and stride must be >= 1, got k={k}, stride={stride}")
    _, _, h, w = input.shape
    if k > h or k > w:
        raise ShapeMismatch(f"pool window {k}x{k} exceeds spatial dims {h}x{w}")
    first, *rest = _pool_views(input.data, k, stride)
    out = first.copy()
    for part in rest:
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
    """Mean over the spatial dims, per channel: (N,C,H,W) -> (N,C,1,1)."""
    return Tensor(input.data.mean(axis=(2, 3), keepdims=True))


def global_avgpool_backward(input_shape: Shape4, grad_out: Tensor) -> Tensor:
    n, c, h, w = input_shape
    if grad_out.shape != (n, c, 1, 1):
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != expected {(n, c, 1, 1)}")
    return Tensor(np.broadcast_to(grad_out.data / (h * w), input_shape).copy())


def relu(input: Tensor) -> Tensor:
    return Tensor(np.maximum(input.data, 0.0))


def relu_backward(input: Tensor, grad_out: Tensor) -> Tensor:
    """Passes gradient where input > 0; the subgradient at exactly 0 is 0."""
    if grad_out.shape != input.shape:
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != input shape {input.shape}")
    return Tensor(grad_out.data * (input.data > 0.0))


def _check_fc_args(input: Tensor, params: LayerParams) -> tuple[int, int, int]:
    f, d, kh, kw = params.weights.shape
    if kh != 1 or kw != 1:
        raise ShapeMismatch(f"fc weights must be (F, D, 1, 1), got {params.weights.shape}")
    n, c, h, w = input.shape
    found = c * h * w
    if found != d:
        raise ShapeMismatch(f"fc expected input dim {d}, found {found}")
    return n, f, d


def fully_connected(input: Tensor, params: LayerParams) -> Tensor:
    """Flattens (N,C,H,W) to (N,D) and applies out = x @ W.T + bias, returned as (N,F,1,1)."""
    n, f, d = _check_fc_args(input, params)
    x2 = input.data.reshape(n, d)
    w2 = params.weights.data.reshape(f, d)
    out = x2 @ w2.T + params.bias
    return Tensor(out.reshape(n, f, 1, 1))


def fully_connected_backward(
    input: Tensor, params: LayerParams, grad_out: Tensor, input_grad: bool = True, weight_grad: bool = True
) -> tuple[Tensor | None, Tensor | None, np.ndarray | None]:
    """Gradients w.r.t. input, weights and bias.

    Without input_grad the input gradient is None and is not computed; without
    weight_grad the weight and bias gradients are None and are not computed.
    """
    n, f, d = _check_fc_args(input, params)
    if grad_out.shape != (n, f, 1, 1):
        raise ShapeMismatch(f"grad_out shape {grad_out.shape} != expected {(n, f, 1, 1)}")
    g2 = grad_out.data.reshape(n, f)
    grad_w = grad_b = None
    if weight_grad:
        grad_w = Tensor((g2.T @ input.data.reshape(n, d)).reshape(f, d, 1, 1))
        grad_b = g2.sum(axis=0)
    if not input_grad:
        return None, grad_w, grad_b
    grad_x = (g2 @ params.weights.data.reshape(f, d)).reshape(input.shape)
    return Tensor(grad_x), grad_w, grad_b


def _logits_2d(logits: Tensor) -> np.ndarray:
    n, f, h, w = logits.shape
    if h != 1 or w != 1:
        raise ShapeMismatch(f"logits must be (N, F, 1, 1), got {logits.shape}")
    return logits.data.reshape(n, f)


def softmax_cross_entropy(logits: Tensor, labels) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean negative log-likelihood over the batch.

    Softmax uses max-subtraction so huge logits cannot overflow. Returns
    (loss, probs, grad_logits) with grad_logits = (probs - onehot) / N.
    """
    z = _logits_2d(logits)
    n, f = z.shape
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.shape[0] != n:
        raise ShapeMismatch(f"got {lab.shape[0]} labels for batch of {n}")
    outside = (lab < 0) | (lab >= f)
    if outside.any():
        row = int(outside.argmax())  # the first offending row
        raise ShapeMismatch(f"row {row}: label {lab[row]} out of range [0, {f})")
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    probs = ez / ez.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    # log(p) via the shifted logits directly, avoiding log(exp(...)) rounding
    logp = shifted[idx, lab] - np.log(ez.sum(axis=1))
    loss = float(-logp.mean())
    grad = probs.copy()
    grad[idx, lab] -= 1.0
    grad /= n
    return loss, probs, grad


def top1_accuracy(logits: Tensor, labels) -> float:
    """Fraction of rows whose argmax equals the label; argmax ties go to the lowest index."""
    z = _logits_2d(logits)
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.shape[0] != z.shape[0]:
        raise ShapeMismatch(f"got {lab.shape[0]} labels for batch of {z.shape[0]}")
    return float((z.argmax(axis=1) == lab).mean())


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
