"""Slow reference implementations the fast code is checked against.

Everything here trades speed for obviousness: plain Python loops,
one arithmetic step per line, no numpy vectorization tricks. The
exceptions are the tensordot convolution, kept as the bitwise reference for
the GEMM convolution that replaced it, the strided patch-matrix fill, kept as
the reference for the gather that replaced it, the NCHW running-max pool,
kept as the reference for the channels-last pool that replaced it, and the
separate loss and accuracy ops, kept as the reference for the one scorer
that replaced them.

The oracles take and return (N, C, H, W) arrays, as the package's ops did
before its activations went channels-last; `nhwc`, `nchw` and the
`channels_last_*` adapters move between the two layouts without touching the
arithmetic.
"""

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mhforge.modelfile import FORMAT_VERSION, MAGIC
from mhforge.netspec import validate_shapes
from mhforge.tensor_ops import ShapeMismatch, Tensor, _logits_2d

# the backbone the acceptance pipeline builds every variant from
ACCEPTANCE_BACKBONE = """\
input name=data shape=1x34x34
conv name=c1 in=data out_channels=8 kernel=3 stride=1 pad=1
relu name=r1 in=c1
maxpool name=p1 in=r1 kernel=2 stride=2
conv name=c2 in=p1 out_channels=16 kernel=3 stride=1 pad=1
relu name=r2 in=c2
maxpool name=p2 in=r2 kernel=2 stride=2
gavgpool name=g in=p2
"""

# graymap headers load_pgm refuses, by id: (file bytes, what the error says after the path)
MALFORMED_PGMS = {
    "zero_by_zero": (b"P5\n0 0\n255\n", "image is 0x0"),
    "zero_width": (b"P5\n0 3\n255\n", "image is 0x3"),
    "no_space_after_magic": (b"P52 1 255 AB", "malformed header"),
    "signed_width": (b"P5\n+2 1\n255\nAB", "malformed header"),
    # a CRLF after maxval leaves the LF as a third pixel byte
    "crlf_after_maxval": (b"P5\n2 1\n255\r\nAB", "expected 2 pixel bytes, found 3"),
    "one_byte_too_long": (b"P5\n2 1\n255\nABC", "expected 2 pixel bytes, found 3"),
}


def nhwc(a):
    """A C-contiguous channels-last (N, H, W, C) copy of an (N, C, H, W) array."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def nchw(a):
    """A C-contiguous (N, C, H, W) copy of a channels-last array."""
    return np.ascontiguousarray(a.transpose(0, 3, 1, 2))


def naive_conv2d(x, w, b, stride, pad):
    """Six nested loops, nothing else. x:(N,C,H,W), w:(Cout,Cin,K,K), b:(Cout,)."""
    n, c, h, wd = x.shape
    cout, cin, k, _ = w.shape
    assert c == cin
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    hout = (h + 2 * pad - k) // stride + 1
    wout = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, hout, wout))
    for ni in range(n):
        for co in range(cout):
            for oh in range(hout):
                for ow in range(wout):
                    acc = b[co]
                    for ci in range(cin):
                        for kh in range(k):
                            for kw in range(k):
                                acc += xp[ni, ci, oh * stride + kh, ow * stride + kw] * w[co, ci, kh, kw]
                    out[ni, co, oh, ow] = acc
    return out


def strided_patch_matrix(x, k, stride, pad, hout, wout):
    """The strided fill tensor_ops._patch_matrix replaced: K*K strided slice copies from a zero-padded copy.

    Same arguments and result: the C-contiguous (N*Hout*Wout, C*K*K) patch
    matrix, columns in (c, kh, kw) order.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    cols = np.empty((n, hout, wout, c, k, k))
    for kh in range(k):
        for kw in range(k):
            cols[:, :, :, :, kh, kw] = xp[:, kh : kh + hout * stride : stride, kw : kw + wout * stride : stride]
    return cols.reshape(n * hout * wout, c * k * k)


def _tensordot_windows(x, k, stride, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    return xp, sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]


def tensordot_conv2d_forward(input, params, stride=1, pad=0, keep_patches=False):
    """The tensordot convolution conv2d_forward replaced, kept as its bitwise reference.

    Same signature and result type as the op, so it can stand in for it; with
    keep_patches, its window view stands in for the patch matrix.
    """
    k = params.weights.shape[2]
    _, win = _tensordot_windows(input.data, k, stride, pad)
    out = np.tensordot(win, params.weights.data, axes=([1, 4, 5], [1, 2, 3]))
    out = Tensor(out.transpose(0, 3, 1, 2) + params.bias[None, :, None, None])
    return (out, win) if keep_patches else out


def tensordot_conv2d_backward(
    input, params, grad_out, stride=1, pad=0, input_grad=True, patches=None, weight_grad=True
):
    """The tensordot gradients conv2d_backward replaced: (grad input, grad weights, grad bias).

    `patches` is the window view tensordot_conv2d_forward kept, if any;
    without input_grad the input gradient is None, without weight_grad the
    weight and bias gradients are.
    """
    k = params.weights.shape[2]
    n, c, h, w = input.shape
    _, _, hout, wout = grad_out.shape
    g = grad_out.data
    xp, win = _tensordot_windows(input.data, k, stride, pad)
    if patches is not None:
        win = patches
    grad_w = grad_bias = None
    if weight_grad:
        grad_bias = g.sum(axis=(0, 2, 3))
        grad_w = Tensor(np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3])))
    if not input_grad:
        return None, grad_w, grad_bias
    gxp = np.zeros_like(xp)
    wdat = params.weights.data
    for kh in range(k):
        for kw in range(k):
            # (N,Cout,Ho,Wo) x (Cout,Cin) -> (N,Ho,Wo,Cin)
            contrib = np.tensordot(g, wdat[:, :, kh, kw], axes=([1], [0]))
            gxp[:, :, kh : kh + hout * stride : stride, kw : kw + wout * stride : stride] += contrib.transpose(
                0, 3, 1, 2
            )
    gx = gxp[:, :, pad : pad + h, pad : pad + w] if pad else gxp
    return Tensor(gx), grad_w, grad_bias


def channels_last_conv2d_forward(input, params, stride=1, pad=0, keep_patches=False):
    """tensordot_conv2d_forward between layout copies: takes and returns channels-last tensors, as conv2d_forward does."""
    result = tensordot_conv2d_forward(Tensor(nchw(input.data)), params, stride, pad, keep_patches)
    if keep_patches:
        out, win = result
        return Tensor(nhwc(out.data)), win
    return Tensor(nhwc(result.data))


def channels_last_conv2d_backward(
    input, params, grad_out, stride=1, pad=0, input_grad=True, patches=None, weight_grad=True
):
    """tensordot_conv2d_backward between layout copies: channels-last input, grad_out and input gradient."""
    gx, gw, gb = tensordot_conv2d_backward(
        Tensor(nchw(input.data)), params, Tensor(nchw(grad_out.data)), stride, pad, input_grad, patches, weight_grad
    )
    return (None if gx is None else Tensor(nhwc(gx.data))), gw, gb


def naive_conv2d_backward(x, w, g, stride, pad):
    """Gradients of sum(g * naive_conv2d(x, w, b, stride, pad)) by scalar loops: (gx, gw, gb)."""
    n, c, h, wd = x.shape
    cout, cin, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros(cout)
    _, _, hout, wout = g.shape
    for ni in range(n):
        for co in range(cout):
            for oh in range(hout):
                for ow in range(wout):
                    go = g[ni, co, oh, ow]
                    gb[co] += go
                    for ci in range(cin):
                        for kh in range(k):
                            for kw in range(k):
                                row = oh * stride + kh
                                col = ow * stride + kw
                                gw[co, ci, kh, kw] += go * xp[ni, ci, row, col]
                                gxp[ni, ci, row, col] += go * w[co, ci, kh, kw]
    return gxp[:, :, pad : pad + h, pad : pad + wd], gw, gb


def naive_fc(x, w, b):
    """x:(N,D), w:(F,D), b:(F,) -> (N,F) by scalar loops."""
    n, d = x.shape
    f = w.shape[0]
    out = np.zeros((n, f))
    for ni in range(n):
        for fi in range(f):
            acc = b[fi]
            for di in range(d):
                acc += x[ni, di] * w[fi, di]
            out[ni, fi] = acc
    return out


def naive_maxpool2d(x, k, stride):
    """Scalar loops over every window: (max values, flat spatial index h*W + w of each window's first max).

    A later element replaces the running max only when strictly greater, or
    when it is a NaN and the running max is not. So ties (0.0 against -0.0
    included) keep the earliest element in row-major window order, and a
    window holding NaNs keeps its first NaN.
    """
    n, c, h, w = x.shape
    hout = (h - k) // stride + 1
    wout = (w - k) // stride + 1
    out = np.zeros((n, c, hout, wout))
    idx = np.zeros((n, c, hout, wout), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for oh in range(hout):
                for ow in range(wout):
                    best = None
                    at = -1
                    for kh in range(k):
                        for kw in range(k):
                            row = oh * stride + kh
                            col = ow * stride + kw
                            value = x[ni, ci, row, col]
                            if best is None or value > best or (value != value and best == best):
                                best = value
                                at = row * w + col
                    out[ni, ci, oh, ow] = best
                    idx[ni, ci, oh, ow] = at
    return out, idx


def _nchw_pool_views(x, k, stride):
    _, _, h, w = x.shape
    hspan = (h - k) // stride * stride + 1
    wspan = (w - k) // stride * stride + 1
    return [x[:, :, i : i + hspan : stride, j : j + wspan : stride] for i in range(k) for j in range(k)]


def reference_maxpool2d(x, k, stride):
    """The NCHW running max the channels-last maxpool2d replaced, kept as its bitwise reference: x (N, C, H, W).

    np.maximum over the k*k strided slices in row-major offset order, the
    running max its second operand.
    """
    first, *rest = _nchw_pool_views(x, k, stride)
    out = first.copy()
    for part in rest:
        np.maximum(part, out, out=out)
    return out


def reference_maxpool2d_backward(x, out, k, stride, grad_out):
    """The NCHW backward of reference_maxpool2d, whose output `out` is: first-claim routing, claims added in
    descending offset order."""
    gx = np.zeros(x.shape)
    unclaimed = np.ones(out.shape, dtype=bool)
    claims = []
    for part, cells in zip(_nchw_pool_views(x, k, stride), _nchw_pool_views(gx, k, stride)):
        hit = part == out
        hit |= np.isnan(part)
        hit &= unclaimed
        unclaimed ^= hit
        claims.append((cells, hit))
    for cells, hit in reversed(claims):
        cells += np.where(hit, grad_out, 0.0)
    return gx


def reference_pass(bundle, images, head_grads):
    """One NCHW forward and backward pass of every layer: ((N, F) logits per category, {layer: (gw, gb)}).

    Built from the tensordot convolution, the reference maxpool, an NCHW mean
    for gavgpool and an NCHW flatten for fc, the arithmetic the channels-last
    ops replaced. images is an (N, C, H, W) array; head_grads maps category
    -> (N, F) logit gradient. Every parameterised layer a head's gradient
    reaches gets weight and bias gradients, frozen or not; gradients that
    meet at one output add in reverse layer order, as backward_multi adds
    them.
    """
    acts = {}
    pools = {}
    for lay in bundle.spec.layers:
        x = acts[lay.inputs[0]] if lay.inputs else images
        p = bundle.params.get(lay.name)
        if lay.kind == "input":
            acts[lay.name] = x
        elif lay.kind == "conv":
            acts[lay.name] = tensordot_conv2d_forward(Tensor(x), p, lay.stride, lay.pad).data
        elif lay.kind == "relu":
            acts[lay.name] = np.maximum(x, 0.0)
        elif lay.kind == "maxpool":
            acts[lay.name] = pools[lay.name] = reference_maxpool2d(x, lay.kernel, lay.stride)
        elif lay.kind == "gavgpool":
            acts[lay.name] = x.mean(axis=(2, 3), keepdims=True)
        elif lay.kind == "fc":
            f = p.weights.shape[0]
            acts[lay.name] = (x.reshape(x.shape[0], -1) @ p.weights.data.reshape(f, -1).T + p.bias).reshape(-1, f, 1, 1)
    logits = {lay.head_tag: acts[lay.name].reshape(images.shape[0], -1) for lay in bundle.spec.heads()}

    grads = {lay.name: np.asarray(head_grads[lay.head_tag]).reshape(acts[lay.name].shape)
             for lay in bundle.spec.heads() if lay.head_tag in head_grads}
    params = {}
    for lay in reversed(bundle.spec.layers):
        if lay.name not in grads or not lay.inputs:
            continue
        g = grads.pop(lay.name)
        x = acts[lay.inputs[0]]
        p = bundle.params.get(lay.name)
        if lay.kind == "conv":
            gx, gw, gb = tensordot_conv2d_backward(Tensor(x), p, Tensor(g), lay.stride, lay.pad)
            gx, params[lay.name] = gx.data, (gw.data, gb)
        elif lay.kind == "relu":
            gx = g * (x > 0.0)
        elif lay.kind == "maxpool":
            gx = reference_maxpool2d_backward(x, pools[lay.name], lay.kernel, lay.stride, g)
        elif lay.kind == "gavgpool":
            gx = np.broadcast_to(g / (x.shape[2] * x.shape[3]), x.shape).copy()
        elif lay.kind == "fc":
            n, f = x.shape[0], p.weights.shape[0]
            g2, x2, w2 = g.reshape(n, f), x.reshape(n, -1), p.weights.data.reshape(f, -1)
            params[lay.name] = ((g2.T @ x2).reshape(p.weights.shape), g2.sum(axis=0))
            gx = (g2 @ w2).reshape(x.shape)
        src = lay.inputs[0]
        grads[src] = grads[src] + gx if src in grads else gx
    return logits, params


def reference_softmax_cross_entropy(logits, labels):
    """The loss op tensor_ops.score_logits replaced: (mean loss, softmax probabilities, logit gradient).

    Softmax uses max-subtraction so huge logits cannot overflow; the gradient
    is (probs - onehot) / N.
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


def reference_top1_accuracy(logits, labels):
    """The accuracy op tensor_ops.score_logits replaced: the fraction of rows whose argmax equals the label; argmax
    ties go to the lowest index."""
    z = _logits_2d(logits)
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.shape[0] != z.shape[0]:
        raise ShapeMismatch(f"got {lab.shape[0]} labels for batch of {z.shape[0]}")
    return float((z.argmax(axis=1) == lab).mean())


def naive_maxpool2d_backward(x, k, stride, grad_out):
    """Scalar loops: each window's gradient is added at its first-max index, windows in ascending output order."""
    n, c, h, w = x.shape
    _, idx = naive_maxpool2d(x, k, stride)
    gx = np.zeros((n, c, h * w))
    for ni in range(n):
        for ci in range(c):
            for oh in range(idx.shape[2]):
                for ow in range(idx.shape[3]):
                    gx[ni, ci, idx[ni, ci, oh, ow]] += grad_out[ni, ci, oh, ow]
    return gx.reshape(n, c, h, w)


def finite_diff(fn, array, eps=1e-6):
    """Central-difference gradient of scalar fn() w.r.t. every element of array.

    Perturbs in place and restores, so fn may close over the array.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def rel_err(analytic, numeric):
    """max |a - n| / max(1, |a|, |n|) over all elements."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


def rand_tensor(rng, shape, lo=-1.0, hi=1.0, avoid_zero=0.0):
    """Uniform random Tensor; with avoid_zero > 0, values near 0 are pushed away (for relu kinks)."""
    a = rng.uniform(lo, hi, shape)
    if avoid_zero > 0.0:
        a = np.where(np.abs(a) < avoid_zero, np.sign(a) * avoid_zero + (a == 0) * avoid_zero, a)
    return Tensor(a)


def counting_conv2d(x, w, b, stride, pad):
    """naive_conv2d with an explicit multiply counter; returns (out, multiplies)."""
    n, c, h, wd = x.shape
    cout, cin, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    hout = (h + 2 * pad - k) // stride + 1
    wout = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, hout, wout))
    mults = 0
    for ni in range(n):
        for co in range(cout):
            for oh in range(hout):
                for ow in range(wout):
                    acc = b[co]
                    for ci in range(cin):
                        for kh in range(k):
                            for kw in range(k):
                                acc += xp[ni, ci, oh * stride + kh, ow * stride + kw] * w[co, ci, kh, kw]
                                mults += 1
                    out[ni, co, oh, ow] = acc
    return out, mults


def counting_fc(x, w, b):
    n, d = x.shape
    f = w.shape[0]
    out = np.zeros((n, f))
    mults = 0
    for ni in range(n):
        for fi in range(f):
            acc = b[fi]
            for di in range(d):
                acc += x[ni, di] * w[fi, di]
                mults += 1
            out[ni, fi] = acc
    return out, mults


def instrumented_forward_macc(spec, bundle, trained_only=False):
    """Runs one single-image forward with scalar loops, counting every multiply.

    Independent of the analytic cost formulas: the count comes from the
    innermost loop bodies actually executing.
    """
    shapes = validate_shapes(spec)
    rng = np.random.default_rng(0)
    c, h, w = spec.input_shape
    acts = {}
    total = 0
    for lay in spec.layers:
        if lay.kind == "input":
            acts[lay.name] = rng.uniform(-1, 1, (1, c, h, w))
        elif lay.kind == "conv":
            p = bundle.params[lay.name]
            out, mults = counting_conv2d(acts[lay.inputs[0]], p.weights.data, p.bias, lay.stride, lay.pad)
            acts[lay.name] = out
            if not (trained_only and lay.frozen):
                total += mults
        elif lay.kind == "relu":
            acts[lay.name] = np.maximum(acts[lay.inputs[0]], 0.0)
        elif lay.kind == "maxpool":
            x = acts[lay.inputs[0]]
            _, cc, hh, ww = x.shape
            k, s = lay.kernel, lay.stride
            ho, wo = (hh - k) // s + 1, (ww - k) // s + 1
            out = np.zeros((1, cc, ho, wo))
            for ci in range(cc):
                for oh in range(ho):
                    for ow in range(wo):
                        out[0, ci, oh, ow] = x[0, ci, oh * s : oh * s + k, ow * s : ow * s + k].max()
            acts[lay.name] = out
        elif lay.kind == "gavgpool":
            acts[lay.name] = acts[lay.inputs[0]].mean(axis=(2, 3), keepdims=True)
        elif lay.kind == "fc":
            p = bundle.params[lay.name]
            x = acts[lay.inputs[0]].reshape(1, -1)
            out, mults = counting_fc(x, p.weights.data.reshape(p.weights.shape[0], -1), p.bias)
            acts[lay.name] = out.reshape(1, -1, 1, 1)
            if not (trained_only and lay.frozen):
                total += mults
    return total


def random_spec_text(rng, max_mid_layers=4):
    """Emits a small, always-valid network description with random topology.

    Tracks shapes while generating so every conv/pool fits its input. Ends in
    gavgpool plus one or two tagged heads with loss and accuracy layers.
    """
    c = int(rng.integers(1, 4))
    h = int(rng.integers(6, 13))
    w = int(rng.integers(6, 13))
    lines = [f"input name=data shape={c}x{h}x{w}"]
    prev = "data"
    idx = 0
    for _ in range(int(rng.integers(0, max_mid_layers + 1))):
        idx += 1
        kind = rng.choice(["conv", "relu", "maxpool"])
        if kind == "relu":
            lines.append(f"relu name=l{idx} in={prev}")
        elif kind == "conv":
            k = int(rng.integers(1, min(h, w, 4) + 1))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            cout = int(rng.integers(1, 5))
            ho = (h + 2 * pad - k) // stride + 1
            wo = (w + 2 * pad - k) // stride + 1
            if ho < 1 or wo < 1:
                continue
            frozen = " frozen=true" if rng.random() < 0.3 else ""
            lines.append(f"conv name=l{idx} in={prev} out_channels={cout} kernel={k} stride={stride} pad={pad}{frozen}")
            c, h, w = cout, ho, wo
        else:
            k = int(rng.integers(1, min(h, w, 3) + 1))
            stride = int(rng.integers(1, 3))
            ho = (h - k) // stride + 1
            wo = (w - k) // stride + 1
            if ho < 1 or wo < 1:
                continue
            lines.append(f"maxpool name=l{idx} in={prev} kernel={k} stride={stride}")
            h, w = ho, wo
        prev = f"l{idx}"
    lines.append(f"gavgpool name=feat in={prev}")
    n_heads = int(rng.integers(1, 3))
    for hi_ in range(n_heads):
        tag = f"cat{hi_}"
        out = int(rng.integers(2, 7))
        frozen = " frozen=true" if rng.random() < 0.2 else ""
        lines.append(f"fc name=head_{tag} in=feat out={out} in_features={c} head={tag}{frozen}")
        lines.append(f"loss name=loss_{tag} in=head_{tag} label={tag} weight={float(rng.integers(1, 4))}")
        lines.append(f"accuracy name=acc_{tag} in=head_{tag} label={tag}")
    return "\n".join(lines) + "\n"


def model_file_bytes(spec_text, maps_text):
    """A model file holding the network description and label-map texts as given, and no weights."""
    u32 = struct.Struct("<I").pack
    texts = [t.encode("utf-8") for t in (spec_text, maps_text)]
    return MAGIC + u32(FORMAT_VERSION) + b"".join(u32(len(t)) + t for t in texts)
