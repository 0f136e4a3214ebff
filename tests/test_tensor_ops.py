"""Layer math against slow oracles, hand-worked cases, and finite differences.

The ops take channels-last (N, H, W, C) activations; the oracles in helpers
take (N, C, H, W) arrays, so a comparison goes through `nhwc`/`nchw`.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import mhforge.tensor_ops as tensor_ops_mod
from mhforge.tensor_ops import (
    LayerParams,
    ShapeMismatch,
    Tensor,
    conv2d_backward,
    conv2d_forward,
    fully_connected,
    fully_connected_backward,
    global_avgpool,
    global_avgpool_backward,
    glorot_uniform,
    he_normal,
    init_params,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    score_logits,
)

from helpers import (
    channels_last_conv2d_backward,
    channels_last_conv2d_forward,
    finite_diff,
    naive_conv2d,
    naive_conv2d_backward,
    naive_fc,
    naive_maxpool2d,
    naive_maxpool2d_backward,
    nchw,
    nhwc,
    rand_tensor,
    reference_maxpool2d,
    reference_maxpool2d_backward,
    reference_softmax_cross_entropy,
    reference_top1_accuracy,
    rel_err,
    strided_patch_matrix,
)


def image(rows):
    """A one-image, one-channel channels-last Tensor holding the 2-D `rows`."""
    a = np.array(rows, dtype=np.float64)
    return Tensor(a.reshape(1, *a.shape, 1))


class TestTensor:
    def test_rejects_non_4d(self):
        with pytest.raises(ShapeMismatch):
            Tensor(np.zeros((3, 3)))


class TestConvForward:
    def test_all_ones_3x3(self):
        # 3x3 kernel of ones over a 3x3 patch of ones, no pad: single output 9
        x = Tensor(np.full((1, 3, 3, 1), 1.0))
        p = LayerParams(Tensor(np.full((1, 1, 3, 3), 1.0)), np.zeros(1))
        out = conv2d_forward(x, p, stride=1, pad=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_zero_input_gives_bias(self):
        x = Tensor.zeros((2, 5, 5, 3))
        p = LayerParams(Tensor.zeros((4, 3, 3, 3)), np.array([0.5, -1.0, 2.0, 0.0]))
        out = conv2d_forward(x, p, stride=1, pad=1)
        for co, b in enumerate([0.5, -1.0, 2.0, 0.0]):
            assert np.all(out.data[..., co] == b)

    def test_floor_output_shape(self):
        # (5 + 0 - 2)//2 + 1 = 2, the trailing row/col is dropped
        x = Tensor.zeros((1, 5, 5, 1))
        p = LayerParams(Tensor.zeros((1, 1, 2, 2)), np.zeros(1))
        assert conv2d_forward(x, p, stride=2, pad=0).shape == (1, 2, 2, 1)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive_loops(self, stride, pad):
        rng = np.random.default_rng(100 + stride * 10 + pad)
        x = rng.uniform(-1, 1, (2, 3, 7, 6))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        b = rng.uniform(-1, 1, 4)
        got = nchw(conv2d_forward(Tensor(nhwc(x)), LayerParams(Tensor(w), b), stride, pad).data)
        want = naive_conv2d(x, w, b, stride, pad)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12

    def test_channel_mismatch_names_dims(self):
        x = Tensor.zeros((1, 4, 4, 2))
        p = LayerParams(Tensor.zeros((1, 3, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeMismatch, match="2 channels.*expects 3"):
            conv2d_forward(x, p)

    def test_too_small_input_rejected(self):
        x = Tensor.zeros((1, 2, 2, 1))
        p = LayerParams(Tensor.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeMismatch, match="output would be 0x0"):
            conv2d_forward(x, p, stride=1, pad=0)

    def test_purity(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (1, 5, 5, 2))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        xc, wc = x.copy(), w.copy()
        conv2d_forward(Tensor(x), LayerParams(Tensor(w), np.zeros(3)), 1, 1)
        assert np.array_equal(x, xc)
        assert np.array_equal(w, wc)


class TestConvBackward:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_finite_differences(self, stride, pad):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, (2, 5, 5, 2))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        g = rng.uniform(-1, 1, conv2d_forward(Tensor(x), LayerParams(Tensor(w), b), stride, pad).shape)

        def scalar():
            out = conv2d_forward(Tensor(x), LayerParams(Tensor(w), b), stride, pad)
            return float((out.data * g).sum())

        gx, gw, gb = conv2d_backward(Tensor(x), LayerParams(Tensor(w), b), Tensor(g), stride, pad)
        assert rel_err(gx.data, finite_diff(scalar, x)) < 1e-6
        assert rel_err(gw.data, finite_diff(scalar, w)) < 1e-6
        assert rel_err(gb, finite_diff(scalar, b)) < 1e-6

    def test_grad_shape_checked(self):
        x = Tensor.zeros((1, 4, 4, 1))
        p = LayerParams(Tensor.zeros((1, 1, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeMismatch, match="!= conv output shape"):
            conv2d_backward(x, p, Tensor.zeros((1, 4, 4, 1)), 1, 0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_without_weight_grad_builds_no_patch_matrix(self, stride, pad, monkeypatch):
        rng = np.random.default_rng(43)
        x = Tensor(rng.uniform(-1, 1, (2, 5, 5, 2)))
        params = LayerParams(Tensor(rng.uniform(-1, 1, (3, 2, 3, 3))), rng.uniform(-1, 1, 3))
        g = Tensor(rng.uniform(-1, 1, conv2d_forward(x, params, stride, pad).shape))
        gx, _, _ = conv2d_backward(x, params, g, stride, pad)
        builds = []
        build = tensor_ops_mod._patch_matrix
        monkeypatch.setattr(tensor_ops_mod, "_patch_matrix", lambda *args: builds.append(args) or build(*args))
        gx2, gw2, gb2 = conv2d_backward(x, params, g, stride, pad, weight_grad=False)
        assert builds == []
        assert gw2 is None and gb2 is None
        assert gx2.data.tobytes() == gx.data.tobytes()


def conv_results(op_forward, op_backward, x, w, b, g, stride, pad):
    """Forward output, then the input, weight and bias gradients, as float64 arrays; x, g and the
    output and input gradient channels-last."""
    params = LayerParams(Tensor(w), b)
    out = op_forward(Tensor(x), params, stride, pad)
    gx, gw, gb = op_backward(Tensor(x), params, Tensor(g), stride, pad)
    return out.data, gx.data, gw.data, gb


def partial_call_mismatches(full, x, w, b, g, stride, pad, seed):
    """Names of the results that differ, byte for byte, from the full calls' `full` when a call skips work.

    conv: the forward that keeps its patch matrix, and backward without the input
    gradient, handed that matrix, or both. fc: backward without the input
    gradient, on x flattened, with seeded weights and grad_out g[:, :1, :1]. x and g are channels-last.
    A skipped input gradient must be None. `full` is what conv_results returned.
    """
    out, gx, gw, gb = full
    params = LayerParams(Tensor(w), b)
    kept, patches = conv2d_forward(Tensor(x), params, stride, pad, keep_patches=True)
    names = [] if kept.data.tobytes() == out.tobytes() else ["conv out, patches kept"]
    variants = {"no gx": {"input_grad": False}, "patches": {"patches": patches}}
    variants["no gx, patches"] = {**variants["no gx"], **variants["patches"]}
    for label, kwargs in variants.items():
        gx2, gw2, gb2 = conv2d_backward(Tensor(x), params, Tensor(g), stride, pad, **kwargs)
        skipped = "input_grad" in kwargs
        if (gx2 is None) != skipped or (not skipped and gx2.data.tobytes() != gx.tobytes()):
            names.append(f"conv gx, {label}")
        pairs = (("gw", gw2.data, gw), ("gb", gb2, gb))
        names += [f"conv {name}, {label}" for name, a, r in pairs if a.tobytes() != r.tobytes()]

    fc_params = LayerParams(Tensor(np.random.default_rng(seed).uniform(-1, 1, (w.shape[0], x[0].size, 1, 1))), b)
    fc_g = Tensor(g[:, :1, :1])
    _, fw, fb = fully_connected_backward(Tensor(x), fc_params, fc_g)
    fx2, fw2, fb2 = fully_connected_backward(Tensor(x), fc_params, fc_g, input_grad=False)
    if fx2 is not None or fw2.data.tobytes() != fw.data.tobytes() or fb2.tobytes() != fb.tobytes():
        names.append("fc, no gx")
    return names


def tensordot_hands_blas_a_view(n, cin, k, stride):
    """With a 1x1 kernel at stride 1 and batch 1, tensordot's patch matrix is a column-major
    view of the input, not a row-major copy; BLAS then runs another kernel, whose sums may
    differ from the copy's in the last bits."""
    return n == 1 and k == 1 and stride == 1 and cin > 1


class TestConvMatchesTensordot:
    """The GEMM convolution against the tensordot convolution it replaced, bit for bit.

    The channels-last op is held to the NCHW oracle through layout copies
    (helpers.channels_last_conv2d_*). Where tensordot hands BLAS a view (see tensordot_hands_blas_a_view), both are held
    to the scalar-loop oracle and to each other within 1e-12 instead. Every case also
    holds the calls that skip work to the full calls (partial_call_mismatches).
    """

    @pytest.mark.parametrize("n", [1, 3, 8, 64])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_grid(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        h, w = 9, 7
        mismatched = []
        for cin, cout, stride, pad in itertools.product([1, 2, 8], [1, 4, 16], [1, 2], [0, 1, 2]):
            x = rng.uniform(-1, 1, (n, cin, h, w))
            wt = rng.uniform(-1, 1, (cout, cin, k, k))
            b = rng.uniform(-1, 1, cout)
            hout = (h + 2 * pad - k) // stride + 1
            wout = (w + 2 * pad - k) // stride + 1
            g = rng.uniform(-1, 1, (n, cout, hout, wout))
            x, g = nhwc(x), nhwc(g)
            got = conv_results(conv2d_forward, conv2d_backward, x, wt, b, g, stride, pad)
            ref = conv_results(channels_last_conv2d_forward, channels_last_conv2d_backward, x, wt, b, g, stride, pad)
            names = partial_call_mismatches(got, x, wt, b, g, stride, pad, seed=(n, k, cin, cout, stride, pad))
            if tensordot_hands_blas_a_view(n, cin, k, stride):
                out = naive_conv2d(nchw(x), wt, b, stride, pad)
                gx, gw, gb = naive_conv2d_backward(nchw(x), wt, nchw(g), stride, pad)
                oracle = (nhwc(out), nhwc(gx), gw, gb)
                for a, r, o in zip(got, ref, oracle):
                    assert a.shape == o.shape
                    assert np.max(np.abs(a - o)) < 1e-12
                    assert np.max(np.abs(a - r)) < 1e-12
            else:
                names += [name for name, a, r in zip(("out", "gx", "gw", "gb"), got, ref) if a.tobytes() != r.tobytes()]
            if names:
                mismatched.append((cin, cout, stride, pad, names))
        assert mismatched == [], f"(cin, cout, stride, pad, results) not bitwise equal at n={n}, k={k}"

    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("cin,h,cout", [(1, 34, 8), (8, 17, 16)], ids=["c1", "c2"])
    def test_acceptance_shapes(self, n, cin, h, cout):
        rng = np.random.default_rng(n + cin)
        x = nhwc(rng.uniform(0, 1, (n, cin, h, h)))
        wt = rng.standard_normal((cout, cin, 3, 3)) * np.sqrt(2.0 / (9 * cin))
        b = rng.uniform(-0.1, 0.1, cout)
        g = nhwc(rng.uniform(-1, 1, (n, cout, h, h)))
        got = conv_results(conv2d_forward, conv2d_backward, x, wt, b, g, 1, 1)
        ref = conv_results(channels_last_conv2d_forward, channels_last_conv2d_backward, x, wt, b, g, 1, 1)
        for name, a, r in zip(("out", "gx", "gw", "gb"), got, ref):
            assert a.tobytes() == r.tobytes(), name
        assert partial_call_mismatches(got, x, wt, b, g, 1, 1, seed=(n, cin)) == []


class TestPatchMatrixMatchesStridedFill:
    """The gather fill of the patch matrix against the strided fill it replaced, bit for bit.

    The grid covers non-square inputs, strides larger than the kernel, and
    pads of at least the kernel size, where whole patch rows are padding.
    """

    @pytest.mark.parametrize("n", [1, 3, 8, 64])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_grid(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        mismatched = []
        for c, stride, (h, w), pad in itertools.product([1, 3, 8], [1, 2, 3], [(9, 7), (5, 11)], [0, 1, k, k + 1]):
            hout = (h + 2 * pad - k) // stride + 1
            wout = (w + 2 * pad - k) // stride + 1
            if hout < 1 or wout < 1:
                continue
            x = rng.uniform(-1, 1, (n, c, h, w))
            got = tensor_ops_mod._patch_matrix(nhwc(x), k, stride, pad, hout, wout)
            want = strided_patch_matrix(x, k, stride, pad, hout, wout)
            if pad >= k:
                assert not got[0].any()  # the first receptive field lies wholly in the padding
            if not got.flags.c_contiguous or got.shape != want.shape or got.tobytes() != want.tobytes():
                mismatched.append((c, stride, h, w, pad))
        assert mismatched == [], f"(c, stride, h, w, pad) not bitwise equal at n={n}, k={k}"

    def test_index_is_built_once_per_geometry_and_read_only(self):
        geometry = (3, 9, 7, 3, 2, 1)  # c, h, w, k, stride, pad
        index = tensor_ops_mod._patch_index(*geometry)
        assert tensor_ops_mod._patch_index(*geometry) is index
        assert index.dtype == np.intp and index.shape == (5 * 4, 3 * 3 * 3)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0] = 0
        for at in range(len(geometry)):
            other = list(geometry)
            other[at] += 1
            assert tensor_ops_mod._patch_index(*other) is not index, at

    def test_batch_1_gather_copies_no_index(self):
        # c2's geometry in the acceptance backbone: the index is as large as the patch matrix
        x = np.random.default_rng(5).uniform(-1, 1, (1, 17, 17, 8))
        index = tensor_ops_mod._patch_index(8, 17, 17, 3, 1, 1)  # built and cached before tracing
        tracemalloc.start()
        try:
            out = tensor_ops_mod._patch_matrix(x, 3, 1, 1, 17, 17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row_buffer = (17 * 17 * 8 + 1) * 8
        assert out.nbytes == index.nbytes
        assert peak < out.nbytes + row_buffer + index.nbytes // 2
        assert out.tobytes() == strided_patch_matrix(nchw(x), 3, 1, 1, 17, 17).tobytes()


class TestMaxpool:
    def test_2x2_example(self):
        t = image([[1.0, 2.0], [3.0, 4.0]])
        out, _ = maxpool2d(t, 2, 2)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_tie_takes_lowest_flat_index(self):
        t = Tensor(np.full((1, 4, 4, 1), 3.0))
        out, pmap = maxpool2d(t, 2, 2)
        assert np.all(out.data == 3.0)
        gx = maxpool2d_backward(pmap, image([[1.0, 2.0], [3.0, 4.0]]))
        # each window's gradient lands on its top-left element: flat indices 0, 2, 8 and 10
        want = np.zeros((1, 4, 4, 1))
        want[0, ::2, ::2, 0] = [[1.0, 2.0], [3.0, 4.0]]
        assert gx.data.tobytes() == want.tobytes()

    def test_floor_drops_trailing(self):
        t = Tensor(np.arange(25, dtype=float).reshape(1, 5, 5, 1))
        out, _ = maxpool2d(t, 2, 2)
        assert out.shape == (1, 2, 2, 1)
        assert out.data[0, 1, 1, 0] == 18.0

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ShapeMismatch):
            maxpool2d(Tensor.zeros((1, 2, 2, 1)), 3, 1)

    def test_backward_routes_to_argmax(self):
        _, pmap = maxpool2d(image([[1.0, 2.0], [3.0, 4.0]]), 2, 2)
        gx = maxpool2d_backward(pmap, Tensor(np.full((1, 1, 1, 1), 5.0)))
        assert gx.data[0, 1, 1, 0] == 5.0
        assert gx.data.sum() == 5.0

    def test_backward_accumulates_overlap(self):
        # stride 1 windows overlap; the shared max cell must collect both grads
        _, pmap = maxpool2d(image([[0.0, 9.0, 0.0], [0.0, 0.0, 0.0]]), 2, 1)
        gx = maxpool2d_backward(pmap, image([[1.0, 2.0]]))
        assert gx.data[0, 0, 1, 0] == 3.0

    def test_backward_rejects_grad_of_another_shape(self):
        _, pmap = maxpool2d(Tensor.zeros((1, 4, 4, 2)), 2, 2)
        with pytest.raises(ShapeMismatch, match="pool output shape"):
            maxpool2d_backward(pmap, Tensor.zeros((1, 3, 2, 2)))

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        # distinct values so the argmax is stable under the probe eps
        x = rng.permutation(np.arange(64, dtype=float)).reshape(1, 8, 8, 1).copy()
        g = rng.uniform(-1, 1, (1, 4, 4, 1))

        def scalar():
            out, _ = maxpool2d(Tensor(x), 2, 2)
            return float((out.data * g).sum())

        _, pmap = maxpool2d(Tensor(x), 2, 2)
        gx = maxpool2d_backward(pmap, Tensor(g))
        assert rel_err(gx.data, finite_diff(scalar, x)) < 1e-6


def pool_input(data, shape, seed=0):
    rng = np.random.default_rng(seed)
    if data == "random":
        return rng.standard_normal(shape)
    if data == "all_equal":
        return np.full(shape, -1.5)
    if data == "signed_zeros":
        return np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    if data == "nan":  # a tenth NaN: a window holding one routes its gradient to its first NaN
        return np.where(rng.random(shape) < 0.1, np.nan, rng.standard_normal(shape))
    # few distinct values, signed zeros among them: many ties inside each window
    return rng.choice(np.array([-1.0, -0.0, 0.0, 1.0]), shape)


class TestMaxpoolMatchesOracle:
    """Byte-for-byte against the scalar loops: signed zeros, first-max ties and first NaNs count."""

    @pytest.mark.parametrize("data", ["random", "all_equal", "signed_zeros", "few_values", "nan"])
    @pytest.mark.parametrize(
        "shape,k,stride",
        [
            ((2, 3, 8, 8), 2, 2),
            ((2, 3, 9, 11), 2, 2),  # the floor drops the last row and column
            ((2, 3, 9, 11), 2, 1),  # overlapping windows
            ((2, 3, 9, 11), 3, 2),
            ((2, 3, 10, 7), 3, 1),
            ((1, 2, 5, 5), 1, 1),
            ((2, 8, 34, 34), 2, 2),  # the acceptance backbone's first pool
            ((8, 16, 17, 17), 2, 2),  # the finetune workload's second pool, at batch 8
        ],
    )
    def test_values_and_indices(self, data, shape, k, stride):
        """The forward values, and a gradient that lands at the oracle's first-max indices."""
        x = pool_input(data, shape)
        out, pmap = maxpool2d(Tensor(nhwc(x)), k, stride)
        want, _ = naive_maxpool2d(x, k, stride)
        assert nchw(out.data).tobytes() == want.tobytes()
        rng = np.random.default_rng(1)
        g = np.where(rng.random(want.shape) < 0.1, -0.0, rng.standard_normal(want.shape))
        gx = maxpool2d_backward(pmap, Tensor(nhwc(g)))
        assert nchw(gx.data).tobytes() == naive_maxpool2d_backward(x, k, stride, g).tobytes()


class TestMaxpoolMatchesNchwReference:
    """The channels-last pool against the NCHW running max it replaced (helpers.reference_maxpool2d), byte for byte."""

    @pytest.mark.parametrize("data", ["random", "signed_zeros", "few_values", "nan"])
    @pytest.mark.parametrize("k,stride", [(1, 1), (2, 2), (3, 2), (2, 1), (3, 3)])
    def test_grid(self, k, stride, data):
        x = pool_input(data, (3, 4, 11, 9), seed=10 * k + stride)  # odd H and W
        out, pmap = maxpool2d(Tensor(nhwc(x)), k, stride)
        want = reference_maxpool2d(x, k, stride)
        assert out.data.tobytes() == nhwc(want).tobytes()
        g = np.random.default_rng(k + stride).standard_normal(want.shape)
        gx = maxpool2d_backward(pmap, Tensor(nhwc(g)))
        assert gx.data.tobytes() == nhwc(reference_maxpool2d_backward(x, want, k, stride, g)).tobytes()

    def test_signed_zero_tie_across_rows_and_columns(self):
        """-0.0 at window cell (0, 1) ties +0.0 at (1, 0): the row-major first max is -0.0. A max taken
        over the row offsets first would meet +0.0 in column 0 before -0.0 in column 1 and return +0.0."""
        window = np.array([[-1.0, -0.0], [0.0, -2.0]])
        x = np.tile(window, (2, 3, 2, 3))  # (2, 3, 4, 6): six 2x2 windows per channel
        out, pmap = maxpool2d(Tensor(nhwc(x)), 2, 2)
        want = reference_maxpool2d(x, 2, 2)
        assert np.signbit(want).all() and not want.any()
        assert out.data.tobytes() == nhwc(want).tobytes()
        g = np.arange(1.0, want.size + 1).reshape(want.shape)
        gx = maxpool2d_backward(pmap, Tensor(nhwc(g)))
        want_gx = reference_maxpool2d_backward(x, want, 2, 2, g)
        assert (want_gx[:, :, 0::2, 1::2] == g).all()  # every window's gradient goes to its -0.0
        assert gx.data.tobytes() == nhwc(want_gx).tobytes()


class TestGlobalAvgpool:
    def test_mean_example(self):
        out = global_avgpool(image([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 2.5

    def test_backward_spreads_evenly(self):
        gx = global_avgpool_backward((1, 2, 2, 1), Tensor(np.full((1, 1, 1, 1), 8.0)))
        assert gx.shape == (1, 2, 2, 1)
        assert np.all(gx.data == 2.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (2, 4, 5, 3))
        g = rng.uniform(-1, 1, (2, 1, 1, 3))

        def scalar():
            return float((global_avgpool(Tensor(x)).data * g).sum())

        gx = global_avgpool_backward((2, 4, 5, 3), Tensor(g))
        assert rel_err(gx.data, finite_diff(scalar, x)) < 1e-6

    @pytest.mark.parametrize("shape", [(8, 16, 8, 8), (3, 5, 17, 13), (2, 4, 1, 1)])
    def test_mean_is_the_nchw_mean_bit_for_bit(self, shape):
        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        out = global_avgpool(Tensor(nhwc(x)))
        assert out.shape == (shape[0], 1, 1, shape[1])
        assert out.data.tobytes() == x.mean(axis=(2, 3), keepdims=True).tobytes()


class TestRelu:
    def test_forward(self):
        t = Tensor(np.array([[[[-1.0, 0.0], [0.5, 2.0]]]]))
        assert np.array_equal(relu(t).data, [[[[0.0, 0.0], [0.5, 2.0]]]])
        assert t.data[0, 0, 0, 0] == -1.0

    def test_in_place_writes_into_the_input_and_returns_it(self):
        x = np.random.default_rng(12).standard_normal((2, 3, 4, 5))
        x[0, 0, 0, :2] = [np.nan, -0.0]
        want = relu(Tensor(x)).data.tobytes()
        t = Tensor(x)
        assert relu(t, in_place=True) is t
        assert t.data is x and x.tobytes() == want

    def test_backward_zero_at_kink(self):
        t = Tensor(np.array([[[[-1.0, 0.0], [0.5, 2.0]]]]))
        g = Tensor(np.full((1, 1, 2, 2), 7.0))
        gx = relu_backward(t, g)
        assert np.array_equal(gx.data, [[[[0.0, 0.0], [7.0, 7.0]]]])

    def test_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = rand_tensor(rng, (2, 3, 4, 4), avoid_zero=1e-3).data
        g = rng.uniform(-1, 1, x.shape)

        def scalar():
            return float((relu(Tensor(x)).data * g).sum())

        gx = relu_backward(Tensor(x), Tensor(g))
        assert rel_err(gx.data, finite_diff(scalar, x)) < 1e-6


class TestFullyConnected:
    def test_identity_weights(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3))
        p = LayerParams(Tensor(np.eye(3).reshape(3, 3, 1, 1)), np.zeros(3))
        out = fully_connected(x, p)
        assert np.array_equal(out.data.reshape(-1), [1.0, 2.0, 3.0])

    def test_zero_weights_give_bias(self):
        x = Tensor(np.ones((2, 1, 1, 4)))
        p = LayerParams(Tensor.zeros((3, 4, 1, 1)), np.array([1.0, 2.0, 3.0]))
        out = fully_connected(x, p)
        assert np.array_equal(out.data[1].reshape(-1), [1.0, 2.0, 3.0])

    def test_flattens_spatial_input(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (3, 2, 4, 4))
        w = rng.uniform(-1, 1, (5, 32))
        b = rng.uniform(-1, 1, 5)
        # the weights' D axis is in (c, h, w) order, the flatten of the NCHW input
        got = fully_connected(Tensor(nhwc(x)), LayerParams(Tensor(w.reshape(5, 32, 1, 1)), b))
        want = naive_fc(x.reshape(3, 32), w, b)
        assert np.max(np.abs(got.data.reshape(3, 5) - want)) < 1e-12

    def test_dim_mismatch_message(self):
        x = Tensor.zeros((1, 1, 1, 32))
        p = LayerParams(Tensor.zeros((4, 16, 1, 1)), np.zeros(4))
        with pytest.raises(ShapeMismatch, match="expected input dim 16, found 32"):
            fully_connected(x, p)

    def test_finite_differences(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, (2, 2, 2, 3))
        w = rng.uniform(-1, 1, (4, 12, 1, 1))
        b = rng.uniform(-1, 1, 4)
        g = rng.uniform(-1, 1, (2, 1, 1, 4))

        def scalar():
            return float((fully_connected(Tensor(x), LayerParams(Tensor(w), b)).data * g).sum())

        gx, gw, gb = fully_connected_backward(Tensor(x), LayerParams(Tensor(w), b), Tensor(g))
        assert rel_err(gx.data, finite_diff(scalar, x)) < 1e-6
        assert rel_err(gw.data, finite_diff(scalar, w)) < 1e-6
        assert rel_err(gb, finite_diff(scalar, b)) < 1e-6

    def test_without_weight_grad_only_the_input_gradient_is_computed(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 2, 3)))
        params = LayerParams(Tensor(rng.uniform(-1, 1, (4, 12, 1, 1))), rng.uniform(-1, 1, 4))
        g = Tensor(rng.uniform(-1, 1, (2, 1, 1, 4)))
        gx, _, _ = fully_connected_backward(x, params, g)
        gx2, gw2, gb2 = fully_connected_backward(x, params, g, weight_grad=False)
        assert gw2 is None and gb2 is None
        assert gx2.data.tobytes() == gx.data.tobytes()


def softmax(z):
    """exp / sum along the rows of an (N, F) array, with no max-subtraction: an independent softmax."""
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def onehot(labels, f):
    out = np.zeros((len(labels), f))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestSoftmaxCrossEntropy:
    def test_uniform_two_way_is_ln2(self):
        logits = Tensor.zeros((1, 1, 1, 2))
        loss, _, grad = score_logits(logits, [0])
        assert abs(loss - np.log(2.0)) < 1e-12
        assert np.allclose(grad + onehot([0], 2), softmax(np.zeros((1, 2))))

    def test_huge_logits_stable(self):
        logits = Tensor(np.array([1000.0, 0.0]).reshape(1, 1, 1, 2))
        loss, _, grad = score_logits(logits, [0])
        assert np.isfinite(loss)
        assert loss < 1e-12
        probs = grad + onehot([0], 2)  # N = 1
        # softmax is shift-invariant: [1000, 0] has the probabilities of [0, -1000]
        assert np.max(np.abs(probs - softmax(np.array([[0.0, -1000.0]])))) < 1e-12
        assert abs(probs[0, 0] - 1.0) < 1e-12

    def test_grad_matches_probs_minus_onehot(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(-2, 2, (4, 5))
        labels = [0, 3, 2, 2]
        _, _, grad = score_logits(Tensor(z.reshape(4, 1, 1, 5)), labels)
        assert np.max(np.abs(grad - (softmax(z) - onehot(labels, 5)) / 4.0)) < 1e-15

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        z = rng.uniform(-2, 2, (3, 1, 1, 4))
        labels = [1, 0, 3]

        def scalar():
            loss, _, _ = score_logits(Tensor(z), labels)
            return loss

        _, _, grad = score_logits(Tensor(z), labels)
        assert rel_err(grad, finite_diff(scalar, z)) < 1e-6

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(-50, 50, (8, 1, 1, 6))
        _, _, grad = score_logits(Tensor(z), [0] * 8)
        probs = grad * 8 + onehot([0] * 8, 6)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(probs - softmax(z.reshape(8, 6)))) < 1e-12

    def test_label_out_of_range_names_row(self):
        with pytest.raises(ShapeMismatch, match="row 1: label 7"):
            score_logits(Tensor.zeros((2, 1, 1, 3)), [0, 7])

    def test_negative_label_rejected(self):
        with pytest.raises(ShapeMismatch, match="label -1"):
            score_logits(Tensor.zeros((1, 1, 1, 3)), [-1])

    def test_first_of_several_bad_rows_is_named(self):
        with pytest.raises(ShapeMismatch, match=r"^row 2: label 3 out of range \[0, 3\)$"):
            score_logits(Tensor.zeros((5, 1, 1, 3)), [0, 2, 3, -1, 9])

    def test_label_count_must_match_the_batch(self):
        with pytest.raises(ShapeMismatch, match=r"^got 2 labels for batch of 3$"):
            score_logits(Tensor.zeros((3, 1, 1, 4)), [0, 1])


class TestAccuracy:
    def test_simple(self):
        z = np.array([[1.0, 2.0], [5.0, 1.0], [0.0, 3.0]]).reshape(3, 1, 1, 2)
        assert score_logits(Tensor(z), [1, 0, 0])[1] == pytest.approx(2.0 / 3.0)

    def test_tie_goes_to_lowest_index(self):
        z = Tensor.zeros((1, 1, 1, 4))
        assert score_logits(z, [0])[1] == 1.0
        assert score_logits(z, [1])[1] == 0.0


class TestScoreLogitsMatchesReference:
    """score_logits against the separate loss and accuracy ops it replaced (helpers), bit for bit."""

    @staticmethod
    def assert_same(z, labels):
        loss, accuracy, grad = score_logits(Tensor(z), labels)
        want_loss, _, want_grad = reference_softmax_cross_entropy(Tensor(z), labels)
        assert (loss, accuracy) == (want_loss, reference_top1_accuracy(Tensor(z), labels))
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("f", [2, 3, 6])
    def test_random_batches(self, n, f):
        rng = np.random.default_rng(100 * n + f)
        for _ in range(5):
            self.assert_same(rng.normal(0, 3, (n, 1, 1, f)), rng.integers(0, f, n))

    @pytest.mark.parametrize("n", [1, 8])
    def test_argmax_ties_go_to_the_lowest_index(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            z = rng.integers(0, 2, (n, 1, 1, 4)).astype(np.float64)  # most rows tie
            self.assert_same(z, rng.integers(0, 4, n))
        z = np.zeros((n, 1, 1, 3))
        self.assert_same(z, np.zeros(n, dtype=np.int64))
        assert score_logits(Tensor(z), np.zeros(n, dtype=np.int64))[1] == 1.0
        assert score_logits(Tensor(z), np.ones(n, dtype=np.int64))[1] == 0.0

    @pytest.mark.parametrize("n", [1, 8])
    def test_logits_of_plus_minus_1000(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(10):
            z = rng.choice([-1000.0, 1000.0], (n, 1, 1, 5)) + rng.uniform(-1, 1, (n, 1, 1, 5))
            self.assert_same(z, rng.integers(0, 5, n))
        self.assert_same(rng.choice([-1000.0, 1000.0], (n, 1, 1, 5)), rng.integers(0, 5, n))


class TestInitParams:
    def test_deterministic(self):
        a = init_params(he_normal, (4, 3, 3, 3), seed=123)
        b = init_params(he_normal, (4, 3, 3, 3), seed=123)
        assert np.array_equal(a.weights.data, b.weights.data)

    def test_seed_changes_weights(self):
        a = init_params(glorot_uniform, (4, 8, 1, 1), seed=1)
        b = init_params(glorot_uniform, (4, 8, 1, 1), seed=2)
        assert not np.array_equal(a.weights.data, b.weights.data)

    def test_conv_std(self):
        # enough samples that the empirical std should land within 5%
        p = init_params(he_normal, (100, 100, 3, 3), seed=0)
        want = np.sqrt(2.0 / (9 * 100))
        got = p.weights.data.std()
        assert abs(got - want) / want < 0.05

    def test_fc_bounds(self):
        p = init_params(glorot_uniform, (50, 70, 1, 1), seed=4)
        limit = np.sqrt(6.0 / 120)
        assert np.max(np.abs(p.weights.data)) <= limit
        assert p.weights.data.max() > limit * 0.9

    def test_bias_zero(self):
        p = init_params(he_normal, (4, 2, 3, 3), seed=5)
        assert np.all(p.bias == 0.0)

    def test_mask_to_64_bits(self):
        a = init_params(glorot_uniform, (3, 3, 1, 1), seed=1)
        b = init_params(glorot_uniform, (3, 3, 1, 1), seed=1 + (1 << 64))
        assert np.array_equal(a.weights.data, b.weights.data)

    def test_shapes(self):
        c = init_params(he_normal, (6, 2, 5, 5), seed=0)
        assert c.weights.shape == (6, 2, 5, 5)
        assert c.bias.shape == (6,)
        f = init_params(glorot_uniform, (7, 9, 1, 1), seed=0)
        assert f.weights.shape == (7, 9, 1, 1)
        assert f.bias.shape == (7,)
