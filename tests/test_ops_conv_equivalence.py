"""Kernel-equivalence tests: im2col convolutions vs the shift-and-accumulate
oracle (:func:`repro.autograd.ops_nn._reference_conv2d` — the pre-refactor
implementation kept verbatim as an independent reference).

Forward values and both backward gradients (input and weight) must match
across strides, paddings, group counts (dense / grouped / depthwise), odd
spatial shapes, and the batch-chunked large-column path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.autograd.ops_nn as ops_nn
from repro.autograd.gradcheck import gradcheck
from repro.autograd.ops_nn import _reference_conv2d, conv2d, max_pool2d
from repro.autograd.tensor import default_dtype, tensor


@pytest.fixture(autouse=True)
def _float64_numerics():
    """Equivalence is asserted to 1e-10; run both paths at float64."""
    with default_dtype(np.float64):
        yield


def _compare(n, c_in, h, w, c_out, k, stride, padding, groups, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in, h, w))
    weight = rng.normal(size=(c_out, c_in // groups, k, k))

    x_new, w_new = tensor(x, requires_grad=True), tensor(weight, requires_grad=True)
    out_new = conv2d(x_new, w_new, stride=stride, padding=padding, groups=groups)
    seed_grad = rng.normal(size=out_new.shape)
    out_new.backward(seed_grad)

    x_ref, w_ref = tensor(x, requires_grad=True), tensor(weight, requires_grad=True)
    out_ref = _reference_conv2d(x_ref, w_ref, stride=stride, padding=padding,
                                groups=groups)
    out_ref.backward(seed_grad)

    np.testing.assert_allclose(out_new.data, out_ref.data, atol=1e-10)
    np.testing.assert_allclose(x_new.grad, x_ref.grad, atol=1e-10)
    np.testing.assert_allclose(w_new.grad, w_ref.grad, atol=1e-10)


# Explicit grid: every conv flavour the supernet and the model zoo emit.
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("case", [
    ("dense", 2, 4, 9, 7, 6, 3, 1, 1),     # (n, c_in, h, w, c_out, k, pad, groups)
    ("pointwise", 3, 8, 6, 6, 12, 1, 0, 1),
    ("depthwise3", 2, 6, 8, 8, 6, 3, 1, 6),
    ("depthwise5", 1, 4, 9, 9, 4, 5, 2, 4),
    ("grouped", 2, 8, 7, 7, 12, 3, 1, 2),
], ids=lambda c: c[0] if isinstance(c, tuple) else str(c))
def test_conv_matches_reference(case, stride):
    _, n, c_in, h, w, c_out, k, pad, groups = case
    if (h + 2 * pad - k) < 0:
        pytest.skip("kernel larger than padded input")
    _compare(n, c_in, h, w, c_out, k, stride, pad, groups, seed=stride)


def test_chunked_path_matches_reference():
    """Force the batch-chunked backward (columns above _COL_CHUNK_BYTES)."""
    original = ops_nn._COL_CHUNK_BYTES
    ops_nn._COL_CHUNK_BYTES = 1 << 10  # 1 KiB: everything chunks
    try:
        _compare(5, 6, 8, 8, 6, 3, 1, 1, groups=3, seed=11)
        _compare(5, 4, 9, 7, 8, 3, 2, 1, groups=1, seed=12)
    finally:
        ops_nn._COL_CHUNK_BYTES = original


def test_input_grad_skipped_for_graph_external_input():
    """Inputs outside the graph get no input gradient computed (stem conv)."""
    rng = np.random.default_rng(3)
    x = tensor(rng.normal(size=(2, 3, 6, 6)))  # requires_grad=False
    w = tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    out = conv2d(x, w, padding=1)
    out.backward(np.ones(out.shape))
    assert x.grad is None
    assert w.grad is not None
    # weight gradient is unaffected by the skip
    x_ref = tensor(x.data, requires_grad=True)
    w_ref = tensor(w.data, requires_grad=True)
    out_ref = _reference_conv2d(x_ref, w_ref, padding=1)
    out_ref.backward(np.ones(out_ref.shape))
    np.testing.assert_allclose(w.grad, w_ref.grad, atol=1e-10)


@pytest.mark.parametrize("shape", [
    (3, 2, 40, 30, 2),  # weight larger than a sample's operands: folded GEMM
    (3, 2, 4, 3, 50),   # small weight, long rows: per-sample products
    (1, 1, 6, 5, 7),    # one sample: the folded layout is a view
])
def test_batch_folded_weight_grad(shape):
    n, groups, p, q, l = shape
    rng = np.random.default_rng(sum(shape))
    g = rng.normal(size=(n, groups, p, l))
    cols = rng.normal(size=(n, groups, q, l))
    np.testing.assert_allclose(
        ops_nn._batch_folded_gemm(g, cols),
        np.einsum("ngpl,ngql->gpq", g, cols), rtol=1e-12, atol=1e-12,
    )


@pytest.mark.parametrize("groups,chunk", [(1, False), (2, False), (1, True), (4, False)])
def test_frozen_weight_gets_no_weight_grad(groups, chunk):
    """A weight outside the graph gets None; the input gradient is unchanged
    (dense, grouped, batch-chunked and depthwise convs)."""
    rng = np.random.default_rng(7)
    x = tensor(rng.normal(size=(3, 4, 7, 7)), requires_grad=True)
    w = tensor(rng.normal(size=(4, 4 // groups, 3, 3)))  # no requires_grad
    original = ops_nn._COL_CHUNK_BYTES
    if chunk:
        ops_nn._COL_CHUNK_BYTES = 1 << 10
    try:
        out = conv2d(x, w, stride=2, padding=1, groups=groups)
    finally:
        ops_nn._COL_CHUNK_BYTES = original
    grad = rng.normal(size=out.shape)
    assert out.backward_fn(grad)[1] is None
    out.backward(grad)
    x_ref = tensor(x.data, requires_grad=True)
    out_ref = _reference_conv2d(x_ref, tensor(w.data), stride=2, padding=1,
                                groups=groups)
    out_ref.backward(grad)
    np.testing.assert_allclose(x.grad, x_ref.grad, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3),
    c_mult=st.integers(1, 3),
    h=st.integers(5, 11),
    w=st.integers(5, 11),
    k=st.sampled_from([1, 3, 5]),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    mode=st.sampled_from(["dense", "depthwise", "grouped"]),
)
def test_property_conv_equivalence(n, c_mult, h, w, k, stride, pad, mode):
    """Random shapes: the vectorized kernels agree with the oracle."""
    if mode == "dense":
        c_in, c_out, groups = 2 * c_mult, 3, 1
    elif mode == "depthwise":
        c_in = c_out = groups = 2 * c_mult
    else:
        c_in, c_out, groups = 2 * c_mult, 4 * c_mult, 2
    if (h + 2 * pad - k) < 0 or (w + 2 * pad - k) < 0:
        return
    _compare(n, c_in, h, w, c_out, k, stride, pad, groups,
             seed=n * 1000 + h * 10 + w)


class TestMaxPoolEquivalence:
    """The im2col max pool matches the old shift-and-maximum semantics."""

    def _reference_max_pool(self, x_data, kernel, stride, padding):
        n, c, h, w = x_data.shape
        ph, pw = h + 2 * padding, w + 2 * padding
        out_h = (ph - kernel) // stride + 1
        out_w = (pw - kernel) // stride + 1
        padded = np.full((n, c, ph, pw), -np.inf)
        padded[:, :, padding:padding + h, padding:padding + w] = x_data
        out = np.full((n, c, out_h, out_w), -np.inf)
        for i in range(kernel):
            for j in range(kernel):
                win = padded[:, :, i: i + out_h * stride: stride,
                             j: j + out_w * stride: stride]
                np.maximum(out, win, out=out)
        return out

    @pytest.mark.parametrize("kernel,stride,padding", [
        (2, 2, 0), (3, 1, 1), (3, 2, 1), (2, 1, 0),
    ])
    def test_forward_matches(self, kernel, stride, padding):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 7, 7))
        out = max_pool2d(tensor(x), kernel, stride=stride, padding=padding)
        np.testing.assert_allclose(
            out.data, self._reference_max_pool(x, kernel, stride, padding)
        )

    def test_overlapping_backward_accumulates(self):
        rng = np.random.default_rng(6)
        x = tensor(rng.permutation(49).reshape(1, 1, 7, 7).astype(float),
                   requires_grad=True)
        out = max_pool2d(x, 3, stride=1, padding=0)
        out.backward(np.ones(out.shape))
        # every unit of upstream gradient lands somewhere in the input
        assert x.grad.sum() == out.data.size


class TestDepthwiseDirectEquivalence:
    """The channels-last depthwise kernel (every depthwise conv runs it, no
    im2col) matches the shift-and-accumulate oracle for every kernel size,
    stride and padding, including spatial sizes the stride does not divide."""

    @pytest.mark.parametrize("k,padding", [
        (3, 0), (3, 1), (5, 0), (5, 2), (7, 0), (7, 3), (7, 1),
    ])
    def test_matches_reference(self, k, padding):
        # W = 8 makes (W + 2p - k) odd for every odd k, so stride 2 leaves
        # an uncovered last column; H = 9 keeps the other axis even.
        for stride in (1, 2):
            for channels in (1, 4):
                _compare(2, channels, 9, 8, channels, k, stride, padding,
                         groups=channels, seed=100 * k + 10 * stride + padding)

    def test_gradcheck(self):
        rng = np.random.default_rng(15)
        x = tensor(rng.normal(size=(2, 3, 6, 7)), requires_grad=True)
        w = tensor(rng.normal(size=(3, 1, 5, 5)), requires_grad=True)
        assert gradcheck(
            lambda a, b: conv2d(a, b, stride=2, padding=2, groups=3), [x, w]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 5),
        h=st.integers(1, 10),
        w=st.integers(1, 10),
        k=st.sampled_from([1, 3, 5, 7]),
        stride=st.integers(1, 3),
        padding=st.integers(0, 4),
    )
    def test_property_matches_reference(self, n, c, h, w, k, stride, padding):
        if h + 2 * padding < k or w + 2 * padding < k:
            return
        _compare(n, c, h, w, c, k, stride, padding, groups=c,
                 seed=n * 1000 + h * 10 + w)

    def test_external_input_skips_input_grad(self):
        rng = np.random.default_rng(12)
        x = tensor(rng.normal(size=(1, 3, 8, 8)))  # graph-external
        w = tensor(rng.normal(size=(3, 1, 5, 5)), requires_grad=True)
        out = conv2d(x, w, stride=1, padding=2, groups=3)
        out.backward(np.ones(out.shape))
        assert x.grad is None
        assert w.grad is not None and np.abs(w.grad).sum() > 0
