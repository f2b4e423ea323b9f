"""Neural-network primitives: matmul, conv2d (grouped/depthwise), pooling,
activations and log-softmax.

``conv2d`` is formulated on im2col/col2im: a stride-tricks window view of the
input is reshaped into a column matrix and contracted against the flattened
kernel with **one batched matmul** per convolution — no Python loops over
kernel offsets or groups.  Dense and grouped convolutions run this path.
The backward pass is two more matmuls: the weight gradient contracts the
saved columns against the output gradient, and the input gradient is the
standard transposed convolution (stride-dilated output gradient, full
padding, spatially-flipped kernel) expressed through the same im2col helper.
Depthwise convolutions (``groups == C_in == C_out``), where im2col
degenerates into ``C`` tiny GEMMs, run a channels-last einsum kernel
instead (:func:`_depthwise_conv`).

The original shift-and-accumulate implementation is retained as
:func:`_reference_conv2d` — a slow, independently-written oracle used by the
equivalence tests and the ``repro bench`` baseline measurements.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.autograd.tensor import Tensor, make_op, needs_grad
from repro.autograd.ops_shape import pad2d


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product ``a @ b``."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D tensors, got {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(grad: np.ndarray):
        return grad @ b.data.T, a.data.T @ grad

    return make_op(out, (a, b), backward, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` shaped (out, in)."""
    out = x.data @ weight.data.T
    if bias is not None:
        out = out + bias.data

    if bias is None:

        def backward(grad: np.ndarray):
            return grad @ weight.data, grad.T @ x.data

        return make_op(out, (x, weight), backward, "linear")

    def backward_bias(grad: np.ndarray):
        return grad @ weight.data, grad.T @ x.data, grad.sum(axis=0)

    return make_op(out, (x, weight, bias), backward_bias, "linear")


def _conv_output_size(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


# -- im2col machinery ---------------------------------------------------------

def _window_view(x: np.ndarray, k_h: int, k_w: int, stride: int) -> np.ndarray:
    """Read-only sliding-window view of NCHW ``x``: (N, C, kH, kW, oH, oW)."""
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    s_n, s_c, s_h, s_w = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k_h, k_w, out_h, out_w),
        strides=(s_n, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )


def _im2col(
    x: np.ndarray, k_h: int, k_w: int, stride: int, groups: int
) -> tuple[np.ndarray, int, int]:
    """Column matrix (N, G, C_g*kH*kW, oH*oW) of ``x`` plus output dims.

    For 1x1 kernels at stride 1 (the MBConv expand/project hot path) the
    reshape is a zero-copy view of a contiguous input; otherwise it
    materialises the columns.
    """
    n, c, _, _ = x.shape
    view = _window_view(x, k_h, k_w, stride)
    out_h, out_w = view.shape[4], view.shape[5]
    cols = view.reshape(n, groups, (c // groups) * k_h * k_w, out_h * out_w)
    return cols, out_h, out_w


def _flipped_weight_t(
    w_data: np.ndarray, groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spatially-flipped, channel-transposed kernel views for input grads.

    Returns the flipped 5-D view ``(G, C_out_g, C_in_g, kH, kW)`` and its
    contiguous transpose reshaped to ``(G, C_in_g, C_out_g*kH*kW)`` — the
    left operand of the transposed-convolution GEMM.
    """
    c_out, c_in_g, k_h, k_w = w_data.shape
    c_out_g = c_out // groups
    flipped = w_data.reshape(groups, c_out_g, c_in_g, k_h, k_w)[:, :, :, ::-1, ::-1]
    w_t = np.ascontiguousarray(flipped.transpose(0, 2, 1, 3, 4)).reshape(
        groups, c_in_g, c_out_g * k_h * k_w
    )
    return flipped, w_t


def _conv_input_grad_dilated(
    grad: np.ndarray,
    w_data: np.ndarray,
    x_shape: tuple[int, ...],
    stride: int,
    groups: int,
) -> np.ndarray:
    """Input gradient as one full correlation of the stride-dilated output
    gradient with the flipped kernel (im2col + one batched matmul).

    This is the pre-phase-decomposition formulation, kept as the oracle for
    the equivalence tests and the training bench: for ``stride > 1`` the
    dilated canvas is mostly zeros, so the single big GEMM does ``stride²``
    more multiplies than the non-zero structure requires.
    :func:`_conv_input_grad` dispatches to it only for ``stride == 1``.
    """
    n, c_in, h, w = x_shape
    c_out, c_in_g, k_h, k_w = w_data.shape
    out_h, out_w = grad.shape[2], grad.shape[3]

    if k_h == 1 and k_w == 1 and stride == 1:
        padded = grad  # 1x1/s1: the dilate+pad stage is the identity
    else:
        # One canvas fuses stride-dilation, full padding and the trailing
        # slack for input pixels the kernel never reached (zero gradient
        # there when (H - kH) % stride != 0): the dilated gradient lands at
        # positions (kH-1) + i*stride of an (H + kH - 1)-tall canvas.
        padded = np.zeros((n, c_out, h + k_h - 1, w + k_w - 1), dtype=grad.dtype)
        padded[
            :,
            :,
            k_h - 1 : k_h - 1 + (out_h - 1) * stride + 1 : stride,
            k_w - 1 : k_w - 1 + (out_w - 1) * stride + 1 : stride,
        ] = grad

    _, w_t = _flipped_weight_t(w_data, groups)
    cols, gh, gw = _im2col(padded, k_h, k_w, 1, groups)
    assert (gh, gw) == (h, w)
    return np.matmul(w_t[None], cols).reshape(n, c_in, h, w)


def _conv_input_grad_phased(
    grad: np.ndarray,
    w_data: np.ndarray,
    x_shape: tuple[int, ...],
    stride: int,
    groups: int,
) -> np.ndarray:
    """Phase-decomposed transposed-convolution input gradient (stride > 1).

    The stride-dilated full correlation touches a canvas in which only one
    position in ``stride²`` is non-zero.  Input row ``y`` only ever reads
    kernel taps ``d`` with ``d ≡ (kH-1-y) (mod s)``, so the correlation
    splits exactly into ``s²`` *dense* sub-correlations — one per input
    phase ``(y mod s, x mod s)`` — each contracting the **undilated** output
    gradient against the sub-kernel ``flipped[d0::s, d0'::s]``.  Total
    multiply count drops by ``s²`` versus the dilated oracle
    (:func:`_conv_input_grad_dilated`); results are bit-identical in exact
    arithmetic and gradcheck-identical in float64 (see
    ``tests/test_ops_conv_equivalence.py``).

    Phases whose sub-kernel is empty (``stride > kH`` cases) or that index
    past the input (``h < stride``) stay zero, which also covers the
    ``(H - kH) % stride != 0`` trailing rows the kernel never reached.
    """
    n, c_in, h, w = x_shape
    c_out, c_in_g, k_h, k_w = w_data.shape
    c_out_g = c_out // groups
    out_h, out_w = grad.shape[2], grad.shape[3]
    grad_x = np.zeros((n, c_in, h, w), dtype=grad.dtype)
    # Only the flipped *view* is needed here — each phase builds its own
    # contiguous sub-kernel below, so the full transposed copy the dilated
    # path uses (_flipped_weight_t's second return) would be wasted work.
    flipped = w_data.reshape(groups, c_out_g, c_in_g, k_h, k_w)[:, :, :, ::-1, ::-1]

    for ph in range(stride):
        t_h = len(range(ph, h, stride))
        d0_h = (k_h - 1 - ph) % stride
        ks_h = len(range(d0_h, k_h, stride))
        # Canvas row v maps to output row v + delta (delta <= 0): the
        # sub-correlation reads grad rows t+delta .. t+delta+ksH-1.
        delta_h = (ph + d0_h - (k_h - 1)) // stride
        if t_h == 0 or ks_h == 0:
            continue
        for pw in range(stride):
            t_w = len(range(pw, w, stride))
            d0_w = (k_w - 1 - pw) % stride
            ks_w = len(range(d0_w, k_w, stride))
            delta_w = (pw + d0_w - (k_w - 1)) // stride
            if t_w == 0 or ks_w == 0:
                continue
            canvas_h = t_h + ks_h - 1
            canvas_w = t_w + ks_w - 1
            canvas = np.zeros((n, c_out, canvas_h, canvas_w), dtype=grad.dtype)
            # Copy the grad window the sub-correlation can actually read
            # (canvas row v holds grad row v + delta); the rest of the
            # canvas stays zero padding.
            dst_h_lo, dst_h_hi = -delta_h, min(canvas_h, out_h - delta_h)
            dst_w_lo, dst_w_hi = -delta_w, min(canvas_w, out_w - delta_w)
            if dst_h_hi > dst_h_lo and dst_w_hi > dst_w_lo:
                canvas[:, :, dst_h_lo:dst_h_hi, dst_w_lo:dst_w_hi] = grad[
                    :, :, : dst_h_hi + delta_h, : dst_w_hi + delta_w
                ]
            w_sub = np.ascontiguousarray(
                flipped[:, :, :, d0_h::stride, d0_w::stride].transpose(0, 2, 1, 3, 4)
            ).reshape(groups, c_in_g, c_out_g * ks_h * ks_w)
            cols, gh, gw = _im2col(canvas, ks_h, ks_w, 1, groups)
            assert (gh, gw) == (t_h, t_w)
            grad_x[:, :, ph::stride, pw::stride] = np.matmul(
                w_sub[None], cols
            ).reshape(n, c_in, t_h, t_w)
    return grad_x


#: Below this many dilated-canvas column elements (``N*C_out*kH*kW*H*W``)
#: the stride²-redundant single GEMM is still cheaper than the phase
#: decomposition's s² python-level sub-correlations — dispatch accordingly.
_PHASED_MIN_ELEMS = 256_000


def _conv_input_grad(
    grad: np.ndarray,
    w_data: np.ndarray,
    x_shape: tuple[int, ...],
    stride: int,
    groups: int,
) -> np.ndarray:
    """Input gradient of a convolution (transposed convolution).

    ``stride == 1`` runs the dense full correlation directly.  ``stride > 1``
    uses the phase decomposition — the same arithmetic without the
    ``stride²`` multiply-by-zero overhead of a dilated canvas — unless the
    problem is so small that the s² python-level sub-correlations cost more
    than the redundant flops they avoid (:data:`_PHASED_MIN_ELEMS`).
    """
    if stride == 1:
        return _conv_input_grad_dilated(grad, w_data, x_shape, stride, groups)
    n, _, h, w = x_shape
    c_out, _, k_h, k_w = w_data.shape
    if n * c_out * k_h * k_w * h * w < _PHASED_MIN_ELEMS:
        return _conv_input_grad_dilated(grad, w_data, x_shape, stride, groups)
    return _conv_input_grad_phased(grad, w_data, x_shape, stride, groups)


def _batch_folded_gemm(g: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``sum_n g[n] @ cols[n].T``: the weight gradient of a batched GEMM.

    ``g`` is ``(N, ..., P, L)`` and ``cols`` ``(N, ..., Q, L)`` with the same
    leading (group) axes; returns ``(..., P, Q)``.  When the weight (P x Q)
    is larger than a sample's operands ((P + Q) x L, the late-block shapes
    of the search space), the batch moves next to L and becomes part of one
    GEMM's K loop: only the activation-sized operands are copied into that
    layout (nothing for N == 1), where summing per-sample products would
    first build an N x weight-sized stack.  For smaller weights that stack
    is cheaper than the copies, and the per-sample products run instead.
    """
    n, p, q, l = g.shape[0], g.shape[-2], cols.shape[-2], g.shape[-1]
    if n > 1 and p * q <= (p + q) * l:
        return np.matmul(g, np.swapaxes(cols, -1, -2)).sum(axis=0)
    lead = g.shape[1:-2]
    g_k = np.moveaxis(g, 0, -2).reshape(lead + (p, n * l))
    cols_k = np.moveaxis(cols, 0, -2).reshape(lead + (q, n * l))
    return np.matmul(g_k, np.swapaxes(cols_k, -1, -2))


# Materialized column matrices above this size are processed in batch chunks:
# allocations past glibc's mmap threshold cap (32 MiB) page-fault on every
# conv, which costs far more than the extra python iterations of cache
# blocking.  Below the cap the allocator recycles the buffers, so capturing
# the columns for the backward is cheaper than recomputing them.
_COL_CHUNK_BYTES = 24 << 20


def _im2col_conv(xp: Tensor, weight: Tensor, stride: int, groups: int,
                 op_name: str) -> Tensor:
    """Shared forward/backward for every conv flavour (already-padded input)."""
    x_data, w_data = xp.data, weight.data
    n = x_data.shape[0]
    c_out, c_in_g, k_h, k_w = w_data.shape
    c_out_g = c_out // groups
    col_len = c_in_g * k_h * k_w
    out_h = _conv_output_size(x_data.shape[2], k_h, stride)
    out_w = _conv_output_size(x_data.shape[3], k_w, stride)

    # A 1x1/s1 column matrix is a zero-copy view; otherwise im2col blows the
    # input up kH*kW-fold, so big batches are blocked along N (vectorization
    # over kernel offsets and groups is untouched) and the backward
    # recomputes its column chunks instead of retaining them in the graph.
    view_only = k_h == 1 and k_w == 1 and stride == 1
    per_sample_bytes = x_data.shape[1] * k_h * k_w * out_h * out_w * x_data.itemsize
    # The closure contract allows returning None per parent: skip the input
    # gradient entirely when the input is graph-external (e.g. the stem conv
    # consuming the data batch) — that's the priciest half of the backward —
    # and the weight gradient, with the columns it reads, for a frozen weight.
    need_input_grad = needs_grad(xp)
    need_weight_grad = needs_grad(weight)

    if view_only or n * per_sample_bytes <= _COL_CHUNK_BYTES:
        # The forward is the inference kernel (conv2d_into); the columns it
        # materialises are kept for the weight gradient.
        col6 = None if view_only or not need_weight_grad else np.empty(
            (n, x_data.shape[1], k_h, k_w, out_h, out_w), dtype=x_data.dtype
        )
        out = conv2d_into(x_data, w_data, stride=stride, groups=groups, cols=col6)
        cols = (x_data if view_only else col6).reshape(
            n, groups, col_len, out_h * out_w
        ) if need_weight_grad else None

        def backward(grad: np.ndarray):
            grad_w = (
                _batch_folded_gemm(
                    grad.reshape(n, groups, c_out_g, out_h * out_w), cols
                ).reshape(w_data.shape)
                if need_weight_grad
                else None
            )
            grad_x = (
                _conv_input_grad(grad, w_data, x_data.shape, stride, groups)
                if need_input_grad
                else None
            )
            return grad_x, grad_w

        return make_op(out, (xp, weight), backward, op_name)

    step = max(1, int(_COL_CHUNK_BYTES // per_sample_bytes))
    out = np.empty((n, c_out, out_h, out_w), dtype=x_data.dtype)
    for start in range(0, n, step):
        conv2d_into(
            x_data[start : start + step], w_data, stride=stride, groups=groups,
            out=out[start : start + step],
        )

    def backward_chunked(grad: np.ndarray):
        grad_w = (
            np.zeros((groups, c_out_g, col_len), dtype=w_data.dtype)
            if need_weight_grad else None
        )
        grad_x = (
            np.empty(x_data.shape, dtype=x_data.dtype) if need_input_grad else None
        )
        for start in range(0, n, step):
            sl = slice(start, start + step)
            chunk = x_data[sl]
            if grad_w is not None:
                cols, _, _ = _im2col(chunk, k_h, k_w, stride, groups)
                grad_w += _batch_folded_gemm(
                    grad[sl].reshape(chunk.shape[0], groups, c_out_g, out_h * out_w),
                    cols,
                )
            if grad_x is not None:
                grad_x[sl] = _conv_input_grad(
                    grad[sl], w_data, chunk.shape, stride, groups
                )
        return grad_x, None if grad_w is None else grad_w.reshape(w_data.shape)

    return make_op(out, (xp, weight), backward_chunked, op_name)


def _channels_last_windows(
    canvas: np.ndarray, k_h: int, k_w: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only tap view (N, oH, oW, kH, kW, C) of a channels-last canvas.

    Every tap slice keeps the canvas's contiguous channel axis innermost, so
    an einsum over this view runs its multiply-accumulates along C.
    """
    s_n, s_h, s_w, s_c = canvas.strides
    return np.lib.stride_tricks.as_strided(
        canvas,
        shape=(canvas.shape[0], out_h, out_w, k_h, k_w, canvas.shape[3]),
        strides=(s_n, s_h * stride, s_w * stride, s_h, s_w, s_c),
        writeable=False,
    )


def _dilated_slices(
    offset: int, stride: int, count: int, size: int
) -> tuple[slice, slice]:
    """Place rows ``t < count`` at ``offset + t*stride`` of a ``size``-row
    canvas: the (source, destination) slices, dropping rows that fall
    outside the canvas."""
    lo = max(0, -(offset // stride))
    hi = max(lo, min(count, (size - 1 - offset) // stride + 1))
    return slice(lo, hi), slice(offset + lo * stride, offset + hi * stride, stride)


def _depthwise_conv(x: Tensor, weight: Tensor, stride: int, padding: int) -> Tensor:
    """Depthwise convolution in a channels-last layout (every k, stride, pad).

    The im2col formulation turns a depthwise conv into ``C`` batched
    (1, k²) x (k², oH*oW) GEMMs after a k²-fold column copy, and an NCHW
    sliding-window einsum iterates a short spatial axis innermost; both ran
    depthwise convs at tens of M MAC/s.  This kernel instead copies the
    input once into a zero-padded (N, H+2p, W+2p, C) canvas — the padding
    is part of that copy, so no ``pad2d`` node is recorded — and contracts
    strided tap slices whose innermost axis is the contiguous channel axis:

    * forward: the k² multiply-accumulates of every output pixel,
      ``einsum('nhwijc,ijc->nhwc')`` over the canvas's tap view;
    * weight grad: per tap, the product with the output gradient summed
      over (N, oH, oW) rows, ``einsum('nhwijc,nhwc->ijc')`` over the same
      view;
    * input grad: the output gradient scattered to its stride-dilated
      positions in a second channels-last canvas, then correlated with the
      spatially flipped kernel over the H x W interior only (the transposed
      convolution; the padding border is never computed).

    Each side converts NCHW <-> NHWC once.  The backward keeps only the
    padded canvas and the (kH, kW, C) kernel, never a column matrix.  As in
    :func:`_im2col_conv`, the input (weight) gradient is skipped for a
    graph-external input (weight).
    """
    x_data, w_data = x.data, weight.data
    dtype = x_data.dtype
    n, c, h, w = x_data.shape
    k_h, k_w = w_data.shape[2], w_data.shape[3]
    h_p, w_p = h + 2 * padding, w + 2 * padding
    out_h = _conv_output_size(h_p, k_h, stride)
    out_w = _conv_output_size(w_p, k_w, stride)

    canvas = np.zeros((n, h_p, w_p, c), dtype=dtype)
    canvas[:, padding : padding + h, padding : padding + w] = x_data.transpose(
        0, 2, 3, 1
    )
    w_taps = np.ascontiguousarray(w_data.reshape(c, k_h, k_w).transpose(1, 2, 0))
    taps = _channels_last_windows(canvas, k_h, k_w, stride, out_h, out_w)

    acc = np.empty((n, out_h, out_w, c), dtype=dtype)
    np.einsum("nhwijc,ijc->nhwc", taps, w_taps, out=acc)
    out = np.ascontiguousarray(acc.transpose(0, 3, 1, 2))
    need_input_grad = needs_grad(x)
    need_weight_grad = needs_grad(weight)

    def backward(grad: np.ndarray):
        g = np.ascontiguousarray(grad.transpose(0, 2, 3, 1))
        grad_w = None
        if need_weight_grad:
            grad_w_taps = np.empty((k_h, k_w, c), dtype=grad.dtype)
            np.einsum("nhwijc,nhwc->ijc", taps, g, out=grad_w_taps)
            grad_w = grad_w_taps.transpose(2, 0, 1).reshape(w_data.shape)
        if not need_input_grad:
            return None, grad_w
        # Transposed convolution: output-gradient row t feeds interior rows
        # t*stride - padding + i (tap i).  Placed at row
        # t*stride + kH-1-padding of an (H+kH-1)-row canvas, it is read by
        # interior row y through canvas rows y .. y+kH-1, so the input
        # gradient is a stride-1 correlation with the flipped kernel.  Rows
        # that land outside the canvas only fed the zero border.
        g_h, g_w = h + k_h - 1, w + k_w - 1
        src_h, dst_h = _dilated_slices(k_h - 1 - padding, stride, out_h, g_h)
        src_w, dst_w = _dilated_slices(k_w - 1 - padding, stride, out_w, g_w)
        g_canvas = np.zeros((n, g_h, g_w, c), dtype=grad.dtype)
        g_canvas[:, dst_h, dst_w] = g[:, src_h, src_w]
        gx = np.empty((n, h, w, c), dtype=grad.dtype)
        np.einsum(
            "nhwijc,ijc->nhwc",
            _channels_last_windows(g_canvas, k_h, k_w, 1, h, w),
            w_taps[::-1, ::-1],
            out=gx,
        )
        return np.ascontiguousarray(gx.transpose(0, 3, 1, 2)), grad_w

    return make_op(out, (x, weight), backward, "dwconv2d")


def conv2d(
    x: Tensor,
    weight: Tensor,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` is shaped ``(C_out, C_in // groups, kH, kW)``.  ``groups == 1``
    is a dense convolution; ``groups == C_in`` with a channel multiplier of 1
    is a depthwise convolution (the MBConv middle layer) and runs
    :func:`_depthwise_conv`; every other group count shares one im2col +
    batched-matmul path.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    c_out, c_in_per_group, k_h, k_w = weight.shape
    c_in = x.shape[1]
    if c_in % groups or c_out % groups:
        raise ValueError(
            f"channels ({c_in} in, {c_out} out) not divisible by groups={groups}"
        )
    if c_in_per_group != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_per_group} channels/group but input provides "
            f"{c_in // groups}"
        )

    if groups == c_in and c_out == c_in:
        return _depthwise_conv(x, weight, stride, padding)
    xp = pad2d(x, padding)
    op_name = "conv2d" if groups == 1 else "gconv2d"
    return _im2col_conv(xp, weight, stride, groups, op_name)


def _reference_pad2d(a: Tensor, padding: int) -> Tensor:
    """The pre-refactor ``pad2d`` (np.pad-based), kept for the oracle path."""
    if padding == 0:
        return a
    widths = [(0, 0)] * (a.ndim - 2) + [(padding, padding), (padding, padding)]
    out = np.pad(a.data, widths)
    h, w = a.shape[-2], a.shape[-1]

    def backward(grad: np.ndarray):
        sl = [slice(None)] * (a.ndim - 2) + [
            slice(padding, padding + h),
            slice(padding, padding + w),
        ]
        return (grad[tuple(sl)],)

    return make_op(out, (a,), backward, "pad2d")


def _reference_conv2d(
    x: Tensor,
    weight: Tensor,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """The pre-im2col shift-and-accumulate convolution (slow, loop-based).

    This is the original implementation, kept verbatim — including its
    dense/depthwise/grouped dispatch — as an independently-written oracle:
    the equivalence tests check the vectorized kernels against it across
    strides/groups/odd shapes, and ``repro bench`` uses it (under a float64
    policy) as the faithful before-refactor baseline.  Semantics match
    :func:`conv2d` exactly (same signature, same backward contract).
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    c_out, c_in_per_group, k_h, k_w = weight.shape
    c_in = x.shape[1]
    if c_in % groups or c_out % groups:
        raise ValueError(
            f"channels ({c_in} in, {c_out} out) not divisible by groups={groups}"
        )
    if c_in_per_group != c_in // groups:
        raise ValueError(
            f"weight expects {c_in_per_group} channels/group but input provides "
            f"{c_in // groups}"
        )

    xp = _reference_pad2d(x, padding)
    depthwise = groups == c_in and c_out == c_in
    if depthwise:
        return _reference_depthwise_conv(xp, weight, stride)
    if groups == 1:
        return _reference_dense_conv(xp, weight, stride)
    return _reference_grouped_conv(xp, weight, stride, groups)


def _reference_dense_conv(xp: Tensor, weight: Tensor, stride: int) -> Tensor:
    n, c_in, h, w = xp.shape
    c_out, _, k_h, k_w = weight.shape
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    x_data, w_data = xp.data, weight.data

    out = np.zeros((n, c_out, out_h, out_w), dtype=x_data.dtype)
    for i in range(k_h):
        for j in range(k_w):
            window = x_data[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride]
            out += np.einsum("nchw,oc->nohw", window, w_data[:, :, i, j], optimize=True)

    def backward(grad: np.ndarray):
        grad_x = np.zeros_like(x_data)
        grad_w = np.zeros_like(w_data)
        for i in range(k_h):
            for j in range(k_w):
                window = x_data[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ]
                grad_w[:, :, i, j] = np.einsum(
                    "nohw,nchw->oc", grad, window, optimize=True
                )
                grad_x[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ] += np.einsum("nohw,oc->nchw", grad, w_data[:, :, i, j], optimize=True)
        return grad_x, grad_w

    return make_op(out, (xp, weight), backward, "reference_conv2d")


def _reference_depthwise_conv(xp: Tensor, weight: Tensor, stride: int) -> Tensor:
    n, c, h, w = xp.shape
    _, _, k_h, k_w = weight.shape
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    x_data, w_data = xp.data, weight.data

    out = np.zeros((n, c, out_h, out_w), dtype=x_data.dtype)
    for i in range(k_h):
        for j in range(k_w):
            window = x_data[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride]
            out += window * w_data[None, :, 0, i, j, None, None]

    def backward(grad: np.ndarray):
        grad_x = np.zeros_like(x_data)
        grad_w = np.zeros_like(w_data)
        for i in range(k_h):
            for j in range(k_w):
                window = x_data[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ]
                grad_w[:, 0, i, j] = (grad * window).sum(axis=(0, 2, 3))
                grad_x[
                    :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                ] += grad * w_data[None, :, 0, i, j, None, None]
        return grad_x, grad_w

    return make_op(out, (xp, weight), backward, "reference_dwconv2d")


def _reference_grouped_conv(xp: Tensor, weight: Tensor, stride: int, groups: int) -> Tensor:
    n, c_in, h, w = xp.shape
    c_out, c_in_g, k_h, k_w = weight.shape
    c_out_g = c_out // groups
    out_h = _conv_output_size(h, k_h, stride)
    out_w = _conv_output_size(w, k_w, stride)
    x_data, w_data = xp.data, weight.data

    out = np.zeros((n, c_out, out_h, out_w), dtype=x_data.dtype)
    for g in range(groups):
        xs = x_data[:, g * c_in_g : (g + 1) * c_in_g]
        ws = w_data[g * c_out_g : (g + 1) * c_out_g]
        acc = out[:, g * c_out_g : (g + 1) * c_out_g]
        for i in range(k_h):
            for j in range(k_w):
                window = xs[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride]
                acc += np.einsum("nchw,oc->nohw", window, ws[:, :, i, j], optimize=True)

    def backward(grad: np.ndarray):
        grad_x = np.zeros_like(x_data)
        grad_w = np.zeros_like(w_data)
        for g in range(groups):
            xs = x_data[:, g * c_in_g : (g + 1) * c_in_g]
            ws = w_data[g * c_out_g : (g + 1) * c_out_g]
            gs = grad[:, g * c_out_g : (g + 1) * c_out_g]
            gxs = grad_x[:, g * c_in_g : (g + 1) * c_in_g]
            gws = grad_w[g * c_out_g : (g + 1) * c_out_g]
            for i in range(k_h):
                for j in range(k_w):
                    window = xs[
                        :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                    ]
                    gws[:, :, i, j] = np.einsum("nohw,nchw->oc", gs, window, optimize=True)
                    gxs[
                        :, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride
                    ] += np.einsum("nohw,oc->nchw", gs, ws[:, :, i, j], optimize=True)
        return grad_x, grad_w

    return make_op(out, (xp, weight), backward, "reference_gconv2d")


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling with arbitrary kernel/stride/padding (supports overlap).

    Forward: im2col window view, maximum over the kernel axis.  Backward: the
    gradient goes to the first window position attaining the maximum in
    row-major kernel order (ties are not split — matching common framework
    semantics closely enough for training).  For the common non-overlapping
    case (``stride >= kernel``) every input position belongs to at most one
    window, so the scatter is a plain flat-index assignment; only overlapping
    windows (``stride < kernel``) need ``np.add.at``'s unbuffered accumulate,
    which is an order of magnitude slower on large pools.
    """
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h = (ph - kernel) // stride + 1
    out_w = (pw - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(
            f"max_pool2d: kernel {kernel} too large for input {h}x{w} "
            f"with padding {padding}"
        )
    padded = np.full((n, c, ph, pw), -np.inf, dtype=x.data.dtype)
    padded[:, :, padding:padding + h, padding:padding + w] = x.data

    # (N, C, k, k, oH, oW) -> (N, C, oH, oW, k*k); the flattened kernel axis
    # is in row-major (i, j) order so argmax picks the same winner as the old
    # shift-and-accumulate loop did.  Only the small winner-index array is
    # captured for the backward — the k^2-expanded columns are dropped here.
    windows = _window_view(padded, kernel, kernel, stride)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)).reshape(
        n, c, out_h, out_w, kernel * kernel
    )
    out = cols.max(axis=-1)
    winners = cols.argmax(axis=-1)
    del cols

    def backward(grad: np.ndarray):
        rows = winners // kernel + (stride * np.arange(out_h))[None, None, :, None]
        columns = winners % kernel + (stride * np.arange(out_w))[None, None, None, :]
        grad_padded = np.zeros((n, c, ph, pw), dtype=grad.dtype)
        if stride >= kernel:
            # Non-overlapping windows: winner positions are unique, so a
            # vectorised flat-index assignment replaces the slow unbuffered
            # np.add.at scatter.
            batch = np.arange(n)[:, None, None, None]
            channel = np.arange(c)[None, :, None, None]
            flat = ((batch * c + channel) * ph + rows) * pw + columns
            grad_padded.ravel()[flat.ravel()] = grad.ravel()
        else:
            batch = np.arange(n)[:, None, None, None]
            channel = np.arange(c)[None, :, None, None]
            np.add.at(grad_padded, (batch, channel, rows, columns), grad)
        return (grad_padded[:, :, padding:padding + h, padding:padding + w],)

    return make_op(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping average pooling (kernel == stride).

    Spatial dims must be divisible by ``kernel``; reshaping makes both the
    forward and the backward a pure view operation.
    """
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h},{w}) not divisible by kernel {kernel}")
    out_h, out_w = h // kernel, w // kernel
    reshaped = x.data.reshape(n, c, out_h, kernel, out_w, kernel)
    out = reshaped.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray):
        expanded = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3)
        return (expanded * scale,)

    return make_op(out, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes, returning (N, C)."""
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))
    scale = 1.0 / (h * w)

    def backward(grad: np.ndarray):
        return (np.broadcast_to(grad[:, :, None, None], x.shape).copy() * scale,)

    return make_op(out, (x,), backward, "global_avg_pool2d")


def batch_norm2d(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused training-mode batch normalisation over (N, H, W) per channel.

    Returns ``(out, batch_mean, batch_var)`` — the batch statistics are plain
    arrays for the caller's running-average update.  One graph node replaces
    the ~15 primitive ops of the composite formulation, with the textbook
    backward ``dx = gamma*inv_std * (g - sum(g)/M - xhat*sum(g*xhat)/M)``.

    The input is centred once; that copy is scaled into ``xhat`` in place
    (the only array the backward keeps), and the variance and ``grad_gamma``
    are per-channel contractions, so neither pass builds a temporary the
    size of the activation.  ``dx`` is assembled in place in its own array.
    Parents outside the graph get ``None``.
    """
    if x.ndim != 4:
        raise ValueError(f"batch_norm2d expects NCHW input, got {x.shape}")
    x_data = x.data
    m = x_data.shape[0] * x_data.shape[2] * x_data.shape[3]
    mean = x_data.mean(axis=(0, 2, 3))
    xhat = x_data - mean[None, :, None, None]
    var = np.einsum("nchw,nchw->c", xhat, xhat) / m
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[None, :, None, None]
    out = xhat * gamma.data[None, :, None, None]
    out += beta.data[None, :, None, None]
    need_x, need_gamma, need_beta = needs_grad(x), needs_grad(gamma), needs_grad(beta)

    def backward(grad: np.ndarray):
        grad_beta = grad.sum(axis=(0, 2, 3))
        grad_gamma = np.einsum("nchw,nchw->c", grad, xhat)
        grad_x = None
        if need_x:
            grad_x = xhat * (grad_gamma / -m)[None, :, None, None]
            grad_x += grad
            grad_x -= (grad_beta / m)[None, :, None, None]
            grad_x *= (gamma.data * inv_std)[None, :, None, None]
        return (
            grad_x,
            grad_gamma if need_gamma else None,
            grad_beta if need_beta else None,
        )

    return make_op(out, (x, gamma, beta), backward, "batch_norm2d"), mean, var


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray):
        return (grad * (x.data > 0),)

    return make_op(out, (x,), backward, "relu")


def relu6(x: Tensor) -> Tensor:
    """The MobileNet activation: ``min(max(x, 0), 6)``."""
    out = np.clip(x.data, 0.0, 6.0)

    def backward(grad: np.ndarray):
        return (grad * ((x.data > 0) & (x.data < 6)),)

    return make_op(out, (x,), backward, "relu6")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - shift
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    softmax_vals = np.exp(out)

    def backward(grad: np.ndarray):
        return (grad - softmax_vals * grad.sum(axis=axis, keepdims=True),)

    return make_op(out, (x,), backward, "log_softmax")


# -- inference kernels (out-buffer entry points) ------------------------------
#
# Autograd-free ndarray kernels used by the compiled runtime
# (repro.runtime.engine).  Each accepts preallocated output/scratch buffers so
# a static execution plan can run without any per-op allocation: `out` is the
# destination (arena slice), `pad_buf` holds the padded input and `cols` the
# materialised im2col columns.  Passing None for any buffer falls back to a
# fresh allocation, which keeps the kernels usable standalone.

def conv2d_into(
    x: np.ndarray,
    weight: np.ndarray,
    *,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    bias: np.ndarray | None = None,
    act: str | None = None,
    out: np.ndarray | None = None,
    pad_buf: np.ndarray | None = None,
    cols: np.ndarray | None = None,
    residual: np.ndarray | None = None,
) -> np.ndarray:
    """Inference convolution writing into ``out`` (bias + activation fused).

    Same im2col + one-batched-matmul formulation as :func:`conv2d`, but on
    plain arrays with no graph: the columns land in ``cols`` (zero-copy view
    for 1x1/stride-1), the GEMM writes straight into ``out`` via
    ``np.matmul(..., out=...)``, and bias add plus ``relu``/``relu6`` happen
    in place.  ``residual`` is accumulated into ``out`` after the bias and
    before the activation — the conv+add fusion the runtime engine uses for
    residual blocks (one pass over the output instead of a separate add op
    and buffer).  Returns ``out``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_g, k_h, k_w = weight.shape
    if padding:
        if pad_buf is None:
            pad_buf = np.zeros(
                (n, c_in, h + 2 * padding, w + 2 * padding), dtype=x.dtype
            )
        else:
            pad_buf.fill(0.0)
        pad_buf[:, :, padding:padding + h, padding:padding + w] = x
        src = pad_buf
    else:
        src = x
    out_h = _conv_output_size(src.shape[2], k_h, stride)
    out_w = _conv_output_size(src.shape[3], k_w, stride)
    if out is None:
        out = np.empty((n, c_out, out_h, out_w), dtype=x.dtype)
    w_mat = weight.reshape(groups, c_out // groups, c_in_g * k_h * k_w)
    if k_h == 1 and k_w == 1 and stride == 1:
        # Contiguous input: the column matrix is a free reshape.
        col_view = src.reshape(n, groups, c_in_g, out_h * out_w)
    else:
        view = _window_view(src, k_h, k_w, stride)
        if cols is None:
            cols = np.empty(
                (n, c_in, k_h, k_w, out_h, out_w), dtype=x.dtype
            )
        col6 = cols.reshape(n, c_in, k_h, k_w, out_h, out_w)
        np.copyto(col6, view)
        col_view = col6.reshape(n, groups, c_in_g * k_h * k_w, out_h * out_w)
    np.matmul(
        w_mat[None], col_view,
        out=out.reshape(n, groups, c_out // groups, out_h * out_w),
    )
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    if residual is not None:
        out += residual
    _apply_activation(out, act)
    return out


def linear_into(
    x: np.ndarray,
    weight: np.ndarray,
    *,
    bias: np.ndarray | None = None,
    act: str | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inference affine map ``x @ weight.T + bias`` written into ``out``."""
    if out is None:
        out = np.empty((x.shape[0], weight.shape[0]), dtype=x.dtype)
    np.matmul(x, weight.T, out=out)
    if bias is not None:
        out += bias
    _apply_activation(out, act)
    return out


def max_pool2d_into(
    x: np.ndarray,
    kernel: int,
    *,
    stride: int | None = None,
    padding: int = 0,
    out: np.ndarray | None = None,
    pad_buf: np.ndarray | None = None,
) -> np.ndarray:
    """Inference max pooling (overlap supported) written into ``out``."""
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    if padding:
        if pad_buf is None:
            pad_buf = np.empty(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
            )
        pad_buf.fill(-np.inf)
        pad_buf[:, :, padding:padding + h, padding:padding + w] = x
        src = pad_buf
    else:
        src = x
    out_h = _conv_output_size(src.shape[2], kernel, stride)
    out_w = _conv_output_size(src.shape[3], kernel, stride)
    if out is None:
        out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    windows = _window_view(src, kernel, kernel, stride)
    np.max(windows, axis=(2, 3), out=out)
    return out


def avg_pool2d_into(
    x: np.ndarray, kernel: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Inference non-overlapping average pooling written into ``out``."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h},{w}) not divisible by kernel {kernel}")
    out_h, out_w = h // kernel, w // kernel
    if out is None:
        out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    reshaped = x.reshape(n, c, out_h, kernel, out_w, kernel)
    np.mean(reshaped, axis=(3, 5), out=out)
    return out


def global_avg_pool2d_into(
    x: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Inference global average pooling (N, C, H, W) -> (N, C) into ``out``."""
    if out is None:
        out = np.empty(x.shape[:2], dtype=x.dtype)
    np.mean(x, axis=(2, 3), out=out)
    return out


def _apply_activation(out: np.ndarray, act: str | None) -> None:
    """In-place fused activation for the inference kernels."""
    if act is None:
        return
    if act == "relu6":
        np.clip(out, 0.0, 6.0, out=out)
    elif act == "relu":
        np.maximum(out, 0.0, out=out)
    else:
        raise ValueError(f"unknown activation {act!r}")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shift = x.data.max(axis=axis, keepdims=True)
    exp = np.exp(x.data - shift)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        inner = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - inner),)

    return make_op(out, (x,), backward, "softmax")


# -- multi-candidate (batched soft-mode) primitives ---------------------------
#
# Soft Gumbel supernet passes evaluate all M candidate operations of a block
# on the *same* input.  These primitives let the block run as a handful of
# stacked kernels instead of M small ones: candidate weights are stacked
# along C_out (``stack_conv_weights`` — one conv with M*C_out channels, one
# im2col + one GEMM), the shared residual is added to every candidate slice
# in one node (``residual_add_shared``) and the Gumbel mixture
# ``sum_m w_m * out_m`` collapses to ONE einsum tape node
# (``mix_candidates``) instead of M muls + M-1 adds.  See
# repro.nas.batched for the dispatch that buckets candidates and falls back
# to the serial oracle.


def stack_conv_weights(
    weights: Sequence[Tensor], pad_to: int | None = None
) -> Tensor:
    """Stack M candidate conv weights along ``C_out`` into one kernel tensor.

    Every weight is ``(c_out_m, c_in_g, k_m, k_m)`` with a shared ``c_in_g``;
    the result is ``(sum_m c_out_m, c_in_g, K, K)`` with ``K = pad_to`` (or
    the common kernel size).  Smaller (odd) kernels are zero-padded centred in
    the K x K canvas — with "same" padding ``K // 2`` the padded kernel
    computes exactly the same correlation as the original at ``k_m // 2``
    (the extra taps multiply zeros), which is what lets mixed-kernel
    candidates share one grouped conv.  Backward slices the gradient back to
    each candidate's rows and centre window.
    """
    if not weights:
        raise ValueError("stack_conv_weights requires at least one weight")
    c_in_g = weights[0].shape[1]
    kernels = [w.shape[2] for w in weights]
    k_max = pad_to if pad_to is not None else max(kernels)
    rows = [w.shape[0] for w in weights]
    offsets = np.cumsum([0] + rows)
    for w in weights:
        if w.ndim != 4 or w.shape[1] != c_in_g or w.shape[2] != w.shape[3]:
            raise ValueError(f"incompatible candidate weight shape {w.shape}")
        if w.shape[2] > k_max or (k_max - w.shape[2]) % 2:
            raise ValueError(
                f"kernel {w.shape[2]} cannot be centred in a {k_max}x{k_max} canvas"
            )
    out = np.zeros(
        (int(offsets[-1]), c_in_g, k_max, k_max), dtype=weights[0].data.dtype
    )
    for idx, w in enumerate(weights):
        k = kernels[idx]
        off = (k_max - k) // 2
        out[offsets[idx] : offsets[idx + 1], :, off : off + k, off : off + k] = w.data

    def backward(grad: np.ndarray):
        grads = []
        for idx in range(len(weights)):
            k = kernels[idx]
            off = (k_max - k) // 2
            grads.append(
                grad[
                    offsets[idx] : offsets[idx + 1], :, off : off + k, off : off + k
                ].copy()
            )
        return tuple(grads)

    return make_op(out, tuple(weights), backward, "stack_conv_weights")


def residual_add_shared(stacked: Tensor, shortcut: Tensor, copies: int) -> Tensor:
    """Add one shared shortcut to every candidate slice of a stacked tensor.

    ``stacked`` is ``(N, copies * C, H, W)`` — the batched evaluation of
    ``copies`` candidates — and ``shortcut`` is the block input
    ``(N, C, H, W)``.  Per-slice semantics match the serial path's
    ``out_m + x`` bit-for-bit (same elementwise adds); the backward sums the
    gradient over the candidate axis for the shortcut.
    """
    n, c_total, h, w = stacked.shape
    if c_total % copies:
        raise ValueError(f"{c_total} channels not divisible by {copies} copies")
    c = c_total // copies
    if shortcut.shape != (n, c, h, w):
        raise ValueError(
            f"shortcut shape {shortcut.shape} does not match slices of {stacked.shape}"
        )
    out = np.empty(stacked.shape, dtype=stacked.data.dtype)
    np.add(
        stacked.data.reshape(n, copies, c, h, w),
        shortcut.data[:, None],
        out=out.reshape(n, copies, c, h, w),
    )

    def backward(grad: np.ndarray):
        return grad, grad.reshape(n, copies, c, h, w).sum(axis=1)

    return make_op(out, (stacked, shortcut), backward, "residual_add_shared")


def project_candidates(
    x: Tensor, weights: Sequence[Tensor], sections: Sequence[int]
) -> Tensor:
    """Ragged-group pointwise projection: one node, per-candidate GEMMs.

    ``x`` is ``(N, sum_m h_m, H, W)`` — candidate hidden activations stacked
    along channels with (possibly differing) widths ``sections`` — and
    ``weights[m]`` is candidate m's 1x1 projection ``(C_out, h_m, 1, 1)``
    with a shared ``C_out``.  A uniform-width stack would be a plain grouped
    conv, but grouped ``conv2d`` requires equal channels per group; this op
    handles the ragged case by looping the per-candidate GEMMs *inside* one
    tape node — the flops match the serial path exactly while M conv nodes
    (each with pad/im2col/closure overhead) collapse into one.  Returns
    ``(N, M * C_out, H, W)``.
    """
    if not weights or len(weights) != len(sections):
        raise ValueError("need one projection weight per section")
    n, c_total, h, w = x.shape
    if sum(sections) != c_total:
        raise ValueError(
            f"sections {tuple(sections)} do not cover {c_total} input channels"
        )
    c_out = weights[0].shape[0]
    for wt, h_m in zip(weights, sections):
        if wt.shape != (c_out, h_m, 1, 1):
            raise ValueError(
                f"weight shape {wt.shape} does not match (C_out={c_out}, {h_m}, 1, 1)"
            )
    copies = len(weights)
    offsets = np.cumsum([0] + list(sections))
    l = h * w
    x_data = x.data
    out = np.empty((n, copies * c_out, h, w), dtype=x_data.dtype)
    for m, wt in enumerate(weights):
        xm = x_data[:, offsets[m] : offsets[m + 1]].reshape(n, sections[m], l)
        np.matmul(
            wt.data.reshape(c_out, sections[m])[None],
            xm,
            out=out[:, m * c_out : (m + 1) * c_out].reshape(n, c_out, l),
        )
    need_input_grad = needs_grad(x)
    need_weight_grads = [needs_grad(wt) for wt in weights]

    def backward(grad: np.ndarray):
        grad_x = (
            np.empty(x_data.shape, dtype=x_data.dtype) if need_input_grad else None
        )
        grads_w = []
        for m, wt in enumerate(weights):
            h_m = sections[m]
            w2d = wt.data.reshape(c_out, h_m)
            xm = x_data[:, offsets[m] : offsets[m + 1]].reshape(n, h_m, l)
            gm = grad[:, m * c_out : (m + 1) * c_out].reshape(n, c_out, l)
            grads_w.append(
                _batch_folded_gemm(gm, xm).reshape(wt.shape)
                if need_weight_grads[m] else None
            )
            if grad_x is not None:
                np.matmul(
                    w2d.T[None],
                    gm,
                    out=grad_x[:, offsets[m] : offsets[m + 1]].reshape(n, h_m, l),
                )
        return (grad_x,) + tuple(grads_w)

    return make_op(out, (x,) + tuple(weights), backward, "project_candidates")


def mix_candidates(stacked: Tensor, weights: Tensor, copies: int) -> Tensor:
    """Reduce a stacked candidate tensor to its Gumbel mixture in ONE node.

    ``stacked`` is ``(N, copies * C, H, W)``; ``weights`` is the ``(copies,)``
    slice of the block's Gumbel sample.  Computes
    ``out = sum_m weights[m] * stacked[:, m*C:(m+1)*C]`` as a single einsum
    tape node — the serial path spends ``copies`` muls plus ``copies - 1``
    adds (2*copies - 1 tape nodes) on the same reduction.  Backward:
    ``d stacked = w_m * grad`` per slice and ``d w_m = <grad, slice_m>``.
    """
    n, c_total, h, w = stacked.shape
    if c_total % copies:
        raise ValueError(f"{c_total} channels not divisible by {copies} copies")
    if weights.shape != (copies,):
        raise ValueError(
            f"weights shape {weights.shape} does not match {copies} candidates"
        )
    c = c_total // copies
    stacked5 = stacked.data.reshape(n, copies, c, h, w)
    out = np.einsum("m,nmchw->nchw", weights.data, stacked5)
    need_stacked = needs_grad(stacked)
    need_weights = needs_grad(weights)

    def backward(grad: np.ndarray):
        grad_stacked = (
            (weights.data[None, :, None, None, None] * grad[:, None]).reshape(
                stacked.shape
            )
            if need_stacked else None
        )
        grad_w = (
            np.einsum("nmchw,nchw->m", stacked5, grad) if need_weights else None
        )
        return grad_stacked, grad_w

    return make_op(out, (stacked, weights), backward, "mix_candidates")
