"""Differentiable quantisation (Sec. 3.2.1 of the paper).

Each candidate operation gets ``Q`` quantisation paths; a Gumbel-Softmax over
the sampling parameters ``Phi`` picks a bit-width per feed-forward pass.  The
effect of quantisation on *accuracy* is modelled by fake-quantising the
operation's weights with a straight-through estimator; its effect on
*performance/resource* flows through the device models' ``Perf^q`` /
``Res^q`` terms (Stage-1).

Three sharing modes mirror the paper's device constraints:

* ``per_block_op`` — Phi is (N, M, Q): pipelined FPGA, fully mixed precision.
* ``per_op``       — Phi is (M, Q): recursive FPGA, where blocks sharing an
  IP must share its implementation variables (Sec. 3.2.5 footnote).
* ``global``       — Phi is (Q,): GPU, where the framework (TensorRT) forces
  a single network-wide precision (Sec. 4.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.autograd.ops_basic import quantize_ste
from repro.autograd.tensor import Tensor, make_op, needs_grad

SHARING_MODES = ("per_block_op", "per_op", "global")


@dataclass(frozen=True)
class QuantizationConfig:
    """Bit-width menu plus sharing mode.

    Defaults match the paper's FPGA setting (4/8/16-bit weights); use
    :meth:`gpu` for the 8/16/32-bit GPU menu.
    """

    bitwidths: tuple[int, ...] = (4, 8, 16)
    sharing: str = "per_block_op"
    activation_bits: int = 16

    def __post_init__(self) -> None:
        if not self.bitwidths:
            raise ValueError("bitwidths must be non-empty")
        if any(b < 2 or b > 32 for b in self.bitwidths):
            raise ValueError(f"bitwidths out of supported range [2, 32]: {self.bitwidths}")
        if self.sharing not in SHARING_MODES:
            raise ValueError(f"sharing must be one of {SHARING_MODES}, got {self.sharing!r}")

    @property
    def num_levels(self) -> int:
        """Q in the paper."""
        return len(self.bitwidths)

    def phi_shape(self, num_blocks: int, num_ops: int) -> tuple[int, ...]:
        """Shape of the Phi sampling-parameter array for this sharing mode."""
        if self.sharing == "per_block_op":
            return (num_blocks, num_ops, self.num_levels)
        if self.sharing == "per_op":
            return (num_ops, self.num_levels)
        return (self.num_levels,)

    @classmethod
    def fpga(cls, sharing: str = "per_block_op") -> "QuantizationConfig":
        """FPGA menu: 4/8/16-bit weights, 16-bit activations (Sec. 6)."""
        return cls(bitwidths=(4, 8, 16), sharing=sharing, activation_bits=16)

    @classmethod
    def gpu(cls) -> "QuantizationConfig":
        """GPU menu: 8/16/32-bit weights, 32-bit activations, global sharing."""
        return cls(bitwidths=(8, 16, 32), sharing="global", activation_bits=32)


def fake_quantize(x: Tensor, bits: int, max_abs: float | None = None) -> Tensor:
    """Symmetric uniform fake-quantisation with straight-through gradients.

    Values are clipped to ``[-max_abs, max_abs]`` (default: the tensor's own
    max magnitude), scaled to the signed integer grid of ``bits`` bits,
    rounded (STE), and rescaled.  At 32 bits this is the identity — the float
    path.
    """
    if bits >= 32:
        return x
    if bits < 2:
        raise ValueError(f"cannot quantise to {bits} bits")
    if max_abs is None:
        max_abs = float(np.max(np.abs(x.data))) or 1.0
    if max_abs < 1e-30:
        # (Sub)normal-range tensors: the grid degenerates and 1/scale would
        # overflow; quantisation of a numerically-zero tensor is the identity.
        return x
    levels = float(2 ** (bits - 1) - 1)
    scale = max_abs / levels
    return quantize_ste(x, scale, -max_abs, max_abs)


def quantization_error(x: np.ndarray, bits: int) -> float:
    """RMS error introduced by ``bits``-bit fake quantisation (diagnostic)."""
    if bits >= 32:
        return 0.0
    max_abs = float(np.max(np.abs(x))) or 1.0
    if max_abs < 1e-30:
        return 0.0
    levels = float(2 ** (bits - 1) - 1)
    scale = max_abs / levels
    quantised = np.round(np.clip(x, -max_abs, max_abs) / scale) * scale
    return float(np.sqrt(np.mean((x - quantised) ** 2)))


#: Elements per block of the fused Stage-1 kernels below: every quantisation
#: path of a block is formed, mixed and dropped while the block is still in
#: the L2 cache, instead of making one pass over the whole weight per
#: elementwise step.  Chosen by measurement over the paper-scale supernet's
#: conv weights: 32K-128K elements time within ~10% of each other, 4K is
#: ~1.8x slower and one block per tensor ~10% slower (docs/performance.md).
QUANT_BLOCK_ELEMS = 65536


def _max_abs(x: np.ndarray) -> float:
    """The tensor's own max magnitude (1.0 for all-zero), with no temporary."""
    return max(float(x.max()), -float(x.min())) or 1.0


def _path_steps(
    max_abs: float, bitwidths: tuple[int, ...]
) -> list[tuple[float, float] | None]:
    """Per path ``(1/scale, scale)``, or ``None`` where the path is the
    identity (the float path, or a (sub)normal-range tensor whose grid
    degenerates — see :func:`fake_quantize`)."""
    steps: list[tuple[float, float] | None] = []
    for bits in bitwidths:
        if bits >= 32 or max_abs < 1e-30:
            steps.append(None)
            continue
        if bits < 2:
            raise ValueError(f"cannot quantise to {bits} bits")
        scale = max_abs / float(2 ** (bits - 1) - 1)
        steps.append((1.0 / scale, scale))
    return steps


def _blocks(src: np.ndarray):
    """Yield ``(lo, hi, src[lo:hi], tmp)`` over blocks of rows of ``src``.

    A block holds about :data:`QUANT_BLOCK_ELEMS` elements (at least one
    row); ``tmp`` is one block-sized buffer shared by every block, the
    scratch in which :func:`_path_at` forms a quantised path.
    """
    rows = max(1, QUANT_BLOCK_ELEMS // max(src[0].size, 1))
    buf = np.empty((min(rows, src.shape[0]),) + src.shape[1:], dtype=src.dtype)
    for lo in range(0, src.shape[0], rows):
        hi = min(lo + rows, src.shape[0])
        yield lo, hi, src[lo:hi], buf[: hi - lo]


def _path_at(x: np.ndarray, tmp: np.ndarray,
             step: tuple[float, float] | None) -> np.ndarray:
    """``fq(x)`` for one path: ``x`` itself for the identity, else formed in
    ``tmp``.  The clip to ``[-max_abs, max_abs]`` is the identity
    (``max_abs`` is the tensor's own max magnitude), so the path is
    ``rint(x * (1/scale)) * scale`` straight from the source."""
    if step is None:
        return x
    np.multiply(x, step[0], out=tmp)
    np.rint(tmp, out=tmp)
    tmp *= step[1]
    return tmp


def _mix_paths(src: np.ndarray, dst: np.ndarray, mix: np.ndarray,
               max_abs: float, bitwidths: tuple[int, ...]) -> None:
    """``dst = sum_q mix[q] * fq_q(src)``, block by block.

    Elementwise, with the accumulation order of the unblocked formula
    (``mix[0] * fq_0`` first, then ``+= mix[q] * fq_q``), so the result is
    bit-identical to it.
    """
    steps = _path_steps(max_abs, bitwidths)
    for lo, hi, x, tmp in _blocks(src):
        out = dst[lo:hi]
        for idx, step in enumerate(steps):
            path = _path_at(x, tmp, step)
            if idx == 0:
                np.multiply(path, mix[0], out=out)
            else:
                np.multiply(path, mix[idx], out=tmp)
                out += tmp


def _path_dots(src: np.ndarray, grad: np.ndarray, max_abs: float,
               bitwidths: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``<fq_q(src), grad>`` for every path ``q``, recomputing each path
    block by block instead of keeping Q quantised copies alive."""
    steps = _path_steps(max_abs, bitwidths)
    acc = [0.0] * len(steps)
    for lo, hi, x, tmp in _blocks(src):
        g = grad[lo:hi]
        for idx, step in enumerate(steps):
            acc[idx] += float(np.vdot(_path_at(x, tmp, step), g))
    return np.array(acc, dtype=dtype)


def mixed_quantize(x: Tensor, weights: Tensor, bitwidths: tuple[int, ...]) -> Tensor:
    """Gumbel-weighted mixture of quantisation paths (soft Stage-1 forward).

    ``weights`` is a (Q,) tensor summing to 1 (a Gumbel-Softmax sample over
    Phi).  With a hard sample this reduces to the single selected path; with
    a soft sample it is the expectation over paths, matching Eqs. 2-3.

    One fused graph node instead of a ``Q x (quantize -> mul) -> add``
    composite.  The forward forms, mixes and drops the Q paths block by
    block (:data:`QUANT_BLOCK_ELEMS`); its output equals the composite's bit
    for bit.  The backward uses the straight-through identities: every
    element lies inside the clip range (``max_abs`` is the tensor's own
    maximum), so ``dL/dx = sum_i(w_i) * g`` and ``dL/dw_i = <fq_i(x), g>``.
    No quantised path outlives the forward: the backward recomputes each
    one block by block for its dot product.  A parent outside the graph
    (e.g. a weight under :func:`repro.autograd.tensor.frozen`) gets ``None``.
    """
    if weights.shape != (len(bitwidths),):
        raise ValueError(
            f"weights shape {weights.shape} does not match {len(bitwidths)} bitwidths"
        )
    x_data = x.data
    w_data = weights.data
    max_abs = _max_abs(x_data)
    out = np.empty(x.shape, dtype=x_data.dtype)
    # Blocks run along the leading axis, as in mixed_quantize_stacked, so a
    # stacked candidate slice reproduces this op bit for bit.
    src = np.atleast_1d(x_data)
    _mix_paths(src, np.atleast_1d(out), w_data, max_abs, bitwidths)
    need_x = needs_grad(x)
    need_w = needs_grad(weights)

    def backward(grad: np.ndarray):
        grad_x = grad * w_data.sum() if need_x else None
        grad_w = (
            _path_dots(src, np.atleast_1d(grad), max_abs, bitwidths, w_data.dtype)
            if need_w else None
        )
        return grad_x, grad_w

    return make_op(out, (x, weights), backward, "mixed_quantize")


def mixed_quantize_stacked(
    weights: "Sequence[Tensor]",
    quant_weights: "Sequence[Tensor]",
    bitwidths: tuple[int, ...],
    pad_to: int | None = None,
) -> Tensor:
    """Quantise + stack M candidates' conv weights in ONE fused STE node.

    The batched-soft-mode companion of :func:`mixed_quantize`: candidate
    ``m``'s weight ``(c_out_m, c_in_g, k_m, k_m)`` is fake-quantised on each
    of the Q paths with **its own** ``max_abs`` (exactly the per-tensor scale
    the serial path uses), mixed under its ``(Q,)`` Gumbel slice
    ``quant_weights[m]`` in the same accumulation order, and written into its
    rows of one stacked kernel ``(sum_m c_out_m, c_in_g, K, K)``.  Smaller
    kernels are zero-padded centred (see
    :func:`repro.autograd.ops_nn.stack_conv_weights` for why that preserves
    conv semantics).  Per candidate slice the arithmetic is bit-identical to
    ``mixed_quantize``, block by block as there; one tape node replaces M of
    them plus the stack.

    Backward uses the same straight-through identities per slice
    (``dL/dw_m = grad_m * sum_q qw_m[q]``, ``dL/dqw_m[q] = <fq_q(w_m),
    grad_m>``, each path recomputed block by block); a ``quant_weights``
    tensor shared between candidates (the ``per_op``/``global`` sharing
    modes) appears once per candidate in the parent tuple and its gradient
    contributions accumulate.  Parents outside the graph get ``None``.
    """
    if len(weights) != len(quant_weights) or not weights:
        raise ValueError("need one quant-weight slice per candidate weight")
    q = len(bitwidths)
    for qw in quant_weights:
        if qw.shape != (q,):
            raise ValueError(
                f"quant weights shape {qw.shape} does not match {q} bitwidths"
            )
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
    dtype = weights[0].data.dtype
    shape = (int(offsets[-1]), c_in_g, k_max, k_max)
    # Only mixed-kernel stacks have padding borders to zero; uniform stacks
    # overwrite every element below.
    needs_zero = any(k != k_max for k in kernels)
    out = (np.zeros if needs_zero else np.empty)(shape, dtype=dtype)
    sources = [wt.data for wt in weights]
    bounds = [_max_abs(src) for src in sources]
    windows = []
    for m, qw in enumerate(quant_weights):
        off = (k_max - kernels[m]) // 2
        windows.append((
            slice(offsets[m], offsets[m + 1]), slice(None),
            slice(off, off + kernels[m]), slice(off, off + kernels[m]),
        ))
        _mix_paths(sources[m], out[windows[m]], qw.data, bounds[m], bitwidths)
    need_w = [needs_grad(wt) for wt in weights]
    need_qw = [needs_grad(qw) for qw in quant_weights]

    def backward(grad: np.ndarray):
        grads_w = []
        grads_qw = []
        for m, qw in enumerate(quant_weights):
            g_slice = grad[windows[m]]
            grads_w.append(g_slice * qw.data.sum() if need_w[m] else None)
            grads_qw.append(
                _path_dots(sources[m], g_slice, bounds[m], bitwidths, qw.data.dtype)
                if need_qw[m] else None
            )
        return tuple(grads_w) + tuple(grads_qw)

    return make_op(
        out, tuple(weights) + tuple(quant_weights), backward,
        "mixed_quantize_stacked",
    )


def fake_quantize_sliced(x: Tensor, copies: int, bits: int) -> Tensor:
    """Per-candidate activation fake-quantisation on channel slices.

    ``x`` is a stacked ``(N, copies * C, H, W)`` evaluation of ``copies``
    candidates; each slice is fake-quantised with **its own** ``max_abs``
    (the slice's max magnitude — the same per-tensor scale
    :func:`fake_quantize` derives on the serial path) in one fused STE node.
    Slice arithmetic replicates :func:`repro.autograd.ops_basic.quantize_ste`
    bit-for-bit, including the degenerate branches: an all-zero slice gets
    ``max_abs = 1.0`` and a (sub)normal-range slice (max below ``1e-30``)
    passes through as the identity with unmasked gradients.
    """
    if bits >= 32:
        return x
    if bits < 2:
        raise ValueError(f"cannot quantise to {bits} bits")
    n, c_total = x.shape[0], x.shape[1]
    if c_total % copies:
        raise ValueError(f"{c_total} channels not divisible by {copies} copies")
    c = c_total // copies
    x_data = x.data
    levels = float(2 ** (bits - 1) - 1)
    out = np.empty(x.shape, dtype=x_data.dtype)
    bounds: list[float | None] = []
    for m in range(copies):
        sl = slice(m * c, (m + 1) * c)
        src = x_data[:, sl]
        dest = out[:, sl]
        max_abs = float(np.max(np.abs(src))) or 1.0
        if max_abs < 1e-30:
            np.copyto(dest, src)  # identity: the grid degenerates (see fake_quantize)
            bounds.append(None)
            continue
        scale = max_abs / levels
        # clip is the identity at the slice's own max magnitude (see
        # mixed_quantize) — scale straight from the source slice.
        np.multiply(src, 1.0 / scale, out=dest)
        np.rint(dest, out=dest)
        dest *= scale
        bounds.append(max_abs)

    def backward(grad: np.ndarray):
        grad_x = np.empty_like(grad)
        for m in range(copies):
            sl = slice(m * c, (m + 1) * c)
            max_abs = bounds[m]
            if max_abs is None:
                np.copyto(grad_x[:, sl], grad[:, sl])
            else:
                src = x_data[:, sl]
                inside = (src >= -max_abs) & (src <= max_abs)
                np.multiply(grad[:, sl], inside, out=grad_x[:, sl])
        return (grad_x,)

    return make_op(out, (x,), backward, "fake_quantize_sliced")
