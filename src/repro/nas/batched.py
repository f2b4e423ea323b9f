"""Batched soft-mode supernet evaluation: fused multi-candidate kernels.

A soft Gumbel pass (``SampledArch.hard == False``) evaluates **all M
candidate operations** of every block on the same input.  The serial
formulation — M small convs plus M muls and M-1 adds per block — is exactly
the BLAS-call-overhead-bound regime the training benchmarks identified: the
per-call dispatch dominates the arithmetic at search widths.

This module fuses each block's candidates into stacked kernels over the
shared input:

* candidates are **bucketed by depthwise kernel size**, the
  compatible-shape criterion that keeps the fused pipeline flop-neutral:
  the expand 1x1 weights concatenate along ``C_out`` into one dense conv
  (one im2col + one GEMM; differing expansion ratios just concatenate as
  ragged channel sections), the depthwise stage runs as ONE grouped conv
  with ``sum_m hidden_m`` groups at the bucket's (uniform) kernel size,
  and the ragged-width project stage collapses into one tape node of
  per-candidate GEMMs (:func:`repro.autograd.ops_nn.project_candidates`).
  An earlier expansion-ratio bucketing zero-padded mixed depthwise kernels
  to the bucket maximum; at paper widths the convolutions are
  compute-bound, and the padded im2col/input-grad flops (5.4x for a 3x3
  kernel in a 7x7 canvas) erased the dispatch savings — kernel bucketing
  does no padded arithmetic at all;
* all Q quantisation paths of a bucket's weights collapse into one fused
  STE node (:func:`repro.nas.quantization.mixed_quantize_stacked`);
* per-candidate BatchNorm runs on channel slices of the stacked tensor —
  BN is per-channel, so the fused node's statistics (and hence the running
  stats) are bit-compatible with the serial path;
* the shared residual and the per-candidate activation fake-quant are
  applied on slices *before* mixing, so semantics are unchanged;
* the Gumbel mixture ``sum_m w_m * out_m`` reduces as ONE einsum tape node
  (:func:`repro.autograd.ops_nn.mix_candidates`).

Dispatch follows the ``_conv_input_grad_phased`` pattern: the serial loop
stays as the always-on oracle, buckets below
:data:`MIN_BUCKET_CANDIDATES` fall back to it (stacking one candidate buys
nothing), skip candidates and eval-mode passes always run serial, and the
``REPRO_BATCHED_SOFT=0`` environment switch disables the batched path
entirely.  Parity: per candidate slice every fused op is arithmetically
identical to its serial counterpart; only GEMM summation order inside the
stacked convolutions changes, so batched and serial losses agree to
<= 1e-12 in float64 (bit-identical elsewhere) — enforced by
``tests/test_nas_batched_soft.py`` and the CI search-bench guard.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.autograd import ops_nn
from repro.autograd.ops_shape import concat
from repro.autograd.tensor import Tensor
from repro.nas.quantization import (
    QuantizationConfig,
    fake_quantize_sliced,
    mixed_quantize,
    mixed_quantize_stacked,
)

#: Environment kill-switch: ``REPRO_BATCHED_SOFT=0`` forces every soft pass
#: onto the serial oracle (a bisecting aid; results agree to summation order).
BATCHED_SOFT_ENV = "REPRO_BATCHED_SOFT"

#: Size dispatch, following the ``_conv_input_grad_phased`` pattern: a
#: bucket needs at least this many candidates before stacking beats the
#: serial loop (a singleton bucket *is* the serial evaluation plus stacking
#: overhead).
MIN_BUCKET_CANDIDATES = 2


def batched_soft_enabled() -> bool:
    """Whether batched soft-mode evaluation is enabled.

    Defaults to on; export ``REPRO_BATCHED_SOFT=0`` to pin every soft pass
    to the serial per-candidate loop (debugging / parity baselines).
    """
    return os.environ.get(BATCHED_SOFT_ENV, "1") != "0"


def _is_mbconv(candidate: object) -> bool:
    # Duck-typed (expand/dw/project stages present) to avoid a circular
    # import with repro.nas.supernet; SkipCandidate has neither.
    return hasattr(candidate, "expand") and hasattr(candidate, "dw")


def batch_norm_stacked(bns: Sequence, x: Tensor) -> Tensor:
    """Training-mode BatchNorm over per-candidate channel slices, fused.

    ``x`` stacks the candidates along channels; each candidate's
    :class:`~repro.nn.layers.BatchNorm2d` normalises its own slice.  Because
    batch normalisation is per-channel, running the fused
    :func:`~repro.autograd.ops_nn.batch_norm2d` over the stacked tensor with
    the concatenated gammas/betas computes statistics **bit-identical** to
    the per-candidate calls, and each module's running stats are updated
    from its slice of the fused statistics with the exact serial update
    arithmetic.
    """
    eps = bns[0].eps
    if any(bn.eps != eps for bn in bns):
        raise ValueError("cannot fuse BatchNorm modules with differing eps")
    gamma = concat([bn.gamma for bn in bns], axis=0)
    beta = concat([bn.beta for bn in bns], axis=0)
    out, batch_mean, batch_var = ops_nn.batch_norm2d(x, gamma, beta, eps=eps)
    offset = 0
    for bn in bns:
        c = bn.channels
        mean = batch_mean[offset : offset + c]
        var = batch_var[offset : offset + c]
        bn.running_mean = (
            (1.0 - bn.momentum) * bn.running_mean + bn.momentum * mean
        )
        bn.running_var = (
            (1.0 - bn.momentum) * bn.running_var + bn.momentum * var
        )
        offset += c
    return out


def _bucket_mixture(
    block_index: int,
    row: Sequence,
    idxs: Sequence[int],
    x: Tensor,
    sample,
    quant: QuantizationConfig | None,
) -> Tensor:
    """Evaluate one compatible-shape bucket as stacked kernels, pre-mixed.

    Returns ``sum_{m in idxs} w_m * candidate_m(x)`` computed through the
    fused pipeline: stacked-quantised weights -> dense expand conv ->
    sliced BN/ReLU6 -> one grouped depthwise conv (no kernel padding;
    uniform kernel per bucket) -> sliced BN/ReLU6 -> one ragged-group
    project node -> sliced BN -> shared residual -> sliced activation
    fake-quant -> one-einsum Gumbel mixture.
    """
    cands = [row[m] for m in idxs]
    first = cands[0]
    copies = len(cands)
    stride = first.stride
    kernel = first.op.kernel
    sections = [c.expand.out_channels for c in cands]
    expand_w = [c.expand.weight for c in cands]
    dw_w = [c.dw.weight for c in cands]
    if quant is not None:
        qws = [sample.quant_slice(block_index, m) for m in idxs]
        w1 = mixed_quantize_stacked(expand_w, qws, quant.bitwidths)
        w2 = mixed_quantize_stacked(dw_w, qws, quant.bitwidths)
        # Project weights have ragged input widths (one per expansion ratio),
        # so they cannot stack into one tensor; each still gets the fused
        # Q-path STE node before entering the single ragged-group GEMM node.
        w3s = [
            mixed_quantize(c.project.weight, qw, quant.bitwidths)
            for c, qw in zip(cands, qws)
        ]
    else:
        w1 = ops_nn.stack_conv_weights(expand_w)
        w2 = ops_nn.stack_conv_weights(dw_w)
        w3s = [c.project.weight for c in cands]

    out = ops_nn.conv2d(x, w1, stride=1, padding=0)
    out = ops_nn.relu6(batch_norm_stacked([c.bn1 for c in cands], out))
    out = ops_nn.conv2d(
        out, w2, stride=stride, padding=kernel // 2, groups=sum(sections)
    )
    out = ops_nn.relu6(batch_norm_stacked([c.bn2 for c in cands], out))
    out = ops_nn.project_candidates(out, w3s, sections)
    out = batch_norm_stacked([c.bn3 for c in cands], out)
    if first.use_residual:
        out = ops_nn.residual_add_shared(out, x, copies)
    if quant is not None and quant.activation_bits < 32:
        out = fake_quantize_sliced(out, copies, quant.activation_bits)
    gates = sample.op_weights[block_index, list(idxs)]
    return ops_nn.mix_candidates(out, gates, copies)


def soft_block_mixture(
    block_index: int,
    row: Sequence,
    x: Tensor,
    sample,
    quant: QuantizationConfig | None,
) -> Tensor:
    """One block's soft Gumbel mixture over all M candidates, batched.

    MBConv candidates are bucketed by depthwise kernel size (the shape
    compatibility the unpadded grouped depthwise stage needs — ragged
    hidden widths are fine everywhere else); each bucket of at
    least :data:`MIN_BUCKET_CANDIDATES` runs through
    :func:`_bucket_mixture`, everything else (skip candidates, singleton
    buckets) falls back to the serial per-candidate terms.  The partial
    mixtures are summed bucket-first, then serial terms in candidate order;
    versus the serial loop's strict candidate-order sum this changes only
    floating-point association (<= 1e-12 in float64).
    """
    buckets: dict[int, list[int]] = {}
    serial: list[int] = []
    for m, candidate in enumerate(row):
        if _is_mbconv(candidate):
            buckets.setdefault(candidate.op.kernel, []).append(m)
        else:
            serial.append(m)

    terms: list[Tensor] = []
    for idxs in sorted(buckets.values(), key=lambda group: group[0]):
        if len(idxs) < MIN_BUCKET_CANDIDATES:
            serial.extend(idxs)
            continue
        terms.append(_bucket_mixture(block_index, row, idxs, x, sample, quant))
    for m in sorted(serial):
        quant_weights = (
            sample.quant_slice(block_index, m) if quant is not None else None
        )
        terms.append(
            row[m](x, quant_weights=quant_weights)
            * sample.op_weights[block_index, m]
        )

    mixed = terms[0]
    for term in terms[1:]:
        mixed = mixed + term
    return mixed
