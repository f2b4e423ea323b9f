"""Batched soft-mode supernet evaluation vs the serial oracle.

Parity tolerances are deliberate, not hopeful:

* Ops whose per-candidate arithmetic is byte-for-byte the serial
  instruction stream (stacking, slicing, per-slice quantisation,
  per-slice residual/mix terms) are asserted **bit-identical**.
* Ops where only floating-point *association* changes (one stacked GEMM
  or fused BN reduction instead of M separate ones, bucket-first term
  ordering in the block mixture) are asserted to ``1e-12`` under a
  float64 policy — measured differences are at machine epsilon
  (~1e-15); the slack covers BLAS build variation.

Everything runs under ``default_dtype(np.float64)``: the repo's float32
default would hide association-order differences (~1e-6) behind rounding
noise and make the distinction above meaningless.
"""

import dataclasses
import importlib

import numpy as np
import pytest

import repro.autograd.ops_nn as ops_nn
from repro.autograd.tensor import Tensor, default_dtype, tensor
from repro.nas import batched
from repro.nas.batched import (
    BATCHED_SOFT_ENV,
    batch_norm_stacked,
    batched_soft_enabled,
    soft_block_mixture,
)
from repro.nas.gumbel import GumbelSoftmax
from repro.nas.quantization import (
    QuantizationConfig,
    fake_quantize,
    fake_quantize_sliced,
    mixed_quantize,
    mixed_quantize_stacked,
)
from repro.nas.space import SearchSpaceConfig
from repro.nas.supernet import SuperNet
from repro.nn.functional import cross_entropy
from repro.nn.layers import BatchNorm2d

ASSOC_TOL = 1e-12  # float64; association-order differences only


@pytest.fixture(autouse=True)
def _float64_numerics():
    with default_dtype(np.float64):
        yield


def _run_soft_step(space, quant, batched_on, monkeypatch, batch=2, seed=0):
    monkeypatch.setenv(BATCHED_SOFT_ENV, "1" if batched_on else "0")
    net = SuperNet(space, quant=quant, seed=seed)
    net.train()
    rng = np.random.default_rng(42)
    x = rng.standard_normal((batch, 3, space.input_size, space.input_size))
    y = rng.integers(0, space.num_classes, size=batch)
    sample = net.sample(GumbelSoftmax(seed=7), hard=False)
    loss = cross_entropy(net(Tensor(x.copy()), sample=sample), y)
    loss.backward()
    return (
        float(loss.data),
        {n: None if p.grad is None else p.grad.copy()
         for n, p in net.named_parameters()},
        {n: b.copy() for n, b in net.named_buffers()},
    )


def _assert_step_parity(space, quant, monkeypatch):
    l0, g0, b0 = _run_soft_step(space, quant, False, monkeypatch)
    l1, g1, b1 = _run_soft_step(space, quant, True, monkeypatch)
    assert abs(l0 - l1) <= ASSOC_TOL
    assert set(g0) == set(g1)
    for name in g0:
        if g0[name] is None or g1[name] is None:
            assert g0[name] is None and g1[name] is None, name
            continue
        np.testing.assert_allclose(g0[name], g1[name], atol=ASSOC_TOL, err_msg=name)
    for name in b0:
        np.testing.assert_allclose(b0[name], b1[name], atol=ASSOC_TOL, err_msg=name)


# ------------------------------------------------ full-step parity matrix

@pytest.mark.parametrize("sharing", ["per_block_op", "per_op", "global"])
def test_step_parity_sharing_modes(sharing, monkeypatch):
    """Loss, every parameter grad and every BN buffer across sharing modes."""
    _assert_step_parity(
        SearchSpaceConfig.reduced(), QuantizationConfig.fpga(sharing=sharing),
        monkeypatch,
    )


def test_step_parity_no_quant(monkeypatch):
    _assert_step_parity(SearchSpaceConfig.reduced(), None, monkeypatch)


def test_step_parity_skip_candidates(monkeypatch):
    """Skip candidates always evaluate serially; mixture must still agree."""
    space = dataclasses.replace(SearchSpaceConfig.reduced(), allow_skip=True)
    _assert_step_parity(space, QuantizationConfig.fpga(), monkeypatch)


def test_step_parity_gpu_menu(monkeypatch):
    """32-bit identity path + global sharing (GPU menu)."""
    _assert_step_parity(
        SearchSpaceConfig.reduced(), QuantizationConfig.gpu(), monkeypatch,
    )


def test_reduced_space_has_stride2_block():
    """The parity matrix genuinely covers a stride-2 (non-residual) block."""
    assert 2 in SearchSpaceConfig.reduced().block_strides


def test_batched_step_is_repeatable(monkeypatch):
    """Two identical batched soft steps give byte-identical losses and grads."""
    space = SearchSpaceConfig.reduced()
    quant = QuantizationConfig.fpga()
    first = _run_soft_step(space, quant, True, monkeypatch)
    second = _run_soft_step(space, quant, True, monkeypatch)
    assert first[0] == second[0]
    for name in first[1]:
        if first[1][name] is None:
            assert second[1][name] is None
            continue
        np.testing.assert_array_equal(first[1][name], second[1][name], err_msg=name)


# ------------------------------------------------------ dispatch behaviour

def test_kill_switch_forces_serial(monkeypatch):
    monkeypatch.setenv(BATCHED_SOFT_ENV, "0")
    assert not batched_soft_enabled()
    monkeypatch.delenv(BATCHED_SOFT_ENV)
    assert batched_soft_enabled()


def test_eval_mode_uses_serial(monkeypatch):
    """Eval-mode soft passes must not touch the batched evaluator."""
    monkeypatch.setenv(BATCHED_SOFT_ENV, "1")

    def boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("batched path used in eval mode")

    supernet_mod = importlib.import_module("repro.nas.supernet")
    monkeypatch.setattr(supernet_mod, "soft_block_mixture", boom)
    net = SuperNet(SearchSpaceConfig.reduced(), quant=None, seed=0)
    net.eval()
    sample = net.sample(GumbelSoftmax(seed=1), hard=False)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 16, 16)))
    net(x, sample=sample)  # must not raise


def test_singleton_kernel_buckets_fall_back(monkeypatch):
    """One expansion per kernel -> every bucket is a singleton -> all serial."""
    monkeypatch.setenv(BATCHED_SOFT_ENV, "1")
    space = dataclasses.replace(SearchSpaceConfig.reduced(), expansions=(3,))
    net = SuperNet(space, quant=None, seed=0)
    net.train()

    def boom(*a, **k):  # pragma: no cover - failure path
        raise AssertionError("singleton buckets must not be batched")

    monkeypatch.setattr(batched, "_bucket_mixture", boom)
    sample = net.sample(GumbelSoftmax(seed=1), hard=False)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 16, 16)))
    net(x, sample=sample)  # must not raise


# --------------------------------------------------- fused-op unit parity

def _mbconv_like_weights(rng, sections, c_in, kernel):
    return [
        tensor(rng.standard_normal((s, c_in, 1, 1)), requires_grad=True)
        for s in sections
    ]


def test_project_candidates_matches_conv2d():
    """Ragged-group projection: forward and all grads vs per-candidate convs.

    Same GEMM shapes run in the same order, so the observed difference is
    exactly zero; asserted to ASSOC_TOL to stay robust across BLAS builds.
    """
    rng = np.random.default_rng(0)
    sections = [4, 6, 5]
    c_out, l = 3, 7
    x_np = rng.standard_normal((2, sum(sections), l, l))
    w_np = [rng.standard_normal((c_out, s, 1, 1)) for s in sections]
    g_np = rng.standard_normal((2, c_out * len(sections), l, l))

    x_f = tensor(x_np.copy(), requires_grad=True)
    ws_f = [tensor(w.copy(), requires_grad=True) for w in w_np]
    out_f = ops_nn.project_candidates(x_f, ws_f, sections)
    out_f.backward(g_np)

    x_s = tensor(x_np.copy(), requires_grad=True)
    ws_s = [tensor(w.copy(), requires_grad=True) for w in w_np]
    offsets = np.cumsum([0] + sections)
    terms = [
        ops_nn.conv2d(x_s[:, int(offsets[m]):int(offsets[m + 1])], ws_s[m])
        for m in range(len(sections))
    ]
    from repro.autograd.ops_shape import concat
    out_s = concat(terms, axis=1)
    out_s.backward(g_np)

    np.testing.assert_allclose(out_f.data, out_s.data, atol=ASSOC_TOL)
    np.testing.assert_allclose(x_f.grad, x_s.grad, atol=ASSOC_TOL)
    for wf, ws in zip(ws_f, ws_s):
        np.testing.assert_allclose(wf.grad, ws.grad, atol=ASSOC_TOL)


def test_stack_conv_weights_centres_and_routes_grads():
    """Stacking is pure data movement: bit-identical values and gradients."""
    rng = np.random.default_rng(1)
    w3 = tensor(rng.standard_normal((4, 1, 3, 3)), requires_grad=True)
    w5 = tensor(rng.standard_normal((6, 1, 5, 5)), requires_grad=True)
    stacked = ops_nn.stack_conv_weights([w3, w5])
    assert stacked.shape == (10, 1, 5, 5)
    np.testing.assert_array_equal(stacked.data[:4, :, 1:4, 1:4], w3.data)
    np.testing.assert_array_equal(stacked.data[4:], w5.data)
    assert float(np.abs(stacked.data[:4, :, 0, :]).sum()) == 0.0
    g = rng.standard_normal(stacked.shape)
    stacked.backward(g)
    np.testing.assert_array_equal(w3.grad, g[:4, :, 1:4, 1:4])
    np.testing.assert_array_equal(w5.grad, g[4:])


def test_residual_add_shared_matches_sliced_adds():
    """Each slice adds the same shortcut tensor: bit-identical."""
    rng = np.random.default_rng(2)
    c, copies = 3, 4
    x_np = rng.standard_normal((2, c * copies, 5, 5))
    s_np = rng.standard_normal((2, c, 5, 5))
    g_np = rng.standard_normal(x_np.shape)
    x = tensor(x_np.copy(), requires_grad=True)
    s = tensor(s_np.copy(), requires_grad=True)
    out = ops_nn.residual_add_shared(x, s, copies)
    out.backward(g_np)
    for m in range(copies):
        np.testing.assert_array_equal(
            out.data[:, m * c:(m + 1) * c], x_np[:, m * c:(m + 1) * c] + s_np
        )
    np.testing.assert_array_equal(x.grad, g_np)
    np.testing.assert_allclose(
        s.grad, g_np.reshape(2, copies, c, 5, 5).sum(axis=1), atol=ASSOC_TOL
    )


def test_mix_candidates_matches_weighted_sum():
    """One einsum vs the serial mul/add chain: association only (<=1e-12)."""
    rng = np.random.default_rng(3)
    c, copies = 3, 3
    x_np = rng.standard_normal((2, c * copies, 4, 4))
    w_np = rng.standard_normal(copies)
    g_np = rng.standard_normal((2, c, 4, 4))
    x = tensor(x_np.copy(), requires_grad=True)
    w = tensor(w_np.copy(), requires_grad=True)
    out = ops_nn.mix_candidates(x, w, copies)
    out.backward(g_np)
    expect = sum(
        w_np[m] * x_np[:, m * c:(m + 1) * c] for m in range(copies)
    )
    np.testing.assert_allclose(out.data, expect, atol=ASSOC_TOL)
    expect_gx = np.concatenate(
        [w_np[m] * g_np for m in range(copies)], axis=1
    )
    np.testing.assert_allclose(x.grad, expect_gx, atol=ASSOC_TOL)
    expect_gw = [
        float((g_np * x_np[:, m * c:(m + 1) * c]).sum()) for m in range(copies)
    ]
    np.testing.assert_allclose(w.grad, expect_gw, atol=ASSOC_TOL)


def test_mixed_quantize_stacked_matches_serial():
    """Per candidate slice: byte-for-byte the mixed_quantize instruction
    stream (same max_abs, same path order, same accumulation order)."""
    rng = np.random.default_rng(4)
    bits = (4, 8, 16)
    sections = [3, 5]
    ws = [
        tensor(rng.standard_normal((s, 2, 3, 3)), requires_grad=True)
        for s in sections
    ]
    qws = [
        tensor(np.abs(rng.standard_normal(3)) + 0.1, requires_grad=True)
        for _ in sections
    ]
    stacked = mixed_quantize_stacked(ws, qws, bits)
    g = rng.standard_normal(stacked.shape)
    stacked.backward(g)

    ws_ref = [tensor(w.data.copy(), requires_grad=True) for w in ws]
    qws_ref = [tensor(q.data.copy(), requires_grad=True) for q in qws]
    offset = 0
    for m, (w, qw) in enumerate(zip(ws_ref, qws_ref)):
        out = mixed_quantize(w, qw, bits)
        out.backward(g[offset:offset + sections[m]])
        np.testing.assert_array_equal(
            stacked.data[offset:offset + sections[m]], out.data
        )
        np.testing.assert_array_equal(ws[m].grad, w.grad)
        np.testing.assert_array_equal(qws[m].grad, qw.grad)
        offset += sections[m]


def test_mixed_quantize_stacked_shared_quant_weights():
    """per_op/global sharing passes the same (Q,) tensor for every
    candidate; its gradient must accumulate across the slices."""
    rng = np.random.default_rng(5)
    bits = (4, 8)
    ws = [
        tensor(rng.standard_normal((2, 2, 1, 1)), requires_grad=True)
        for _ in range(3)
    ]
    shared = tensor(np.array([0.25, 0.75]), requires_grad=True)
    out = mixed_quantize_stacked(ws, [shared] * 3, bits)
    g = rng.standard_normal(out.shape)
    out.backward(g)

    expect = np.zeros(2)
    for m in range(3):
        w_ref = tensor(ws[m].data.copy(), requires_grad=True)
        qw_ref = tensor(shared.data.copy(), requires_grad=True)
        term = mixed_quantize(w_ref, qw_ref, bits)
        term.backward(g[2 * m:2 * m + 2])
        expect += qw_ref.grad
    np.testing.assert_allclose(shared.grad, expect, atol=ASSOC_TOL)


def test_fake_quantize_sliced_matches_serial():
    """Each slice replicates fake_quantize (per-slice max_abs) bitwise."""
    rng = np.random.default_rng(6)
    c, copies = 3, 3
    x_np = rng.standard_normal((2, c * copies, 4, 4))
    x = tensor(x_np.copy(), requires_grad=True)
    out = fake_quantize_sliced(x, copies, 8)
    g_np = rng.standard_normal(x_np.shape)
    out.backward(g_np)
    for m in range(copies):
        sl = slice(m * c, (m + 1) * c)
        ref_in = tensor(x_np[:, sl].copy(), requires_grad=True)
        ref = fake_quantize(ref_in, 8)
        ref.backward(g_np[:, sl])
        np.testing.assert_array_equal(out.data[:, sl], ref.data)
        np.testing.assert_array_equal(x.grad[:, sl], ref_in.grad)


def test_batch_norm_stacked_matches_serial_modules():
    """Fused BN over the stacked tensor: outputs and running stats match the
    per-candidate modules (BN statistics are per-channel)."""
    rng = np.random.default_rng(7)
    channels = [3, 5]
    bns = [BatchNorm2d(c) for c in channels]
    refs = [BatchNorm2d(c) for c in channels]
    for bn in bns + refs:
        bn.train()
        bn.gamma.data[:] = rng.standard_normal(bn.channels)
        bn.beta.data[:] = rng.standard_normal(bn.channels)
    for bn, ref in zip(bns, refs):
        ref.gamma.data[:] = bn.gamma.data
        ref.beta.data[:] = bn.beta.data
    x_np = rng.standard_normal((4, sum(channels), 3, 3))
    out = batch_norm_stacked(bns, tensor(x_np.copy(), requires_grad=True))
    offset = 0
    for bn, ref in zip(bns, refs):
        c = bn.channels
        ref_out = ref(tensor(x_np[:, offset:offset + c].copy()))
        np.testing.assert_allclose(
            out.data[:, offset:offset + c], ref_out.data, atol=ASSOC_TOL
        )
        np.testing.assert_allclose(bn.running_mean, ref.running_mean,
                                   atol=ASSOC_TOL)
        np.testing.assert_allclose(bn.running_var, ref.running_var,
                                   atol=ASSOC_TOL)
        offset += c


def test_batch_norm_stacked_rejects_mixed_eps():
    a, b = BatchNorm2d(2), BatchNorm2d(2, eps=1e-3)
    with pytest.raises(ValueError, match="eps"):
        batch_norm_stacked([a, b], tensor(np.zeros((1, 4, 2, 2))))
