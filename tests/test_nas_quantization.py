"""Unit + property tests for differentiable quantisation (Sec. 3.2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.gradcheck import gradcheck
from repro.autograd.tensor import Tensor, default_dtype, tensor
from repro.nas.quantization import (
    QUANT_BLOCK_ELEMS,
    QuantizationConfig,
    fake_quantize,
    mixed_quantize,
    mixed_quantize_stacked,
    quantization_error,
)

pytestmark = pytest.mark.usefixtures("float64_numerics")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestConfig:
    def test_fpga_menu(self):
        q = QuantizationConfig.fpga()
        assert q.bitwidths == (4, 8, 16)
        assert q.activation_bits == 16
        assert q.num_levels == 3

    def test_gpu_menu_is_global(self):
        q = QuantizationConfig.gpu()
        assert q.bitwidths == (8, 16, 32)
        assert q.sharing == "global"

    def test_phi_shapes_per_sharing(self):
        n, m = 4, 3
        assert QuantizationConfig.fpga("per_block_op").phi_shape(n, m) == (4, 3, 3)
        assert QuantizationConfig.fpga("per_op").phi_shape(n, m) == (3, 3)
        assert QuantizationConfig.gpu().phi_shape(n, m) == (3,)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            QuantizationConfig(bitwidths=())
        with pytest.raises(ValueError, match="range"):
            QuantizationConfig(bitwidths=(1,))
        with pytest.raises(ValueError, match="sharing"):
            QuantizationConfig(sharing="bogus")


class TestFakeQuantize:
    def test_32bit_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5,)))
        assert fake_quantize(x, 32) is x

    def test_output_on_grid(self, rng):
        x = Tensor(rng.normal(size=(100,)))
        bits = 4
        out = fake_quantize(x, bits)
        max_abs = np.abs(x.data).max()
        scale = max_abs / (2 ** (bits - 1) - 1)
        grid_positions = out.data / scale
        np.testing.assert_allclose(grid_positions, np.round(grid_positions), atol=1e-9)

    def test_error_shrinks_with_bits(self, rng):
        x = rng.normal(size=(200,))
        errors = [quantization_error(x, b) for b in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert quantization_error(x, 32) == 0.0

    def test_gradient_straight_through(self, rng):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        fake_quantize(x, 8).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(5))

    def test_explicit_max_abs_clips(self):
        x = Tensor(np.array([10.0, 0.5]))
        out = fake_quantize(x, 8, max_abs=1.0)
        assert out.data[0] <= 1.0

    def test_rejects_tiny_bits(self):
        with pytest.raises(ValueError):
            fake_quantize(Tensor(np.ones(2)), 1)

    def test_all_zero_input_survives(self):
        out = fake_quantize(Tensor(np.zeros(4)), 8)
        np.testing.assert_allclose(out.data, np.zeros(4))


class TestMixedQuantize:
    def test_one_hot_weights_select_single_path(self, rng):
        x = Tensor(rng.normal(size=(6,)))
        weights = Tensor(np.array([0.0, 1.0, 0.0]))
        out = mixed_quantize(x, weights, (4, 8, 16))
        np.testing.assert_allclose(out.data, fake_quantize(x, 8).data)

    def test_soft_weights_interpolate(self, rng):
        x = Tensor(rng.normal(size=(6,)))
        weights = Tensor(np.array([0.5, 0.5]))
        out = mixed_quantize(x, weights, (4, 16))
        expected = 0.5 * fake_quantize(x, 4).data + 0.5 * fake_quantize(x, 16).data
        np.testing.assert_allclose(out.data, expected)

    def test_gradient_reaches_weights(self, rng):
        x = Tensor(rng.normal(size=(6,)))
        weights = Tensor(np.array([0.3, 0.7]), requires_grad=True)
        mixed_quantize(x, weights, (4, 16)).sum().backward()
        assert weights.grad is not None

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="match"):
            mixed_quantize(Tensor(np.ones(3)), Tensor(np.ones(2)), (4, 8, 16))


def _unblocked_mixed(x, mix, bitwidths):
    """The Stage-1 mixture as whole-tensor passes (the pre-blocking op)."""
    max_abs = float(np.max(np.abs(x))) or 1.0
    out = None
    for idx, bits in enumerate(bitwidths):
        if bits >= 32 or max_abs < 1e-30:
            path = x.copy()
        else:
            scale = max_abs / float(2 ** (bits - 1) - 1)
            path = np.rint(x * (1.0 / scale)) * scale
        term = path * mix[idx]
        out = term if out is None else out + term
    return out


# Flat sizes around one and two blocks, and 4-D weights whose row blocks
# leave a partial block at the end.
_BLOCK_SHAPES = [
    (QUANT_BLOCK_ELEMS - 1,), (QUANT_BLOCK_ELEMS + 1,), (2 * QUANT_BLOCK_ELEMS + 3,),
    (QUANT_BLOCK_ELEMS // 18 + 5, 2, 3, 3), (7, 1, 5, 5),
]


class TestBlockedStage1:
    """The blockwise kernels behind mixed_quantize / mixed_quantize_stacked."""

    @pytest.mark.parametrize("shape", _BLOCK_SHAPES)
    @pytest.mark.parametrize("fill", ["normal", "zeros", "subnormal"])
    @pytest.mark.parametrize("bitwidths", [(4, 8, 16), (8, 16, 32)])
    def test_float32_forward_equals_unblocked_formula(self, shape, fill, bitwidths):
        rng = np.random.default_rng(len(shape) + sum(bitwidths))
        x = rng.standard_normal(shape).astype(np.float32)
        if fill == "zeros":
            x[...] = 0.0
        elif fill == "subnormal":
            x *= np.float32(1e-32)
        mix = rng.dirichlet(np.ones(len(bitwidths))).astype(np.float32)
        with default_dtype(np.float32):
            out = mixed_quantize(tensor(x), tensor(mix, requires_grad=True), bitwidths)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.data, _unblocked_mixed(x, mix, bitwidths))

    @pytest.mark.parametrize("shape", _BLOCK_SHAPES)
    def test_phi_grads_are_path_dot_products(self, shape):
        rng = np.random.default_rng(1)
        bitwidths = (4, 8, 32)
        x = rng.standard_normal(shape)
        g = rng.standard_normal(shape)
        mix = tensor(np.array([0.2, 0.3, 0.5]), requires_grad=True)
        mixed_quantize(tensor(x), mix, bitwidths).backward(g)
        expected = [(g * fake_quantize(tensor(x), b).data).sum() for b in bitwidths]
        np.testing.assert_allclose(mix.grad, expected, rtol=1e-12, atol=1e-12)

    def test_gradcheck_mixed_quantize(self):
        rng = np.random.default_rng(2)
        x = tensor(rng.standard_normal(QUANT_BLOCK_ELEMS + 9))
        mix = tensor(np.array([0.6, 0.4]), requires_grad=True)
        upstream = tensor(rng.standard_normal(x.shape))
        assert gradcheck(lambda a, w: mixed_quantize(a, w, (4, 16)) * upstream,
                         [x, mix])

    def test_gradcheck_mixed_quantize_stacked(self):
        """Mixed kernels (a padded window) and a gate shared by two slices."""
        rng = np.random.default_rng(3)
        ws = [tensor(rng.standard_normal((5, 2, 3, 3))),
              tensor(rng.standard_normal((4, 2, 5, 5)))]
        shared = tensor(np.array([0.2, 0.5, 0.3]), requires_grad=True)
        own = tensor(np.array([0.1, 0.1, 0.8]), requires_grad=True)
        upstream = tensor(rng.standard_normal((9, 2, 5, 5)))
        bits = (4, 8, 16)
        assert gradcheck(
            lambda a, b, qa, qb: mixed_quantize_stacked([a, b], [qa, qb], bits)
            * upstream,
            [ws[0], ws[1], shared, own],
        )

    def test_frozen_weight_gets_no_gradient(self):
        rng = np.random.default_rng(4)
        x = tensor(rng.standard_normal((6, 3)))
        mix = tensor(np.array([0.5, 0.5]), requires_grad=True)
        out = mixed_quantize(x, mix, (4, 8))
        grad_x, grad_mix = out.backward_fn(np.ones(out.shape))
        assert grad_x is None and grad_mix.shape == (2,)

    def test_closure_keeps_no_quantised_paths(self):
        """The backward closure holds the source weight and scalars only,
        never an array the size of Q paths (or of one quantised path)."""
        rng = np.random.default_rng(5)
        x = tensor(rng.standard_normal((64, 16, 3, 3)), requires_grad=True)
        mix = tensor(np.array([0.2, 0.3, 0.5]), requires_grad=True)
        for out in (
            mixed_quantize(x, mix, (4, 8, 16)),
            mixed_quantize_stacked([x], [mix], (4, 8, 16)),
        ):
            cells = [c.cell_contents for c in out.backward_fn.__closure__]
            arrays = [c for c in cells if isinstance(c, np.ndarray)]
            arrays += [a for c in cells if isinstance(c, list)
                       for a in c if isinstance(a, np.ndarray)]
            assert all(a is x.data or a.size <= 3 for a in arrays)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
    st.sampled_from([2, 3, 4, 6, 8, 12, 16]),
)
def test_property_quantization_error_bounded_by_half_step(values, bits):
    """|x - q(x)| <= scale/2 inside the clip range."""
    x = np.array(values)
    max_abs = np.abs(x).max() or 1.0
    scale = max_abs / (2 ** (bits - 1) - 1)
    out = fake_quantize(Tensor(x), bits).data
    assert np.all(np.abs(out - np.clip(x, -max_abs, max_abs)) <= scale / 2 + 1e-9)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
def test_property_quantization_idempotent(values):
    x = np.array(values)
    once = fake_quantize(Tensor(x), 8).data
    max_abs = np.abs(x).max() or 1.0
    twice = fake_quantize(Tensor(once), 8, max_abs=max_abs).data
    np.testing.assert_allclose(once, twice, atol=1e-9)
