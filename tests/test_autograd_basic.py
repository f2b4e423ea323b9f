"""Unit tests for elementwise autograd primitives (gradcheck-verified)."""

import numpy as np
import pytest

from repro.autograd import gradcheck
from repro.autograd.ops_basic import (
    add,
    clip_ste,
    div,
    exp,
    log,
    maximum,
    mul,
    neg,
    pow_,
    round_ste,
    sigmoid,
    sqrt,
    sub,
    tanh,
    where,
)
from repro.autograd.tensor import Tensor, frozen, no_grad, tensor


def t(data, grad=True):
    return tensor(np.asarray(data, dtype=float), requires_grad=grad)


# Gradcheck runs under an explicit dtype policy: float64 at finite-difference
# precision, float32 (the production default) with loosened tolerances.
GRADCHECK_SETTINGS = {
    np.dtype(np.float64): dict(eps=1e-6, atol=1e-5, rtol=1e-4),
    np.dtype(np.float32): dict(eps=3e-3, atol=5e-2, rtol=5e-2),
}


@pytest.fixture(params=sorted(GRADCHECK_SETTINGS, key=str), ids=lambda d: d.name)
def gc(request):
    dtype = request.param

    def check(fn, inputs):
        return gradcheck(fn, inputs, dtype=dtype, **GRADCHECK_SETTINGS[dtype])

    return check


class TestForwardValues:
    def test_add(self):
        out = add(t([1.0, 2.0]), t([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_sub(self):
        np.testing.assert_allclose(sub(t([3.0]), t([5.0])).data, [-2.0])

    def test_mul(self):
        np.testing.assert_allclose(mul(t([2.0, 3.0]), t([4.0, 5.0])).data, [8.0, 15.0])

    def test_div(self):
        np.testing.assert_allclose(div(t([8.0]), t([2.0])).data, [4.0])

    def test_neg(self):
        np.testing.assert_allclose(neg(t([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose(pow_(t([2.0, 3.0]), 2.0).data, [4.0, 9.0])

    def test_exp_log_roundtrip(self):
        x = t([0.5, 1.5])
        np.testing.assert_allclose(log(exp(x)).data, x.data)

    def test_sqrt(self):
        np.testing.assert_allclose(sqrt(t([4.0, 9.0])).data, [2.0, 3.0])

    def test_tanh_range(self):
        out = tanh(t(np.linspace(-5, 5, 11)))
        assert np.all(np.abs(out.data) < 1.0)

    def test_sigmoid_extremes_stable(self):
        out = sigmoid(t([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_maximum(self):
        np.testing.assert_allclose(
            maximum(t([1.0, 5.0]), t([3.0, 2.0])).data, [3.0, 5.0]
        )

    def test_where(self):
        out = where(np.array([True, False]), t([1.0, 1.0]), t([2.0, 2.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_round_ste_forward(self):
        np.testing.assert_allclose(round_ste(t([0.4, 0.6, -1.5])).data, [0.0, 1.0, -2.0])

    def test_clip_ste_forward(self):
        np.testing.assert_allclose(
            clip_ste(t([-2.0, 0.5, 2.0]), -1.0, 1.0).data, [-1.0, 0.5, 1.0]
        )


class TestGradients:
    def test_add_gradcheck(self, rng, gc):
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(3, 4)))
        assert gc(add, [a, b])

    def test_mul_gradcheck(self, rng, gc):
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(3, 4)))
        assert gc(mul, [a, b])

    def test_div_gradcheck(self, rng, gc):
        a = t(rng.normal(size=(3,)))
        b = t(rng.uniform(1.0, 2.0, size=(3,)))
        assert gc(div, [a, b])

    def test_broadcast_gradcheck(self, rng, gc):
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4,)))
        assert gc(add, [a, b])
        assert gc(mul, [a, b])

    def test_scalar_broadcast_gradcheck(self, rng, gc):
        a = t(rng.normal(size=(2, 3)))
        b = t(rng.normal(size=()))
        assert gc(mul, [a, b])

    def test_pow_gradcheck(self, rng, gc):
        a = t(rng.uniform(0.5, 2.0, size=(5,)))
        assert gc(lambda x: pow_(x, 3.0), [a])
        assert gc(lambda x: pow_(x, -0.5), [a])

    def test_exp_log_sqrt_tanh_sigmoid_gradcheck(self, rng, gc):
        a = t(rng.uniform(0.5, 2.0, size=(4,)))
        for fn in (exp, log, sqrt, tanh, sigmoid):
            a.zero_grad()
            assert gc(fn, [a])

    def test_maximum_gradcheck_no_ties(self, rng, gc):
        a = t([1.0, 5.0, -2.0])
        b = t([3.0, 2.0, -4.0])
        assert gc(maximum, [a, b])

    def test_maximum_tie_splits_gradient(self):
        a, b = t([2.0]), t([2.0])
        out = maximum(a, b)
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [0.5])

    def test_round_ste_gradient_is_identity(self):
        a = t([0.4, 1.6])
        round_ste(a).backward(np.array([2.0, 3.0]))
        np.testing.assert_allclose(a.grad, [2.0, 3.0])

    def test_clip_ste_gradient_masks_outside(self):
        a = t([-2.0, 0.5, 2.0])
        clip_ste(a, -1.0, 1.0).backward(np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestGraphMechanics:
    def test_gradient_accumulates_across_backwards(self):
        a = t([1.0])
        (a * 2.0).backward(np.array([1.0]))
        (a * 3.0).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [5.0])

    def test_diamond_graph_accumulates(self):
        a = t([2.0])
        b = a * 3.0
        out = b + b
        out.backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [6.0])

    def test_no_grad_suppresses_graph(self):
        a = t([1.0])
        with no_grad():
            out = a * 2.0
        assert out.backward_fn is None
        out.backward(np.array([1.0]))  # no-op on a leaf
        assert a.grad is None

    def test_frozen_leaf_gets_no_grad(self):
        a, b = t([2.0]), t([3.0])
        with frozen([a]):
            assert not a.requires_grad
            out = a * b
            out.backward(np.array([1.0]))
        assert a.requires_grad and a.grad is None
        np.testing.assert_allclose(b.grad, [2.0])

    def test_frozen_records_nothing_when_every_parent_is_frozen(self):
        a = t([2.0])
        with frozen([a]):
            out = a * 2.0
        assert out.backward_fn is None

    def test_frozen_restores_flags_when_the_block_raises(self):
        a, b = t([1.0]), Tensor(np.array([1.0]))
        with pytest.raises(RuntimeError), frozen([a, b]):
            raise RuntimeError("boom")
        assert a.requires_grad and not b.requires_grad

    def test_detach_cuts_graph(self):
        a = t([1.0])
        out = (a * 2.0).detach() * 3.0
        out.backward(np.array([1.0]))
        assert a.grad is None

    def test_operator_sugar(self):
        a = t([2.0])
        out = (-a + 3.0) * 2.0 / 4.0 - 1.0
        np.testing.assert_allclose(out.data, [-0.5])
        out2 = 1.0 - a
        np.testing.assert_allclose(out2.data, [-1.0])
        out3 = 6.0 / a
        np.testing.assert_allclose(out3.data, [3.0])
        out4 = a**2
        np.testing.assert_allclose(out4.data, [4.0])

    def test_backward_shape_mismatch_raises(self):
        a = t([1.0, 2.0])
        with pytest.raises(ValueError, match="seed gradient shape"):
            (a * 1.0).backward(np.zeros((3,)))

    def test_repr_mentions_shape_and_grad(self):
        assert "requires_grad" in repr(t([1.0]))
        assert "shape=(2,)" in repr(tensor([1.0, 2.0]))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
