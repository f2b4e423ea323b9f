"""Unit tests for optimisers and LR schedules."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.optim import SGD, Adam, CosineSchedule, StepSchedule


def quadratic_param(start=5.0):
    return Tensor(np.array([start]), requires_grad=True)


def quadratic_step(p):
    p.zero_grad()
    loss = (p * p).sum()
    loss.backward()
    return float(loss.data)


class TestSGD:
    def test_descends_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(50):
            quadratic_step(p)
            opt.step()
        assert abs(p.item()) < 1e-3

    def test_momentum_accelerates(self):
        p_plain, p_mom = quadratic_param(), quadratic_param()
        sgd = SGD([p_plain], lr=0.01)
        mom = SGD([p_mom], lr=0.01, momentum=0.9)
        for _ in range(30):
            quadratic_step(p_plain)
            sgd.step()
            quadratic_step(p_mom)
            mom.step()
        assert abs(p_mom.item()) < abs(p_plain.item())

    def test_weight_decay_shrinks_params(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        assert p.item() < 1.0

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_shared_scratch_is_bit_identical_to_allocating_update(self):
        """One scratch buffer, sized to the largest parameter, serves every
        parameter; updates equal ``v = m*v + (g + wd*p); p -= lr*v``."""
        rng = np.random.default_rng(0)
        shapes = [(4, 3, 3, 3), (7,), (2, 5)]
        params = [
            Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True,
                   dtype=np.float32)
            for s in shapes
        ]
        ref = [p.data.copy() for p in params]
        vel = [np.zeros_like(r) for r in ref]
        opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=1e-3)
        for _ in range(3):
            grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            for i, g in enumerate(grads):
                vel[i] = vel[i] * np.float32(0.9) + (ref[i] * np.float32(1e-3) + g)
                ref[i] = ref[i] - vel[i] * np.float32(0.05)
        for p, r in zip(params, ref):
            np.testing.assert_array_equal(p.data, r)
        assert [b.size for b in opt._scratch.values()] == [4 * 3 * 3 * 3]

    def test_parameter_replaced_by_another_dtype(self):
        """A parameter array swapped for another dtype (e.g. restored from a
        checkpoint written under another dtype policy) still updates."""
        p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True,
                   dtype=np.float32)
        opt = SGD([p], lr=0.5, weight_decay=0.1)
        p.data = np.ones(3)
        p.grad = np.ones(3)
        opt.step()
        np.testing.assert_allclose(p.data, 1.0 - 0.5 * 1.1)

    def test_validation(self):
        p = quadratic_param()
        with pytest.raises(ValueError, match="learning rate"):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError, match="momentum"):
            SGD([p], lr=0.1, momentum=1.5)


class TestAdam:
    def test_descends_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        losses = []
        for _ in range(200):
            losses.append(quadratic_step(p))
            opt.step()
        # Adam oscillates near the optimum at fixed lr; check convergence zone.
        assert abs(p.item()) < 0.1
        assert losses[-1] < losses[0] * 1e-3

    def test_bias_correction_first_step_magnitude(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        # With bias correction the first step is ~lr regardless of beta.
        np.testing.assert_allclose(p.item(), 0.9, atol=1e-6)

    def test_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.item() < 2.0


class TestSchedules:
    def test_cosine_endpoints(self):
        p = quadratic_param()
        opt = SGD([p], lr=1.0)
        sched = CosineSchedule(opt, total_steps=10, lr_min=0.1)
        lrs = [sched.step() for _ in range(10)]
        assert lrs[0] < 1.0
        np.testing.assert_allclose(lrs[-1], 0.1, atol=1e-9)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_clamps_after_total(self):
        p = quadratic_param()
        sched = CosineSchedule(SGD([p], lr=1.0), total_steps=2)
        for _ in range(5):
            last = sched.step()
        np.testing.assert_allclose(last, 0.0, atol=1e-12)

    def test_step_schedule_decays(self):
        p = quadratic_param()
        opt = SGD([p], lr=1.0)
        sched = StepSchedule(opt, step_size=2, gamma=0.1)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        np.testing.assert_allclose(opt.lr, 0.1)

    def test_schedule_validation(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            CosineSchedule(SGD([p], lr=1.0), total_steps=0)
        with pytest.raises(ValueError):
            StepSchedule(SGD([p], lr=1.0), step_size=0)
