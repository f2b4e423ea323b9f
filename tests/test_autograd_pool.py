"""Buffer-pool semantics: aliasing safety, deterministic retire, parity."""

import numpy as np
import pytest

from repro.autograd import ops_nn
from repro.autograd.gradcheck import gradcheck
from repro.autograd.pool import (
    MIN_POOL_ELEMS,
    BufferPool,
    buffer_pool,
    get_pool,
)
from repro.autograd.tensor import Tensor, default_dtype, no_grad, tensor
from repro.nn.functional import cross_entropy


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Isolate tests from each other's thread-local pool state."""
    get_pool().reset()
    yield
    get_pool().reset()


class TestBufferPool:
    def test_acquire_returns_requested_shape_and_dtype(self):
        pool = BufferPool()
        pool.enabled = True
        buf = pool.acquire((4, 256), np.float32)
        assert buf.shape == (4, 256)
        assert buf.dtype == np.float32

    def test_checked_out_buffer_never_handed_out_twice(self):
        pool = BufferPool()
        pool.enabled = True
        first = pool.acquire((1024,), np.float32)
        others = [pool.acquire((1024,), np.float32) for _ in range(8)]
        bases = {id(b.base if b.base is not None else b) for b in [first, *others]}
        assert len(bases) == 9  # all distinct backing arrays

    def test_release_then_reacquire_reuses_buffer(self):
        pool = BufferPool()
        pool.enabled = True
        buf = pool.acquire((2048,), np.float32)
        base = buf.base if buf.base is not None else buf
        assert pool.release(buf)
        again = pool.acquire((2048,), np.float32)
        assert (again.base if again.base is not None else again) is base
        assert pool.hits == 1

    def test_double_release_is_rejected(self):
        pool = BufferPool()
        pool.enabled = True
        buf = pool.acquire((1024,), np.float32)
        assert pool.release(buf)
        assert not pool.release(buf)
        # The free list must hold the buffer exactly once.
        assert pool.stats()["free_buffers"] == 1

    def test_release_of_foreign_array_is_noop(self):
        pool = BufferPool()
        pool.enabled = True
        assert not pool.release(np.zeros(1024, np.float32))
        assert pool.stats()["free_buffers"] == 0

    def test_small_requests_are_not_pooled(self):
        pool = BufferPool()
        pool.enabled = True
        buf = pool.acquire((MIN_POOL_ELEMS - 1,), np.float32)
        assert not pool.owns(buf)
        assert pool.outstanding == 0

    def test_zero_fill(self):
        pool = BufferPool()
        pool.enabled = True
        buf = pool.acquire((700,), np.float64, zero=True)
        buf.fill(7.0)
        pool.release(buf)
        again = pool.acquire((700,), np.float64, zero=True)
        assert np.all(again == 0.0)

    def test_dtype_buckets_are_separate(self):
        pool = BufferPool()
        pool.enabled = True
        f32 = pool.acquire((1024,), np.float32)
        pool.release(f32)
        f64 = pool.acquire((1024,), np.float64)
        assert f64.dtype == np.float64
        assert pool.misses == 2  # the float32 buffer was not reused

    def test_disabled_pool_allocates_plainly(self):
        pool = BufferPool()
        buf = pool.acquire((4096,), np.float32)
        assert not pool.owns(buf)
        assert pool.outstanding == 0

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUFFER_POOL", "0")
        with buffer_pool(True) as pool:
            assert not pool.enabled

    def test_reset_forgets_everything(self):
        pool = BufferPool()
        pool.enabled = True
        kept = pool.acquire((1024,), np.float32)
        released = pool.acquire((1024,), np.float32)
        pool.release(released)
        pool.reset()
        assert pool.outstanding == 0
        assert pool.stats()["free_buffers"] == 0
        assert not pool.owns(kept)


class TestTapeDrivenRelease:
    def test_conv_step_releases_everything(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.normal(size=(4, 8, 8, 8)), requires_grad=True)
        w = tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        with buffer_pool(True) as pool:
            before = pool.outstanding
            out = ops_nn.conv2d(x, w, stride=1, padding=1)
            loss = out.sum()
            loss.backward()
            x.zero_grad()
            w.zero_grad()
            assert pool.outstanding == before

    def test_root_data_survives_backward(self):
        rng = np.random.default_rng(1)
        x = tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
        w = tensor(rng.normal(size=(4, 4, 3, 3)), requires_grad=True)
        with buffer_pool(True) as pool:
            out = ops_nn.conv2d(x, w, padding=1)
            with buffer_pool(False):
                expected = ops_nn.conv2d(x.detach(), w.detach(), padding=1).data
            out.backward(np.ones(out.shape, dtype=out.data.dtype))
            # The root's pooled buffer was swapped for a private copy.
            assert not pool.owns(out.data)
            np.testing.assert_array_equal(out.data, expected)
            x.zero_grad()
            w.zero_grad()
            assert pool.outstanding == 0

    def test_detach_copies_pooled_data(self):
        rng = np.random.default_rng(2)
        x = tensor(rng.normal(size=(2, 4, 8, 8)), requires_grad=True)
        w = tensor(rng.normal(size=(4, 4, 3, 3)), requires_grad=True)
        with buffer_pool(True):
            out = ops_nn.conv2d(x, w, padding=1)
            snapshot = out.detach()
            assert snapshot.data is not out.data
            before = snapshot.data.copy()
            out.sum().backward()
            # More pooled work reusing the released buffers must not
            # corrupt the detached copy.
            ops_nn.conv2d(x, w, padding=1).sum().backward()
            np.testing.assert_array_equal(snapshot.data, before)
            x.zero_grad()
            w.zero_grad()

    def test_no_grad_forward_does_not_pool(self):
        rng = np.random.default_rng(3)
        x = tensor(rng.normal(size=(2, 8, 8, 8)))
        w = tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        with buffer_pool(True) as pool:
            with no_grad():
                ops_nn.conv2d(x, w, padding=1)
            assert pool.outstanding == 0

    def test_leaf_grad_released_by_zero_grad(self):
        rng = np.random.default_rng(4)
        x = tensor(rng.normal(size=(2, 8, 8, 8)), requires_grad=True)
        w = tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        with buffer_pool(True) as pool:
            ops_nn.conv2d(x, w, padding=1).sum().backward()
            assert pool.owns(x.grad)
            x.zero_grad()
            w.zero_grad()
            assert x.grad is None
            assert pool.outstanding == 0

    def test_gradcheck_passes_with_pool_enabled(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 4, 3, 3))
        with buffer_pool(True), default_dtype(np.float64):
            xt = tensor(x, requires_grad=True)
            wt = tensor(w, requires_grad=True)
            assert gradcheck(
                lambda a, b: ops_nn.conv2d(a, b, stride=1, padding=1), (xt, wt)
            )


class TestPoolParity:
    """Pool on/off must be bit-identical — the pool only moves allocations."""

    def _training_losses(self, pool_on: bool) -> tuple[list, np.ndarray]:
        from repro.core.config import EDDConfig
        from repro.core.cosearch import EDDSearcher
        from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
        from repro.nas.space import SearchSpaceConfig

        space = SearchSpaceConfig.reduced(num_blocks=2, num_classes=4, input_size=12)
        splits = make_synthetic_task(SyntheticTaskConfig(
            num_classes=4, image_size=12, train_per_class=6, val_per_class=4,
            test_per_class=4, seed=0,
        ))
        config = EDDConfig(target="fpga_pipelined", epochs=2, batch_size=8,
                           seed=0, arch_start_epoch=0)
        searcher = EDDSearcher(space, splits, config)
        searcher.calibrate_alpha()
        x, y = splits.train.images[:8], splits.train.labels[:8]
        xv, yv = splits.val.images[:8], splits.val.labels[:8]
        losses = []
        with buffer_pool(pool_on):
            for _ in range(3):
                losses.append(searcher.weight_step(x, y))
                losses.append(searcher.arch_step(xv, yv)["total_loss"])
            searcher.weight_optimizer.zero_grad()
            searcher.arch_optimizer.zero_grad()
        return losses, searcher.supernet.theta.data.copy()

    def test_losses_bit_identical(self):
        losses_off, theta_off = self._training_losses(False)
        losses_on, theta_on = self._training_losses(True)
        assert losses_off == losses_on
        np.testing.assert_array_equal(theta_off, theta_on)

    def test_outstanding_zero_after_training(self):
        self._training_losses(True)
        assert get_pool().outstanding == 0

    def test_supernet_loss_readable_after_backward(self):
        # The canonical post-backward reads: loss.item() and arch-step
        # telemetry scalars must stay valid with the pool on.
        losses, _ = self._training_losses(True)
        assert all(np.isfinite(losses))


def test_batch_norm_parity_with_pool():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 8, 6, 6))
    gamma = rng.normal(size=8)
    beta = rng.normal(size=8)

    def bn(pool_on):
        with buffer_pool(pool_on):
            xt = tensor(x, requires_grad=True)
            gt = tensor(gamma, requires_grad=True)
            bt = tensor(beta, requires_grad=True)
            out, mean, var = ops_nn.batch_norm2d(xt, gt, bt)
            # Pooled intermediates are invalid after backward — snapshot
            # the forward result first (the documented contract).
            data = out.data.copy()
            out.sum().backward()
            grads = (xt.grad.copy(), gt.grad.copy(), bt.grad.copy())
            for t in (xt, gt, bt):
                t.zero_grad()
        return data, mean, var, grads

    d0, m0, v0, g0 = bn(False)
    d1, m1, v1, g1 = bn(True)
    np.testing.assert_array_equal(d0, d1)
    np.testing.assert_array_equal(m0, m1)
    np.testing.assert_array_equal(v0, v1)
    for a, b in zip(g0, g1):
        np.testing.assert_array_equal(a, b)


def test_cross_entropy_loss_parity_with_pool():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 3, 12, 12))
    labels = rng.integers(0, 4, size=8)
    w = rng.normal(size=(4, 3 * 12 * 12)) * 0.01

    def loss_of(pool_on):
        with buffer_pool(pool_on):
            xt = tensor(x.reshape(8, -1))
            wt = tensor(w, requires_grad=True)
            logits = ops_nn.linear(xt, wt)
            loss = cross_entropy(logits, labels)
            loss.backward()
            value, grad = loss.item(), wt.grad.copy()
            wt.zero_grad()
        return value, grad

    v0, g0 = loss_of(False)
    v1, g1 = loss_of(True)
    assert v0 == v1
    np.testing.assert_array_equal(g0, g1)


def test_root_view_of_pooled_tensor_survives_backward():
    """Regression: a root that is a zero-copy view (reshape) of a pooled
    node's buffer must get a private copy before that buffer is recycled —
    and must never end up aliasing a leaf gradient."""
    from repro.autograd.ops_shape import reshape

    rng = np.random.default_rng(11)
    x = tensor(rng.normal(size=(2, 4, 8, 8)), requires_grad=True)
    w = tensor(rng.normal(size=(4, 4, 3, 3)), requires_grad=True)
    with buffer_pool(True) as pool:
        out = ops_nn.relu(ops_nn.conv2d(x, w, padding=1))
        z = reshape(out, (2, 4 * 8 * 8))
        with buffer_pool(False):
            expected = reshape(
                ops_nn.relu(ops_nn.conv2d(x.detach(), w.detach(), padding=1)),
                (2, 4 * 8 * 8),
            ).data
        z.backward(np.ones(z.shape, dtype=z.data.dtype))
        np.testing.assert_array_equal(z.data, expected)
        assert not np.shares_memory(z.data, x.grad)
        assert not pool.owns(z.data)
        x.zero_grad()
        w.zero_grad()
        assert pool.outstanding == 0


def test_sweep_reclaims_stranded_buffers():
    """A forward whose graph is dropped without backward strands its pooled
    buffers; sweep() returns them to the free lists once the graph is gone."""
    import gc

    rng = np.random.default_rng(12)
    x = tensor(rng.normal(size=(2, 8, 8, 8)), requires_grad=True)
    w = tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    with buffer_pool(True) as pool:
        out = ops_nn.conv2d(x, w, padding=1)
        stranded = pool.outstanding
        assert stranded > 0
        assert pool.sweep() == 0  # graph alive: nothing reclaimable
        del out
        gc.collect()
        assert pool.sweep() == stranded
        assert pool.outstanding == 0
        # Reclaimed buffers are reusable.
        out2 = ops_nn.conv2d(x, w, padding=1)
        out2.sum().backward()
        x.zero_grad()
        w.zero_grad()
        assert pool.outstanding == 0


@pytest.mark.parametrize(
    "shape,k,stride",
    [
        ((2, 16, 9, 8), 3, 1),
        ((2, 16, 9, 8), 5, 2),
        ((2, 16, 9, 8), 7, 1),
        # For these the NHWC -> NCHW gradient transpose is already
        # C-contiguous (H = W = 1, C = 1, a 1x1 kernel): the returned grads
        # must still be copies, not views of buffers given back to the pool.
        ((4, 160, 1, 1), 3, 1),
        ((2, 512, 1, 1), 1, 1),
        ((2, 1, 16, 20), 5, 2),
        ((1, 512, 2, 2), 1, 1),
    ],
)
def test_depthwise_kernel_pool_parity_and_release(shape, k, stride):
    """The channels-last depthwise kernel is bit-identical with the pool on
    and off — also when the recycled buffers hold garbage — and returns
    every buffer it checks out once backward and zero_grad have run.

    Two convs share the input and the weight, so the second backward checks
    out whatever the first one released while the first one's gradients are
    still waiting to be accumulated."""
    rng = np.random.default_rng(13)
    n, c, h, w_in = shape
    x0 = rng.normal(size=shape).astype(np.float32)
    w0 = rng.normal(size=(c, 1, k, k)).astype(np.float32)

    def step(pool_on: bool):
        x = tensor(x0, requires_grad=True)
        w = tensor(w0, requires_grad=True)
        with buffer_pool(pool_on) as pool:
            before = pool.outstanding
            first = ops_nn.conv2d(x, w, stride=stride, padding=k // 2, groups=c)
            if pool_on:
                assert pool.outstanding > before  # canvas, kernel, output
            out = first + ops_nn.conv2d(
                x, w * 0.5, stride=stride, padding=k // 2, groups=c
            )
            seed = np.random.default_rng(14).normal(size=out.shape)
            out.backward(seed.astype(np.float32))
            leaf_grads = sum(pool.owns(t.grad) for t in (x, w))
            assert pool.outstanding == before + leaf_grads
            result = (out.data.copy(), x.grad.copy(), w.grad.copy())
            x.zero_grad()
            w.zero_grad()
            assert pool.outstanding == before
        return result

    expected = step(False)
    for poison in (False, True):
        if poison:
            # Poison every free buffer: a kernel that relied on fresh zeros
            # (the canvas border, the gradient canvas) would now diverge.
            for stack in get_pool()._free.values():
                for buf in stack:
                    buf.fill(np.nan)
        for got, want in zip(step(True), expected):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "shape,k", [((4, 160, 1, 1), 3), ((2, 512, 1, 1), 1), ((2, 1, 16, 20), 5)]
)
def test_depthwise_grads_never_alias_released_buffers(shape, k):
    """Tensor.backward holds a node's gradients until the parent node runs,
    so the kernel must not return views of scratch it already gave back to
    the pool — also where the NHWC -> NCHW transpose is already contiguous
    (H = W = 1, C = 1, a 1x1 kernel with a pooled weight grad)."""
    rng = np.random.default_rng(15)
    c = shape[1]
    x = tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    w = tensor(rng.normal(size=(c, 1, k, k)).astype(np.float32), requires_grad=True)
    with buffer_pool(True) as pool:
        out = ops_nn.conv2d(x, w, padding=k // 2, groups=c)
        grads = out.backward_fn(np.ones_like(out.data))
        free = [buf for stack in pool._free.values() for buf in stack]
        assert free
        for grad in grads:
            assert not any(np.shares_memory(grad, buf) for buf in free)
