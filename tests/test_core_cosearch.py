"""Unit tests for the bilevel co-search loop (Sec. 5)."""

import contextlib

import numpy as np
import pytest

import repro.core.cosearch as cosearch
from repro.autograd.tensor import default_dtype
from repro.core.config import EDDConfig
from repro.core.cosearch import EDDSearcher, build_supernet
from repro.core.results import SearchResult
from repro.nas.arch_spec import ArchSpec, FCBlock, StemBlock
from repro.utils.numeric import softmax


class TestBuilders:
    def test_supernet_matches_target(self, tiny_space):
        net = build_supernet(tiny_space, EDDConfig(target="fpga_recursive"))
        assert net.quant.sharing == "per_op"


@pytest.fixture
def searcher(tiny_space, tiny_splits):
    config = EDDConfig(
        target="gpu", epochs=2, batch_size=8, seed=0, arch_start_epoch=0,
    )
    return EDDSearcher(tiny_space, tiny_splits, config)


class TestSteps:
    def test_weight_step_returns_loss(self, searcher, tiny_splits):
        x, y = tiny_splits.train.images[:8], tiny_splits.train.labels[:8]
        loss = searcher.weight_step(x, y)
        assert np.isfinite(loss) and loss > 0

    def test_weight_step_does_not_move_arch(self, searcher, tiny_splits):
        theta_before = searcher.supernet.theta.data.copy()
        x, y = tiny_splits.train.images[:8], tiny_splits.train.labels[:8]
        searcher.weight_step(x, y)
        np.testing.assert_allclose(searcher.supernet.theta.data, theta_before)

    def test_arch_step_moves_arch_not_weights(self, searcher, tiny_splits):
        searcher.calibrate_alpha()
        weight = searcher.supernet.candidate(0, 0).expand.weight
        weight_before = weight.data.copy()
        theta_before = searcher.supernet.theta.data.copy()
        x, y = tiny_splits.val.images[:8], tiny_splits.val.labels[:8]
        stats = searcher.arch_step(x, y)
        np.testing.assert_allclose(weight.data, weight_before)
        assert not np.allclose(searcher.supernet.theta.data, theta_before)
        assert set(stats) == {"acc_loss", "perf_loss", "resource", "total_loss"}

    def test_alpha_calibration_normalises_perf(self, searcher):
        searcher.calibrate_alpha()
        ev = searcher.hw_model.evaluate(searcher._expected_sample())
        np.testing.assert_allclose(float(ev.perf_loss.data), 1.0, rtol=1e-6)


def _float64_searcher(tiny_space, tiny_splits, **overrides):
    config = EDDConfig(target="fpga_pipelined", epochs=2, batch_size=8, seed=3,
                       arch_start_epoch=0, **overrides)
    with default_dtype(np.float64):
        return EDDSearcher(tiny_space, tiny_splits, config)


def _record_grads(optimizer, others):
    """Capture, when ``optimizer.step`` runs, its own and ``others``' grads."""
    seen = {}
    step = optimizer.step

    def recording_step():
        seen["own"] = [None if p.grad is None else p.grad.copy()
                       for p in optimizer.params]
        seen["others"] = [p.grad for p in others]
        step()

    optimizer.step = recording_step
    return seen


def _without_freeze(monkeypatch):
    monkeypatch.setattr(cosearch, "frozen", lambda tensors: contextlib.nullcontext())


class TestFrozenSteps:
    """Each step's backward computes only the gradients its optimiser applies,
    and those equal the gradients of a backward through everything."""

    def _step_grads(self, searcher, kind, images, labels):
        weights = searcher.weight_optimizer.params
        arch = searcher.arch_optimizer.params
        with default_dtype(np.float64):
            if kind == "arch":
                searcher.calibrate_alpha()
                seen = _record_grads(searcher.arch_optimizer, weights)
                searcher.arch_step(images, labels)
            else:
                seen = _record_grads(searcher.weight_optimizer, arch)
                searcher.weight_step(images, labels)
        return seen

    @pytest.mark.parametrize("kind", ["arch", "weight"])
    def test_grads_match_unfrozen_backward(self, kind, tiny_space, tiny_splits,
                                           monkeypatch):
        split = tiny_splits.val if kind == "arch" else tiny_splits.train
        x, y = split.images[:8], split.labels[:8]
        frozen_seen = self._step_grads(
            _float64_searcher(tiny_space, tiny_splits), kind, x, y
        )
        _without_freeze(monkeypatch)
        full_seen = self._step_grads(
            _float64_searcher(tiny_space, tiny_splits), kind, x, y
        )
        assert all(g is None for g in frozen_seen["others"])
        assert any(g is not None for g in full_seen["others"])
        # A hard weight step leaves unsampled candidates without gradients.
        assert any(g is not None for g in frozen_seen["own"])
        for got, want in zip(frozen_seen["own"], full_seen["own"]):
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_arch_step_leaves_weight_grads_none(self, searcher, tiny_splits):
        searcher.calibrate_alpha()
        searcher.arch_step(tiny_splits.val.images[:8], tiny_splits.val.labels[:8])
        assert all(p.grad is None for p in searcher.weight_optimizer.params)
        assert all(p.requires_grad for p in searcher.weight_optimizer.params)

    def test_second_order_search_unchanged(self, tiny_space, tiny_splits,
                                           monkeypatch):
        def run():
            searcher = _float64_searcher(tiny_space, tiny_splits, bilevel_order=2)
            with default_dtype(np.float64):
                return searcher.search()

        frozen_result = run()
        _without_freeze(monkeypatch)
        full_result = run()
        np.testing.assert_allclose(frozen_result.theta, full_result.theta, rtol=1e-12)
        np.testing.assert_allclose(frozen_result.phi, full_result.phi, rtol=1e-12)
        for a, b in zip(frozen_result.history, full_result.history):
            np.testing.assert_allclose(a.total_loss, b.total_loss, rtol=1e-12)
            np.testing.assert_allclose(a.train_loss, b.train_loss, rtol=1e-12)
        assert frozen_result.spec == full_result.spec

    @pytest.mark.parametrize("kind", ["arch", "weight"])
    def test_requires_grad_restored_when_step_raises(self, kind, searcher,
                                                     tiny_splits, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("forward failed")

        monkeypatch.setattr(searcher.supernet, "forward", boom)
        x, y = tiny_splits.val.images[:8], tiny_splits.val.labels[:8]
        step = searcher.arch_step if kind == "arch" else searcher.weight_step
        with pytest.raises(RuntimeError, match="forward failed"):
            step(x, y)
        params = searcher.weight_optimizer.params + searcher.arch_optimizer.params
        assert all(p.requires_grad for p in params)

    def test_soft_arch_step_memory_is_bounded_by_weights(self):
        """A weight-dominated space (paper widths, 8x8 input, batch 4): the
        traced peak of one soft arch step stays within 5x the weight bytes.
        Quantised paths kept for the backward, weight gradients nobody
        applies and per-sample weight-gradient stacks each add weight-sized
        arrays on top (5.9x before they were removed, 2.4x after)."""
        import dataclasses
        import gc
        import tracemalloc

        from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
        from repro.nas.space import SearchSpaceConfig

        space = dataclasses.replace(
            SearchSpaceConfig.paper_scale(), block_channels=(96, 192, 320),
            block_strides=(1, 2, 1), input_size=8, num_classes=4,
        )
        splits = make_synthetic_task(SyntheticTaskConfig(
            num_classes=4, image_size=8, train_per_class=1, val_per_class=1,
            test_per_class=1, seed=0,
        ))
        config = EDDConfig(target="fpga_pipelined", epochs=1, batch_size=4,
                           seed=0, arch_start_epoch=0)
        searcher = EDDSearcher(space, splits, config)
        assert not config.hard_arch_step
        x, y = splits.val.images[:4], splits.val.labels[:4]
        weight_bytes = sum(p.data.nbytes for p in searcher.weight_optimizer.params)
        searcher.arch_step(x, y)  # warm: first-step allocations (Adam state)
        gc.collect()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            searcher.arch_step(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline <= 5 * weight_bytes


class TestSearchLoop:
    def test_history_and_result(self, searcher):
        result = searcher.search(name="t")
        assert len(result.history) == 2
        assert result.spec.name == "t"
        assert result.theta.shape == searcher.supernet.theta.shape
        assert result.search_seconds > 0
        assert all(np.isfinite(r.train_loss) for r in result.history)

    def test_arch_warmup_skips_arch_stats(self, tiny_space, tiny_splits):
        config = EDDConfig(target="gpu", epochs=2, batch_size=8,
                           arch_start_epoch=1, seed=0)
        result = EDDSearcher(tiny_space, tiny_splits, config).search()
        assert np.isnan(result.history[0].val_acc_loss)
        assert np.isfinite(result.history[1].val_acc_loss)

    def test_temperature_anneals(self, searcher):
        result = searcher.search()
        temps = [r.temperature for r in result.history]
        assert temps[0] > temps[-1]

    def test_fpga_search_attaches_parallel_factors(self, tiny_space, tiny_splits):
        config = EDDConfig(target="fpga_recursive", epochs=2, batch_size=8,
                           arch_start_epoch=0, seed=0)
        result = EDDSearcher(tiny_space, tiny_splits, config).search()
        assert result.parallel_factors is not None
        assert len(result.parallel_factors) == tiny_space.num_blocks
        assert result.spec.metadata["block_bits"]

    def test_gpu_search_single_precision(self, tiny_space, tiny_splits):
        config = EDDConfig(target="gpu", epochs=2, batch_size=8,
                           arch_start_epoch=0, seed=0)
        result = EDDSearcher(tiny_space, tiny_splits, config).search()
        bits = result.spec.metadata["block_bits"]
        assert len(set(bits)) == 1  # global precision (Sec. 4.2)

    def test_result_serialisable(self, searcher, tmp_path):
        from repro.utils.serialization import to_json_file

        result = searcher.search()
        path = to_json_file(result.to_dict(), tmp_path / "result.json")
        assert path.exists()

    def test_theta_margins_follow_the_derived_ops(self, searcher):
        result = searcher.search()
        margins = result.to_dict()["theta_margins"]
        assert len(margins) == searcher.space.num_blocks
        assert all(0.0 <= m <= 1.0 for m in margins)
        labels = [op.label for op in searcher.space.candidate_ops()]
        probs = softmax(result.theta)
        for block, label in enumerate(result.op_labels):
            top1 = labels.index(label)
            runner_up = np.delete(probs[block], top1).max()
            assert margins[block] == pytest.approx(probs[block, top1] - runner_up)

    def test_deterministic_given_seed(self, tiny_space, tiny_splits):
        config = EDDConfig(target="gpu", epochs=1, batch_size=8,
                           arch_start_epoch=0, seed=9)
        a = EDDSearcher(tiny_space, tiny_splits, config).search()
        b = EDDSearcher(tiny_space, tiny_splits, config).search()
        np.testing.assert_allclose(a.theta, b.theta)

    def test_search_leaves_no_memory_behind(self):
        """Every array a search allocates belongs to its graphs, searcher or
        result: once those are deleted, traced memory is back at the
        pre-search baseline (no free list keeps training buffers alive)."""
        import gc
        import tracemalloc

        from repro.data.synthetic import SyntheticTaskConfig, make_synthetic_task
        from repro.nas.space import SearchSpaceConfig

        space = SearchSpaceConfig.reduced(num_blocks=2, num_classes=4, input_size=12)
        splits = make_synthetic_task(SyntheticTaskConfig(
            num_classes=4, image_size=12, train_per_class=6, val_per_class=4,
            test_per_class=4, seed=0,
        ))
        config = EDDConfig(target="fpga_pipelined", epochs=2, batch_size=8,
                           seed=0, arch_start_epoch=0)
        gc.collect()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            searcher = EDDSearcher(space, splits, config)
            result = searcher.search()
            _, peak = tracemalloc.get_traced_memory()
            del searcher, result
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert peak - baseline > 1 << 20  # the search did allocate
        assert retained < 0.05 * (peak - baseline)


class TestThetaMargins:
    def _result(self, theta):
        spec = ArchSpec("t", [StemBlock(out_ch=4), FCBlock(out_features=2)])
        return SearchResult(spec=spec, history=[], theta=np.asarray(theta),
                            phi=np.zeros(3), parallel_factors=None, search_seconds=0.0)

    def test_uniform_theta_is_undecided(self):
        assert self._result(np.zeros((3, 4))).theta_margins == [0.0, 0.0, 0.0]

    def test_margin_is_top1_minus_top2_probability(self):
        theta = np.log([[0.7, 0.2, 0.1], [0.25, 0.25, 0.5], [1e-9, 1.0, 1e-9]])
        margins = self._result(theta).theta_margins
        np.testing.assert_allclose(margins, [0.5, 0.25, 1.0], atol=1e-8)

    def test_single_candidate_is_decided(self):
        assert self._result(np.zeros((2, 1))).theta_margins == [1.0, 1.0]
