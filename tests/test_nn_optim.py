"""Tests for AdamW (:class:`FusedAdamW`), gradient clipping, schedules,
and Module plumbing."""

import numpy as np
import pytest

from repro.nn import FusedAdamW, Linear, Module, Parameter, WarmupSchedule
from repro.nn.layers import Dropout


class Quadratic(Module):
    """f(w) = ||w - target||^2, for optimizer convergence tests."""

    def __init__(self, target):
        super().__init__()
        self.w = Parameter(np.zeros_like(target))
        self.target = target

    def loss_and_grad(self):
        diff = self.w.data - self.target
        self.w.grad[...] = 2 * diff
        return float((diff * diff).sum())


class TestAdamW:
    def test_converges_on_quadratic(self):
        target = np.array([1.0, -2.0, 3.0])
        model = Quadratic(target)
        opt = FusedAdamW(model, lr=0.1, weight_decay=0.0)
        for _ in range(300):
            opt.zero_grad()
            model.loss_and_grad()
            opt.step()
        np.testing.assert_allclose(model.w.data, target, atol=1e-3)

    def test_weight_decay_shrinks_matrices_only(self):
        layer = Linear(3, 3, rng=0)
        opt = FusedAdamW(layer, lr=0.0, weight_decay=0.1)
        w_before = layer.W.data.copy()
        b_before = layer.b.data.copy()
        opt.step()
        # lr=0 means the Adam step is zero, but decay uses lr too -> no change
        np.testing.assert_array_equal(layer.W.data, w_before)
        opt2 = FusedAdamW(layer, lr=0.01, weight_decay=0.5)
        layer.W.grad[...] = 0.0
        layer.b.grad[...] = 0.0
        opt2.step()
        assert (np.abs(layer.W.data) < np.abs(w_before)).all()
        np.testing.assert_array_equal(layer.b.data, b_before)  # bias not decayed

    def test_step_is_deterministic(self):
        def run():
            layer = Linear(4, 4, rng=5)
            opt = FusedAdamW(layer, lr=1e-3)
            for _ in range(5):
                opt.zero_grad()
                out = layer.forward(np.ones((2, 4)))
                layer.backward(np.ones_like(out))
                opt.step()
            return layer.W.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestClipGradNorm:
    def test_noop_below_threshold(self):
        model = Quadratic(np.zeros(3))
        opt = FusedAdamW(model)
        model.w.grad[...] = np.array([0.3, 0.0, 0.4])  # norm 0.5
        norm = opt.clip_grad_norm(1.0)
        assert abs(norm - 0.5) < 1e-12
        np.testing.assert_allclose(model.w.grad, [0.3, 0.0, 0.4])

    def test_scales_above_threshold(self):
        model = Quadratic(np.zeros(2))
        opt = FusedAdamW(model)
        model.w.grad[...] = np.array([3.0, 4.0])  # norm 5
        opt.clip_grad_norm(1.0)
        np.testing.assert_allclose(np.linalg.norm(model.w.grad), 1.0,
                                   atol=1e-9)


class TestWarmupSchedule:
    def test_linear_warmup(self):
        layer = Linear(2, 2, rng=0)
        opt = FusedAdamW(layer, lr=0.0)
        sched = WarmupSchedule(opt, peak_lr=1.0, warmup_steps=10)
        lrs = [sched.step() for _ in range(10)]
        np.testing.assert_allclose(lrs, np.linspace(0.1, 1.0, 10))

    def test_decay_to_zero(self):
        layer = Linear(2, 2, rng=0)
        opt = FusedAdamW(layer, lr=0.0)
        sched = WarmupSchedule(opt, peak_lr=1.0, warmup_steps=2, total_steps=10)
        for _ in range(10):
            last = sched.step()
        assert last == pytest.approx(0.0)


class TestModulePlumbing:
    def test_named_parameters_nested(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(2, 3, rng=0)
                self.blocks = [Linear(3, 3, rng=1), Linear(3, 2, rng=2)]

        names = [n for n, _ in Net().named_parameters()]
        assert "a.W" in names and "blocks.0.W" in names and "blocks.1.b" in names

    def test_state_dict_roundtrip(self):
        l1, l2 = Linear(3, 4, rng=1), Linear(3, 4, rng=2)
        assert not np.array_equal(l1.W.data, l2.W.data)
        l2.load_state_dict(l1.state_dict())
        np.testing.assert_array_equal(l1.W.data, l2.W.data)

    def test_state_dict_mismatch_raises(self):
        with pytest.raises(KeyError):
            Linear(2, 2, rng=0).load_state_dict({"bogus": np.zeros(2)})

    def test_save_load_file(self, tmp_path):
        l1, l2 = Linear(3, 3, rng=1), Linear(3, 3, rng=2)
        path = str(tmp_path / "weights.npz")
        l1.save(path)
        l2.load(path)
        np.testing.assert_array_equal(l1.W.data, l2.W.data)

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5, rng=0)
                self.inner = [Dropout(0.5, rng=1)]

        net = Net().eval()
        assert not net.drop.training
        assert not net.inner[0].training
        net.train()
        assert net.drop.training

    def test_dropout_eval_is_identity(self):
        d = Dropout(0.9, rng=0).eval()
        x = np.ones((4, 4))
        np.testing.assert_array_equal(d.forward(x), x)

    def test_dropout_train_scales(self):
        d = Dropout(0.5, rng=0)
        x = np.ones((2000,))
        out = d.forward(x)
        # inverted dropout keeps the expectation
        assert abs(out.mean() - 1.0) < 0.1
        assert set(np.unique(out)).issubset({0.0, 2.0})

    def test_invalid_dropout_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_num_parameters(self):
        layer = Linear(3, 4, rng=0)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        layer = Linear(2, 2, rng=0)
        out = layer.forward(np.ones((1, 2)))
        layer.backward(np.ones_like(out))
        assert np.abs(layer.W.grad).sum() > 0
        layer.zero_grad()
        assert (layer.W.grad == 0).all()
