"""Flat parameter arena + FusedAdamW: aliasing, parity, and dtype purity.

The tentpole claims of the training hot-path overhaul are verified here:

* flattening a model into a :class:`ParameterArena` changes *nothing*
  observable — state dicts, checkpoints, and forwards are identical;
* :class:`FusedAdamW` steps are bit-identical to a per-parameter
  reference AdamW (the textbook loop, kept below) given the same
  gradients, and the arena clip matches a per-parameter reference clip;
* one training step leaves no float64 anywhere in the hot state.
"""

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data.encoding import EncodedSplit
from repro.models.pragformer import PragFormer, PragFormerConfig
from repro.nn import FusedAdamW, ParameterArena
from repro.nn.dtype import assert_compute_dtype, get_dtype
from repro.nn.layers import Linear
from repro.nn.module import Module


TINY = dict(d_model=16, n_heads=2, n_layers=2, d_ff=24, d_head_hidden=12,
            max_len=16, batch_size=8, seed=3)


class TwoLayer(Module):
    def __init__(self, rng=0):
        super().__init__()
        self.a = Linear(4, 6, rng=rng)
        self.b = Linear(6, 2, rng=rng + 1)


class _ReferenceAdamW:
    """Per-parameter AdamW: Adam step + decoupled weight decay on
    matrices only, one Python loop iteration per parameter.
    :class:`FusedAdamW` must match it bit for bit."""

    def __init__(self, model, lr, weight_decay, betas=(0.9, 0.999),
                 eps=1e-8):
        self.named = list(model.named_parameters())
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.named]
        self._v = [np.zeros_like(p.data) for _, p in self.named]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        step_size = self.lr / bias1
        for (_, p), m, v in zip(self.named, self._m, self._v):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            denom = np.sqrt(v / bias2) + self.eps
            p.data -= step_size * (m / denom)
            if self.weight_decay and p.data.ndim > 1:
                p.data -= self.lr * self.weight_decay * p.data

    def zero_grad(self):
        for _, p in self.named:
            p.zero_grad()


def _reference_clip_grad_norm(params, max_norm):
    """Per-parameter global-norm clip; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            p.grad *= scale
    return norm


def _toy_split(n=32, length=10, vocab=24, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, vocab, size=(n, length)).astype(np.int32)
    ids[:, 0] = 2  # CLS
    mask = np.ones((n, length), dtype=np.float32)
    # ragged lengths so trim_batch and the bucketing actually engage
    for row in range(n):
        cut = int(rng.integers(length // 2, length + 1))
        ids[row, cut:] = 0
        mask[row, cut:] = 0.0
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    return EncodedSplit(ids, mask, labels)


class TestParameterArena:
    def test_views_alias_flat_buffer(self):
        model = TwoLayer()
        arena = ParameterArena(model)
        assert arena.size == model.num_parameters()
        model.a.W.data += 1.0  # layer-local in-place update ...
        start = arena.slices[0][1].start
        np.testing.assert_array_equal(  # ... lands in the flat buffer
            arena.data[start : start + model.a.W.data.size],
            model.a.W.data.reshape(-1))
        arena.data[...] = 0.0  # and whole-arena writes land in the layers
        assert (model.b.W.data == 0).all()

    def test_flatten_preserves_state_dict(self):
        model = TwoLayer()
        before = {k: v.copy() for k, v in model.state_dict().items()}
        ParameterArena(model)
        after = model.state_dict()
        assert before.keys() == after.keys()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_load_state_dict_writes_through_views(self):
        model, donor = TwoLayer(rng=0), TwoLayer(rng=7)
        arena = ParameterArena(model)
        model.load_state_dict(donor.state_dict())
        np.testing.assert_array_equal(model.a.W.data, donor.a.W.data)
        start = arena.slices[0][1].start
        np.testing.assert_array_equal(  # the arena saw the load
            arena.data[start : start + model.a.W.data.size],
            donor.a.W.data.reshape(-1))

    def test_decay_mask_matrices_only(self):
        model = TwoLayer()
        arena = ParameterArena(model)
        for name, region, shape in arena.slices:
            expected = 1.0 if len(shape) > 1 else 0.0
            assert (arena.decay_mask[region] == expected).all(), name

    def test_zero_grad_and_clip(self):
        model = TwoLayer()
        arena = ParameterArena(model)
        model.a.W.grad += 3.0
        model.b.b.grad += 4.0
        assert arena.grad_norm() > 0
        norm = arena.clip_grad_norm(1.0)
        assert norm > 1.0
        np.testing.assert_allclose(arena.grad_norm(), 1.0, rtol=1e-5)
        arena.zero_grad()
        assert (model.a.W.grad == 0).all() and (arena.grad == 0).all()

    def test_empty_model_rejected(self):
        class Bare(Module):
            pass

        with pytest.raises(ValueError):
            ParameterArena(Bare())


class TestFusedAdamWParity:
    def _twin_models(self):
        legacy, fused = TwoLayer(rng=11), TwoLayer(rng=11)
        fused.load_state_dict(legacy.state_dict())
        return legacy, fused

    def test_steps_bit_identical_to_legacy(self):
        """Same gradients in -> bit-identical parameters out, many steps."""
        legacy, fused = self._twin_models()
        opt_l = _ReferenceAdamW(legacy, lr=3e-3, weight_decay=0.02)
        opt_f = FusedAdamW(fused, lr=3e-3, weight_decay=0.02)
        rng = np.random.default_rng(0)
        for _ in range(25):
            opt_l.zero_grad()
            opt_f.zero_grad()
            for (_, pl), (_, pf) in zip(legacy.named_parameters(),
                                        fused.named_parameters()):
                g = rng.normal(size=pl.grad.shape).astype(get_dtype())
                pl.grad += g
                pf.grad += g
            opt_l.step()
            opt_f.step()
        for (name, pl), (_, pf) in zip(legacy.named_parameters(),
                                       fused.named_parameters()):
            np.testing.assert_array_equal(pl.data, pf.data, err_msg=name)

    def test_fused_clip_matches_legacy_clip(self):
        legacy, fused = self._twin_models()
        opt_f = FusedAdamW(fused, lr=0.0, weight_decay=0.0)
        rng = np.random.default_rng(4)
        for (_, pl), (_, pf) in zip(legacy.named_parameters(),
                                    fused.named_parameters()):
            g = rng.normal(size=pl.grad.shape).astype(get_dtype()) * 5
            pl.grad += g
            pf.grad += g
        norm_l = _reference_clip_grad_norm(legacy.parameters(), 1.0)
        norm_f = opt_f.clip_grad_norm(1.0)
        assert norm_l == pytest.approx(norm_f, rel=1e-5)
        for (name, pl), (_, pf) in zip(legacy.named_parameters(),
                                       fused.named_parameters()):
            np.testing.assert_allclose(pl.grad, pf.grad, rtol=1e-5,
                                       err_msg=name)


class TestTrainStepDtypePurity:
    def test_no_float64_after_train_step(self):
        """Regression guard: one fit() epoch must leave parameters, grads,
        optimizer state, and prediction outputs in the compute dtype."""
        split = _toy_split()
        model = PragFormer(24, PragFormerConfig(**TINY))
        model.fit(split, epochs=1)
        for name, p in list(model.encoder.named_parameters()) + \
                list(model.head.named_parameters()):
            assert_compute_dtype(p.data, p.grad, context=name)
        opt = model._optimizer
        assert_compute_dtype(opt.arena.data, opt.arena.grad,
                             opt.arena.decay_mask, opt._m, opt._v, opt._tmp,
                             context="optimizer state")
        probs = model.predict_proba(split)
        assert_compute_dtype(probs, context="predict_proba")
        assert probs.dtype == get_dtype()
        loss, acc = model.evaluate(split)
        assert isinstance(loss, float) and isinstance(acc, float)

    def test_assert_compute_dtype_helper(self):
        assert_compute_dtype(np.zeros(3, dtype=get_dtype()),
                             np.zeros(3, dtype=np.int32), None)
        with pytest.raises(TypeError, match="float64"):
            assert_compute_dtype(np.zeros(3, dtype=np.float64))


class TestArenaSharedMemoryRoundTrip:
    """The DDP substrate: an arena must survive a trip through a
    ``shared_memory`` segment — map, mutate via view, remap — with every
    parameter byte preserved and every grad view still aliasing."""

    def _segment(self, nbytes, tag):
        from repro.train.ddp import DDP_NAME_PREFIX

        return shared_memory.SharedMemory(
            name=f"{DDP_NAME_PREFIX}-{os.getpid()}-arenatest-{tag}",
            create=True, size=max(1, nbytes))

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_round_trip_preserves_every_byte(self, seed):
        model = TwoLayer(rng=seed)
        arena = ParameterArena(model)
        baseline = {k: v.copy() for k, v in model.state_dict().items()}
        seg = self._segment(arena.data.nbytes, f"data{seed}")
        try:
            view = np.ndarray((arena.size,), arena.data.dtype, seg.buf)
            arena.rebind(data=view)
            # map: values carried over, parameter views alias the segment
            for key, expected in baseline.items():
                np.testing.assert_array_equal(model.state_dict()[key],
                                              expected, err_msg=key)
            assert np.shares_memory(model.a.W.data, view)
            # mutate via a *second* view over the same segment: the model
            # must see it (shared mapping, not a copy)
            other = np.ndarray((arena.size,), arena.data.dtype, seg.buf)
            other += 1.0
            np.testing.assert_array_equal(
                model.a.W.data.reshape(-1),
                baseline["a.W"].reshape(-1) + 1.0)
            # remap back to private memory: bytes preserved again
            arena.rebind(data=np.empty_like(view))
            view = other = None
        finally:
            seg.close()
            seg.unlink()
        for key, expected in baseline.items():
            np.testing.assert_array_equal(model.state_dict()[key],
                                          expected + 1.0, err_msg=key)
        assert not np.shares_memory(model.a.W.data, arena.grad)

    def test_grad_rebind_preserves_view_aliasing(self):
        model = TwoLayer()
        arena = ParameterArena(model)
        model.a.W.grad += 2.5
        seg = self._segment(arena.grad.nbytes, "grad")
        try:
            view = np.ndarray((arena.size,), arena.grad.dtype, seg.buf)
            arena.rebind(grad=view)
            assert np.shares_memory(model.a.W.grad, view)
            assert float(model.a.W.grad[0, 0]) == 2.5  # carried over
            # layer-local accumulation lands in the shared buffer ...
            model.b.W.grad += 1.0
            region = dict((n, r) for n, r, _ in arena.slices)["b.W"]
            assert (view[region] == 1.0).all()
            # ... and whole-arena ops see the shared buffer
            arena.zero_grad()
            assert (model.a.W.grad == 0).all() and (view == 0).all()
            arena.rebind(grad=np.zeros_like(view))
            view = None
        finally:
            seg.close()
            seg.unlink()
        model.a.W.grad += 1.0  # still aliased after the return trip
        assert arena.grad_norm() > 0

    def test_rebind_rejects_wrong_shape_or_dtype(self):
        arena = ParameterArena(TwoLayer())
        with pytest.raises(ValueError, match="rebind"):
            arena.rebind(data=np.zeros(arena.size + 1, dtype=get_dtype()))
        with pytest.raises(ValueError, match="rebind"):
            arena.rebind(grad=np.zeros(arena.size, dtype=np.float64))


class TestFusedAdamWSerialization:
    """Regression (PR 9 fix): the optimizer's step count and moment
    buffers must serialize with the arena — restoring parameters alone
    makes a resumed run diverge from an uninterrupted one."""

    def _grads_for(self, step):
        return np.random.default_rng([42, step])

    def _drive(self, opt, steps, start=0):
        for step in range(start, start + steps):
            opt.zero_grad()
            opt.arena.grad += self._grads_for(step).normal(
                size=opt.arena.size).astype(get_dtype())
            opt.step()

    def test_resume_is_bit_identical(self):
        uninterrupted = FusedAdamW(TwoLayer(rng=1), lr=3e-3)
        self._drive(uninterrupted, 10)

        first = FusedAdamW(TwoLayer(rng=1), lr=3e-3)
        self._drive(first, 5)
        state = first.state_dict()
        # snapshot is decoupled from live buffers
        first.arena.data += 1.0
        assert not np.array_equal(state["data"], first.arena.data)

        resumed = FusedAdamW(TwoLayer(rng=2), lr=3e-3)  # cold weights
        resumed.load_state_dict(state)
        assert resumed.t == 5
        self._drive(resumed, 5, start=5)
        np.testing.assert_array_equal(uninterrupted.arena.data,
                                      resumed.arena.data)
        np.testing.assert_array_equal(uninterrupted._m, resumed._m)
        np.testing.assert_array_equal(uninterrupted._v, resumed._v)

    def test_resume_without_moments_diverges(self):
        """The failure mode the fix closes: params-only restore resets
        bias correction + momentum and the trajectories split."""
        uninterrupted = FusedAdamW(TwoLayer(rng=1), lr=3e-3)
        self._drive(uninterrupted, 10)

        first = FusedAdamW(TwoLayer(rng=1), lr=3e-3)
        self._drive(first, 5)
        state = first.state_dict()

        crippled = FusedAdamW(TwoLayer(rng=2), lr=3e-3)
        crippled.arena.data[...] = state["data"]  # params only
        self._drive(crippled, 5, start=5)
        assert not np.array_equal(uninterrupted.arena.data,
                                  crippled.arena.data)

    def test_load_validates_keys_and_shapes(self):
        opt = FusedAdamW(TwoLayer())
        state = opt.state_dict()
        with pytest.raises(KeyError, match="missing"):
            opt.load_state_dict({k: state[k] for k in ("t", "m")})
        bad = dict(state)
        bad["v"] = np.zeros(3, dtype=get_dtype())
        with pytest.raises(ValueError, match="shape"):
            opt.load_state_dict(bad)

    def test_load_writes_in_place(self):
        """In-place restore: parameter views (and any shared segment the
        arena lives in) must stay valid across a load."""
        model = TwoLayer()
        opt = FusedAdamW(model)
        state = opt.state_dict()
        data_buf, m_buf = opt.arena.data, opt._m
        opt.load_state_dict(state)
        assert opt.arena.data is data_buf and opt._m is m_buf
        assert np.shares_memory(model.a.W.data, opt.arena.data)


class TestBufferPool:
    def test_slot_reuse_and_growth(self):
        from repro.nn import BufferPool

        pool = BufferPool()
        a = pool.get("x", (4, 8), np.float32)
        b = pool.get("x", (4, 8), np.float32)
        assert a.base is b.base  # same backing buffer, reused
        smaller = pool.get("x", (2, 8), np.float32)
        assert smaller.base is b.base  # shrinking is a view, no realloc
        bigger = pool.get("x", (8, 8), np.float32)
        assert bigger.base is not b.base  # outgrew the slot -> fresh buffer
        other = pool.get("y", (4, 8), np.float32)
        assert other.base is not bigger.base  # slots never share storage

    def test_pooling_disabled_allocates_fresh(self):
        from repro.nn import BufferPool, pooling_disabled, pooling_enabled

        pool = BufferPool()
        assert pooling_enabled()
        with pooling_disabled():
            assert not pooling_enabled()
            a = pool.get("x", (4,), np.float32)
            b = pool.get("x", (4,), np.float32)
            assert a is not b and a.base is None  # plain np.empty each call
            assert len(pool) == 0  # nothing retained while disabled
        assert pooling_enabled()
