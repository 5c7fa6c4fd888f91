"""Determinism layer for the shared-memory data-parallel trainer.

The headline contract of ``repro.train.ddp``: N-worker training is
**bit-identical** to single-process training on the same seed — the same
per-step loss trajectory, the same final arena bytes, the same optimizer
moments.  That only holds because the gradient arithmetic is defined over
a fixed micro-shard grid independent of the worker count, so this file
sweeps the places where that construction could silently break:

* worker counts 1 vs {2, 3, 4}, with and without dropout reseeding in play;
* uneven batch remainders and batches smaller than the shard grid;
* repeat runs (same seed → same bytes; different seed → different bytes);
* a worker dying mid-step: a clean :class:`WorkerDied`, no ``/dev/shm``
  leak, and an arena frozen exactly at the last *completed* step;
* checkpoint/resume through ``FusedAdamW.state_dict`` — a resumed run is
  bit-identical to an uninterrupted one (and provably diverges when the
  moments are dropped, the regression this PR fixes);
* the model-level wiring (``MLMPretrainer.fit`` / ``PragFormer.fit`` with
  ``n_workers=`` and without it, the ``repro train --workers`` flag);
* one OpenBLAS thread on every rank, rank 0's count restored on close
  and on the failure path, and no change at all on another BLAS.
"""

import glob
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.data.encoding import EncodedSplit
from repro.models.pragformer import PragFormer, PragFormerConfig
from repro.models.pretrain import MLMConfig, MLMPretrainer
from repro.nn import EncoderConfig, FusedAdamW, cross_entropy
from repro.nn.dtype import get_dtype
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.tokenize.vocab import Vocab
from repro.train import (
    DDP_NAME_PREFIX,
    DDPConfig,
    DataParallelTrainer,
    WorkerDied,
    reseed_stochastic,
    shard_bounds,
    shard_rng,
)
from repro.utils import blas


def _ddp_segments():
    return sorted(glob.glob(f"/dev/shm/{DDP_NAME_PREFIX}-*"))


class _Toy(Module):
    """Linear-dropout-linear classifier: small, but stochastic in train
    mode, so the per-shard reseeding is actually load-bearing."""

    def __init__(self, rng=7):
        super().__init__()
        self.l1 = Linear(6, 16, rng=rng)
        self.drop = Dropout(0.25, rng=rng + 1)
        self.l2 = Linear(16, 3, rng=rng + 2)

    def forward(self, x):
        return self.l2.forward(self.drop.forward(self.l1.forward(x)))

    def backward(self, d):
        return self.l1.backward(self.drop.backward(self.l2.backward(d)))


def _toy_data(n=37, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6)).astype(get_dtype())
    y = rng.integers(0, 3, size=n).astype(np.int64)
    return X, y


def _make_shard_backward(model, X, y):
    """The canonical shard closure: reseed → forward → *sum*-reduced
    backward → (loss total, example count)."""
    ftype = get_dtype().type

    def shard_backward(sel, key):
        model.train()
        reseed_stochastic((model,), key)
        logits = model.forward(X[sel])
        loss, dlogits = cross_entropy(logits, y[sel])
        model.backward(dlogits * ftype(len(sel)))
        return float(loss) * len(sel), float(len(sel))

    return shard_backward


def _batches(n, bs):
    order = np.arange(n)
    return [order[s:s + bs] for s in range(0, n, bs)]


def _run(n_workers, *, n=37, bs=8, epochs=2, grad_shards=8, seed=5,
         grad_clip=1.0, model_rng=7):
    """One full training run; returns everything the parity tests compare."""
    X, y = _toy_data(n=n)
    model = _Toy(rng=model_rng)
    opt = FusedAdamW(model, lr=1e-2)
    cfg = DDPConfig(n_workers=n_workers, grad_shards=grad_shards, seed=seed)
    with DataParallelTrainer(opt, _make_shard_backward(model, X, y),
                             n_examples=n, config=cfg,
                             grad_clip=grad_clip) as trainer:
        epoch_losses = [trainer.run_epoch(_batches(n, bs), epoch=e)
                        for e in range(epochs)]
        step_losses = list(trainer.step_losses)
        counters = {k: (list(v) if isinstance(v, list) else v)
                    for k, v in trainer.counters.items()}
    return {
        "epoch_losses": epoch_losses,
        "step_losses": step_losses,
        "arena": opt.arena.data.copy(),
        "opt": opt.state_dict(),
        "counters": counters,
        "model_state": model.state_dict(),
    }


def _assert_bit_identical(a, b):
    assert a["step_losses"] == b["step_losses"]
    assert a["epoch_losses"] == b["epoch_losses"]
    np.testing.assert_array_equal(a["arena"], b["arena"])
    for key in ("t", "m", "v", "data"):
        np.testing.assert_array_equal(a["opt"][key], b["opt"][key],
                                      err_msg=f"optimizer {key}")
    for key in a["model_state"]:
        np.testing.assert_array_equal(a["model_state"][key],
                                      b["model_state"][key], err_msg=key)


class TestShardBounds:
    """The fixed micro-shard grid the whole determinism story rests on."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8, 9])
    def test_partition_exhaustive_and_balanced(self, shards):
        for n in range(0, 40):
            covered = []
            sizes = []
            for s in range(shards):
                lo, hi = shard_bounds(n, shards, s)
                assert 0 <= lo <= hi <= n
                covered.extend(range(lo, hi))
                sizes.append(hi - lo)
            # contiguous, exhaustive, in order — a partition of range(n)
            assert covered == list(range(n))
            # near-uniform: sizes differ by at most one
            assert max(sizes) - min(sizes) <= 1

    def test_batches_smaller_than_grid_leave_empty_shards(self):
        sizes = [shard_bounds(3, 8, s) for s in range(8)]
        assert sum(hi - lo for lo, hi in sizes) == 3
        assert sum(1 for lo, hi in sizes if hi == lo) == 5

    def test_shard_rng_streams_are_keyed_and_salted(self):
        a = shard_rng((5, 0, 1)).random(4)
        b = shard_rng((5, 0, 1)).random(4)
        np.testing.assert_array_equal(a, b)  # same key → same stream
        assert not np.array_equal(a, shard_rng((5, 0, 2)).random(4))
        assert not np.array_equal(a, shard_rng((5, 0, 1), salt=1).random(4))


class TestParity:
    """1-vs-N bit identity: the tentpole acceptance criterion."""

    @pytest.mark.parametrize("n_workers", [2, 3, 4])
    def test_n_workers_bit_identical_to_single_process(self, n_workers):
        _assert_bit_identical(_run(1), _run(n_workers))

    @pytest.mark.parametrize("grad_shards", [5, 6])
    def test_parity_holds_on_other_shard_grids(self, grad_shards):
        _assert_bit_identical(_run(1, grad_shards=grad_shards),
                              _run(2, grad_shards=grad_shards))

    def test_remainder_batches(self):
        """n=21, bs=8 → batches of 8, 8, 5: the uneven tail must shard the
        same way at every worker count."""
        _assert_bit_identical(_run(1, n=21), _run(2, n=21))
        _assert_bit_identical(_run(1, n=21), _run(4, n=21))

    def test_batch_smaller_than_shard_grid(self):
        """bs=3 with 8 shards: five shards per batch are empty, and the
        empty rows must contribute exact zeros to the reduction."""
        _assert_bit_identical(_run(1, n=10, bs=3), _run(3, n=10, bs=3))

    def test_different_grad_shards_is_a_different_trajectory(self):
        """Negative control: the grid *is* the arithmetic — changing it
        changes the floats (shard-local dropout keys, reduction layout),
        which is exactly why it is pinned independent of n_workers."""
        assert _run(1, grad_shards=8)["step_losses"] != \
            _run(1, grad_shards=5)["step_losses"]


class TestSeededDeterminism:
    def test_repeat_runs_bit_identical(self):
        _assert_bit_identical(_run(2), _run(2))
        _assert_bit_identical(_run(3), _run(3))

    def test_different_seed_differs(self):
        """Negative control: if the seed doesn't move the trajectory, the
        parity assertions above are vacuous."""
        assert _run(2, seed=5)["step_losses"] != \
            _run(2, seed=6)["step_losses"]


class TestCounters:
    def test_reduce_and_example_accounting(self):
        result = _run(2, n=32, bs=8, epochs=2)
        counters = result["counters"]
        assert counters["steps"] == 8  # 4 batches x 2 epochs
        assert counters["reduce_ops"] == counters["steps"]  # ONE sum per step
        arena_bytes = result["arena"].nbytes
        assert counters["grad_bytes_reduced"] == \
            counters["steps"] * 8 * arena_bytes
        assert counters["examples"] == 64
        # balanced batches shard evenly: perfect 2x counter speedup
        assert counters["per_rank_examples"] == [32, 32]
        speedup = counters["examples"] / max(counters["per_rank_examples"])
        assert speedup == 2.0

    def test_single_process_counters(self):
        counters = _run(1, n=32, bs=8, epochs=1)["counters"]
        assert counters["per_rank_examples"] == [32]
        assert counters["reduce_ops"] == 4


class TestWorkerDeath:
    def test_death_mid_step_raises_cleanly_and_unlinks(self):
        X, y = _toy_data(n=16)
        model = _Toy()
        opt = FusedAdamW(model, lr=1e-2)
        cfg = DDPConfig(n_workers=2, seed=5, die_at_step=1,
                        barrier_timeout_s=20.0)
        before = _ddp_segments()
        trainer = DataParallelTrainer(opt, _make_shard_backward(model, X, y),
                                      n_examples=16, config=cfg)
        with pytest.raises(WorkerDied, match="died mid-step"):
            trainer.run_epoch(_batches(16, 8))
        # every segment unlinked on the failure path
        assert _ddp_segments() == before
        # step 0 completed, the dying step 1 was never applied
        assert opt.t == 1
        trainer.close()  # idempotent after the failure cleanup

    def test_arena_untorn_at_last_completed_step(self):
        """After a crash at step 1, params/moments must equal a clean run
        truncated to 1 step — no partial update leaked into the arena."""
        X, y = _toy_data(n=16)
        reference = _Toy()
        ref_opt = FusedAdamW(reference, lr=1e-2)
        with DataParallelTrainer(
                ref_opt, _make_shard_backward(reference, X, y),
                n_examples=16, config=DDPConfig(n_workers=1, seed=5)) as ref:
            ref.run_epoch([np.arange(8)])  # exactly one step

        crashed = _Toy()
        opt = FusedAdamW(crashed, lr=1e-2)
        cfg = DDPConfig(n_workers=2, seed=5, die_at_step=1,
                        barrier_timeout_s=20.0)
        trainer = DataParallelTrainer(opt, _make_shard_backward(crashed, X, y),
                                      n_examples=16, config=cfg)
        with pytest.raises(WorkerDied):
            trainer.run_epoch(_batches(16, 8))
        np.testing.assert_array_equal(opt.arena.data, ref_opt.arena.data)
        np.testing.assert_array_equal(opt._m, ref_opt._m)
        np.testing.assert_array_equal(opt._v, ref_opt._v)
        # the model stays usable on private memory after the abort
        crashed.eval()
        out = crashed.forward(X[:4])
        assert out.shape == (4, 3) and np.isfinite(out).all()


class TestResume:
    """FusedAdamW.state_dict carries t + moments + arena bytes, so a
    resumed DDP run is bit-identical to an uninterrupted one."""

    def _half_runs(self, load_moments):
        X, y = _toy_data(n=32)
        batches = _batches(32, 8)

        uninterrupted = _Toy()
        opt_u = FusedAdamW(uninterrupted, lr=1e-2)
        with DataParallelTrainer(
                opt_u, _make_shard_backward(uninterrupted, X, y),
                n_examples=32, config=DDPConfig(n_workers=2, seed=9),
                grad_clip=1.0) as trainer:
            trainer.run_epoch(batches, epoch=0)
            trainer.run_epoch(batches, epoch=1)
            losses_u = list(trainer.step_losses)

        first = _Toy()
        opt_a = FusedAdamW(first, lr=1e-2)
        with DataParallelTrainer(
                opt_a, _make_shard_backward(first, X, y),
                n_examples=32, config=DDPConfig(n_workers=2, seed=9),
                grad_clip=1.0) as trainer:
            trainer.run_epoch(batches, epoch=0)
            losses_a = list(trainer.step_losses)
            checkpoint = opt_a.state_dict()

        resumed = _Toy(rng=99)  # cold weights: everything comes from state
        opt_b = FusedAdamW(resumed, lr=1e-2)
        if load_moments:
            opt_b.load_state_dict(checkpoint)
        else:
            # the pre-fix failure mode: params restored, moments dropped
            opt_b.arena.data[...] = checkpoint["data"]
        with DataParallelTrainer(
                opt_b, _make_shard_backward(resumed, X, y),
                n_examples=32, config=DDPConfig(n_workers=2, seed=9),
                grad_clip=1.0) as trainer:
            trainer.run_epoch(batches, epoch=1)
            losses_b = losses_a + list(trainer.step_losses)
        return losses_u, losses_b, opt_u, opt_b

    def test_resumed_run_matches_uninterrupted(self):
        losses_u, losses_b, opt_u, opt_b = self._half_runs(load_moments=True)
        assert losses_u == losses_b
        np.testing.assert_array_equal(opt_u.arena.data, opt_b.arena.data)
        np.testing.assert_array_equal(opt_u._m, opt_b._m)
        np.testing.assert_array_equal(opt_u._v, opt_b._v)
        assert opt_u.t == opt_b.t

    def test_resume_without_moments_diverges(self):
        """Negative control — and the regression this PR fixes: restoring
        arena bytes alone resets bias correction and momentum, so the
        trajectory provably departs from the uninterrupted run."""
        losses_u, losses_b, *_ = self._half_runs(load_moments=False)
        assert losses_u != losses_b


class TestValidationAndLifecycle:
    def test_bad_configs_rejected(self):
        X, y = _toy_data(n=8)
        model = _Toy()
        opt = FusedAdamW(model)
        sb = _make_shard_backward(model, X, y)
        with pytest.raises(ValueError, match="n_workers"):
            DataParallelTrainer(opt, sb, n_examples=8,
                                config=DDPConfig(n_workers=0))
        with pytest.raises(ValueError, match="grad_shards"):
            DataParallelTrainer(opt, sb, n_examples=8,
                                config=DDPConfig(n_workers=4, grad_shards=2))

    def test_run_after_close_rejected(self):
        X, y = _toy_data(n=8)
        model = _Toy()
        trainer = DataParallelTrainer(FusedAdamW(model),
                                      _make_shard_backward(model, X, y),
                                      n_examples=8)
        trainer.close()
        with pytest.raises(RuntimeError, match="closed"):
            trainer.run_epoch([np.arange(4)])
        trainer.close()  # idempotent

    def test_oversized_epoch_rejected(self):
        X, y = _toy_data(n=8)
        model = _Toy()
        with DataParallelTrainer(FusedAdamW(model),
                                 _make_shard_backward(model, X, y),
                                 n_examples=4) as trainer:
            with pytest.raises(ValueError, match="sized"):
                trainer.run_epoch([np.arange(8)])

    def test_empty_epoch_is_a_noop(self):
        X, y = _toy_data(n=8)
        model = _Toy()
        with DataParallelTrainer(FusedAdamW(model),
                                 _make_shard_backward(model, X, y),
                                 n_examples=8) as trainer:
            assert trainer.run_epoch([]) == 0.0
            assert trainer.counters["steps"] == 0

    def test_close_releases_segments_and_model_survives(self):
        X, y = _toy_data(n=8)
        model = _Toy()
        opt = FusedAdamW(model)
        before = _ddp_segments()
        trainer = DataParallelTrainer(opt, _make_shard_backward(model, X, y),
                                      n_examples=8,
                                      config=DDPConfig(n_workers=2))
        assert len(_ddp_segments()) == len(before) + 3
        trainer.run_epoch([np.arange(8)])
        expected = opt.arena.data.copy()
        trainer.close()
        assert _ddp_segments() == before
        # arena moved back to private memory with identical bytes
        np.testing.assert_array_equal(opt.arena.data, expected)
        model.eval()
        assert np.isfinite(model.forward(X[:2])).all()


class TestModelWiring:
    """`n_workers=` through the real training loops."""

    def _mlm_setup(self):
        vocab = Vocab.build([[f"t{i}" for i in range(20)]], min_freq=1)
        rng = np.random.default_rng(3)
        n, length = 23, 12
        ids = rng.integers(4, len(vocab), size=(n, length)).astype(np.int32)
        ids[:, 0] = vocab.cls_id
        mask = np.ones((n, length), dtype=np.float32)
        mask[5:, 9:] = 0.0
        cfg = EncoderConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                            n_layers=1, d_ff=32, max_len=length, dropout=0.1)
        return vocab, cfg, ids, mask

    def test_mlm_pretrainer_parity(self):
        vocab, cfg, ids, mask = self._mlm_setup()

        def run(n_workers):
            pre = MLMPretrainer(cfg, vocab, MLMConfig(batch_size=8), rng=11)
            losses = pre.fit(ids, mask, epochs=2, n_workers=n_workers)
            return losses, pre.ddp_stats, pre.encoder.state_dict()

        losses_1, stats_1, enc_1 = run(1)
        losses_2, stats_2, enc_2 = run(2)
        assert losses_1 == losses_2
        assert stats_1["step_losses"] == stats_2["step_losses"]
        assert stats_1["counters"]["reduce_ops"] == \
            stats_1["counters"]["steps"]
        for key in enc_1:
            np.testing.assert_array_equal(enc_1[key], enc_2[key], err_msg=key)

    @pytest.mark.parametrize("n_workers", [2, 1])
    def test_mlm_fit_calls_continue_one_optimizer(self, n_workers):
        """Two fits step one optimizer: Adam's step count (bias
        correction) and moments carry over, at one and at two workers."""
        vocab, cfg, ids, mask = self._mlm_setup()
        pre = MLMPretrainer(cfg, vocab, MLMConfig(batch_size=8), rng=11)
        pre.fit(ids, mask, epochs=2, n_workers=n_workers)
        first = pre._optimizer
        pre.fit(ids, mask, epochs=1, n_workers=n_workers)
        steps_per_epoch = -(-len(ids) // 8)
        assert pre._optimizer is first
        assert first.t == 3 * steps_per_epoch

    def test_mlm_pretrainer_parity_one_rank_per_shard(self):
        """The default grid at its widest: as many workers as shards,
        one shard per rank, against one worker."""
        vocab, cfg, ids, mask = self._mlm_setup()
        grid = DDPConfig().grad_shards

        def run(n_workers):
            pre = MLMPretrainer(cfg, vocab, MLMConfig(batch_size=8), rng=11)
            losses = pre.fit(ids, mask, epochs=2, n_workers=n_workers)
            return losses, pre.ddp_stats, pre.encoder.state_dict()

        losses_1, stats_1, enc_1 = run(1)
        losses_n, stats_n, enc_n = run(grid)
        assert losses_1 == losses_n
        assert stats_1["step_losses"] == stats_n["step_losses"]
        for stats in (stats_1, stats_n):
            assert stats["counters"]["reduce_ops"] == \
                stats["counters"]["steps"]
        assert len(stats_n["counters"]["per_rank_examples"]) == grid
        for key in enc_1:
            np.testing.assert_array_equal(enc_1[key], enc_n[key], err_msg=key)

    def test_mlm_fit_default_is_the_multi_worker_trajectory(self):
        """``fit()`` with no ``n_workers`` trains the one-worker loop:
        bit-identical step losses and final arena bytes to two workers."""
        vocab, cfg, ids, mask = self._mlm_setup()

        def run(**kwargs):
            pre = MLMPretrainer(cfg, vocab, MLMConfig(batch_size=8), rng=11)
            losses = pre.fit(ids, mask, epochs=2, **kwargs)
            return losses, pre.ddp_stats, pre._optimizer.arena.data.tobytes()

        losses_d, stats_d, arena_d = run()
        losses_2, stats_2, arena_2 = run(n_workers=2)
        assert len(stats_d["counters"]["per_rank_examples"]) == 1
        assert losses_d == losses_2
        assert stats_d["step_losses"] == stats_2["step_losses"]
        assert arena_d == arena_2

    def _split(self, n=23, length=12, vocab=20, seed=3):
        rng = np.random.default_rng(seed)
        ids = rng.integers(4, vocab, size=(n, length)).astype(np.int32)
        ids[:, 0] = 2
        mask = np.ones((n, length), dtype=np.float32)
        mask[5:, 9:] = 0.0
        labels = rng.integers(0, 2, size=n).astype(np.int64)
        return EncodedSplit(ids, mask, labels)

    def test_pragformer_parity_with_validation_and_warmup(self):
        cfg = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                               d_head_hidden=8, max_len=12, batch_size=8,
                               warmup_frac=0.1)

        def run(n_workers):
            model = PragFormer(20, cfg, rng=5)
            history = model.fit(self._split(), self._split(seed=4), epochs=2,
                                n_workers=n_workers)
            return history, model.encoder.state_dict(), model.head.state_dict()

        hist_1, enc_1, head_1 = run(1)
        hist_2, enc_2, head_2 = run(2)
        assert hist_1.train_loss == hist_2.train_loss
        assert hist_1.valid_loss == hist_2.valid_loss
        assert hist_1.valid_accuracy == hist_2.valid_accuracy
        for key in enc_1:
            np.testing.assert_array_equal(enc_1[key], enc_2[key], err_msg=key)
        for key in head_1:
            np.testing.assert_array_equal(head_1[key], head_2[key],
                                          err_msg=key)

    def test_pragformer_parity_one_rank_per_shard(self):
        cfg = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                               d_head_hidden=8, max_len=12, batch_size=8,
                               warmup_frac=0.1)
        grid = DDPConfig().grad_shards

        def run(n_workers):
            model = PragFormer(20, cfg, rng=5)
            history = model.fit(self._split(), self._split(seed=4), epochs=2,
                                n_workers=n_workers)
            return (history, model.ddp_stats, model.encoder.state_dict(),
                    model.head.state_dict())

        hist_1, stats_1, enc_1, head_1 = run(1)
        hist_n, stats_n, enc_n, head_n = run(grid)
        assert stats_1["step_losses"] == stats_n["step_losses"]
        assert hist_1.train_loss == hist_n.train_loss
        assert hist_1.valid_loss == hist_n.valid_loss
        for stats in (stats_1, stats_n):
            assert stats["counters"]["reduce_ops"] == \
                stats["counters"]["steps"]
        assert len(stats_n["counters"]["per_rank_examples"]) == grid
        for key in enc_1:
            np.testing.assert_array_equal(enc_1[key], enc_n[key], err_msg=key)
        for key in head_1:
            np.testing.assert_array_equal(head_1[key], head_n[key],
                                          err_msg=key)

    def test_pragformer_fit_default_is_the_multi_worker_trajectory(self):
        cfg = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                               d_head_hidden=8, max_len=12, batch_size=8)

        def run(**kwargs):
            model = PragFormer(20, cfg, rng=5)
            history = model.fit(self._split(), self._split(seed=4), epochs=2,
                                **kwargs)
            return (history, model.ddp_stats,
                    model._optimizer.arena.data.tobytes())

        hist_d, stats_d, arena_d = run()
        hist_2, stats_2, arena_2 = run(n_workers=2)
        assert len(stats_d["counters"]["per_rank_examples"]) == 1
        assert stats_d["step_losses"] == stats_2["step_losses"]
        assert hist_d.train_loss == hist_2.train_loss
        assert hist_d.valid_loss == hist_2.valid_loss
        assert arena_d == arena_2

    def test_cli_train_accepts_workers_flag(self):
        from unittest import mock

        from repro import cli

        captured = {}

        def fake_fn(args):
            captured.update(vars(args))
            return 0

        with mock.patch.object(cli, "_cmd_train", fake_fn):
            assert cli.main(["train", "--workers", "2"]) == 0
        assert captured["workers"] == 2
        captured.clear()
        with mock.patch.object(cli, "_cmd_train", fake_fn):
            assert cli.main(["train"]) == 0
        assert captured["workers"] == 1

    def test_cli_train_rejects_workers_outside_grid(self, capsys):
        """A worker count the grid cannot feed fails at argument parsing
        (exit 2, naming the grid size), before any corpus is built."""
        from unittest import mock

        from repro import cli

        grid = DDPConfig().grad_shards
        for workers in ("0", str(grid + 1), "-1", "x"):
            with mock.patch.object(cli, "_cmd_train") as fake_fn:
                with pytest.raises(SystemExit) as exc:
                    cli.main(["train", "--workers", workers])
            assert exc.value.code == 2
            assert not fake_fn.called
            err = capsys.readouterr().err
            assert "--workers" in err and f"1..{grid}" in err
            assert f"grid has {grid} shards" in err
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        assert f"at most {grid}" in " ".join(capsys.readouterr().out.split())


@pytest.fixture
def two_blas_threads():
    """This process on two OpenBLAS threads for the test, then back to
    its previous count; skipped on another BLAS."""
    if blas.openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS in this process")
    before = blas.set_blas_threads(2)
    yield
    blas.set_blas_threads(before)


def _thread_count_backward(sel, key):
    """A shard that reports its rank's OpenBLAS thread count as its loss:
    a step's loss is then the mean count over the ranks' shards."""
    get, _ = blas.openblas_thread_calls()
    return float(get()) * len(sel), float(len(sel))


class TestBlasThreads:
    """Every rank trains on one OpenBLAS thread; rank 0 gets its own
    count back when the trainer closes, also on the failure path."""

    def _trainer(self, model, shard_backward, **cfg):
        opt = FusedAdamW(model, lr=1e-2)
        return DataParallelTrainer(opt, shard_backward, n_examples=16,
                                   config=DDPConfig(seed=5, **cfg))

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_every_rank_reads_one_thread(self, two_blas_threads, n_workers):
        with self._trainer(_Toy(), _thread_count_backward,
                           n_workers=n_workers) as trainer:
            trainer.run_epoch(_batches(16, 8))
            assert trainer.step_losses == [1.0, 1.0]
            get, _ = blas.openblas_thread_calls()
            assert get() == 1

    def test_forked_rank_starts_no_blas_pool(self, two_blas_threads):
        """A forked rank trains on the one thread it inherits, with no
        thread but its own, through real GEMMs: setting the count again
        after the fork starts an OpenBLAS pool thread there, whose
        spin-wait cost 2-worker fits about 20% on a 2-core host."""
        parent = os.getpid()
        threads = mp.Array("i", 4)

        def shard_backward(sel, key):
            a = np.ones((64, 64))
            a @ a
            if os.getpid() != parent:
                with open("/proc/self/status") as status:
                    threads[key[2]] = next(int(line.split()[1])
                                           for line in status
                                           if line.startswith("Threads:"))
            return 0.0, float(len(sel))

        with self._trainer(_Toy(), shard_backward, n_workers=2) as trainer:
            trainer.run_epoch(_batches(16, 8))
        assert list(threads) == [0, 1, 0, 1]

    def test_rank0_count_restored_after_close(self, two_blas_threads):
        get, _ = blas.openblas_thread_calls()
        trainer = self._trainer(_Toy(), _thread_count_backward, n_workers=2)
        assert get() == 1
        trainer.close()
        assert get() == 2
        trainer.close()  # idempotent: nothing left to restore
        assert get() == 2

    def test_rank0_count_restored_after_worker_death(self, two_blas_threads):
        X, y = _toy_data(n=16)
        model = _Toy()
        trainer = self._trainer(model, _make_shard_backward(model, X, y),
                                n_workers=2, die_at_step=1,
                                barrier_timeout_s=20.0)
        with pytest.raises(WorkerDied):
            trainer.run_epoch(_batches(16, 8))
        get, _ = blas.openblas_thread_calls()
        assert get() == 2

    def test_missing_openblas_is_a_noop(self, monkeypatch):
        """On another BLAS the trainer changes nothing and trains the
        same bytes."""
        reference = _run(2)
        real = blas.openblas_thread_calls()
        monkeypatch.setattr(blas, "openblas_thread_calls", lambda: None)
        assert blas.set_blas_threads(1) is None
        before = real[0]() if real is not None else None
        _assert_bit_identical(_run(2), reference)
        _assert_bit_identical(_run(1), reference)
        if real is not None:
            assert real[0]() == before

    def test_pragformer_parity_from_two_parent_threads(self,
                                                       two_blas_threads):
        """1 vs 2 workers stay bit-identical when the parent starts on two
        threads: the trainer pins rank 0 as well as the forked rank."""
        cfg = PragFormerConfig(d_model=32, n_heads=2, n_layers=2, d_ff=64,
                               d_head_hidden=16, max_len=12, batch_size=8)
        split = TestModelWiring()._split(n=40, vocab=60)

        def run(n_workers):
            model = PragFormer(60, cfg, rng=5)
            model.fit(split, epochs=2, n_workers=n_workers)
            return (model.ddp_stats["step_losses"],
                    model._optimizer.arena.data.tobytes())

        assert run(1) == run(2)
