"""Training-dynamics tests: overfitting capacity, MLM loss baselines,
dropout behaviour, and gradient clipping engagement."""

import numpy as np

from repro.data.encoding import EncodedSplit
from repro.models import MLMConfig, MLMPretrainer, PragFormer, PragFormerConfig
from repro.nn import EncoderConfig
from repro.tokenize import Vocab

CFG = PragFormerConfig(d_model=32, n_heads=2, n_layers=1, d_ff=64,
                       d_head_hidden=16, max_len=16, batch_size=16, seed=0)


def random_split(seed, n=48, length=12, vocab=20):
    gen = np.random.default_rng(seed)
    ids = gen.integers(4, vocab, size=(n, length)).astype(np.int64)
    ids[:, 0] = 2
    labels = gen.integers(0, 2, size=n).astype(np.int64)
    return EncodedSplit(ids, np.ones((n, length)), labels)


class TestOverfitting:
    def test_memorizes_random_labels(self):
        """A transformer with enough steps must drive training loss toward
        zero even on random labels — the classic capacity sanity check."""
        split = random_split(0, n=32)
        model = PragFormer(20, CFG)
        history = model.fit(split, epochs=40)
        assert history.train_loss[-1] < 0.15
        assert (model.predict(split) == split.labels).mean() > 0.95


class TestMLMDynamics:
    def test_loss_beats_uniform_baseline_on_structured_data(self):
        vocab = Vocab.build([[f"tok{k}" for k in range(30)]])
        enc_cfg = EncoderConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                                n_layers=1, d_ff=32, max_len=16)
        # fully positional data: token at position j is always 4 + (j % 6),
        # so a masked position is predictable from its position embedding
        positions = np.arange(16)
        ids = np.tile(4 + (positions % 6), (64, 1)).astype(np.int64)
        ids[:, 0] = vocab.cls_id
        mask = np.ones((64, 16))
        pre = MLMPretrainer(enc_cfg, vocab, MLMConfig(batch_size=16), rng=0)
        losses = pre.fit(ids, mask, epochs=6)
        uniform = np.log(len(vocab))
        assert losses[-1] < uniform
        assert losses[-1] < losses[0]


class TestDropoutBehaviour:
    def test_train_mode_is_stochastic_eval_is_not(self):
        split = random_split(2, n=8)
        model = PragFormer(20, CFG)
        model.encoder.train()
        model.head.train()
        logits_a = model._forward_logits(split.ids, split.mask)
        logits_b = model._forward_logits(split.ids, split.mask)
        assert not np.allclose(logits_a, logits_b)
        p1 = model.predict_proba(split)
        p2 = model.predict_proba(split)
        np.testing.assert_array_equal(p1, p2)


class TestGradClip:
    def test_clip_engages_on_large_loss(self):
        from repro.nn.losses import cross_entropy

        split = random_split(3, n=16)
        model = PragFormer(20, CFG)
        opt, _ = model._optimizer_and_schedule(len(split), epochs=1)
        logits = model._forward_logits(split.ids, split.mask)
        # inflate gradients artificially
        _, dlogits = cross_entropy(logits * 50, split.labels)
        opt.zero_grad()
        model._backward(dlogits * 100)
        norm_before = opt.clip_grad_norm(max_norm=1.0)
        norm_after = opt.clip_grad_norm(max_norm=1.0)
        assert norm_before > 1.0
        assert norm_after <= 1.0 + 1e-6
