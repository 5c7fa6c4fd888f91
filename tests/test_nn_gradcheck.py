"""Numerical gradient checks for every layer's backward pass.

Each check perturbs inputs/parameters with central differences and compares
against the analytic gradients.  Dropout is disabled (eval mode) during
checks since its mask is resampled per forward.
"""

import numpy as np
import pytest

from repro.nn import (
    ClassificationHead,
    EncoderConfig,
    FeedForward,
    GELU,
    LayerNorm,
    Linear,
    MLMHead,
    MultiHeadSelfAttention,
    ReLU,
    TransformerEncoder,
    TransformerEncoderLayer,
    cross_entropy,
    masked_cross_entropy,
)
from repro.nn.layers import Embedding

from repro.nn.dtype import use_dtype

RNG = np.random.default_rng(0)
EPS = 1e-6
TOL = 1e-6


@pytest.fixture(autouse=True)
def _float64_for_gradchecks():
    """Central differences need float64; the substrate defaults to float32."""
    with use_dtype(np.float64):
        yield


def numeric_grad(f, x, eps=EPS):
    """Central-difference gradient of scalar f at array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_input_grad(module, x, mask=None, tol=TOL):
    """Verify d(sum(out))/dx via module.backward against finite differences."""
    module.eval()

    def loss():
        out = module.forward(x, mask) if mask is not None else module.forward(x)
        return float(out.sum())

    out = module.forward(x, mask) if mask is not None else module.forward(x)
    module.zero_grad()
    dx = module.backward(np.ones_like(out))
    num = numeric_grad(loss, x)
    np.testing.assert_allclose(dx, num, rtol=1e-4, atol=tol)


def check_param_grads(module, x, mask=None, tol=TOL):
    """Verify every parameter gradient against finite differences."""
    module.eval()

    def loss():
        out = module.forward(x, mask) if mask is not None else module.forward(x)
        return float(out.sum())

    out = module.forward(x, mask) if mask is not None else module.forward(x)
    module.zero_grad()
    module.backward(np.ones_like(out))
    for name, p in module.named_parameters():
        num = numeric_grad(loss, p.data)
        np.testing.assert_allclose(p.grad, num, rtol=1e-4, atol=tol,
                                   err_msg=f"param {name}")


class TestLinear:
    def test_input_grad(self):
        check_input_grad(Linear(5, 3, rng=1), RNG.normal(size=(4, 5)))

    def test_param_grads(self):
        check_param_grads(Linear(4, 3, rng=2), RNG.normal(size=(2, 4)))

    def test_3d_input(self):
        check_input_grad(Linear(4, 6, rng=3), RNG.normal(size=(2, 3, 4)))

    def test_no_bias(self):
        layer = Linear(3, 3, rng=4, bias=False)
        assert layer.b is None
        check_input_grad(layer, RNG.normal(size=(2, 3)))


class TestActivations:
    def test_relu_grad(self):
        check_input_grad(ReLU(), RNG.normal(size=(3, 4)) + 0.1)

    def test_gelu_grad(self):
        check_input_grad(GELU(), RNG.normal(size=(3, 4)))

    def test_gelu_matches_reference_values(self):
        g = GELU()
        out = g.forward(np.array([0.0, 1.0, -1.0]))
        np.testing.assert_allclose(out, [0.0, 0.8412, -0.1588], atol=1e-3)


class TestResidualLayerNorm:
    """Fused ``LN(x + sublayer)`` must match the analytic LayerNorm math
    for both residual inputs and both parameters."""

    def _check(self, d, shape):
        from repro.nn import ResidualLayerNorm

        rln = ResidualLayerNorm(d).eval()
        x = RNG.normal(size=shape)
        y = RNG.normal(size=shape)

        def loss():
            return float(rln.forward(x, y).sum())

        out = rln.forward(x, y)
        rln.zero_grad()
        ds = rln.backward(np.ones_like(out))
        # ds is the gradient w.r.t. the residual sum == either addend
        np.testing.assert_allclose(ds, numeric_grad(loss, x), rtol=1e-4, atol=TOL)
        np.testing.assert_allclose(ds, numeric_grad(loss, y), rtol=1e-4, atol=TOL)
        rln.forward(x, y)
        rln.zero_grad()
        rln.backward(np.ones_like(out))
        for name, p in rln.named_parameters():
            np.testing.assert_allclose(p.grad, numeric_grad(loss, p.data),
                                       rtol=1e-4, atol=TOL, err_msg=name)

    def test_2d(self):
        self._check(6, (3, 6))

    def test_3d(self):
        self._check(4, (2, 3, 4))

    def test_matches_unfused_layernorm(self):
        from repro.nn import LayerNorm, ResidualLayerNorm

        d = 8
        ln, rln = LayerNorm(d).eval(), ResidualLayerNorm(d).eval()
        gamma, beta = RNG.normal(size=d), RNG.normal(size=d)
        ln.gamma.data[...] = gamma
        rln.gamma.data[...] = gamma
        ln.beta.data[...] = beta
        rln.beta.data[...] = beta
        x, y = RNG.normal(size=(2, 5, d)), RNG.normal(size=(2, 5, d))
        np.testing.assert_allclose(rln.forward(x, y), ln.forward(x + y),
                                   rtol=1e-12, atol=1e-12)
        dy = RNG.normal(size=(2, 5, d))
        ln.zero_grad(); rln.zero_grad()
        np.testing.assert_allclose(rln.backward(dy.copy()), ln.backward(dy),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(rln.gamma.grad, ln.gamma.grad, rtol=1e-10)
        np.testing.assert_allclose(rln.beta.grad, ln.beta.grad, rtol=1e-10)


class TestLayerNorm:
    def test_input_grad(self):
        check_input_grad(LayerNorm(6), RNG.normal(size=(3, 6)))

    def test_param_grads(self):
        check_param_grads(LayerNorm(5), RNG.normal(size=(2, 5)))

    def test_output_normalized(self):
        ln = LayerNorm(8)
        out = ln.forward(RNG.normal(size=(4, 8)) * 10 + 5)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_3d(self):
        check_input_grad(LayerNorm(4), RNG.normal(size=(2, 3, 4)))


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=0)
        ids = np.array([[1, 2], [3, 1]])
        out = emb.forward(ids)
        np.testing.assert_array_equal(out[0, 0], emb.W.data[1])
        np.testing.assert_array_equal(out[1, 1], emb.W.data[1])

    def test_grad_accumulates_repeated_ids(self):
        emb = Embedding(5, 3, rng=0)
        ids = np.array([[1, 1, 2]])
        out = emb.forward(ids)
        emb.zero_grad()
        emb.backward(np.ones_like(out))
        # id 1 appears twice -> its grad row is 2
        np.testing.assert_allclose(emb.W.grad[1], 2.0)
        np.testing.assert_allclose(emb.W.grad[2], 1.0)
        np.testing.assert_allclose(emb.W.grad[0], 0.0)


class TestAttention:
    def test_input_grad(self):
        attn = MultiHeadSelfAttention(8, 2, dropout=0.0, rng=0)
        check_input_grad(attn, RNG.normal(size=(2, 5, 8)))

    def test_param_grads(self):
        attn = MultiHeadSelfAttention(4, 2, dropout=0.0, rng=1)
        check_param_grads(attn, RNG.normal(size=(1, 3, 4)), tol=1e-5)

    def test_masked_positions_ignored(self):
        """Changing a masked (padding) token's value must not change output
        at unmasked positions."""
        attn = MultiHeadSelfAttention(8, 2, dropout=0.0, rng=2).eval()
        x = RNG.normal(size=(1, 4, 8))
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        out1 = attn.forward(x, mask)
        x2 = x.copy()
        x2[0, 3] += 100.0
        out2 = attn.forward(x2, mask)
        np.testing.assert_allclose(out1[0, :3], out2[0, :3], atol=1e-8)

    def test_input_grad_with_mask(self):
        attn = MultiHeadSelfAttention(8, 2, dropout=0.0, rng=3)
        x = RNG.normal(size=(2, 4, 8))
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float)
        check_input_grad(attn, x, mask=mask)

    def test_attention_rows_sum_to_one(self):
        attn = MultiHeadSelfAttention(8, 2, dropout=0.0, rng=4).eval()
        mask = np.array([[1, 1, 0, 0]], dtype=float)
        attn.forward(RNG.normal(size=(1, 4, 8)), mask)
        np.testing.assert_allclose(attn.last_attention.sum(axis=-1), 1.0, atol=1e-10)
        # no mass on padding keys
        assert attn.last_attention[..., 2:].max() < 1e-8


class _ClsOnly:
    """A module's ``cls_only`` forward (the CLS row alone, (B, 1, D)) in
    the shape the gradcheck helpers drive."""

    def __init__(self, module):
        self.module = module

    def eval(self):
        self.module.eval()

    def forward(self, x, mask):
        return self.module.forward(x, mask, cls_only=True)

    def backward(self, dy):
        return self.module.backward(dy)

    def zero_grad(self):
        self.module.zero_grad()

    def named_parameters(self):
        return self.module.named_parameters()


class TestClsOnly:
    MASK = np.array([[1, 1, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]], dtype=float)

    def test_attention_grads(self):
        attn = _ClsOnly(MultiHeadSelfAttention(8, 2, dropout=0.0, rng=5))
        x = RNG.normal(size=(3, 4, 8))
        check_input_grad(attn, x, mask=self.MASK)
        check_param_grads(attn, x, mask=self.MASK, tol=1e-5)

    def test_encoder_layer_grads(self):
        cfg = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=1,
                            d_ff=16, max_len=6, dropout=0.0)
        block = TransformerEncoderLayer(cfg, rng=1)
        # sum(LN(z)) does not depend on z when gamma is uniform, which
        # would zero every input gradient on both sides of the check
        for ln in (block.ln1, block.ln2):
            ln.gamma.data[...] = RNG.normal(size=8)
        layer = _ClsOnly(block)
        x = RNG.normal(size=(3, 4, 8))
        assert layer.forward(x, self.MASK).shape == (3, 1, 8)
        check_input_grad(layer, x, mask=self.MASK, tol=1e-5)
        check_param_grads(layer, x, mask=self.MASK, tol=1e-5)


class TestFeedForwardAndLayer:
    def test_ffn_grads(self):
        ffn = FeedForward(6, 12, dropout=0.0, rng=0)
        check_input_grad(ffn, RNG.normal(size=(2, 3, 6)))

    def test_encoder_layer_input_grad(self):
        cfg = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=1,
                            d_ff=16, max_len=6, dropout=0.0)
        layer = TransformerEncoderLayer(cfg, rng=0)
        # non-uniform gamma: sum(LN(z)) is constant in z otherwise
        for ln in (layer.ln1, layer.ln2):
            ln.gamma.data[...] = RNG.normal(size=8)
        x = RNG.normal(size=(2, 4, 8))
        mask = np.ones((2, 4))
        check_input_grad(layer, x, mask=mask, tol=1e-5)


class TestEncoderEndToEnd:
    def test_full_model_param_grads_sampled(self):
        """End-to-end gradcheck through embeddings, 2 layers, and the head,
        on a sample of parameters (full check would be slow)."""
        cfg = EncoderConfig(vocab_size=13, d_model=8, n_heads=2, n_layers=2,
                            d_ff=12, max_len=7, dropout=0.0)
        enc = TransformerEncoder(cfg, rng=0).eval()
        head = ClassificationHead(8, 6, rng=1).eval()
        ids = np.array([[1, 5, 2, 0], [3, 4, 0, 0]])
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=float)
        labels = np.array([0, 1])

        def loss():
            hidden = enc.forward(ids, mask)
            logits = head.forward(hidden)
            val, _ = cross_entropy(logits, labels)
            return val

        hidden = enc.forward(ids, mask)
        logits = head.forward(hidden)
        _, dlogits = cross_entropy(logits, labels)
        enc.zero_grad(); head.zero_grad()
        enc.backward(head.backward(dlogits))

        rng = np.random.default_rng(7)
        for name, p in list(enc.named_parameters()) + list(head.named_parameters()):
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + 1e-6
                f_plus = loss()
                flat[idx] = orig - 1e-6
                f_minus = loss()
                flat[idx] = orig
                num = (f_plus - f_minus) / 2e-6
                assert abs(gflat[idx] - num) < 1e-4, f"{name}[{idx}]: {gflat[idx]} vs {num}"

    def test_position_grads_are_the_batch_sum(self):
        """Every row of a padded batch reads positions 0..L-1, so the
        position table's gradient is the batch sum of the embedding
        gradient over the first L rows (checked element by element against
        central differences) and exactly 0 beyond them."""
        cfg = EncoderConfig(vocab_size=13, d_model=6, n_heads=2, n_layers=1,
                            d_ff=8, max_len=9, dropout=0.0)
        enc = TransformerEncoder(cfg, rng=3).eval()
        head = ClassificationHead(6, 5, rng=4).eval()
        ids = np.array([[1, 5, 2, 7, 0], [3, 4, 0, 0, 0], [2, 2, 9, 1, 6]])
        mask = (ids != 0).astype(float)
        mask[:, 0] = 1.0
        labels = np.array([0, 1, 1])

        def loss():
            return cross_entropy(head.forward(enc.forward(ids, mask)),
                                 labels)[0]

        _, dlogits = cross_entropy(head.forward(enc.forward(ids, mask)),
                                   labels)
        enc.zero_grad(); head.zero_grad()
        enc.backward(head.backward(dlogits))
        W, grad = enc.pos_emb.W.data, enc.pos_emb.W.grad
        length = ids.shape[1]
        assert not grad[length:].any()
        for idx in np.ndindex(length, cfg.d_model):
            orig = W[idx]
            W[idx] = orig + EPS
            f_plus = loss()
            W[idx] = orig - EPS
            f_minus = loss()
            W[idx] = orig
            assert abs(grad[idx] - (f_plus - f_minus) / (2 * EPS)) < 1e-6, idx

    def test_padding_invariance(self):
        """Extending a batch with more padding must not change CLS logits."""
        cfg = EncoderConfig(vocab_size=9, d_model=8, n_heads=2, n_layers=1,
                            d_ff=12, max_len=10, dropout=0.0)
        enc = TransformerEncoder(cfg, rng=0).eval()
        head = ClassificationHead(8, 4, rng=1).eval()
        ids_short = np.array([[1, 2, 3]])
        mask_short = np.ones((1, 3))
        ids_long = np.array([[1, 2, 3, 0, 0]])
        mask_long = np.array([[1, 1, 1, 0, 0]], dtype=float)
        l1 = head.forward(enc.forward(ids_short, mask_short))
        l2 = head.forward(enc.forward(ids_long, mask_long))
        np.testing.assert_allclose(l1, l2, atol=1e-8)


class TestLosses:
    def test_cross_entropy_grad(self):
        logits = RNG.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])

        def f():
            val, _ = cross_entropy(logits, labels)
            return val

        _, d = cross_entropy(logits.copy(), labels)
        num = numeric_grad(f, logits)
        np.testing.assert_allclose(d, num, atol=1e-6)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, -100.0]])
        loss, _ = cross_entropy(logits, np.array([0]))
        assert loss < 1e-9

    def test_masked_ce_ignores_unmasked(self):
        logits = RNG.normal(size=(1, 4, 5))
        targets = np.array([[1, 2, 3, 4]])
        m = np.array([[1, 0, 0, 0]], dtype=float)
        loss, d = masked_cross_entropy(logits, targets, m)
        assert (d[0, 1:] == 0).all()
        assert loss > 0

    def test_masked_ce_empty_mask(self):
        logits = RNG.normal(size=(1, 3, 4))
        loss, d = masked_cross_entropy(logits, np.zeros((1, 3), dtype=int), np.zeros((1, 3)))
        assert loss == 0.0
        assert (d == 0).all()

    def test_masked_ce_grad(self):
        logits = RNG.normal(size=(2, 3, 4))
        targets = np.array([[1, 2, 0], [3, 0, 1]])
        m = np.array([[1, 1, 0], [0, 1, 1]], dtype=float)

        def f():
            val, _ = masked_cross_entropy(logits, targets, m)
            return val

        _, d = masked_cross_entropy(logits.copy(), targets, m)
        num = numeric_grad(f, logits)
        np.testing.assert_allclose(d, num, atol=1e-6)


class TestHeads:
    def test_classification_head_grad(self):
        head = ClassificationHead(6, 4, rng=0)
        check_input_grad(head, RNG.normal(size=(2, 3, 6)))

    def test_mlm_head_grad(self):
        head = MLMHead(5, 7, rng=0)
        check_input_grad(head, RNG.normal(size=(2, 3, 5)))
