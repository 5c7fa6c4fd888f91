"""Dropout masks from 16-bit lanes of raw generator words, and per-shard
reseeding.

``Dropout.forward`` on an ``n``-element input reads ``ceil(n / 4)`` raw
words as little-endian ``uint16`` lanes and keeps element ``i`` when
``lane[i] <= ceil((1 - p) * 2**16) - 1``, scaling kept elements by the
inverse of that quantized keep.  The contract is exactness: the mask is
bit for bit that of an independent reference computed with shifts, the
generator advances by exactly ``ceil(n / 4)`` words, ``p = 0`` draws
nothing, and the draw is the same for float32 and float64.  MT19937,
whose raw words carry 32 bits, gives two lanes per word, so every bit
generator drops at the rate ``p``.  Under the DDP trainer every dropout
of a model shares one generator per micro-shard key, and a fit walks its
modules once, not once per shard.
"""

import multiprocessing as mp
from math import ceil

import numpy as np
import pytest

from repro.data.encoding import EncodedSplit
from repro.models.pragformer import PragFormer, PragFormerConfig
from repro.models.pretrain import MLMConfig, MLMPretrainer
from repro.nn import EncoderConfig
from repro.nn.layers import Dropout
from repro.nn.module import Module
from repro.tokenize.vocab import Vocab
from repro.train import reseed_stochastic, stochastic_reseeder

SHAPES = [(1,), (2,), (3,), (4,), (5,), (7,), (3, 5), (4, 4, 11, 11),
          (2, 3, 8, 8), (2, 3, 1, 9)]

BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


def _reference_mask(bitgen, shape, p, dtype):
    """The applied mask from ``bitgen``'s next ``ceil(n / 4)`` words
    (``ceil(n / 2)`` on MT19937), with lanes cut out by shifts: lane
    ``4 w + j`` (``2 w + j``) is bits ``16 j .. 16 j + 15`` of word ``w``,
    whatever the host's byte order."""
    n = int(np.prod(shape))
    bits = 32 if isinstance(bitgen, np.random.MT19937) else 64
    words = bitgen.random_raw(ceil(n * 16 / bits))
    shifts = np.arange(0, bits, 16, dtype=np.uint64)
    lanes = ((words[:, None] >> shifts) & np.uint64(0xFFFF)).reshape(-1)[:n]
    kept_lanes = ceil((1.0 - p) * 2**16)
    kept = (lanes <= kept_lanes - 1).reshape(shape)
    return kept.astype(dtype) / dtype(kept_lanes / 2**16)


def _pair(bit_generator, seed):
    return [np.random.Generator(bit_generator(seed)) for _ in range(2)]


class TestRawMaskExactness:

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.999, 1e-20])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_mask_is_the_lane_draw(self, dtype, p, shape):
        """Also at p below 2**-16, where every lane is kept and the
        scale is exactly 1."""
        ref_rng, rng = _pair(np.random.PCG64, 11)
        x = np.random.default_rng(0).standard_normal(shape).astype(dtype)
        expected = _reference_mask(ref_rng.bit_generator, shape, p, dtype)
        layer = Dropout(p, rng=rng)
        out = layer.forward(x)
        assert layer._mask.dtype == dtype and out.dtype == dtype
        np.testing.assert_array_equal(layer._mask, expected)
        np.testing.assert_array_equal(out, x * expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                             ids=lambda g: g.__name__)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_every_bit_generator_takes_the_lane_draw(self, bit_generator,
                                                     dtype, shape):
        ref_rng, rng = _pair(bit_generator, 4)
        expected = _reference_mask(ref_rng.bit_generator, shape, 0.1, dtype)
        layer = Dropout(0.1, rng=rng)
        layer.forward(np.ones(shape, dtype=dtype))
        np.testing.assert_array_equal(layer._mask, expected)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS,
                             ids=lambda g: g.__name__)
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_every_bit_generator_drops_at_rate_p(self, bit_generator, p):
        """Over 2**17 elements the dropped share is within 5 standard
        deviations of ``p`` (a generator whose words carried fewer random
        bits than the lanes read would keep whole lanes always)."""
        layer = Dropout(p, rng=np.random.Generator(bit_generator(8)))
        layer.forward(np.ones(2**17, dtype=np.float32))
        dropped = float(np.mean(layer._mask == 0))
        assert abs(dropped - p) < 5 * np.sqrt(p * (1 - p) / 2**17)

    @pytest.mark.parametrize("size", range(1, 14))
    def test_generator_advances_by_ceil_n_over_4_words(self, size):
        ref_rng, rng = _pair(np.random.PCG64, 7)
        Dropout(0.3, rng=rng).forward(np.ones(size, dtype=np.float32))
        ref_rng.bit_generator.advance(ceil(size / 4))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_p0_draws_nothing(self, dtype):
        ref_rng, rng = _pair(np.random.PCG64, 5)
        x = np.ones((3, 5), dtype=dtype)
        layer = Dropout(0.0, rng=rng)
        assert layer.forward(x) is x and layer._mask is None
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_float32_and_float64_keep_the_same_elements(self):
        masks = {}
        for dtype in (np.float32, np.float64):
            layer = Dropout(0.1, rng=9)
            layer.forward(np.ones((6, 50), dtype=dtype))
            masks[dtype] = layer._mask != 0
        np.testing.assert_array_equal(masks[np.float32], masks[np.float64])
        assert masks[np.float32].any() and not masks[np.float32].all()

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.999, 1e-20])
    def test_scale_is_the_inverse_quantized_keep(self, p):
        """Kept elements carry ``2**16 / k``, so a mask element's mean over
        the 2**16 equally likely lanes is exactly 1, and the drop rate
        ``1 - k / 2**16`` is within 2**-16 of ``p``."""
        kept_lanes = ceil((1.0 - p) * 2**16)
        layer = Dropout(p, rng=3)
        layer.forward(np.ones(4000))
        values = set(np.unique(layer._mask).tolist()) - {0.0}
        assert values == {2**16 / kept_lanes}
        assert abs((1.0 - kept_lanes / 2**16) - p) < 2**-16

    def test_training_flag_and_backward(self):
        layer = Dropout(0.5, rng=1)
        x = np.ones((4, 8), dtype=np.float32)
        out = layer.forward(x).copy()
        np.testing.assert_array_equal(layer.backward(np.ones_like(x)), out)
        layer.eval()
        assert layer.forward(x) is x and layer.backward(x) is x


class _Stochastic(Module):
    def __init__(self):
        super().__init__()
        self.a = Dropout(0.3, rng=1)
        self.blocks = [Dropout(0.5, rng=2), Dropout(0.2, rng=3)]

    def forward(self, x):
        for layer in (self.a, *self.blocks):
            x = layer.forward(x)
        return x

    def masks(self):
        return [layer._mask.copy() for layer in (self.a, *self.blocks)]


def _masks_for(key, disturb):
    model = _Stochastic()
    for layer in model.modules():  # rank-local history must not matter
        if isinstance(layer, Dropout):
            layer.rng.random(disturb)
    reseed_stochastic((model,), key)
    model.forward(np.ones((4, 9), dtype=np.float32))
    return model.masks()


def _child_masks(key, queue):
    queue.put(_masks_for(key, disturb=17))


class TestReseeding:

    def test_every_module_shares_one_generator_per_key(self):
        model = _Stochastic()
        reseed = stochastic_reseeder((model,))
        reseed((5, 0, 1))
        rngs = {id(m.rng) for m in model.modules() if isinstance(m, Dropout)}
        assert len(rngs) == 1
        assert model.a.rng.random() == \
            np.random.default_rng([5, 0, 1, 1]).random()
        reseed((5, 0, 2))
        assert len({id(m.rng) for m in model.modules()
                    if isinstance(m, Dropout)}) == 1

    def test_same_key_same_masks_on_any_rank(self):
        """A forked process with a different draw history computes the
        masks this process computes for the same key."""
        key = (7, 3, 5)
        ctx = mp.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_child_masks, args=(key, queue))
        child.start()
        theirs = queue.get(timeout=30)
        child.join(timeout=30)
        assert child.exitcode == 0
        ours = _masks_for(key, disturb=3)
        for a, b in zip(ours, theirs):
            np.testing.assert_array_equal(a, b)
        other = _masks_for((7, 3, 6), disturb=3)
        assert any(not np.array_equal(a, b) for a, b in zip(ours, other))


def _count_root_walks(monkeypatch, roots):
    """Count ``modules()`` calls made on each of ``roots`` themselves."""
    counts = {id(root): 0 for root in roots}
    walk = Module.modules

    def spy(self):
        if id(self) in counts:
            counts[id(self)] += 1
        return walk(self)

    monkeypatch.setattr(Module, "modules", spy)
    return counts


def _split(n=23, length=12, vocab=20, seed=3):
    rng = np.random.default_rng(seed)
    ids = rng.integers(4, vocab, size=(n, length)).astype(np.int32)
    ids[:, 0] = 2
    mask = np.ones((n, length), dtype=np.float32)
    mask[5:, 9:] = 0.0
    return EncodedSplit(ids, mask, rng.integers(0, 2, size=n))


class TestOneWalkPerFit:
    """Per micro-shard a DDP fit neither walks the module tree to reseed
    nor to set train mode: one reseeder walk and one train walk per root,
    whatever the number of steps."""

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_pragformer_ddp_fit(self, monkeypatch, epochs):
        cfg = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                               d_head_hidden=8, max_len=12, batch_size=8)
        model = PragFormer(20, cfg, rng=5)
        counts = _count_root_walks(monkeypatch, (model.encoder, model.head))
        model.fit(_split(), epochs=epochs, n_workers=1)
        assert model.ddp_stats["counters"]["steps"] == 3 * epochs
        assert list(counts.values()) == [2, 2]

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_mlm_ddp_fit(self, monkeypatch, epochs):
        vocab = Vocab.build([[f"t{i}" for i in range(20)]], min_freq=1)
        split = _split(vocab=len(vocab))
        cfg = EncoderConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                            n_layers=1, d_ff=32, max_len=12, dropout=0.1)
        pre = MLMPretrainer(cfg, vocab, MLMConfig(batch_size=8), rng=11)
        counts = _count_root_walks(monkeypatch, (pre.encoder, pre.mlm_head))
        pre.fit(split.ids, split.mask, epochs=epochs, n_workers=1)
        assert pre.ddp_stats["counters"]["steps"] == 3 * epochs
        # the encoder: reseeder + train mode; the head: reseeder only
        assert list(counts.values()) == [2, 1]
