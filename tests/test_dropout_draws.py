"""Dropout masks from raw generator words, and per-shard reseeding.

``Dropout.forward`` compares raw PCG64 words against an integer threshold
instead of drawing floats.  The contract is exactness: the mask and every
later draw of the generator equal those of ``rng.random(shape, dtype) <
keep``, including PCG64's buffered 32-bit half-word.  Under the DDP
trainer every dropout of a model shares one generator per micro-shard key,
and a fit walks its modules once, not once per shard.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.data.encoding import EncodedSplit
from repro.models.pragformer import PragFormer, PragFormerConfig
from repro.models.pretrain import MLMConfig, MLMPretrainer
from repro.nn import EncoderConfig
from repro.nn.layers import Dropout, _keep_draw, _keep_limit
from repro.nn.module import Module
from repro.tokenize.vocab import Vocab
from repro.train import reseed_stochastic, stochastic_reseeder

SHAPES = [(1,), (2,), (7,), (3, 5), (4, 4, 11, 11), (2, 3, 8, 8)]


def _draw_dtype(dtype):
    return np.float32 if dtype == np.float32 else np.float64


def _later_state(rng):
    """The generator state every later draw depends on: ``uinteger`` is
    read only while ``has_uint32`` is set."""
    state = rng.bit_generator.state
    return (state["state"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


def _pair(seed, buffered):
    """Two identical generators, optionally holding a buffered half-word
    (one float32 draw takes the low half of a word and keeps the high)."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    if buffered:
        for rng in pair:
            rng.random(dtype=np.float32)
            assert rng.bit_generator.state["has_uint32"] == 1
    return pair


def _assert_same_future(ref, got):
    assert _later_state(got) == _later_state(ref)
    for dtype in (np.float32, np.float32, np.float64, np.float32):
        assert ref.random(3, dtype=dtype).tolist() == \
            got.random(3, dtype=dtype).tolist()


class TestRawMaskExactness:

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.999])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_dropout_mask_and_state_equal_the_float_draw(self, dtype, p,
                                                         buffered, shape):
        ref_rng, rng = _pair(11, buffered)
        x = np.random.default_rng(0).standard_normal(shape).astype(dtype)
        keep = dtype(1.0 - p)
        kept = ref_rng.random(shape, dtype=_draw_dtype(dtype)) < keep
        expected = kept.astype(dtype) / keep

        layer = Dropout(p, rng=rng)
        out = layer.forward(x)
        np.testing.assert_array_equal(layer._mask, expected)
        np.testing.assert_array_equal(out, x * expected)
        _assert_same_future(ref_rng, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_dropout_p0_draws_nothing(self, dtype, buffered):
        ref_rng, rng = _pair(5, buffered)
        x = np.ones((3, 5), dtype=dtype)
        layer = Dropout(0.0, rng=rng)
        assert layer.forward(x) is x and layer._mask is None
        _assert_same_future(ref_rng, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.999, 1e-20])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_keep_draw_equals_the_float_draw(self, dtype, p, buffered,
                                             shape):
        """Also at keep = 1 (p = 0, or p below the dtype's resolution),
        where the threshold is the top of the word range."""
        ref_rng, rng = _pair(23, buffered)
        keep = dtype(1.0 - p)
        expected = ref_rng.random(shape, dtype=_draw_dtype(dtype)) < keep
        np.testing.assert_array_equal(_keep_draw(rng, shape, keep), expected)
        _assert_same_future(ref_rng, rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_limit_is_the_last_word_below_keep(self, dtype):
        """numpy's uniform from a raw word ``w`` is ``(w >> 8) * 2**-24``
        (float32) or ``(w >> 11) * 2**-53`` (float64): the limit word maps
        below ``keep`` and the next word does not."""
        bits, shift, top = ((24, 8, 2**32 - 1) if dtype == np.float32
                            else (53, 11, 2**64 - 1))

        def uniform(word):
            return (word >> shift) * 2.0**-bits  # exact in float64

        keeps = [1.0 - p for p in (0.1, 0.3, 0.5, 0.999, 1e-20)]
        keeps += list(np.random.default_rng(2).random(200))
        for value in keeps:
            keep = dtype(value)
            limit = _keep_limit(keep)
            assert uniform(limit) < float(keep)
            assert limit == top or uniform(limit + 1) >= float(keep)

    def test_consecutive_draws_track_the_buffered_half(self):
        """Odd sizes leave a half-word buffered for the next draw, which
        consumes it: a run of odd and even draws stays in lockstep."""
        ref_rng, rng = _pair(3, False)
        keep = np.float32(0.7)
        for size in (3, 1, 4, 5, 2, 1, 1, 9):
            expected = ref_rng.random(size, dtype=np.float32) < keep
            np.testing.assert_array_equal(_keep_draw(rng, (size,), keep),
                                          expected)
            assert _later_state(rng) == _later_state(ref_rng)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_full_block_draw_shape_masks_its_corner(self, dtype):
        ref_rng, rng = _pair(9, True)
        x = np.ones((2, 3, 1, 6), dtype=dtype)
        draw_shape = (2, 3, 6, 6)
        keep = dtype(0.8)
        full = ref_rng.random(draw_shape, dtype=_draw_dtype(dtype)) < keep
        layer = Dropout(0.2, rng=rng)
        layer.forward(x, draw_shape)
        np.testing.assert_array_equal(layer._mask,
                                      full[:, :, :1].astype(dtype) / keep)
        _assert_same_future(ref_rng, rng)

    def test_other_bit_generators_take_the_float_draw(self):
        ref_rng, rng = (np.random.Generator(np.random.MT19937(4))
                        for _ in range(2))
        keep = np.float32(0.9)
        expected = ref_rng.random((5, 7), dtype=np.float32) < keep
        np.testing.assert_array_equal(_keep_draw(rng, (5, 7), keep), expected)
        assert rng.random() == ref_rng.random()


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
