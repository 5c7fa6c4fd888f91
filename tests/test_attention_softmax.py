"""The masked softmax of ``MultiHeadSelfAttention`` against a float64 oracle.

``_masked_softmax`` takes no per-row max when every score is within
``_exp_limit`` (about 80 for PragFormer's rows), zeroes pad keys by a
multiply after ``exp`` and normalises with one reciprocal multiply; an
out-of-range score sends the batch through an exact fallback that shifts
only the rows that need it.  The oracle is the textbook softmax over the
real keys alone, computed in float64.  The declared tolerance is 16 ulps
of the compute dtype at 1.0 (``16 * finfo.eps``): the fast path's exp, row
sum and reciprocal each round once per element, far inside that.
"""

import numpy as np
import pytest

import repro.nn.attention as attention
from repro.nn.attention import (
    MultiHeadSelfAttention,
    _exp_limit,
    _masked_softmax,
)
from repro.nn.dtype import use_dtype

DTYPES = [pytest.param(np.float32, id="float32"),
          pytest.param(np.float64, id="float64")]
B, H, NQ, L = 5, 3, 7, 24


def _tol(dtype):
    return 16 * float(np.finfo(dtype).eps)


def _reference(scores, key_mask):
    """float64 softmax over each row's real keys; pad keys weigh 0."""
    s = np.where(key_mask > 0, scores.astype(np.float64), -np.inf)
    s -= s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def _case(dtype, seed=0, spread=3.0):
    """(B, H, NQ, L) scores and a (B, 1, 1, L) 0/1 key mask, ~30% pad
    keys; every row keeps at least its first key real."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(0.0, spread, size=(B, H, NQ, L)).astype(dtype)
    lengths = rng.integers(1, L + 1, B)
    lengths[0] = L
    key_mask = (np.arange(L)[None, :] < lengths[:, None]).astype(dtype)
    return scores, key_mask[:, None, None, :]


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts calls of the out-of-range fallback."""
    calls = []
    shift = attention._shift_out_of_range_rows

    def spy(scores, key_mask, limit):
        calls.append(scores.shape)
        return shift(scores, key_mask, limit)

    monkeypatch.setattr(attention, "_shift_out_of_range_rows", spy)
    return calls


@pytest.mark.parametrize("dtype", DTYPES)
class TestMaskedSoftmax:
    def test_in_range_matches_reference_without_fallback(self, dtype,
                                                         fallbacks):
        scores, key_mask = _case(dtype)
        want = _reference(scores, key_mask)
        got = _masked_softmax(scores, key_mask)
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_allclose(got, want, rtol=0, atol=_tol(dtype))
        assert fallbacks == []

    def test_pad_keys_weigh_exactly_zero(self, dtype):
        scores, key_mask = _case(dtype)
        # a pad key's raw score may be anything in range, even the row max
        scores[..., -1] = 79.0
        got = _masked_softmax(scores, key_mask)
        pad = np.broadcast_to(key_mask == 0, got.shape)
        assert pad.any()
        assert (got[pad] == 0.0).all()
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, rtol=0,
                                   atol=_tol(dtype))

    @pytest.mark.parametrize("push", [100.0, -100.0, 1e4, -1e4])
    def test_out_of_range_rows_take_the_fallback(self, dtype, push,
                                                 fallbacks):
        scores, key_mask = _case(dtype, seed=1)
        # every real score of batch row 1 far past the limit, and a pad
        # key of row 2 past it too (exp would overflow it unmasked)
        scores[1] += dtype(push)
        scores[2, ..., -1] = dtype(abs(push))
        key_mask[2, ..., -1] = 0
        want = _reference(scores, key_mask)
        got = _masked_softmax(scores, key_mask)
        assert len(fallbacks) == 1
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=0, atol=_tol(dtype))
        assert (got[np.broadcast_to(key_mask == 0, got.shape)] == 0.0).all()

    def test_in_range_rows_keep_their_bits_beside_a_fallback_row(
            self, dtype, fallbacks):
        scores, key_mask = _case(dtype, seed=2)
        calm = _masked_softmax(scores.copy(), key_mask)
        assert fallbacks == []
        wild = scores.copy()
        wild[3, 1, 4] *= dtype(200.0)  # one query row out of range
        wild[3, 1, 4, 0] = dtype(500.0)
        mixed = _masked_softmax(wild, key_mask)
        assert len(fallbacks) == 1
        kept = np.ones(mixed.shape[:-1], bool)
        kept[3, 1, 4] = False
        assert np.array_equal(mixed[kept], calm[kept])

    @pytest.mark.parametrize("push", [0.0, 1e3])
    def test_row_with_no_real_key_stays_finite(self, dtype, push):
        scores, key_mask = _case(dtype, seed=3)
        key_mask[4] = 0
        scores[0, 0, 0, 0] += dtype(push)  # with and without the fallback
        want = _reference(scores[:4], key_mask[:4])
        got = _masked_softmax(scores, key_mask)
        assert np.isfinite(got).all()
        assert (got[4] == 0.0).all()
        np.testing.assert_allclose(got[:4], want, rtol=0, atol=_tol(dtype))

    def test_no_mask_is_a_plain_softmax(self, dtype):
        scores, key_mask = _case(dtype, seed=4)
        want = _reference(scores, np.ones_like(key_mask))
        np.testing.assert_allclose(_masked_softmax(scores), want, rtol=0,
                                   atol=_tol(dtype))

    def test_limit_keeps_unshifted_rows_finite(self, dtype):
        for n_keys in (1, 110, 6000, 10 ** 6):
            limit = _exp_limit(np.dtype(dtype), n_keys)
            assert limit <= 80.0
            with np.errstate(over="raise", under="ignore"):
                top = np.exp(np.full(n_keys, limit, dtype)).sum(dtype=dtype)
                assert np.isfinite(top)
            assert np.exp(dtype(-limit)) >= np.finfo(dtype).tiny

    def test_retained_maps_give_pad_keys_exactly_zero(self, dtype):
        with use_dtype(dtype):
            attn = MultiHeadSelfAttention(12, 3, dropout=0.0, rng=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 9, 12)).astype(dtype)
        mask = np.ones((3, 9), dtype)
        mask[1, 5:] = 0
        mask[2, 2:] = 0
        for mode in ("eval", "inference_mode"):
            getattr(attn, mode)()
            attn.retain_attention = True
            attn.forward(x, mask)
            maps = attn.last_attention
            assert maps.shape == (3, 3, 9, 9)
            assert (maps[1, ..., 5:] == 0.0).all()
            assert (maps[2, ..., 2:] == 0.0).all()
            assert (maps[1, ..., :5] > 0).all()
            np.testing.assert_allclose(maps.sum(axis=-1), 1.0, rtol=0,
                                       atol=_tol(dtype))
