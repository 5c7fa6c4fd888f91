"""Attention hot-path guard: the one-pass masked softmax against the old one.

Every encoder block's attention runs a masked softmax over (B, H, L, L)
scores, and at PragFormer's size (L <= 110) it costs more than the matmuls
around it.  ``repro.nn.attention._masked_softmax`` takes no per-row max
when a global ``min``/``max`` check shows every score is in ``exp``'s safe
range, zeroes pad keys by multiplying with the key mask after ``exp`` and
normalises with one reciprocal multiply.  The pass it replaced added a
-1e9 key bias, subtracted each row's max, clamped at -60 and divided by
the row sums; it is kept here verbatim as the reference.

This smoke bench times both at a serving shape (B=21, H=4, L=72, float32,
~30% pad keys), checks that they agree within 16 float32 ulps at 1.0, and
asserts a floor on the speedup (about 2.4x on a 2-core x86 host), so a
return to the per-row max fails ``scripts/check.sh --perf``.
"""

import time

import numpy as np
import pytest

from repro.nn.attention import _masked_softmax
from repro.nn.scratch import sum_lastaxis

pytestmark = pytest.mark.perf

#: the floor a per-row-max softmax cannot reach
MIN_SPEEDUP = 1.5
B, H, L = 21, 4, 72
DTYPE = np.float32
#: declared agreement: 16 ulps of the compute dtype at 1.0
TOL = 16 * float(np.finfo(DTYPE).eps)


def _reference_softmax(scores, bias):
    """The replaced pass: additive -1e9 key bias, then a shifted softmax."""
    scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.maximum(scores, -60.0, out=scores)
    np.exp(scores, out=scores)
    scores /= sum_lastaxis(scores)
    return scores


def _median_ms(softmax, base, mask, buf, repeats=300):
    """Median over ``repeats`` calls, each on a fresh copy of ``base``
    (the copy is not timed)."""
    times = []
    for _ in range(repeats):
        np.copyto(buf, base)
        start = time.perf_counter()
        softmax(buf, mask)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


@pytest.mark.smoke
def test_masked_softmax_speedup_smoke():
    rng = np.random.default_rng(0)
    # scaled dot products of unit-scale activations: a few units wide
    base = rng.normal(0.0, 2.0, size=(B, H, L, L)).astype(DTYPE)
    lengths = rng.integers(int(0.4 * L), L + 1, B)
    lengths[0] = L
    key_mask = (np.arange(L)[None, :] < lengths[:, None]).astype(DTYPE)
    key_mask = key_mask[:, None, None, :]
    bias = (1.0 - key_mask) * DTYPE(-1e9)
    pad = 1.0 - float(key_mask.mean())

    want = _reference_softmax(base.copy(), bias)
    got = _masked_softmax(base.copy(), key_mask)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert (got[np.broadcast_to(key_mask == 0, got.shape)] == 0.0).all()

    buf = np.empty_like(base)
    old = new = float("inf")
    for _ in range(3):  # alternate, keep each side's best median
        old = min(old, _median_ms(_reference_softmax, base, bias, buf))
        new = min(new, _median_ms(_masked_softmax, base, key_mask, buf))
    print(f"\nmasked softmax: B={B} H={H} L={L} float32, {pad:.0%} pad keys "
          f"— reference {old:.3f} ms, one pass {new:.3f} ms "
          f"({old / new:.2f}x), max |diff| {np.abs(got - want).max():.1e}")
    assert old / new >= MIN_SPEEDUP
