"""Core layers: Linear, Embedding, LayerNorm, Dropout, activations.

Every layer implements ``forward`` (caching what backward needs) and
``backward`` (accumulating parameter grads in place, returning the input
gradient).  All operations are batched matmuls or elementwise NumPy ops —
no Python loops over tokens.
"""

from __future__ import annotations

from math import ceil
from typing import Optional

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.scratch import BufferPool, mean_lastaxis, sum_leading
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Linear", "Embedding", "LayerNorm", "ResidualLayerNorm", "Dropout",
           "ReLU", "GELU"]

class Linear(Module):
    """Affine map over the last axis: ``y = x @ W + b``."""

    def __init__(self, d_in: int, d_out: int, rng: RngLike = None, bias: bool = True) -> None:
        super().__init__()
        gen = ensure_rng(rng)
        # Glorot/Xavier uniform keeps activations in range for tanh/GELU nets
        bound = np.sqrt(6.0 / (d_in + d_out))
        self.W = Parameter(gen.uniform(-bound, bound, size=(d_in, d_out)))
        self.b = Parameter(np.zeros(d_out)) if bias else None
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = None if self.inference else x
        W = self.W.data
        if x.ndim > 2:
            # collapse leading axes: one large GEMM instead of a stacked
            # batch of (L, d_in) @ W matmuls — BLAS tiles far better
            y = (x.reshape(-1, x.shape[-1]) @ W).reshape(*x.shape[:-1], W.shape[1])
        else:
            y = x @ W
        if self.b is not None:
            y += self.b.data
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        # collapse all leading axes into one batch axis for the grad matmuls
        x2 = x.reshape(-1, x.shape[-1])
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.W.grad += x2.T @ dy2
        if self.b is not None:
            self.b.grad += sum_leading(dy2)
        return (dy2 @ self.W.data.T).reshape(x.shape)


class Embedding(Module):
    """Token-id lookup table: ids (…,) -> vectors (…, d).

    Ids arrive as int32 end-to-end (``repro.data.encoding.ID_DTYPE``); any
    integer dtype works for the gather, but int32 halves the index traffic
    for both the forward lookup and the backward argsort."""

    def __init__(self, n_embeddings: int, d: int, rng: RngLike = None,
                 scale: float = 0.02) -> None:
        super().__init__()
        gen = ensure_rng(rng)
        self.W = Parameter(gen.normal(0.0, scale, size=(n_embeddings, d)))
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = None if self.inference else ids
        return self.W.data[ids]

    def backward(self, dy: np.ndarray) -> None:
        flat_ids = self._ids.reshape(-1)
        flat_dy = dy.reshape(-1, dy.shape[-1])
        # segmented sum via sort + reduceat: ~10x faster than the unbuffered
        # scatter np.add.at for thousands of rows
        order = np.argsort(flat_ids, kind="stable")
        sorted_ids = flat_ids[order]
        sorted_dy = flat_dy[order]
        starts = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate(([0], starts))
        sums = np.add.reduceat(sorted_dy, starts, axis=0)
        self.W.grad[sorted_ids[starts]] += sums
        return None  # ids are not differentiable


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, d: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(d))
        self.beta = Parameter(np.zeros(d))
        self.eps = eps
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # GEMV reductions (see ResidualLayerNorm) over the short d axis;
        # the centered copy is normalized in place into x_hat
        x_hat = x - mean_lastaxis(x)
        var = mean_lastaxis(np.square(x_hat))
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        self._cache = None if self.inference else (x_hat, inv_std)
        out = x_hat * self.gamma.data
        out += self.beta.data
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        d = x_hat.shape[-1]
        axes = tuple(range(dy.ndim - 1))
        self.gamma.grad += (dy * x_hat).sum(axis=axes)
        self.beta.grad += dy.sum(axis=axes)
        dxhat = dy * self.gamma.data
        # dL/dx = inv_std * (dxhat - mean(dxhat) - x_hat * mean(dxhat * x_hat))
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * x_hat).mean(axis=-1, keepdims=True)
        return inv_std * (dxhat - m1 - x_hat * m2)


class ResidualLayerNorm(Module):
    """Fused post-LN residual connection: ``y = LN(x + sublayer)``.

    The unfused form (``LayerNorm.forward(x + s)``) materializes the
    residual sum, the centered tensor, and the normalized tensor as three
    full-size temporaries per call; this computes the same values with
    in-place arithmetic on one pooled scratch buffer — two fewer
    (B, L, D) allocations per encoder block per direction.

    Parameters are named ``gamma``/``beta`` exactly like :class:`LayerNorm`,
    so swapping this in for an encoder block's ``ln1``/``ln2`` keeps
    state-dict keys (and every existing checkpoint) unchanged.

    ``backward`` returns the gradient with respect to the residual *sum*
    ``x + sublayer`` — which is mathematically the gradient w.r.t. each
    addend — matching how the encoder block routes it to both branches.
    """

    def __init__(self, d: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(d))
        self.beta = Parameter(np.zeros(d))
        self.eps = eps
        self._cache = None
        self._pool = BufferPool()

    def forward(self, x: np.ndarray, sublayer: np.ndarray) -> np.ndarray:
        s = self._pool.get("sum", x.shape, x.dtype)
        np.add(x, sublayer, out=s)
        mean = mean_lastaxis(s)
        s -= mean
        sq = self._pool.get("sq", x.shape, x.dtype)
        np.multiply(s, s, out=sq)
        var = mean_lastaxis(sq)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        s *= inv_std  # s is now x_hat, in place
        self._cache = None if self.inference else (s, inv_std)
        out = self._pool.get("out", x.shape, x.dtype)
        np.multiply(s, self.gamma.data, out=out)
        out += self.beta.data
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        d = x_hat.shape[-1]
        scratch = self._pool.get("bscratch", dy.shape, dy.dtype)
        np.multiply(dy, x_hat, out=scratch)
        self.gamma.grad += sum_leading(scratch.reshape(-1, d))
        self.beta.grad += sum_leading(dy.reshape(-1, d))
        # the residual-sum gradient is returned (and later accumulated into
        # in place by the encoder block), so it gets a fresh array — only
        # the inner temporaries go through the pool
        dxhat = dy * self.gamma.data
        # d(x+s) = inv_std * (dxhat - mean(dxhat) - x_hat * mean(dxhat * x_hat))
        m1 = mean_lastaxis(dxhat)
        np.multiply(dxhat, x_hat, out=scratch)
        m2 = mean_lastaxis(scratch)
        dxhat -= m1
        np.multiply(x_hat, m2, out=scratch)
        dxhat -= scratch
        dxhat *= inv_std
        return dxhat


#: 16-bit lanes per ``random_raw`` word: numpy's bit generators return 64
#: random bits per word, except MT19937, whose words carry 32
_LANES_PER_WORD = {np.random.MT19937: 2}


class Dropout(Module):
    """Inverted dropout; identity in eval mode (§4.3 regularization).

    The keep mask of an ``n``-element input comes from 16-bit lanes of raw
    generator words: ``ceil(n / 4)`` words of ``bit_generator.random_raw``
    read as little-endian ``uint16`` lanes (``ceil(n / 2)`` words and their
    low two lanes on MT19937), and element ``i`` is kept when
    ``lane[i] < k = ceil((1 - p) * 2**16)``.  Kept elements are scaled by
    ``2**16 / k``, so each mask element has expectation exactly 1 and the
    drop rate is within ``2**-16`` of ``p``.  The draw is the same for
    float32 and float64 and on every host, and covers exactly the
    elements of ``x``: a block that computes only its CLS rows draws for
    those rows alone.  The mask and the output live in pooled buffers.

    Under :class:`~repro.train.ddp.DataParallelTrainer` every dropout of a
    model shares one generator per micro-shard key
    (:func:`~repro.train.ddp.stochastic_reseeder`) and draws from it in
    forward order.
    """

    def __init__(self, p: float, rng: RngLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = ensure_rng(rng)
        self._mask: Optional[np.ndarray] = None
        self._pool = BufferPool()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        n = x.size
        kept_lanes = ceil((1.0 - self.p) * 2**16)
        bitgen = self.rng.bit_generator
        per_word = _LANES_PER_WORD.get(type(bitgen), 4)
        words = bitgen.random_raw(-(-n // per_word))
        lanes = words.astype("<u8", copy=False).view("<u2").reshape(-1, 4)
        lanes = lanes[:, :per_word].reshape(-1)[:n]  # a view at 4 per word
        mask = self._pool.get("mask", x.shape, x.dtype)
        np.less_equal(lanes.reshape(x.shape), np.uint16(kept_lanes - 1),
                      out=mask)
        mask /= x.dtype.type(kept_lanes / 2**16)  # 0 or 1/keep
        self._mask = mask
        out = self._pool.get("out", x.shape, x.dtype)
        return np.multiply(x, mask, out=out)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        out = self._pool.get("dout", dy.shape, dy.dtype)
        return np.multiply(dy, self._mask, out=out)


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.inference:
            self._mask = None
            return np.maximum(x, 0.0)
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


class GELU(Module):
    """tanh-approximated GELU (the transformer FFN activation).

    The (B, L, d_ff)-sized temporaries — the largest activations in the
    FFN — run through pooled scratch buffers with in-place arithmetic."""

    _C = np.sqrt(2.0 / np.pi)

    def __init__(self) -> None:
        super().__init__()
        self._cache = None
        self._pool = BufferPool()

    def forward(self, x: np.ndarray) -> np.ndarray:
        c = x.dtype.type(self._C)
        a = x.dtype.type(0.044715)
        x2 = self._pool.get("x2", x.shape, x.dtype)
        np.multiply(x, x, out=x2)
        # t = tanh(c * (x + a * x^3)), built in place in one buffer
        t = self._pool.get("t", x.shape, x.dtype)
        np.multiply(x2, x, out=t)
        t *= a
        t += x
        t *= c
        np.tanh(t, out=t)
        self._cache = None if self.inference else (x, x2, t)
        out = self._pool.get("out", x.shape, x.dtype)
        # 0.5 * x * (1 + t)
        np.add(t, 1.0, out=out)
        out *= x
        out *= 0.5
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, x2, t = self._cache
        c = x.dtype.type(self._C)
        a3 = x.dtype.type(3 * 0.044715)
        # du = c * (1 + 3a * x^2)
        du = self._pool.get("du", x.shape, x.dtype)
        np.multiply(x2, a3, out=du)
        du += 1.0
        du *= c
        # dt = (1 - t^2) * du
        dt = self._pool.get("dt", x.shape, x.dtype)
        np.multiply(t, t, out=dt)
        np.subtract(1.0, dt, out=dt)
        dt *= du
        # dy * 0.5 * (1 + t + x*dt), assembled in the du buffer
        np.multiply(x, dt, out=du)
        du += t
        du += 1.0
        du *= 0.5
        out = self._pool.get("dout", x.shape, x.dtype)
        return np.multiply(dy, du, out=out)
