"""Multi-head self-attention with key-padding masking.

The Q/K/V projections are fused into a single ``(D, 3D)`` matmul: one BLAS
call replaces three, which matters on the serving hot path where batches are
small and per-call overhead dominates.  Checkpoints written before the
fusion (separate ``q_proj``/``k_proj``/``v_proj`` entries) still load — see
:meth:`MultiHeadSelfAttention._upgrade_state`.

The attention weights of the last forward pass can be kept on the module
(``last_attention``) so the explainability tooling (§5.4) can inspect where
the model attends without re-running a hooked forward pass.  In
``inference_mode`` retention is opt-in via ``retain_attention``; training
and plain ``eval`` forwards always retain (the backward pass needs the
weights anyway).  Since the scores live in a pooled scratch buffer, the
retained maps are only valid until this module's next forward — consumers
that hold maps across forwards must set ``retain_attention``, which
stores a private copy in every mode.

The masked softmax (:func:`_masked_softmax`) is one pass with no per-row
max on the common path: one global ``min``/``max`` check shows every score
is small enough that ``exp`` needs no shift, pad keys are zeroed by
multiplying with the 0/1 key mask after ``exp`` (an exact 0 weight), and
each row is normalised by one reciprocal multiply.  Only batches with an
out-of-range score take the exact fallback, which shifts just the rows
whose own max is out of range.

``n_queries`` restricts an inference forward to the first query rows:
keys and values still cover every position, but the query projection,
score, softmax, context and output-projection work shrinks from L rows to
``n_queries``.  A classifier that reads only the CLS position runs its
last block this way (see :meth:`PragFormer.predict_proba`).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.scratch import BufferPool, sum_lastaxis
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

__all__ = ["MultiHeadSelfAttention"]

#: |score| bound under which ``exp`` needs no shift.  exp(-80) ~ 1.8e-35
#: is above float32's smallest normal (exp(-87.3)), so no weight loses
#: precision to underflow, and a row of n such terms sums to at most
#: n * exp(80) ~ n * 5.5e34, finite in float32 for n <= 6000 keys
#: (:func:`_exp_limit` shrinks the bound for longer rows).  float64's
#: range is wider still.
_EXP_LIMIT = 80.0


def _exp_limit(dtype: np.dtype, n_keys: int) -> float:
    """The largest |score| whose unshifted ``exp`` rows cannot overflow."""
    return min(_EXP_LIMIT, math.log(float(np.finfo(dtype).max) / n_keys))


def _shift_out_of_range_rows(scores: np.ndarray,
                             key_mask: Optional[np.ndarray],
                             limit: float) -> None:
    """The exact fallback: subtract its own max over real keys from every
    row whose max is out of ``[-limit, limit]``.  Every other row keeps
    shift 0, so its weights keep the fast path's bits whatever shares its
    batch.  Pad keys become -inf first: they take no part in a row's max
    and ``exp`` maps them to 0 however large their raw score."""
    if key_mask is not None:
        np.copyto(scores, -np.inf, where=key_mask == 0)
    row_max = scores.max(axis=-1, keepdims=True)
    # a row with no real key has max -inf and keeps shift 0
    shifted = np.isfinite(row_max) & (np.abs(row_max) > limit)
    scores -= np.where(shifted, row_max, 0)


def _masked_softmax(scores: np.ndarray,
                    key_mask: Optional[np.ndarray] = None) -> np.ndarray:
    """In-place softmax over the last axis; returns ``scores`` itself.

    ``key_mask`` (0/1 in the scores' dtype, broadcastable to them) gives
    the keys where it is 0 an exact 0 weight.  The common path takes no
    per-row max: when every raw score is within :func:`_exp_limit`,
    ``exp`` runs unshifted.  Otherwise :func:`_shift_out_of_range_rows`
    shifts the rows that need it.  A row with no real key gets all-zero
    weights rather than NaNs."""
    limit = _exp_limit(scores.dtype, scores.shape[-1])
    if not (-limit <= scores.min() and scores.max() <= limit):
        _shift_out_of_range_rows(scores, key_mask, limit)
    np.exp(scores, out=scores)
    if key_mask is not None:
        # after exp, not as a -inf bias before it: float64 exp of -inf
        # runs ~3x slower than of moderate arguments (float32 does not)
        scores *= key_mask
    norm = sum_lastaxis(scores)
    # a row with a real key sums to at least exp(-limit), far above tiny,
    # so only an all-zero row is clamped
    np.maximum(norm, np.finfo(scores.dtype).tiny, out=norm)
    np.reciprocal(norm, out=norm)
    scores *= norm
    return scores


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention over (B, L, D) inputs."""

    def __init__(self, d_model: int, n_heads: int, dropout: float = 0.1,
                 rng: RngLike = None) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        r_q, r_k, r_v, r_o, r_d = spawn_rngs(rng, 5)
        self.qkv_proj = Linear(d_model, 3 * d_model, rng=0)
        # overwrite the fused init (drawn from a throwaway rng above) with
        # three per-projection Glorot draws so fresh models are
        # weight-identical to the historical separate q/k/v Linears
        # (same untouched rngs, same square-matrix bound)
        bound = np.sqrt(6.0 / (2 * d_model))
        self.qkv_proj.W.data[...] = np.concatenate(
            [ensure_rng(r).uniform(-bound, bound, size=(d_model, d_model))
             for r in (r_q, r_k, r_v)], axis=1)
        self.out_proj = Linear(d_model, d_model, rng=r_o)
        self.attn_dropout = Dropout(dropout, rng=r_d)
        self.retain_attention = False
        self.last_attention: Optional[np.ndarray] = None  # (B, H, nq, L)
        self._cache = None
        self._pool = BufferPool()

    def _upgrade_state(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        """Fuse legacy per-projection checkpoint entries into ``qkv_proj``."""
        legacy_w = [f"{prefix}{n}_proj.W" for n in "qkv"]
        if all(k in state for k in legacy_w) and f"{prefix}qkv_proj.W" not in state:
            state[f"{prefix}qkv_proj.W"] = np.concatenate(
                [state.pop(k) for k in legacy_w], axis=1)
            legacy_b = [f"{prefix}{n}_proj.b" for n in "qkv"]
            if all(k in state for k in legacy_b):
                state[f"{prefix}qkv_proj.b"] = np.concatenate(
                    [state.pop(k) for k in legacy_b], axis=0)
        super()._upgrade_state(state, prefix)

    def _split(self, x: np.ndarray) -> np.ndarray:
        """(B, L, D) -> (B, H, L, d_head) view; matmul handles the strides."""
        b, l, _ = x.shape
        return x.reshape(b, l, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge(self, x: np.ndarray) -> np.ndarray:
        """(B, H, L, d_head) -> (B, L, D)."""
        b, h, l, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)

    def forward(self, x: np.ndarray, mask: Optional[np.ndarray] = None,
                n_queries: Optional[int] = None) -> np.ndarray:
        """``mask`` is (B, L) with 1 for real tokens and 0 for padding;
        pad keys get an exact 0 weight.

        ``n_queries`` (inference only) attends from the first ``n_queries``
        positions alone and returns (B, n_queries, D); ``None`` keeps every
        row."""
        b, l, _ = x.shape
        if n_queries is None:
            qkv = self.qkv_proj.forward(x)  # (B, L, 3D)
            qkv = qkv.reshape(b, l, 3, self.n_heads, self.d_head).transpose(2, 0, 3, 1, 4)
            q, k, v = qkv[0], qkv[1], qkv[2]  # (B, H, L, d_head) views
        elif not self.inference:
            raise ValueError("n_queries needs inference_mode: backward "
                             "expects every query row")
        else:
            # keys and values span every position, queries only the kept
            # prefix: two GEMMs over column slices of the fused weights
            # instead of projecting queries for rows nobody reads
            d = self.d_model
            W, bias = self.qkv_proj.W.data, self.qkv_proj.b.data
            kv = x.reshape(b * l, d) @ W[:, d:]
            kv += bias[d:]
            kv = kv.reshape(b, l, 2, self.n_heads, self.d_head).transpose(2, 0, 3, 1, 4)
            k, v = kv[0], kv[1]
            q = x[:, :n_queries].reshape(-1, d) @ W[:, :d]
            q += bias[:d]
            q = q.reshape(b, -1, self.n_heads, self.d_head).transpose(0, 2, 1, 3)
        nq = q.shape[2]

        # python float, not np.float64: a strong float64 scalar would upcast
        # the entire score/softmax/context chain out of the compute dtype
        scale = 1.0 / float(np.sqrt(self.d_head))
        # pre-scale q (an L x d_head pass) instead of the L x L score matrix;
        # backward compensates by scaling dq once — dk needs no scale at all
        # because it contracts against the already-scaled q
        q *= scale
        # scores live in a pooled buffer reused across steps with the same
        # bucket shape; the softmax then runs in place on it, so one
        # (B, H, nq, L) buffer serves the whole score -> attention chain
        scores = self._pool.get("scores", (b, self.n_heads, nq, l), x.dtype)
        np.matmul(q, k.transpose(0, 1, 3, 2), out=scores)
        if mask is not None:
            # broadcast over heads and query positions, in the scores' dtype
            # (a float64 mask would upcast the multiply)
            mask = mask.astype(x.dtype, copy=False)[:, None, None, :]
        attn = _masked_softmax(scores, mask)
        if self.retain_attention:
            # callers that set the flag (explain tooling) may hold the maps
            # across later forwards, so hand them a private copy in every
            # mode, never the pooled buffer
            self.last_attention = attn.copy()
        elif not self.inference:
            # backward reads this through _cache; the pooled buffer is valid
            # until this module's next forward, which cannot precede this
            # step's backward — but it IS overwritten by the next forward,
            # so cross-batch consumers must set retain_attention
            self.last_attention = attn
        else:
            self.last_attention = None
        attn_dropped = self.attn_dropout.forward(attn)
        context = self._pool.get("context", (b, self.n_heads, nq, self.d_head), x.dtype)
        np.matmul(attn_dropped, v, out=context)
        merged = self._pool.get("merged", (b, nq, self.d_model), x.dtype)
        np.copyto(merged.reshape(b, nq, self.n_heads, self.d_head),
                  context.transpose(0, 2, 1, 3))
        out = self.out_proj.forward(merged)
        self._cache = None if self.inference else (q, k, v, attn, attn_dropped, scale)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        q, k, v, attn, attn_dropped, scale = self._cache
        b, h, l, dh = q.shape
        pool = self._pool
        dtype = dy.dtype
        dcontext = self._split(self.out_proj.backward(dy))
        dattn_dropped = pool.get("d_attn", (b, h, l, l), dtype)
        np.matmul(dcontext, v.transpose(0, 1, 3, 2), out=dattn_dropped)
        dv = pool.get("dv", (b, h, l, dh), dtype)
        np.matmul(attn_dropped.transpose(0, 1, 3, 2), dcontext, out=dv)
        dattn = self.attn_dropout.backward(dattn_dropped)
        # softmax backward, in place on dattn (a scratch buffer either way —
        # the dropout's pooled output or d_attn itself in eval):
        # ds = attn * (dattn - sum(dattn * attn))
        tmp = pool.get("d_tmp", (b, h, l, l), dtype)
        np.multiply(dattn, attn, out=tmp)
        inner = sum_lastaxis(tmp)
        dattn -= inner
        dattn *= attn
        dscores = dattn
        # masked positions have attn == 0, so dscores is already 0 there.
        # q in the cache is pre-scaled, so dk comes out fully scaled from the
        # contraction and only dq needs the explicit scale factor
        dq = pool.get("dq", (b, h, l, dh), dtype)
        np.matmul(dscores, k, out=dq)
        dq *= scale
        dk = pool.get("dk", (b, h, l, dh), dtype)
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dk)
        # write the three head-merged gradients straight into one (B, L, 3D)
        # buffer — the old concatenate built three merge copies plus a fourth
        # array for the result
        dqkv = pool.get("dqkv", (b, l, 3 * self.d_model), dtype)
        dqkv5 = dqkv.reshape(b, l, 3, h, dh)
        np.copyto(dqkv5[:, :, 0], dq.transpose(0, 2, 1, 3))
        np.copyto(dqkv5[:, :, 1], dk.transpose(0, 2, 1, 3))
        np.copyto(dqkv5[:, :, 2], dv.transpose(0, 2, 1, 3))
        return self.qkv_proj.backward(dqkv)
