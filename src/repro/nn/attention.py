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

:meth:`MultiHeadSelfAttention.forward_packed` is the inference forward
over a pad-free :class:`~repro.nn.packing.PackedBatch`: the projections
run on the real token rows alone and only the score/softmax/context step
runs per length group.  With ``cls_only`` it attends from each snippet's
CLS row alone — keys and values still cover every token, but queries,
scores, context and the output projection shrink to one row per snippet,
which is all a classifier that reads the CLS position needs (see
:meth:`PragFormer.predict_proba`).  The padded :meth:`forward` takes the
same ``cls_only`` for classifier training, and its backward then mirrors
it: the query columns of the projection's gradients come from the CLS
rows, the key/value columns from every row.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.nn.packing import PackedBatch
from repro.nn.scratch import BufferPool, sum_lastaxis, sum_leading
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
        # (B, H, L, L); (B, H, 1, L) after a padded cls_only forward
        self.last_attention: Optional[np.ndarray] = None
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

    @property
    def _scale(self) -> float:
        # python float, not np.float64: a strong float64 scalar would upcast
        # the entire score/softmax/context chain out of the compute dtype
        return 1.0 / float(np.sqrt(self.d_head))

    def forward(self, x: np.ndarray, mask: Optional[np.ndarray] = None,
                cls_only: bool = False) -> np.ndarray:
        """``mask`` is (B, L) with 1 for real tokens and 0 for padding;
        pad keys get an exact 0 weight.  Returns (B, L, D), or (B, 1, D)
        with ``cls_only``: keys and values are projected for every
        position, queries for the CLS row alone, and the scores, softmax,
        attention dropout, context and output projection shrink to that
        one row."""
        b, l, d = x.shape
        h, dh = self.n_heads, self.d_head
        if cls_only:
            W, bias = self.qkv_proj.W.data, self.qkv_proj.b.data
            q = x[:, 0] @ W[:, :d]
            q += bias[:d]
            kv = x.reshape(b * l, d) @ W[:, d:]
            kv += bias[d:]
            q = q.reshape(b, 1, h, dh).transpose(0, 2, 1, 3)  # (B, H, 1, dh)
            k, v = kv.reshape(b, l, 2, h, dh).transpose(2, 0, 3, 1, 4)
        else:
            qkv = self.qkv_proj.forward(x)  # (B, L, 3D)
            q, k, v = qkv.reshape(b, l, 3, h, dh).transpose(2, 0, 3, 1, 4)
        n_queries = q.shape[2]
        scale = self._scale
        # pre-scale q (an L x d_head pass) instead of the L x L score matrix;
        # backward compensates by scaling dq once — dk needs no scale at all
        # because it contracts against the already-scaled q
        q *= scale
        # scores live in a pooled buffer reused across steps with the same
        # bucket shape; the softmax then runs in place on it, so one
        # (B, H, L, L) buffer serves the whole score -> attention chain
        scores = self._pool.get("scores", (b, h, n_queries, l), x.dtype)
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
        context = self._pool.get("context", (b, h, n_queries, dh), x.dtype)
        np.matmul(attn_dropped, v, out=context)
        merged = self._pool.get("merged", (b, n_queries, d), x.dtype)
        np.copyto(merged.reshape(b, n_queries, h, dh),
                  context.transpose(0, 2, 1, 3))
        out = self.out_proj.forward(merged)
        self._cache = None if self.inference else (
            x if cls_only else None, q, k, v, attn, attn_dropped, scale)
        return out

    def forward_packed(self, x: np.ndarray, batch: PackedBatch,
                       cls_only: bool = False) -> np.ndarray:
        """Inference attention over ``batch``'s packed (Σlen, D) token rows.

        Returns (Σlen, D), or (N, D) — one row per snippet — with
        ``cls_only``, which attends from each snippet's CLS row alone.
        The fused projections run on the packed rows (queries on the CLS
        rows only under ``cls_only``); scores, softmax and context run per
        length group, on the group's rows gathered into a (rows, width)
        layout whose pad cells are zero."""
        n_tokens, d = x.shape
        h, dh = self.n_heads, self.d_head
        W, bias = self.qkv_proj.W.data, self.qkv_proj.b.data
        # projections with a zero row after the last token: gathering a
        # pad cell reads it, so pad keys and values are exact zeros.  The
        # projections and gathered cells are not pooled: a pool per head
        # would hold them three times over in a three-head worker
        if cls_only:
            q = x[batch.starts] @ W[:, :d]
            q += bias[:d]
            q *= self._scale
            q = q.reshape(-1, 1, h, dh).transpose(0, 2, 1, 3)  # (N, H, 1, dh)
            parts = 2
            proj = np.empty((n_tokens + 1, 2 * d), x.dtype)
            np.matmul(x, W[:, d:], out=proj[:n_tokens])
            proj[:n_tokens] += bias[d:]
        else:
            parts = 3
            proj = np.empty((n_tokens + 1, 3 * d), x.dtype)
            np.matmul(x, W, out=proj[:n_tokens])
            proj[:n_tokens] += bias
            proj[:n_tokens, :d] *= self._scale
        proj[n_tokens] = 0
        merged = self._pool.get("merged", (len(batch) if cls_only else n_tokens, d),
                                x.dtype)
        for g in batch.groups:
            rows, width = g.rows.stop - g.rows.start, g.width
            cells = (proj[g.tokens] if g.gather is None
                     else np.take(proj, g.gather, axis=0, mode="clip"))
            heads = cells.reshape(rows, width, parts, h, dh).transpose(2, 0, 3, 1, 4)
            qg = q[g.rows] if cls_only else heads[0]
            k, v = heads[-2], heads[-1]
            nq = qg.shape[2]
            scores = self._pool.get("scores", (rows, h, nq, width), x.dtype)
            np.matmul(qg, k.transpose(0, 1, 3, 2), out=scores)
            key_mask = (None if g.key_mask is None
                        else g.key_mask.astype(x.dtype, copy=False))
            attn = _masked_softmax(scores, key_mask)
            # the context lands head-merged: (rows, nq, H, dh) memory
            grid = self._pool.get("grid", (rows, nq, h, dh), x.dtype)
            np.matmul(attn, v, out=grid.transpose(0, 2, 1, 3))
            grid = grid.reshape(rows * nq, d)
            if cls_only:
                merged[g.rows] = grid
            elif g.real is None:
                merged[g.tokens] = grid
            else:
                # mode="clip" (every index is in range): under the default
                # "raise", take buffers its output, ~2x slower
                np.take(grid, g.real, axis=0, out=merged[g.tokens], mode="clip")
        self.last_attention = None
        self._cache = None
        return self.out_proj.forward(merged)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        cls_x, q, k, v, attn, attn_dropped, scale = self._cache
        b, h, n_queries, dh = q.shape
        l = k.shape[2]
        pool = self._pool
        dtype = dy.dtype
        dcontext = self._split(self.out_proj.backward(dy))
        dattn_dropped = pool.get("d_attn", (b, h, n_queries, l), dtype)
        np.matmul(dcontext, v.transpose(0, 1, 3, 2), out=dattn_dropped)
        dv = pool.get("dv", (b, h, l, dh), dtype)
        np.matmul(attn_dropped.transpose(0, 1, 3, 2), dcontext, out=dv)
        dattn = self.attn_dropout.backward(dattn_dropped)
        # softmax backward, in place on dattn (a scratch buffer either way —
        # the dropout's pooled output or d_attn itself in eval):
        # ds = attn * (dattn - sum(dattn * attn))
        tmp = pool.get("d_tmp", (b, h, n_queries, l), dtype)
        np.multiply(dattn, attn, out=tmp)
        inner = sum_lastaxis(tmp)
        dattn -= inner
        dattn *= attn
        dscores = dattn
        # masked positions have attn == 0, so dscores is already 0 there.
        # q in the cache is pre-scaled, so dk comes out fully scaled from the
        # contraction and only dq needs the explicit scale factor
        dq = pool.get("dq", (b, h, n_queries, dh), dtype)
        np.matmul(dscores, k, out=dq)
        dq *= scale
        dk = pool.get("dk", (b, h, l, dh), dtype)
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dk)
        if cls_x is not None:
            return self._cls_only_input_grad(cls_x, dq, dk, dv)
        # write the three head-merged gradients straight into one (B, L, 3D)
        # buffer — the old concatenate built three merge copies plus a fourth
        # array for the result
        dqkv = pool.get("dqkv", (b, l, 3 * self.d_model), dtype)
        dqkv5 = dqkv.reshape(b, l, 3, h, dh)
        np.copyto(dqkv5[:, :, 0], dq.transpose(0, 2, 1, 3))
        np.copyto(dqkv5[:, :, 1], dk.transpose(0, 2, 1, 3))
        np.copyto(dqkv5[:, :, 2], dv.transpose(0, 2, 1, 3))
        return self.qkv_proj.backward(dqkv)

    def _cls_only_input_grad(self, x: np.ndarray, dq: np.ndarray,
                             dk: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """``qkv_proj``'s backward after a ``cls_only`` forward: the query
        columns of its gradients come from the CLS rows, the key/value
        columns from every row, and the input gradient is the K/V part on
        every row plus the query part on the CLS rows."""
        b, l, d = x.shape
        h, dh = self.n_heads, self.d_head
        W, bias = self.qkv_proj.W, self.qkv_proj.b
        dkv = self._pool.get("dqkv", (b, l, 2 * d), dq.dtype)
        dkv5 = dkv.reshape(b, l, 2, h, dh)
        np.copyto(dkv5[:, :, 0], dk.transpose(0, 2, 1, 3))
        np.copyto(dkv5[:, :, 1], dv.transpose(0, 2, 1, 3))
        dkv = dkv.reshape(b * l, 2 * d)
        dq = dq.reshape(b, d)  # (B, H, 1, dh) holds the head-merged rows
        x_rows, x_cls = x.reshape(b * l, d), x[:, 0]
        W.grad[:, :d] += x_cls.T @ dq
        W.grad[:, d:] += x_rows.T @ dkv
        bias.grad[:d] += sum_leading(dq)
        bias.grad[d:] += sum_leading(dkv)
        dx = (dkv @ W.data[:, d:].T).reshape(b, l, d)
        dx[:, 0] += dq @ W.data[:, :d].T
        return dx
