"""Transformer encoder: embeddings, encoder layers, and the full stack.

Post-LN layout (as in RoBERTa, which DeepSCC fine-tunes):
``x = LN(x + Attn(x)); x = LN(x + FFN(x))``.  Learned positional embeddings,
GELU feed-forward, dropout on embeddings/attention/FFN.

``forward`` runs a padded (B, L) batch and backs training, ``eval``, MLM
pretraining and attention retention.  With ``cls_only`` (classifier
training) the last block computes the CLS rows alone, in the forward and
the backward pass, and its dropouts draw masks for those rows alone.
``forward_packed`` is the inference forward over a pad-free
:class:`~repro.nn.packing.PackedBatch` that returns each snippet's CLS
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    ResidualLayerNorm,
)
from repro.nn.module import Module
from repro.nn.packing import PackedBatch
from repro.utils.rng import RngLike, spawn_rngs

__all__ = ["EncoderConfig", "FeedForward", "TransformerEncoderLayer", "TransformerEncoder"]


@dataclass(frozen=True)
class EncoderConfig:
    """Hyperparameters of the encoder stack.

    Defaults are the scaled-down PragFormer used throughout the benches;
    §4.3's sequence cap of 110 tokens is the default ``max_len``.
    """

    vocab_size: int = 1000
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    max_len: int = 110
    dropout: float = 0.1

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")


class FeedForward(Module):
    """Position-wise FFN: Linear -> GELU -> Dropout -> Linear."""

    def __init__(self, d_model: int, d_ff: int, dropout: float, rng: RngLike = None) -> None:
        super().__init__()
        r1, r2, r3 = spawn_rngs(rng, 3)
        self.fc1 = Linear(d_model, d_ff, rng=r1)
        self.act = GELU()
        self.drop = Dropout(dropout, rng=r2)
        self.fc2 = Linear(d_ff, d_model, rng=r3)

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = self.act.forward(self.fc1.forward(x))
        return self.fc2.forward(self.drop.forward(hidden))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return self.fc1.backward(self.act.backward(self.drop.backward(self.fc2.backward(dy))))


class TransformerEncoderLayer(Module):
    """One post-LN encoder block.

    The residual adds are fused into the layer norms
    (:class:`~repro.nn.layers.ResidualLayerNorm`); the attribute names stay
    ``ln1``/``ln2`` so checkpoints keep their ``ln1.gamma``-style keys.
    """

    def __init__(self, cfg: EncoderConfig, rng: RngLike = None) -> None:
        super().__init__()
        r_attn, r_ff, r_d1, r_d2 = spawn_rngs(rng, 4)
        self.attn = MultiHeadSelfAttention(cfg.d_model, cfg.n_heads, cfg.dropout, rng=r_attn)
        self.ln1 = ResidualLayerNorm(cfg.d_model)
        self.ffn = FeedForward(cfg.d_model, cfg.d_ff, cfg.dropout, rng=r_ff)
        self.ln2 = ResidualLayerNorm(cfg.d_model)
        self.drop1 = Dropout(cfg.dropout, rng=r_d1)
        self.drop2 = Dropout(cfg.dropout, rng=r_d2)
        self._cls_only = False

    def forward(self, x: np.ndarray, mask: Optional[np.ndarray] = None,
                cls_only: bool = False) -> np.ndarray:
        """(B, L, D) -> (B, L, D), or the CLS rows (B, 1, D) with
        ``cls_only``: attention reads every position's keys and values,
        and ``out_proj``, both LayerNorms, the FFN and every dropout run
        on the B CLS rows."""
        self._cls_only = cls_only
        attended = self.attn.forward(x, mask, cls_only)
        if cls_only:
            x = x[:, :1]
        x = self.ln1.forward(x, self.drop1.forward(attended))
        return self.ln2.forward(x, self.drop2.forward(self.ffn.forward(x)))

    def forward_packed(self, x: np.ndarray, batch: PackedBatch,
                       cls_only: bool = False) -> np.ndarray:
        """Inference block over packed (Σlen, D) rows -> (Σlen, D), or
        (N, D) CLS rows with ``cls_only``: attention still reads every
        token's keys and values, the residuals, LayerNorms and FFN run on
        the CLS rows alone.  Dropout is the identity at inference."""
        attended = self.attn.forward_packed(x, batch, cls_only)
        if cls_only:
            x = x[batch.starts]
        x = self.ln1.forward(x, attended)
        return self.ln2.forward(x, self.ffn.forward(x))

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # each ResidualLayerNorm backward returns a fresh gradient for the
        # residual sum, so the branch gradients accumulate into it in place
        d = self.ln2.backward(dy)
        d += self.ffn.backward(self.drop2.backward(d))
        d = self.ln1.backward(d)
        dx = self.attn.backward(self.drop1.backward(d))
        if self._cls_only:
            # the residual reached the CLS rows alone
            dx[:, :1] += d
            return dx
        d += dx
        return d


class TransformerEncoder(Module):
    """Token + position embeddings followed by the encoder stack.

    ``forward`` returns the full hidden-state sequence (B, L, D); heads pick
    what they need (all positions for MLM).  ``forward(cls_only=True)``
    returns the CLS rows (B, 1, D), all a classification head reads, and
    ``backward`` then takes a (B, 1, D) gradient.
    ``forward_packed`` (inference only) returns the CLS rows (N, D) of a
    :class:`~repro.nn.packing.PackedBatch`: every block but the last runs
    on the real token rows, and the last computes the CLS rows alone — its
    other rows would reach nothing a classification head reads.
    """

    def __init__(self, cfg: EncoderConfig, rng: RngLike = None) -> None:
        super().__init__()
        self.cfg = cfg
        r_tok, r_pos, r_drop, *r_layers = spawn_rngs(rng, 3 + cfg.n_layers)
        self.tok_emb = Embedding(cfg.vocab_size, cfg.d_model, rng=r_tok)
        self.pos_emb = Embedding(cfg.max_len, cfg.d_model, rng=r_pos)
        self.emb_ln = LayerNorm(cfg.d_model)
        self.emb_drop = Dropout(cfg.dropout, rng=r_drop)
        self.layers: List[TransformerEncoderLayer] = [
            TransformerEncoderLayer(cfg, rng=r) for r in r_layers
        ]

    def forward(self, ids: np.ndarray, mask: Optional[np.ndarray] = None,
                cls_only: bool = False) -> np.ndarray:
        """Hidden states (B, L, D).  With ``cls_only`` (what a CLS
        classifier trains on) the last block computes the CLS rows alone
        and the result is (B, 1, D); an encoder with no block returns
        (B, L, D) either way."""
        l = ids.shape[1]
        self._check_length(l)
        if mask is not None and mask.all():
            # length-bucketed + trimmed batches are frequently padding-free;
            # dropping the mask skips one full (B, H, L, L) multiply per layer
            mask = None
        # every row's positions are 0..l-1: add the first l position
        # vectors by broadcasting (backward sums their gradient over rows)
        x = self.tok_emb.forward(ids) + self.pos_emb.W.data[:l]
        x = self.emb_drop.forward(self.emb_ln.forward(x))
        body, last = self.layers, None
        if cls_only and self.layers:
            *body, last = self.layers
        for layer in body:
            x = layer.forward(x, mask)
        return x if last is None else last.forward(x, mask, cls_only=True)

    def forward_packed(self, batch: PackedBatch) -> np.ndarray:
        """CLS hidden states (N, D) of ``batch``, in its packed order."""
        if not self.inference:
            raise ValueError("forward_packed needs inference_mode: backward "
                             "expects a padded forward")
        self._check_length(batch.longest)
        x = self.tok_emb.forward(batch.ids) + self.pos_emb.forward(batch.positions)
        x = self.emb_ln.forward(x)
        if not self.layers:
            return x[batch.starts]
        for layer in self.layers[:-1]:
            x = layer.forward_packed(x, batch)
        return self.layers[-1].forward_packed(x, batch, cls_only=True)

    def _check_length(self, length: int) -> None:
        if length > self.cfg.max_len:
            raise ValueError(f"sequence length {length} exceeds max_len {self.cfg.max_len}")

    def backward(self, dy: np.ndarray) -> None:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        dy = self.emb_ln.backward(self.emb_drop.backward(dy))
        self.tok_emb.backward(dy)
        self.pos_emb.W.grad[:dy.shape[1]] += dy.sum(axis=0)

    def attention_maps(self) -> List[np.ndarray]:
        """Per-layer attention weights from the most recent forward pass.

        Under ``inference_mode`` the maps are dropped unless each layer's
        ``attn.retain_attention`` is set (see
        :meth:`PragFormer.predict_proba`'s ``retain_attention`` flag).
        Training/eval maps alias pooled scratch and are only valid until
        the next forward; set ``retain_attention`` to get private copies
        that survive later batches."""
        return [layer.attn.last_attention for layer in self.layers]
