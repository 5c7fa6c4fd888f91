"""Masked-language-model pretraining — the DeepSCC substitute (§4.1).

DeepSCC fine-tunes RoBERTa on source code with the MLM objective; here we
pretrain our scaled-down encoder on the corpus code itself (labels never
used), producing a checkpoint PragFormer loads before fine-tuning.  The
masking recipe is BERT/RoBERTa's: 15 % of non-special positions are
selected; of those, 80 % become ``<mask>``, 10 % a random token, 10 % stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn import (
    EncoderConfig,
    FusedAdamW,
    MLMHead,
    TransformerEncoder,
    cross_entropy,
)
from repro.nn.dtype import get_dtype
from repro.models.pragformer import _Joint, trim_batch
from repro.tokenize.vocab import Vocab
from repro.train.ddp import (
    DataParallelTrainer,
    DDPConfig,
    shard_rng,
    stochastic_reseeder,
)
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

__all__ = ["MLMConfig", "MLMPretrainer", "mask_tokens"]


@dataclass(frozen=True)
class MLMConfig:
    mask_prob: float = 0.15
    mask_token_frac: float = 0.8
    random_token_frac: float = 0.1
    lr: float = 5e-4
    weight_decay: float = 0.01
    batch_size: int = 32
    grad_clip: float = 1.0


def mask_tokens(
    ids: np.ndarray,
    mask: np.ndarray,
    vocab: Vocab,
    rng: np.random.Generator,
    cfg: MLMConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply the BERT masking recipe.

    Returns (corrupted ids, targets, loss_mask): positions not selected for
    prediction carry loss_mask 0.  CLS and padding are never masked.
    """
    corrupted = ids.copy()
    selectable = mask.astype(bool) & (ids != vocab.cls_id) & (ids != vocab.pad_id)
    selected = selectable & (rng.random(ids.shape) < cfg.mask_prob)
    roll = rng.random(ids.shape)
    to_mask = selected & (roll < cfg.mask_token_frac)
    to_random = selected & (roll >= cfg.mask_token_frac) & (
        roll < cfg.mask_token_frac + cfg.random_token_frac
    )
    corrupted[to_mask] = vocab.mask_id
    n_random = int(to_random.sum())
    if n_random:
        # draw replacement ids from the non-special region [4, |V|)
        corrupted[to_random] = rng.integers(4, len(vocab), size=n_random)
    # loss mask in the compute dtype — a float64 mask would upcast the MLM
    # loss path out of float32
    return corrupted, ids, selected.astype(get_dtype())


class MLMPretrainer:
    """Self-supervised pretraining loop over encoded (unlabeled) sequences."""

    def __init__(self, encoder_cfg: EncoderConfig, vocab: Vocab,
                 cfg: Optional[MLMConfig] = None, rng: RngLike = None) -> None:
        self.cfg = cfg or MLMConfig()
        self.vocab = vocab
        seed = ensure_rng(rng)
        r_enc, r_head, self._rng = spawn_rngs(seed, 3)
        self.encoder = TransformerEncoder(encoder_cfg, rng=r_enc)
        self.mlm_head = MLMHead(encoder_cfg.d_model, encoder_cfg.vocab_size, rng=r_head)
        self._optimizer: Optional[FusedAdamW] = None
        #: step losses + reduce counters from the last fit (bench input)
        self.ddp_stats: Optional[Dict] = None

    def fit(self, ids: np.ndarray, mask: np.ndarray, epochs: int = 3,
            verbose: bool = False, n_workers: int = 1) -> List[float]:
        """Pretrain on (N, L) id/mask arrays; returns per-epoch MLM losses.

        Only ~15 % of positions carry MLM loss (``mask_prob``), so the
        vocab-sized head projection — the single largest GEMM in
        pretraining — runs on a gather of the masked positions instead of
        the full (B, L) grid: same losses and gradients as the dense
        ``masked_cross_entropy`` formulation at ~1/7 of the head compute,
        and the (B, L, V) logits/gradient tensors are never materialized.

        Training runs through the shared-memory data-parallel trainer
        (:mod:`repro.train.ddp`) on ``n_workers`` processes: bit-identical
        losses and weights at every worker count, and one optimizer
        continues across calls.  Each micro-shard re-derives its masking
        noise (:func:`shard_rng`) and one generator shared by every
        dropout (a reseeder built once per fit) from the
        ``(seed, step, shard)`` key, computes *sum*-reduced MLM gradients,
        and reports (loss total, masked-position count); the trainer
        normalizes by the batch's total masked positions, so the objective
        is the per-position mean CE.  The encoder enters train mode once,
        before the workers fork.
        """
        if self._optimizer is None:
            # built once: moments and the bias-correction step count carry
            # across calls
            self._optimizer = FusedAdamW(
                _Joint(self.encoder, self.mlm_head),
                lr=self.cfg.lr, weight_decay=self.cfg.weight_decay)
        seed = int(self._rng.integers(2**62))
        ftype = get_dtype().type
        reseed = stochastic_reseeder((self.encoder, self.mlm_head))

        def shard_backward(sel, key):
            reseed(key)
            b_ids, b_mask = trim_batch(ids[sel], mask[sel])
            corrupted, targets, loss_mask = mask_tokens(
                b_ids, b_mask, self.vocab, shard_rng(key, salt=2), self.cfg)
            hidden = self.encoder.forward(corrupted, b_mask)
            d_model = hidden.shape[-1]
            selected = np.flatnonzero(loss_mask.reshape(-1))
            dhidden = np.zeros_like(hidden)
            loss_sum = 0.0
            if selected.size:
                logits = self.mlm_head.forward(
                    hidden.reshape(-1, d_model)[selected])
                loss, dlogits = cross_entropy(
                    logits, targets.reshape(-1)[selected])
                # sum reduction: undo cross_entropy's 1/n mean scaling so
                # shards add without knowing each other's sizes
                dsel = self.mlm_head.backward(dlogits * ftype(selected.size))
                dhidden.reshape(-1, d_model)[selected] = dsel
                loss_sum = float(loss) * selected.size
            self.encoder.backward(dhidden)
            return loss_sum, float(selected.size)

        n = ids.shape[0]
        bs = self.cfg.batch_size
        losses: List[float] = []
        ddp_cfg = DDPConfig(n_workers=n_workers, seed=seed)
        self.encoder.train()
        with DataParallelTrainer(self._optimizer, shard_backward,
                                 n_examples=n, config=ddp_cfg,
                                 grad_clip=self.cfg.grad_clip) as trainer:
            for epoch in range(epochs):
                order = self._rng.permutation(n)
                batches = [order[start:start + bs] for start in range(0, n, bs)]
                losses.append(trainer.run_epoch(batches, epoch=epoch))
                if verbose:  # pragma: no cover
                    print(f"MLM epoch {epoch + 1} (ddp x{n_workers}): "
                          f"loss {losses[-1]:.4f}")
            self.ddp_stats = {
                "step_losses": list(trainer.step_losses),
                "counters": dict(trainer.counters),
            }
        return losses

    def encoder_state(self) -> Dict[str, np.ndarray]:
        """The pretrained encoder checkpoint PragFormer transfers from."""
        return self.encoder.state_dict()

