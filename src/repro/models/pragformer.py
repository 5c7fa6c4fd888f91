"""PragFormer: transformer encoder + FC classification head (§4).

``PragFormer.fit`` runs the §4.3 training recipe — AdamW, dropout, CE loss,
fine-tuning the full encoder — and records per-epoch train loss, validation
loss, and validation accuracy, which are exactly the series of Figures 4–6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.data.encoding import EncodedSplit
from repro.nn import (
    ClassificationHead,
    EncoderConfig,
    FusedAdamW,
    TransformerEncoder,
    WarmupSchedule,
    cross_entropy,
    softmax,
)
from repro.nn.dtype import get_dtype
from repro.nn.packing import GROUP_WASTE, PackedBatch
from repro.train.ddp import DataParallelTrainer, DDPConfig, stochastic_reseeder
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

__all__ = ["PragFormerConfig", "TrainHistory", "PragFormer", "trim_batch"]


def _length_bucketed_batches(lengths: np.ndarray, batch_size: int,
                             rng: np.random.Generator):
    """Shuffled batches with similar lengths grouped together.

    A plain shuffle puts one max-length row in almost every batch, defeating
    :func:`trim_batch`.  Sorting by length *within* shuffled windows (8
    batches wide) keeps batches near-uniform in length while preserving
    stochasticity; batch order is shuffled again afterwards.
    """
    n = len(lengths)
    order = rng.permutation(n)
    window = batch_size * 8
    batches = []
    for wstart in range(0, n, window):
        w = order[wstart : wstart + window]
        w = w[np.argsort(lengths[w], kind="stable")]
        for bstart in range(0, len(w), batch_size):
            batches.append(w[bstart : bstart + batch_size])
    return [batches[int(i)] for i in rng.permutation(len(batches))]


def trim_batch(ids: np.ndarray, mask: np.ndarray):
    """Drop all-padding tail columns from a batch.

    Attention cost is quadratic in sequence length, so padding every batch to
    the global max_len (110) wastes most of the compute; trimming to the
    batch's longest real row is semantics-preserving (pad positions carry no
    gradient) and is the single largest speedup in the training loop.
    """
    longest = int(mask.sum(axis=1).max())
    longest = max(1, longest)
    return ids[:, :longest], mask[:, :longest]


@dataclass(frozen=True)
class PragFormerConfig:
    """Model + training hyperparameters (scaled-down defaults; §4.3 shape)."""

    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    d_head_hidden: int = 64
    max_len: int = 110
    dropout: float = 0.1
    lr: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 32
    grad_clip: float = 1.0
    #: fraction of total steps spent in linear LR warmup (0 disables)
    warmup_frac: float = 0.0
    seed: int = 0


@dataclass
class TrainHistory:
    """Per-epoch curves — the series plotted in Figures 4–6."""

    train_loss: List[float] = field(default_factory=list)
    valid_loss: List[float] = field(default_factory=list)
    valid_accuracy: List[float] = field(default_factory=list)

    def best_epoch(self) -> int:
        """Epoch index (0-based) with the lowest validation loss — the §5.1
        model-selection rule ('the validation loss curve converges …')."""
        if not self.valid_loss:
            raise ValueError("no validation history recorded")
        return int(np.argmin(self.valid_loss))


class PragFormer:
    """The paper's model: encoder + two-dense-layer head, binary output."""

    def __init__(self, vocab_size: int, config: Optional[PragFormerConfig] = None,
                 rng: RngLike = None) -> None:
        self.config = config or PragFormerConfig()
        seed_rng = ensure_rng(rng if rng is not None else self.config.seed)
        r_enc, r_head, self._shuffle_rng = spawn_rngs(seed_rng, 3)
        enc_cfg = EncoderConfig(
            vocab_size=vocab_size,
            d_model=self.config.d_model,
            n_heads=self.config.n_heads,
            n_layers=self.config.n_layers,
            d_ff=self.config.d_ff,
            max_len=self.config.max_len,
            dropout=self.config.dropout,
        )
        self.encoder = TransformerEncoder(enc_cfg, rng=r_enc)
        self.head = ClassificationHead(
            self.config.d_model, self.config.d_head_hidden,
            n_classes=2, dropout=self.config.dropout, rng=r_head,
        )
        self._optimizer: Optional[FusedAdamW] = None
        #: step losses + reduce counters from the last fit (bench input)
        self.ddp_stats: Optional[dict] = None

    # -- transfer learning -----------------------------------------------------

    def load_pretrained_encoder(self, state: dict) -> None:
        """Initialize the encoder from an MLM-pretrained checkpoint (the
        DeepSCC transfer step of §4.1)."""
        self.encoder.load_state_dict(state)

    # -- core passes -------------------------------------------------------------

    def _forward_logits(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Logits (B, 2) from the padded training forward.  The head reads
        only the CLS position, so the encoder's last block computes the
        CLS rows alone, in the forward and in the backward pass."""
        return self.head.forward(self.encoder.forward(ids, mask, cls_only=True))

    def _packed_logits(self, rows: Sequence[np.ndarray],
                       group_waste: float = GROUP_WASTE) -> np.ndarray:
        """Logits (N, 2) for encoded id rows, in ``rows`` order, from one
        pad-free packed forward (see :class:`~repro.nn.packing.PackedBatch`).
        The head reads only the CLS row, which is all the packed forward
        returns."""
        if not (self.encoder.inference and self.head.inference):
            # a walk over every module (~90 µs): skip it when a previous
            # forward already left both in inference mode
            self.encoder.inference_mode()
            self.head.inference_mode()
        batch = PackedBatch(rows, group_waste)
        logits = self.head.forward(self.encoder.forward_packed(batch)[:, None, :])
        out = np.empty_like(logits)
        out[batch.order] = logits
        return out

    def _split_logits(self, split: EncodedSplit, batch_size: int):
        """``(sel, logits)`` per packed forward over ``split``: ``sel``
        indexes at most ``batch_size`` rows, longest rows first.  Real tokens must
        come first in each row (as :func:`~repro.data.encoding.pad_encoded`
        lays them out); an all-padding row is read as its CLS slot alone."""
        lengths = np.maximum(split.mask.sum(axis=1).astype(np.intp), 1)
        order = split.length_order()[::-1]
        for start in range(0, len(split), batch_size):
            sel = order[start : start + batch_size]
            yield sel, self._packed_logits(
                [split.ids[i, :lengths[i]] for i in sel])

    def _backward(self, dlogits: np.ndarray) -> None:
        self.encoder.backward(self.head.backward(dlogits))

    # -- training ------------------------------------------------------------------

    def fit(
        self,
        train: EncodedSplit,
        validation: Optional[EncodedSplit] = None,
        epochs: int = 5,
        verbose: bool = False,
        restore_best: bool = True,
        n_workers: int = 1,
    ) -> TrainHistory:
        """Fine-tune on a labelled split; returns the epoch history.

        With a validation split and ``restore_best`` (default), the weights
        from the lowest-validation-loss epoch are restored at the end — the
        paper's model-selection rule (§5.1: 'since the validation loss curve
        converges after 7–9 epochs, we choose to use the models trained up
        to those points').

        Training runs through the shared-memory data-parallel trainer
        (:mod:`repro.train.ddp`) on ``n_workers`` processes: the loss
        trajectory and final weights are bit-identical at every worker
        count, and one optimizer continues across calls.  Every
        micro-shard hands all the model's dropouts one generator seeded
        from its ``(seed, step, shard)`` key (a reseeder built once per
        fit) and reports *sum*-reduced gradients with its example count as
        weight, so the trained objective is the exact batch-mean CE.
        Train mode is set once, before the workers fork (they never leave
        it), and again on rank 0 after each validation.  Validation (and
        the restore-best snapshot) runs in the parent between epochs while
        the workers sit blocked on their semaphores; ``load_state_dict``
        writes parameters in place, so a restored snapshot lands in the
        shared segment the workers read.
        """
        cfg = self.config
        opt, schedule = self._optimizer_and_schedule(len(train), epochs)
        seed = int(self._shuffle_rng.integers(2**62))
        ftype = get_dtype().type
        ids_all, mask_all, labels_all = train.ids, train.mask, train.labels
        reseed = stochastic_reseeder((self.encoder, self.head))

        def shard_backward(sel, key):
            reseed(key)
            ids, mask = trim_batch(ids_all[sel], mask_all[sel])
            logits = self._forward_logits(ids, mask)
            loss, dlogits = cross_entropy(logits, labels_all[sel])
            # sum reduction: undo cross_entropy's 1/n mean scaling so
            # shards add without knowing each other's sizes
            self._backward(dlogits * ftype(len(sel)))
            return float(loss) * len(sel), float(len(sel))

        history = TrainHistory()
        lengths = train.mask.sum(axis=1)
        best_state = None
        best_loss = np.inf
        ddp_cfg = DDPConfig(n_workers=n_workers, seed=seed)
        self.encoder.train()
        self.head.train()
        with DataParallelTrainer(opt, shard_backward, n_examples=len(train),
                                 config=ddp_cfg, grad_clip=cfg.grad_clip,
                                 lr_schedule=schedule) as trainer:
            for epoch in range(epochs):
                if epoch and validation is not None:
                    # evaluate left rank 0 in inference mode
                    self.encoder.train()
                    self.head.train()
                batches = _length_bucketed_batches(
                    lengths, cfg.batch_size, self._shuffle_rng)
                history.train_loss.append(
                    trainer.run_epoch(batches, epoch=epoch))
                if validation is not None:
                    val_loss, val_acc = self.evaluate(validation)
                    history.valid_loss.append(val_loss)
                    history.valid_accuracy.append(val_acc)
                    if restore_best and val_loss < best_loss:
                        best_loss = val_loss
                        best_state = (self.encoder.state_dict(),
                                      self.head.state_dict())
                    if verbose:  # pragma: no cover - logging only
                        print(f"epoch {epoch + 1} (ddp x{n_workers}): "
                              f"train {history.train_loss[-1]:.4f} "
                              f"valid {val_loss:.4f} acc {val_acc:.4f}")
            self.ddp_stats = {
                "step_losses": list(trainer.step_losses),
                "counters": dict(trainer.counters),
            }
        if best_state is not None:
            self.encoder.load_state_dict(best_state[0])
            self.head.load_state_dict(best_state[1])
        return history

    def _optimizer_and_schedule(self, n_examples: int, epochs: int):
        """``fit``'s optimizer and LR schedule.  The optimizer is
        built once and memoized, so moments and the bias-correction step
        count carry across ``fit`` calls; the warmup schedule (``None``
        with ``warmup_frac`` 0) spans this call's steps."""
        cfg = self.config
        if self._optimizer is None:
            self._optimizer = FusedAdamW(_Joint(self.encoder, self.head),
                                         lr=cfg.lr,
                                         weight_decay=cfg.weight_decay)
        schedule = None
        if cfg.warmup_frac > 0:
            total_steps = epochs * max(
                1, (n_examples + cfg.batch_size - 1) // cfg.batch_size)
            schedule = WarmupSchedule(
                self._optimizer, peak_lr=cfg.lr,
                warmup_steps=max(1, int(cfg.warmup_frac * total_steps)))
        return self._optimizer, schedule

    # -- inference -----------------------------------------------------------------

    def predict_proba(self, split: EncodedSplit, batch_size: int = 128,
                      retain_attention: bool = False) -> np.ndarray:
        """(N, 2) class probabilities.

        Runs in ``inference_mode`` (no activation caching) on the pad-free
        packed forward, ``batch_size`` rows per call: position-wise work
        runs on the real tokens alone, attention per group of similar
        lengths, and the last block for the CLS rows the head reads.
        Probabilities agree with the padded ``eval`` forward to within 1e-6
        in float32.

        ``retain_attention`` runs the padded forward instead, with every
        block on every position, and keeps each layer's (B, H, L, L) maps;
        explain tooling that reads ``encoder.attention_maps()`` afterwards
        must request them.
        """
        # allocate in the compute dtype: np.empty's float64 default would
        # silently widen every downstream consumer of the probabilities
        out = np.empty((len(split), 2), dtype=get_dtype())
        if not retain_attention:
            for sel, logits in self._split_logits(split, batch_size):
                out[sel] = softmax(logits)
            return out
        self.encoder.inference_mode()
        self.head.inference_mode()
        attns = [layer.attn for layer in self.encoder.layers]
        for attn in attns:
            attn.retain_attention = True
        try:
            # process in length order so trim_batch bites (longest batch
            # first, so scratch pools size themselves once), then scatter
            order = split.length_order()[::-1]
            for start in range(0, len(split), batch_size):
                sel = order[start : start + batch_size]
                ids, mask = trim_batch(split.ids[sel], split.mask[sel])
                out[sel] = softmax(
                    self.head.forward(self.encoder.forward(ids, mask)))
            return out
        finally:
            for attn in attns:
                attn.retain_attention = False

    def predict_rows(self, rows: Sequence[np.ndarray],
                     group_waste: float = GROUP_WASTE) -> np.ndarray:
        """(N, 2) probabilities for encoded id rows (CLS first, no
        padding) from one packed forward; the serving engine's entry.
        ``group_waste`` bounds the padding of each attention group (see
        :func:`~repro.nn.packing.length_groups`)."""
        return softmax(self._packed_logits(rows, group_waste))

    def predict(self, split: EncodedSplit, batch_size: int = 128) -> np.ndarray:
        """Predicted labels: positive iff P(positive) > 0.5 (§4.1)."""
        return (self.predict_proba(split, batch_size)[:, 1] > 0.5).astype(np.int64)

    def evaluate(self, split: EncodedSplit, batch_size: int = 128):
        """(mean CE loss, accuracy) on a split.

        Runs the packed inference forward, like :meth:`predict_proba`;
        :meth:`fit` trains on padded batches, with the last block on the
        CLS rows alone."""
        total_loss = 0.0
        correct = 0
        for sel, logits in self._split_logits(split, batch_size):
            labels = split.labels[sel]
            loss, _ = cross_entropy(logits, labels)
            total_loss += loss * len(sel)
            correct += int((np.argmax(logits, axis=1) == labels).sum())
        n = len(split)
        return total_loss / max(1, n), correct / max(1, n)


class _Joint:
    """Adapter exposing an encoder + head pair to the optimizer as one
    model (parameters named ``encoder.*`` then ``head.*``)."""

    def __init__(self, encoder: TransformerEncoder, head) -> None:
        self.encoder = encoder
        self.head = head

    def named_parameters(self):
        yield from self.encoder.named_parameters("encoder.")
        yield from self.head.named_parameters("head.")
