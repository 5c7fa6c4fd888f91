"""Lazy, memoized experiment context.

Every table/figure experiment shares the same corpus, splits, encodings, and
trained models; building them once per scale keeps the full benchmark
harness tractable.  All artifacts are constructed deterministically from the
scale's seed.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple


from repro.corpus import Corpus, CorpusConfig, build_corpus
from repro.data import (
    DatasetSplits,
    EncodedDataset,
    TokenCache,
    encode_dataset,
    make_clause_dataset,
    make_directive_dataset,
)
from repro.models import BowLogistic, MLMConfig, MLMPretrainer, PragFormer, TrainHistory
from repro.nn import EncoderConfig
from repro.pipeline.config import ScaleConfig, get_scale
from repro.s2s import ComPar
from repro.tokenize import Representation

__all__ = ["ExperimentContext", "get_context"]


class ExperimentContext:
    """Shared, lazily-built artifacts for one scale."""

    def __init__(self, scale: Optional[ScaleConfig] = None) -> None:
        self.scale = scale or get_scale()
        self.cache = TokenCache()
        self._corpus: Optional[Corpus] = None
        self._directive_splits: Optional[DatasetSplits] = None
        self._clause_splits: Dict[str, DatasetSplits] = {}
        self._encoded: Dict[Representation, EncodedDataset] = {}
        self._clause_encoded: Dict[str, EncodedDataset] = {}
        self._pragformer: Optional[Tuple[PragFormer, TrainHistory]] = None
        self._rep_models: Dict[Representation, Tuple[PragFormer, TrainHistory]] = {}
        self._clause_models: Dict[str, PragFormer] = {}
        self._bow: Optional[BowLogistic] = None
        self._clause_bows: Dict[str, BowLogistic] = {}
        self._pretrained_state: Optional[dict] = None
        self._shared_vocab = None
        #: worker processes per model fit (``repro train --workers N``);
        #: fits are bit-identical at every worker count
        self.train_workers: int = 1
        self.compar = ComPar()

    # -- data ------------------------------------------------------------------

    @property
    def corpus(self) -> Corpus:
        if self._corpus is None:
            self._corpus = build_corpus(
                CorpusConfig(n_records=self.scale.corpus_records, seed=self.scale.seed)
            )
        return self._corpus

    @property
    def directive_splits(self) -> DatasetSplits:
        if self._directive_splits is None:
            self._directive_splits = make_directive_dataset(self.corpus, rng=self.scale.seed)
        return self._directive_splits

    def clause_splits(self, clause: str) -> DatasetSplits:
        if clause not in self._clause_splits:
            self._clause_splits[clause] = make_clause_dataset(
                self.corpus, clause, balance=True, rng=self.scale.seed
            )
        return self._clause_splits[clause]

    @property
    def shared_vocab(self):
        """One vocabulary over all four representations' training streams —
        the analogue of the paper's single DeepSCC tokenizer, shared by every
        representation so the pretrained checkpoint is loadable everywhere.
        AST label types are rare in the TEXT-only MLM pretraining corpus,
        reproducing the paper's transfer mismatch for AST inputs (§4.2)."""
        if self._shared_vocab is None:
            from repro.tokenize import Vocab

            streams = []
            for rep in Representation:
                streams.extend(self.cache.tokens(ex.record, rep)
                               for ex in self.directive_splits.train)
            self._shared_vocab = Vocab.build(streams, min_freq=self.scale.min_freq)
        return self._shared_vocab

    def encoded(self, rep: Representation = Representation.TEXT) -> EncodedDataset:
        if rep not in self._encoded:
            self._encoded[rep] = encode_dataset(
                self.directive_splits, rep,
                max_len=self.scale.pragformer.max_len,
                min_freq=self.scale.min_freq, cache=self.cache,
                vocab=self.shared_vocab,
            )
        return self._encoded[rep]

    def clause_encoded(self, clause: str) -> EncodedDataset:
        if clause not in self._clause_encoded:
            self._clause_encoded[clause] = encode_dataset(
                self.clause_splits(clause), Representation.TEXT,
                max_len=self.scale.pragformer.max_len,
                min_freq=self.scale.min_freq, cache=self.cache,
            )
        return self._clause_encoded[clause]

    # -- models -----------------------------------------------------------------

    @property
    def pretrained_state(self) -> dict:
        """MLM-pretrained encoder weights over the (unlabeled) corpus."""
        if self._pretrained_state is None:
            enc = self.encoded()
            cfg = self.scale.pragformer
            encoder_cfg = EncoderConfig(
                vocab_size=len(enc.vocab), d_model=cfg.d_model, n_heads=cfg.n_heads,
                n_layers=cfg.n_layers, d_ff=cfg.d_ff, max_len=cfg.max_len,
                dropout=cfg.dropout,
            )
            pretrainer = MLMPretrainer(encoder_cfg, enc.vocab,
                                       MLMConfig(batch_size=cfg.batch_size),
                                       rng=self.scale.seed + 17)
            pretrainer.fit(enc.train.ids, enc.train.mask,
                           epochs=self.scale.mlm_epochs,
                           n_workers=self.train_workers)
            self._pretrained_state = pretrainer.encoder_state()
        return self._pretrained_state

    def train_pragformer(self, rep: Representation = Representation.TEXT,
                         pretrained: bool = True) -> Tuple[PragFormer, TrainHistory]:
        """Train (memoized) a PragFormer on the directive task for ``rep``."""
        if rep in self._rep_models:
            return self._rep_models[rep]
        enc = self.encoded(rep)
        model = PragFormer(len(enc.vocab), self.scale.pragformer, rng=self.scale.seed)
        if pretrained:
            # the same text-MLM checkpoint initializes every representation,
            # as the paper fine-tunes the same DeepSCC model for each
            model.load_pretrained_encoder(self.pretrained_state)
        history = model.fit(enc.train, enc.validation, epochs=self.scale.epochs,
                            n_workers=self.train_workers)
        self._rep_models[rep] = (model, history)
        return model, history

    @property
    def pragformer(self) -> PragFormer:
        """The main (TEXT-representation) directive classifier."""
        return self.train_pragformer(Representation.TEXT)[0]

    def clause_model(self, clause: str) -> PragFormer:
        if clause not in self._clause_models:
            enc = self.clause_encoded(clause)
            # zlib.crc32 is a stable digest; hash() is salted per process
            # (PYTHONHASHSEED) and made clause models irreproducible
            model = PragFormer(len(enc.vocab), self.scale.pragformer,
                               rng=self.scale.seed + zlib.crc32(clause.encode("utf-8")) % 1000)
            model.fit(enc.train, enc.validation, epochs=self.scale.epochs,
                      n_workers=self.train_workers)
            self._clause_models[clause] = model
        return self._clause_models[clause]

    @property
    def bow(self) -> BowLogistic:
        if self._bow is None:
            enc = self.encoded()
            self._bow = BowLogistic(len(enc.vocab)).fit(enc.train)
        return self._bow

    def clause_bow(self, clause: str) -> BowLogistic:
        if clause not in self._clause_bows:
            enc = self.clause_encoded(clause)
            self._clause_bows[clause] = BowLogistic(len(enc.vocab)).fit(enc.train)
        return self._clause_bows[clause]


_CONTEXTS: Dict[str, ExperimentContext] = {}


def get_context(scale: Optional[ScaleConfig] = None) -> ExperimentContext:
    """Process-wide memoized context per scale name."""
    scale = scale or get_scale()
    if scale.name not in _CONTEXTS:
        _CONTEXTS[scale.name] = ExperimentContext(scale)
    return _CONTEXTS[scale.name]
