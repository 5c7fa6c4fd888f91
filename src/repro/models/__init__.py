"""Models: PragFormer (transformer classifier), MLM pretraining (the DeepSCC
transfer substitute), and the BoW + logistic-regression baseline."""

from repro.models.bow import BowConfig, BowLogistic
from repro.models.hybrid import HybridAdvisor
from repro.models.persistence import (
    load_advisor,
    load_pragformer,
    save_advisor,
    save_pragformer,
    upgrade_advisor,
)
from repro.models.pragformer import PragFormer, PragFormerConfig, TrainHistory
from repro.models.pretrain import MLMConfig, MLMPretrainer, mask_tokens

__all__ = [
    "BowConfig",
    "BowLogistic",
    "HybridAdvisor",
    "load_advisor",
    "load_pragformer",
    "save_advisor",
    "save_pragformer",
    "upgrade_advisor",
    "PragFormer",
    "PragFormerConfig",
    "TrainHistory",
    "MLMConfig",
    "MLMPretrainer",
    "mask_tokens",
]
