"""Pure-NumPy neural-network substrate: modules, transformer encoder, task
heads, losses, and AdamW — the role HuggingFace transformers + PyTorch play
in the paper, built from scratch with explicit backpropagation."""

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.heads import ClassificationHead, MLMHead
from repro.nn.layers import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    ReLU,
    ResidualLayerNorm,
)
from repro.nn.losses import cross_entropy, masked_cross_entropy, softmax
from repro.nn.module import Module, Parameter, ParameterArena
from repro.nn.optim import FusedAdamW, WarmupSchedule
from repro.nn.scratch import BufferPool, pooling_disabled, pooling_enabled
from repro.nn.transformer import (
    EncoderConfig,
    FeedForward,
    TransformerEncoder,
    TransformerEncoderLayer,
)

__all__ = [
    "MultiHeadSelfAttention",
    "ClassificationHead",
    "MLMHead",
    "Dropout",
    "Embedding",
    "GELU",
    "LayerNorm",
    "Linear",
    "ReLU",
    "ResidualLayerNorm",
    "cross_entropy",
    "masked_cross_entropy",
    "softmax",
    "Module",
    "Parameter",
    "ParameterArena",
    "FusedAdamW",
    "WarmupSchedule",
    "BufferPool",
    "pooling_disabled",
    "pooling_enabled",
    "EncoderConfig",
    "FeedForward",
    "TransformerEncoder",
    "TransformerEncoderLayer",
]
