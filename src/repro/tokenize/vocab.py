"""Vocabulary with special tokens and OOV handling.

The vocabulary is built over *training-set* token streams only; validation
and test tokens missing from it are OOV and map to ``<unk>`` (§4.2).  Special
tokens follow the RoBERTa convention the paper's tokenizer inherits:
``<pad>``, ``<unk>``, ``<cls>`` (sequence-level classification slot), and
``<mask>`` (MLM pretraining).
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Dict, Iterable, List, Sequence

import numpy as np

__all__ = ["Vocab", "PAD, UNK, CLS, MASK".replace(" ", "")]

PAD = "<pad>"
UNK = "<unk>"
CLS = "<cls>"
MASK = "<mask>"

SPECIALS = (PAD, UNK, CLS, MASK)


class Vocab:
    """Token <-> id mapping with frequency-based construction."""

    def __init__(self, tokens: Sequence[str]) -> None:
        self._itos: List[str] = list(SPECIALS) + [t for t in tokens if t not in SPECIALS]
        self._stoi: Dict[str, int] = {t: i for i, t in enumerate(self._itos)}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, token_streams: Iterable[Sequence[str]], min_freq: int = 1,
              max_size: int = 0) -> "Vocab":
        """Build from an iterable of token lists.

        ``min_freq`` drops rare types; ``max_size`` (0 = unlimited) keeps the
        most frequent types.  Ties break lexicographically for determinism.
        """
        counter: Counter = Counter()
        for stream in token_streams:
            counter.update(stream)
        items = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
        kept = [tok for tok, freq in items if freq >= min_freq]
        if max_size > 0:
            kept = kept[: max_size]
        return cls(kept)

    # -- mapping -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._itos)

    def __contains__(self, token: str) -> bool:
        return token in self._stoi

    @property
    def pad_id(self) -> int:
        return self._stoi[PAD]

    @property
    def unk_id(self) -> int:
        return self._stoi[UNK]

    @property
    def cls_id(self) -> int:
        return self._stoi[CLS]

    @property
    def mask_id(self) -> int:
        return self._stoi[MASK]

    def token_to_id(self, token: str) -> int:
        return self._stoi.get(token, self._stoi[UNK])

    def id_to_token(self, idx: int) -> str:
        return self._itos[idx]

    def encode(self, tokens: Sequence[str], max_len: int = 0,
               add_cls: bool = True) -> np.ndarray:
        """Encode to int32 ids, optionally prepending CLS and truncating.

        int32 is the pipeline-wide id dtype (``repro.data.encoding.ID_DTYPE``)
        — vocabularies never approach 2**31 entries and the narrower ids
        halve embedding-gather index traffic."""
        ids = [self.cls_id] if add_cls else []
        ids.extend(map(self._stoi.get, tokens, repeat(self.unk_id)))
        if max_len > 0:
            ids = ids[:max_len]
        return np.asarray(ids, dtype=np.int32)

    def decode(self, ids: Sequence[int]) -> List[str]:
        return [self._itos[int(i)] for i in ids]

    def oov_types(self, token_streams: Iterable[Sequence[str]]) -> int:
        """Count distinct types in ``token_streams`` absent from this vocab
        (the 'OOV types' row of Table 7)."""
        types = set()
        for stream in token_streams:
            types.update(stream)
        return sum(1 for t in types if t not in self._stoi)
