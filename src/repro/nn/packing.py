"""Pad-free packed batches for the inference forward.

A padded (B, L) batch runs every position-wise operation — embeddings,
the projection GEMMs, LayerNorms and the FFN — on B·L cells, although only
the Σlen real ones reach the output.  A :class:`PackedBatch` concatenates
the real token rows of N snippets instead, longest snippet first, so those
operations run on Σlen rows.  Attention alone needs a (rows, length)
layout: it runs per *group* of snippets of similar length
(:func:`length_groups`), each padded only to its own longest row.  Pad
cells are gathered from a zero row, so their keys score exactly 0 and
:func:`~repro.nn.attention._masked_softmax` gives them an exact 0 weight,
as in a padded forward.

Real tokens are assumed to come first in each snippet, as
:func:`repro.data.encoding.pad_encoded` lays them out, with the CLS token
at position 0: :attr:`PackedBatch.starts` indexes each snippet's CLS row.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GROUP_WASTE", "PackedBatch", "length_groups"]

#: default bound on a group's padded cells over its real cells (the
#: serving engine's ``EngineConfig.bucket_waste`` default).  A group costs
#: a few numpy calls, so tight groups pay: on 64-row sub-batches of
#: corpus-like snippets 1.1 (about 7 groups) ran the forward 6-9% faster
#: than 1.35 (about 3), the bound tuned for one forward call per bucket
GROUP_WASTE = 1.1


def length_groups(lengths: Sequence[int],
                  waste: float = GROUP_WASTE) -> List[Tuple[int, int]]:
    """Greedy ``(lo, hi)`` row ranges over descending ``lengths``.

    A group pads to its first (longest) row; it closes when admitting the
    next (shorter) row would pad the group beyond ``waste`` x its real
    cells."""
    groups: List[Tuple[int, int]] = []
    lo = real = width = 0
    for i, length in enumerate(lengths):
        if i > lo and (i - lo + 1) * width > waste * (real + length):
            groups.append((lo, i))
            lo, real = i, 0
        if i == lo:
            width = length
        real += length
    if len(lengths):
        groups.append((lo, len(lengths)))
    return groups


class Group(NamedTuple):
    """One attention group: snippets ``rows`` (whose tokens are the packed
    rows ``tokens``) padded to ``width``.

    ``gather`` maps each of the group's (rows x width) cells to its packed
    row, pad cells to the zero row after the last token; ``real`` lists the
    cells that hold a token; ``key_mask`` (rows, 1, 1, width) is 1 on them.
    All three are ``None`` when every row is ``width`` long: the group is
    then a plain reshape of its packed rows."""

    rows: slice
    tokens: slice
    width: int
    gather: Optional[np.ndarray]
    real: Optional[np.ndarray]
    key_mask: Optional[np.ndarray]


class PackedBatch:
    """The real tokens of N snippets, concatenated longest first.

    ``rows`` are encoded id rows, CLS first; ``order`` is the permutation
    that sorted them, so row ``k`` of a packed result belongs to
    ``rows[order[k]]``.  ``waste`` bounds each attention group's padding
    (see :func:`length_groups`)."""

    def __init__(self, rows: Sequence[np.ndarray],
                 waste: float = GROUP_WASTE) -> None:
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        if (lengths < 1).any():
            raise ValueError("every packed row needs at least its CLS token")
        self.order = np.argsort(-lengths, kind="stable")
        self.lengths = lengths[self.order]
        self.ids = (np.concatenate([rows[i] for i in self.order])
                    if len(rows) else np.empty(0, np.int32))
        n_tokens = len(self.ids)
        #: packed row of each snippet's CLS token
        self.starts = np.zeros(len(rows), np.intp)
        np.cumsum(self.lengths[:-1], out=self.starts[1:])
        self.positions = (np.arange(n_tokens)
                          - np.repeat(self.starts, self.lengths))
        self.groups = [self._group(lo, hi, n_tokens)
                       for lo, hi in length_groups(self.lengths.tolist(), waste)]

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def longest(self) -> int:
        return int(self.lengths[0]) if len(self) else 0

    def _group(self, lo: int, hi: int, n_tokens: int) -> Group:
        lengths = self.lengths[lo:hi]
        width = int(lengths[0])
        tokens = slice(int(self.starts[lo]),
                       int(self.starts[lo]) + int(lengths.sum()))
        if (lengths == width).all():
            return Group(slice(lo, hi), tokens, width, None, None, None)
        cells = np.arange(width)
        is_real = cells[None, :] < lengths[:, None]
        gather = np.where(is_real, self.starts[lo:hi, None] + cells,
                          n_tokens).ravel()
        key_mask = is_real.astype(np.float32)[:, None, None, :]
        return Group(slice(lo, hi), tokens, width, gather,
                     np.flatnonzero(is_real), key_mask)
