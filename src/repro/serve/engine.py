"""High-throughput batched inference engine for the PragFormer advisor.

The paper's end goal (§2.1) is an advisor that classifies arbitrary incoming
code snippets; this module turns the model's forward pass into serving
infrastructure, reached through synchronous bulk calls
(:meth:`InferenceEngine.predict_proba` / :meth:`~InferenceEngine.advise_many`
and their pre-encoded ``*_encoded`` twins):

* **Tokenize once** — snippets go through :func:`repro.tokenize.text_tokens`
  and :class:`~repro.tokenize.Vocab` exactly as in training, with results
  memoized by source digest so repeated traffic never re-lexes.
* **Pad-free batching** — pending snippets are sorted by encoded length,
  longest first, and cut into sub-batches of at most ``max_batch_size``
  rows; each sub-batch is one packed forward
  (:meth:`PragFormer.predict_rows`) that runs position-wise work on the
  real tokens alone and attention per group of similar lengths (padding
  waste bounded by ``bucket_waste``), so short snippets never pay a long
  snippet's quadratic attention cost.
* **Result caching** — predictions are memoized in a bounded LRU keyed by a
  digest of the token ids; identical snippets (the common case under heavy
  traffic) skip the model entirely, and duplicates *within* one batch are
  coalesced into a single forward row.
* **Hot model swap** — the model, vocabulary, serving length, and a
  *version tag* live together in one immutable slot;
  :meth:`~InferenceEngine.swap_model` replaces the slot atomically.  Every
  cache key (prediction LRU *and* tokenize/encode memo) is prefixed with
  the version tag, so entries written under an old model can never be
  served for the new one, and requests that started before a swap finish
  on the weights they started with.

Knobs live on :class:`EngineConfig`; counters on
:class:`~repro.serve.metrics.EngineStats`.  The engine is the bottom layer
of the serving stack: :mod:`repro.serve.registry` hosts several model heads
(directive + clause models) each behind one of these engines,
:mod:`repro.serve.sharding` partitions traffic across worker processes that
each run a private engine, and :mod:`repro.serve.http_api` exposes the whole
stack over HTTP.  ``docs/serving.md`` walks the architecture end to end.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

# not called here any more; the name stays because perfbench's tracer
# wraps ``repro.serve.engine.pad_encoded`` by attribute
from repro.data.encoding import pad_encoded  # noqa: F401
from repro.models.pragformer import PragFormer
from repro.nn.dtype import get_dtype
from repro.nn.packing import GROUP_WASTE
from repro.serve.metrics import EngineStats
from repro.tokenize import ERROR_TOKEN, Vocab, robust_text_tokens

__all__ = ["EngineConfig", "EngineStats", "LRUCache", "Advice",
           "InferenceEngine", "ModelSlot", "source_digest"]


def source_digest(code: str, size: int = 16) -> bytes:
    """Digest of snippet source text — the serving stack's shared key.

    One definition on purpose: the tokenize-once memo (here), the
    cross-head lex memo (:mod:`repro.serve.registry`), and shard routing
    (:mod:`repro.serve.sharding`) must all key on the same bytes, or a
    future normalization tweak would silently split them apart.  Lone
    surrogates (JSON ``"\\ud800"`` escapes survive :func:`json.loads`) are
    replace-encoded rather than allowed to raise — dirty bytes must never
    crash the keying layer.
    """
    return hashlib.blake2b(code.encode("utf-8", errors="replace"),
                           digest_size=size).digest()


@dataclass(frozen=True)
class EngineConfig:
    """Serving knobs.

    ``max_batch_size`` bounds one forward pass; ``cache_capacity`` bounds
    both the prediction LRU and the tokenize/encode memo (0 disables them).
    ``bucket_waste`` shapes only the attention groups inside a forward:
    a group closes once padding it to its longest row would exceed
    ``bucket_waste`` x the real token cells, so short snippets never pay
    a long snippet's quadratic attention cost (see
    :func:`repro.nn.packing.length_groups`).

    ``gate_margin`` enables cross-request clause gating in
    :class:`~repro.serve.registry.MultiModelEngine`: when set, clause heads
    only see snippets whose directive probability exceeds
    ``0.5 - gate_margin`` (``None``, the default, disables gating and every
    head sees every snippet).  A small positive margin keeps near-threshold
    snippets fanning out so borderline verdicts still carry clause
    probabilities; see ``docs/operations.md`` for the accuracy caveats.

    The dirty-input caps: ``max_snippet_bytes`` bounds one snippet's UTF-8
    size (0 disables the cap) and ``lex_budget_s`` bounds one snippet's
    tokenize wall-time.  A snippet over either limit is *rejected* — it
    gets a neutral degraded verdict and a ``rejected_*`` counter tick
    instead of stalling a worker; see ``docs/serving.md`` ("Dirty input").
    """

    max_batch_size: int = 128
    cache_capacity: int = 4096
    bucket_waste: float = GROUP_WASTE
    gate_margin: Optional[float] = None
    max_snippet_bytes: int = 262144
    lex_budget_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.bucket_waste < 1.0:
            raise ValueError("bucket_waste must be >= 1.0")
        if self.gate_margin is not None and not 0.0 <= self.gate_margin <= 0.5:
            raise ValueError("gate_margin must be in [0, 0.5] (or None)")
        if self.max_snippet_bytes < 0:
            raise ValueError("max_snippet_bytes must be >= 0")
        if self.lex_budget_s <= 0:
            raise ValueError("lex_budget_s must be > 0")


class LRUCache:
    """Bounded least-recently-used mapping (capacity 0 = disabled).

    ``evictions`` counts entries dropped to respect ``capacity`` over the
    cache's lifetime; :meth:`put` additionally returns how many entries the
    one call evicted so callers can feed per-engine counters
    (:attr:`EngineStats.evictions`) without re-reading the total.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.evictions = 0
        self._data: "OrderedDict[bytes, np.ndarray]" = OrderedDict()

    def get(self, key: bytes) -> Optional[np.ndarray]:
        """Return the cached value (refreshing recency) or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: bytes, value: np.ndarray) -> int:
        """Insert ``key``; return the number of entries evicted (0 or 1)."""
        if self.capacity <= 0:
            return 0
        self._data[key] = value
        self._data.move_to_end(key)
        evicted = 0
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data


@dataclass(frozen=True)
class Advice:
    """One advisor verdict: directive probability plus the §4.1 decision.

    ``degraded`` marks a verdict the fleet could not actually compute (a
    worker died or missed its deadline and every fallback failed too):
    the serving layer answers a neutral ``p = 0.5`` placeholder instead
    of raising, and this flag is how callers tell it apart from a real
    model prediction.

    ``recovered`` marks a verdict computed from error-recovered lexing:
    the snippet did not tokenize cleanly, the resilient lexer patched
    over the damage (``ERROR_TOKEN`` in the stream), and the model still
    answered.  Advisory only — the probability is real, but callers that
    care about input hygiene can tell these answers apart."""

    probability: float
    needs_directive: bool
    degraded: bool = False
    recovered: bool = False


@dataclass(frozen=True)
class ModelSlot:
    """Everything one prediction depends on, swapped as a unit.

    ``version`` tags the deployed checkpoint; ``version_bytes`` (its UTF-8
    encoding) prefixes every cache key derived while this slot is current,
    so predictions and encodings from different model versions can never
    collide.  Slots are immutable: a request snapshots the engine's slot
    once and uses it for its whole lifetime, which is what lets
    :meth:`InferenceEngine.swap_model` run under live traffic — in-flight
    requests finish on the weights they started with.
    """

    model: PragFormer
    vocab: Vocab
    max_len: int
    version: str

    @property
    def version_bytes(self) -> bytes:
        """The version tag as the byte prefix used in cache keys."""
        return self.version.encode("utf-8")


class InferenceEngine:
    """Batched, cached serving front-end for a trained :class:`PragFormer`.

    Thread-safe: the prediction cache is lock-protected and model forwards
    are serialized (the NumPy modules keep per-forward state), so concurrent
    callers (e.g. HTTP handler threads) may share one engine.  The model,
    vocabulary, serving length, and version tag live in one immutable
    :class:`ModelSlot` that :meth:`swap_model` replaces atomically; every
    request snapshots the slot once, so a swap under load never mixes
    weights within a request and never serves a stale cache entry (keys are
    version-prefixed).
    """

    def __init__(
        self,
        model: PragFormer,
        vocab: Vocab,
        max_len: Optional[int] = None,
        config: Optional[EngineConfig] = None,
        tokenizer: Optional[Callable[[str], List[str]]] = None,
        version: str = "0",
    ) -> None:
        self._slot = ModelSlot(model, vocab, max_len or model.config.max_len,
                               version)
        self.config = config or EngineConfig()
        # error-recovering lexer by default: on clean input it tokenizes
        # identically to the strict lexer (same cache keys, same verdicts),
        # on dirty input it emits ERROR_TOKEN instead of raising
        self.tokenizer = tokenizer or robust_text_tokens
        self.cache = LRUCache(self.config.cache_capacity)
        # (ids, recovered) per version-prefixed source digest, or the
        # rejection reason string for a snippet the caps turned away
        self._encode_memo = LRUCache(self.config.cache_capacity)
        self.stats = EngineStats()
        self._swap_count = 0
        self._cache_lock = threading.Lock()
        self._model_lock = threading.Lock()

    # -- the live model slot -----------------------------------------------

    @property
    def model(self) -> PragFormer:
        """The currently deployed model (see :meth:`swap_model`)."""
        return self._slot.model

    @property
    def vocab(self) -> Vocab:
        """The currently deployed vocabulary."""
        return self._slot.vocab

    @property
    def max_len(self) -> int:
        """The current serving truncation length."""
        return self._slot.max_len

    @property
    def model_version(self) -> str:
        """Version tag of the deployed slot (prefixes every cache key)."""
        return self._slot.version

    def swap_model(
        self,
        model: PragFormer,
        vocab: Vocab,
        max_len: Optional[int] = None,
        version: Optional[str] = None,
    ) -> str:
        """Atomically deploy a new (model, vocab, max_len) under ``version``.

        Requests already in flight keep the slot they snapshotted and
        finish on the old weights; every later request sees the new slot.
        Because cache keys are version-prefixed, entries written under the
        old version can never satisfy a new-version lookup — they age out
        of the LRUs naturally.  ``version`` defaults to a per-engine
        ``swap-N`` counter tag; returns the tag actually deployed.
        """
        with self._cache_lock:
            self._swap_count += 1
            if version is None:
                version = f"swap-{self._swap_count}"
            self._slot = ModelSlot(model, vocab,
                                   max_len or model.config.max_len, version)
        return version

    # -- encoding ----------------------------------------------------------

    def encode(self, code: str) -> np.ndarray:
        """Snippet text -> CLS-prefixed, truncated token-id row.

        Tokenize-once: results are memoized by source digest (lexing a
        ~50-token snippet costs about 60 µs, against about 180 µs per head
        for its packed forward row in one process on a 2-core host, so
        repeated traffic must not re-lex).  Raises :class:`ValueError` for
        a snippet the engine rejects (byte cap / lex budget); the batched
        advise paths answer those with a neutral degraded verdict instead.
        """
        encoded = self._encode(self._slot, code)
        if encoded is None:
            raise ValueError(
                "snippet rejected by dirty-input limits "
                f"(max_snippet_bytes={self.config.max_snippet_bytes}, "
                f"lex_budget_s={self.config.lex_budget_s})")
        return encoded[0]

    def _count_rejected(self, reason: str) -> None:
        """Bump the rejected counters under the cache lock."""
        with self._cache_lock:
            self.stats.rejected += 1
            if reason == "oversize":
                self.stats.rejected_oversize += 1
            elif reason == "budget":
                self.stats.rejected_budget += 1
            else:
                self.stats.rejected_error += 1

    def _encode(self, slot: ModelSlot,
                code: str) -> Optional[Tuple[np.ndarray, bool]]:
        """Encode ``code`` under ``slot`` as ``(ids, recovered)``, or
        ``None`` when rejected.

        ``recovered`` is True when lexing needed error recovery
        (``ERROR_TOKEN`` in the stream); it travels with the row so the
        flag survives exactly as long as the encoding does.  Memo keys
        carry slot.version so a row encoded with an old vocabulary is
        never reused after a swap.  Rejections are memoized too (as the
        reason string) so a repeated poison snippet pays its lex budget
        once, not per request; every rejected answer still ticks the
        ``rejected``/``rejected_*`` counters.  The byte cap is checked
        before lexing (one UTF-8 encode); the budget/error causes only
        materialize while tokenizing.
        """
        key = slot.version_bytes + source_digest(code)
        with self._cache_lock:
            hit = self._encode_memo.get(key)
        if hit is not None:
            if isinstance(hit, str):  # memoized rejection reason
                self._count_rejected(hit)
                return None
            return hit
        limit = self.config.max_snippet_bytes
        reason: Optional[str] = None
        recovered = False
        tokens: List[str] = []
        if limit and len(code.encode("utf-8", errors="replace")) > limit:
            reason = "oversize"
        else:
            start = time.monotonic()
            try:
                tokens = self.tokenizer(code)
            except Exception:  # a custom strict tokenizer may still raise
                reason = "error"
            else:
                if time.monotonic() - start > self.config.lex_budget_s:
                    reason = "budget"
                else:
                    recovered = ERROR_TOKEN in tokens
        if reason is not None:
            with self._cache_lock:
                self._encode_memo.put(key, reason)
            self._count_rejected(reason)
            return None
        encoded = (slot.vocab.encode(tokens, max_len=slot.max_len), recovered)
        with self._cache_lock:
            self.stats.tokenized += 1
            if recovered:
                self.stats.recovered += 1
            self.stats.encode_evictions += self._encode_memo.put(key, encoded)
        return encoded

    @staticmethod
    def _digest(slot: ModelSlot, ids: np.ndarray) -> bytes:
        """Prediction-cache key: model version tag + token-id digest."""
        return slot.version_bytes + hashlib.blake2b(
            ids.tobytes(), digest_size=16).digest()

    # -- sync bulk API -----------------------------------------------------

    def predict_proba(self, codes: Sequence[str]) -> np.ndarray:
        """(N, 2) class probabilities for ``codes``, batched and cached.

        Rejected snippets (byte cap / lex budget) contribute a neutral
        ``[0.5, 0.5]`` row instead of raising."""
        slot = self._slot
        probs, _ = self._predict_maybe_rejected(
            [self._encode(slot, code) for code in codes], slot)
        return probs

    def _predict_maybe_rejected(
            self, encoded: List[Optional[Tuple[np.ndarray, bool]]],
            slot: ModelSlot):
        """Run the rows that encoded; give the rest neutral 0.5 verdicts.

        Returns ``(probs, rejected)`` where ``rejected[i]`` is True for a
        row that was answered with the neutral placeholder.  One bad
        snippet in a batch never fails or stalls its neighbours — they
        still take the normal batched path.
        """
        rejected = [enc is None for enc in encoded]
        ok_rows = [enc[0] for enc in encoded if enc is not None]
        ok_probs = self._predict_encoded(ok_rows, slot)
        n_rejected = len(encoded) - len(ok_rows)
        if not n_rejected:
            return ok_probs, rejected
        with self._cache_lock:
            self.stats.requests += n_rejected
        probs = np.full((len(encoded), 2), 0.5, dtype=get_dtype())
        it = iter(ok_probs)
        for i, bad in enumerate(rejected):
            if not bad:
                probs[i] = next(it)
        return probs, rejected

    def advise_many(self, codes: Sequence[str]) -> List[Advice]:
        """Bulk :class:`Advice` for ``codes``; positive iff P(+) > 0.5.

        A rejected snippet yields ``Advice(0.5, False, degraded=True)`` —
        the same neutral-verdict contract the fleet uses for a dead worker,
        so callers need exactly one degraded-handling path.  Verdicts
        computed from error-recovered lexing carry ``recovered=True``
        (the flag is memoized with the encoding, so memo hits keep it)."""
        slot = self._slot
        encoded = [self._encode(slot, code) for code in codes]
        recovered = [enc is not None and enc[1] for enc in encoded]
        probs, rejected = self._predict_maybe_rejected(encoded, slot)
        return [Advice(float(p), bool(p > 0.5), degraded=bad, recovered=rec)
                for p, bad, rec in zip(probs[:, 1], rejected, recovered)]

    def predict_proba_encoded(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """(N, 2) probabilities for pre-encoded token-id rows.

        The entry point for callers that already encoded (``ids=``
        requests): ``rows`` are in this engine's vocabulary, so the
        engine skips tokenization entirely and goes straight to the
        batched/cached forward path.  Rows are defensively truncated to
        the current slot's ``max_len``; prediction-cache keys are the
        same version-prefixed id digests as the text path, so the two
        input forms share one cache and return identical verdicts."""
        slot = self._slot
        encoded = []
        for row in rows:
            ids = np.ascontiguousarray(row, dtype=np.int32)
            encoded.append(ids[:slot.max_len] if ids.size > slot.max_len
                           else ids)
        return self._predict_encoded(encoded, slot)

    def advise_many_encoded(self, rows: Sequence[np.ndarray]) -> List[Advice]:
        """Bulk :class:`Advice` for pre-encoded token-id rows; positive
        iff P(+) > 0.5, exactly as the text path decides."""
        probs = self.predict_proba_encoded(rows)[:, 1]
        return [Advice(float(p), bool(p > 0.5)) for p in probs]

    # -- core batching path ------------------------------------------------

    def _predict_encoded(self, encoded: List[np.ndarray],
                         slot: ModelSlot) -> np.ndarray:
        n = len(encoded)
        # compute dtype, not np.empty's float64 default — cached rows and
        # HTTP responses stay float32-pure
        out = np.empty((n, 2), dtype=get_dtype())
        if n == 0:
            return out
        keys = [self._digest(slot, ids) for ids in encoded]

        # resolve cache hits and coalesce duplicate misses per digest
        pending: "OrderedDict[bytes, List[int]]" = OrderedDict()
        hits = 0
        with self._cache_lock:
            self.stats.requests += n
            for i, key in enumerate(keys):
                value = self.cache.get(key)
                if value is not None:
                    out[i] = value
                    hits += 1
                else:
                    pending.setdefault(key, []).append(i)
            self.stats.cache_hits += hits
            self.stats.cache_misses += n - hits
            self.stats.coalesced += (n - hits) - len(pending)

        if not pending:
            return out

        # longest rows first, one packed forward per sub-batch of at most
        # max_batch_size rows: sorting keeps similar lengths in one
        # sub-batch, so its attention groups (bucket_waste) pad little
        unique = sorted(pending.items(), key=lambda kv: len(encoded[kv[1][0]]),
                        reverse=True)
        max_rows = self.config.max_batch_size
        for start in range(0, len(unique), max_rows):
            sub = unique[start:start + max_rows]
            with self._model_lock:
                probs = slot.model.predict_rows(
                    [encoded[rows[0]] for _, rows in sub],
                    self.config.bucket_waste)
            with self._cache_lock:
                self.stats.record_batch(len(sub))
                for (key, rows), p in zip(sub, probs):
                    self.stats.evictions += self.cache.put(key, p)
                    for i in rows:
                        out[i] = p
        return out
