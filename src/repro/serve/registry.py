"""Multi-model registry: every advisor head behind one serving engine.

The paper's advisor is really three classifiers asked in sequence — the
directive model ("should this loop get a ``#pragma omp parallel for``?",
§4.1) and the ``private`` / ``reduction`` clause models ("with which
clauses?", §5.2).  After PR 1 only the directive model sat behind
:class:`~repro.serve.engine.InferenceEngine`; this module hosts all of them
behind a single front door:

* :class:`ModelHead` / :class:`ModelRegistry` — named (model, vocab,
  max_len) triples.  ``ModelRegistry.from_context`` pulls the trained
  directive + clause models out of an experiment context;
  ``ModelRegistry.from_checkpoint`` reloads a directory written by
  :func:`repro.models.save_advisor`.
* :class:`MultiModelEngine` — one :class:`InferenceEngine` per head, all
  sharing a single lexing memo so a snippet is tokenized **once** no matter
  how many heads look at it.  :meth:`~MultiModelEngine.advise_v1` is the
  one public advice entry; behind it a single staged pipeline picks each
  snippet's arm (primary or canary) from its source digest, runs the
  directive head, applies the gate, fans out to the clause heads and
  assembles the answers.  Source text and pre-encoded rows differ only in
  how each head gets its rows.  Each answer is one
  :class:`~repro.serve.api.AdviceResult`: the directive verdict plus one
  :class:`ClauseAdvice` per clause head.

Three operability layers ride on top (see ``docs/operations.md``):

* **Hot reload** — :meth:`MultiModelEngine.reload` swaps every head to a
  new advisor checkpoint under live traffic; in-flight requests finish on
  the old weights and version-tagged cache keys guarantee no stale
  predictions survive the swap.  :class:`CheckpointWatcher` polls a
  checkpoint directory's manifest mtime and reloads automatically
  (``repro serve --watch DIR``).
* **Clause gating** — with ``EngineConfig.gate_margin`` set, the directive
  head is consulted first and clause heads only see snippets whose
  directive probability clears ``0.5 - gate_margin``, cutting clause-head
  compute on majority-negative traffic.
* **Canary rollout** — :meth:`MultiModelEngine.start_canary` serves a new
  checkpoint to a deterministic digest-hash slice of traffic
  (:func:`canary_routes`) next to the current primary, accumulating
  per-arm latency / error / verdict-agreement counters
  (:class:`~repro.serve.metrics.ArmStats`);
  :meth:`~MultiModelEngine.promote` atomically makes the canary primary
  through the same versioned-slot machinery as :meth:`reload` (so no
  stale cache entry survives), :meth:`~MultiModelEngine.rollback` drops
  it, and an optional :class:`CanaryPolicy` auto-promotes or
  auto-rolls-back once enough canary traffic has been judged.

``repro serve --http`` and ``repro advise`` are the CLI front-ends; see
``docs/serving.md`` for the architecture walk-through.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.pragformer import PragFormer
from repro.serve.api import AdviceRequest, AdviceResult
from repro.serve.engine import (
    Advice,
    EngineConfig,
    InferenceEngine,
    LRUCache,
    source_digest,
)
from repro.serve.metrics import ArmStats, merge_engine_stats
from repro.tokenize import Vocab, robust_text_tokens

__all__ = [
    "DEFAULT_CLAUSES",
    "DIRECTIVE",
    "CanaryPolicy",
    "CheckpointWatcher",
    "ClauseAdvice",
    "ModelHead",
    "ModelRegistry",
    "MultiModelEngine",
    "canary_routes",
    "canary_routes_digest",
    "checkpoint_mtime",
]


def checkpoint_mtime(path) -> Optional[int]:
    """Manifest mtime (ns) of an advisor checkpoint, or ``None`` if absent.

    The ``advisor.json`` manifest is written *last* by
    :func:`repro.models.save_advisor`, so its mtime identifies a complete
    checkpoint.  One definition shared by :class:`CheckpointWatcher` and
    the CLI's ``--watch`` startup (which captures a baseline *before*
    loading the checkpoint, so a rollout landing mid-load is still seen).
    """
    from repro.models.persistence import _ADVISOR_MANIFEST

    try:
        return (Path(path) / _ADVISOR_MANIFEST).stat().st_mtime_ns
    except OSError:
        return None

#: Registry name of the mandatory directive head; all other heads are
#: treated as clause models.
DIRECTIVE = "directive"

#: The clause heads the paper trains (§5.2) — what ``from_context`` loads.
DEFAULT_CLAUSES = ("private", "reduction")


@dataclass(frozen=True)
class ModelHead:
    """One named classifier: model + the vocabulary it was trained with."""

    name: str
    model: PragFormer
    vocab: Vocab
    max_len: int


@dataclass(frozen=True)
class ClauseAdvice:
    """One clause head's verdict: probability plus the >0.5 suggestion."""

    probability: float
    suggested: bool

    @classmethod
    def of(cls, probability) -> "ClauseAdvice":
        """The §4.1 decision rule for one clause head: suggested iff
        p > 0.5."""
        p = float(probability)
        return cls(p, p > 0.5)


class ModelRegistry:
    """Ordered mapping of head name -> :class:`ModelHead`.

    The ``directive`` head is mandatory for serving (the advisor's primary
    question); clause heads are optional and fan out alongside it.
    """

    def __init__(self) -> None:
        self._heads: "OrderedDict[str, ModelHead]" = OrderedDict()

    def register(self, name: str, model: PragFormer, vocab: Vocab,
                 max_len: Optional[int] = None) -> ModelHead:
        """Add (or replace) a head; ``max_len`` defaults to the model's.

        Names must be filesystem-safe (``validate_head_name``, the same
        rule ``save_advisor`` enforces), so a serving registry can always
        be checkpointed."""
        from repro.models.persistence import validate_head_name

        validate_head_name(name)
        head = ModelHead(name, model, vocab, max_len or model.config.max_len)
        self._heads[name] = head
        return head

    def get(self, name: str) -> ModelHead:
        """Look up a head by name (KeyError with the known names if absent)."""
        try:
            return self._heads[name]
        except KeyError:
            raise KeyError(
                f"no head {name!r}; registered: {sorted(self._heads)}") from None

    def names(self) -> List[str]:
        """Head names in registration order."""
        return list(self._heads)

    def clause_names(self) -> List[str]:
        """All non-directive head names, in registration order."""
        return [n for n in self._heads if n != DIRECTIVE]

    def __contains__(self, name: str) -> bool:
        return name in self._heads

    def __len__(self) -> int:
        return len(self._heads)

    def __iter__(self) -> Iterator[ModelHead]:
        return iter(self._heads.values())

    # -- construction / persistence ---------------------------------------

    @classmethod
    def from_context(cls, ctx, clauses: Sequence[str] = DEFAULT_CLAUSES
                     ) -> "ModelRegistry":
        """Registry over an experiment context's trained advisor models.

        Pulls the TEXT-representation directive classifier plus one clause
        model per name in ``clauses`` (training each on first use, memoized
        by the context).
        """
        registry = cls()
        enc = ctx.encoded()
        registry.register(DIRECTIVE, ctx.pragformer, enc.vocab,
                          max_len=ctx.scale.pragformer.max_len)
        for clause in clauses:
            cenc = ctx.clause_encoded(clause)
            registry.register(clause, ctx.clause_model(clause), cenc.vocab,
                              max_len=cenc.max_len)
        return registry

    @classmethod
    def from_checkpoint(cls, path, share: bool = False):
        """Reload a registry saved by :meth:`save` / ``save_advisor``,
        including each head's serving ``max_len``.

        The heads are bound onto the checkpoint's digest-checked
        ``weights.bin`` blob (see :func:`repro.models.load_advisor`): a
        private copy by default.  With ``share=True`` the blob is read
        into a fresh shared weights segment instead and the return value
        becomes ``(registry, handle)`` where ``handle`` is the owning
        :class:`~repro.models.persistence.SharedWeights`.  Under a
        ``fork``-started shard fleet this is what makes the *initial*
        weights one-copy too, not just reloads.
        """
        from repro.models.persistence import load_advisor

        loaded = load_advisor(path, share=share)
        heads, handle = loaded if share else (loaded, None)
        registry = cls()
        for name, (model, vocab, max_len) in heads.items():
            registry.register(name, model, vocab, max_len=max_len)
        return (registry, handle) if share else registry

    def save(self, path) -> None:
        """Write every head to ``path`` via :func:`repro.models.save_advisor`."""
        from repro.models.persistence import save_advisor

        save_advisor({h.name: (h.model, h.vocab, h.max_len) for h in self},
                     path)


class _SharedLexMemo:
    """Thread-safe bounded memo of ``code -> token list``, shared by every
    head's engine so one snippet is lexed once for the whole fan-out.
    Storage is a lock-wrapped :class:`~repro.serve.engine.LRUCache`, the
    same eviction implementation the engines use."""

    def __init__(self, tokenize: Callable[[str], List[str]], capacity: int) -> None:
        self._tokenize = tokenize
        self._lock = threading.Lock()
        self._memo = LRUCache(capacity)
        self.lexed = 0  # distinct snippets actually lexed

    def __call__(self, code: str) -> List[str]:
        key = source_digest(code)
        with self._lock:
            hit = self._memo.get(key)
        if hit is not None:
            return hit
        tokens = self._tokenize(code)
        with self._lock:
            self.lexed += 1
            self._memo.put(key, tokens)
        return tokens


def canary_routes_digest(digest: bytes, fraction: float) -> bool:
    """:func:`canary_routes` over an already-computed 16-byte digest.

    Pre-encoded ``ids=`` requests carry each snippet's
    :func:`~repro.serve.engine.source_digest` instead of its source
    text, so their canary traffic is routed from the digest alone — this
    is the one arm-assignment rule both input forms must agree on.
    """
    return int.from_bytes(digest, "big") % 100 < round(fraction * 100)


def canary_routes(code: str, fraction: float) -> bool:
    """Deterministic canary-arm assignment for one snippet.

    A snippet goes to the canary iff ``digest % 100 < fraction * 100``
    over the snippet's 16-byte blake2b :func:`~repro.serve.engine
    .source_digest`, so the assignment is stable across calls, processes,
    and sharded workers (every worker of a fleet splits traffic
    identically), and a given snippet never flaps between arms
    mid-rollout.  Shard routing reads the same digest — its first 8
    bytes, reduced ``% n_shards`` — yet the two splits stay independent
    because this test reduces all 128 bits ``% 100``: the residue mixes
    in the last 8 bytes, which routing never reads and which are
    independent of the first 8.  Reducing the routing integer itself
    would correlate ``% 100`` with ``% n_shards`` and starve some shards
    of canary traffic whenever ``n_shards`` shares a factor with 100
    (e.g. 10 shards at fraction 0.05 would put every canary snippet on
    shards 0-4); as it is, over 40k distinct snippets at 10 shards and
    fraction 0.05 every shard's canary share reads 0.045-0.054.
    ``fraction`` is quantized to whole percent — ``start_canary``
    rejects fractions that would quantize to zero.
    """
    return canary_routes_digest(source_digest(code, size=16), fraction)


@dataclass(frozen=True)
class CanaryPolicy:
    """Auto-promotion rule for a canary rollout.

    Once the canary arm has judged ``min_samples`` outcomes (served +
    errored snippets), the policy fires exactly once: **roll back** when
    the arm's error rate exceeds ``max_error_rate`` or its directive
    verdicts disagree with the primary arm's on more than
    ``max_disagreement`` of the compared snippets; otherwise **promote**
    (with ``auto_promote=False`` the policy only ever rolls back — the
    operator promotes manually after reading ``/v1/stats``).
    """

    min_samples: int = 200
    max_disagreement: float = 0.02
    max_error_rate: float = 0.0
    auto_promote: bool = True

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0.0 <= self.max_disagreement <= 1.0:
            raise ValueError("max_disagreement must be in [0, 1]")
        if not 0.0 <= self.max_error_rate <= 1.0:
            raise ValueError("max_error_rate must be in [0, 1]")

    def judge(self, canary: ArmStats) -> Optional[Tuple[str, str]]:
        """``("promote"|"rollback", reason)`` once the sample floor is met,
        else ``None`` (keep serving both arms)."""
        if canary.samples < self.min_samples:
            return None
        if canary.error_rate() > self.max_error_rate:
            return ("rollback",
                    f"error rate {canary.error_rate():.4f} > "
                    f"max_error_rate {self.max_error_rate} "
                    f"after {canary.samples} samples")
        if canary.disagreement_rate() > self.max_disagreement:
            return ("rollback",
                    f"disagreement rate {canary.disagreement_rate():.4f} > "
                    f"max_disagreement {self.max_disagreement} "
                    f"after {canary.samples} samples")
        if self.auto_promote:
            return ("promote",
                    f"{canary.samples} samples within policy bounds "
                    f"(disagreement {canary.disagreement_rate():.4f}, "
                    f"errors {canary.error_rate():.4f})")
        return None


class _CanaryState:
    """Everything one live canary rollout owns, behind one lock.

    ``engines`` is the canary's own per-head :class:`InferenceEngine` set
    (sharing the parent's lex memo); ``primary``/``canary`` are the
    per-arm counters.  ``finished`` flips exactly once — whichever of
    promote / rollback / policy decision claims the state first wins, and
    requests that raced the finish fall back to the primary arm without
    polluting the counters.
    """

    def __init__(self, version: str, fraction: float,
                 registry: ModelRegistry,
                 engines: Dict[str, InferenceEngine],
                 policy: Optional[CanaryPolicy],
                 started_at: float) -> None:
        self.version = version
        self.fraction = fraction
        self.registry = registry
        self.engines = engines
        self.policy = policy
        self.started_at = started_at
        self.primary = ArmStats()
        self.canary = ArmStats()
        self._lock = threading.Lock()
        self._decided = False   # the policy fired (promote/rollback queued)
        self.finished = False   # promote()/rollback() claimed the state

    def note_primary(self, n: int, elapsed_s: float) -> None:
        """Account ``n`` primary-arm snippets served in ``elapsed_s``."""
        with self._lock:
            self.primary.record_served(n, elapsed_s)

    def note_primary_errors(self, n: int) -> None:
        """Account ``n`` primary-arm failures (the exception propagates)."""
        with self._lock:
            self.primary.errors += n

    def note_canary(self, n: int, elapsed_s: float,
                    agreed: Sequence[bool]) -> Optional[Tuple[str, str]]:
        """Account served canary traffic; returns a policy decision at most
        once over the state's lifetime."""
        with self._lock:
            self.canary.record_served(n, elapsed_s)
            self.canary.record_agreements(agreed)
            return self._judge_locked()

    def note_canary_errors(self, n: int) -> Optional[Tuple[str, str]]:
        """Account failed canary traffic (served by primary fallback)."""
        with self._lock:
            if self.finished:
                # the promote/rollback race itself closed the canary
                # engines under this request; that is not a model failure
                return None
            self.canary.errors += n
            return self._judge_locked()

    def _judge_locked(self) -> Optional[Tuple[str, str]]:
        if self.policy is None or self._decided or self.finished:
            return None
        decision = self.policy.judge(self.canary)
        if decision is not None:
            self._decided = True
        return decision

    def arms_dict(self) -> Dict[str, object]:
        """JSON-ready per-arm counter snapshot."""
        with self._lock:
            return {"primary": self.primary.as_dict(),
                    "canary": self.canary.as_dict()}


class MultiModelEngine:
    """All registry heads served through one batched, cached front door.

    One :class:`InferenceEngine` (own prediction LRU, own counters) per
    head; a shared :class:`_SharedLexMemo` so the expensive pure-Python lex
    runs once per distinct snippet regardless of head count.
    :meth:`advise_v1` is the advice entry point; one staged pipeline
    (:meth:`_advise`) serves it and the fleet's ``advise_full_many`` wire
    method: split the batch into arms by source digest, then per arm run
    the directive head, gate, fan out to the clause heads and assemble.
    A registry with no clause heads makes a directive-only engine — the
    stdin serving loop's and ``repro advise``'s first pass.

    With ``config.gate_margin`` set, clause work only fans out for
    snippets whose directive probability exceeds ``0.5 - gate_margin`` —
    gated-out snippets come back with an empty ``clauses`` dict (their
    recommendation list is empty either way).

    :meth:`start_canary` deploys a second checkpoint to a deterministic
    digest slice of traffic alongside the primary, with per-arm counters
    and :meth:`promote` / :meth:`rollback` (or a :class:`CanaryPolicy`)
    to finish the rollout — see ``docs/operations.md``.

    Thread-safe to the same degree as :class:`InferenceEngine`.  Use as a
    context manager (or call :meth:`close`) to release the shared-weights
    attachments.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[EngineConfig] = None,
        tokenizer: Optional[Callable[[str], List[str]]] = None,
    ) -> None:
        if DIRECTIVE not in registry:
            raise ValueError(f"registry must contain a {DIRECTIVE!r} head")
        self.registry = registry
        self.config = config or EngineConfig()
        self.model_version = "0"
        # recovering lexer by default, matching InferenceEngine: clean
        # input tokenizes identically to the strict lexer, dirty input
        # yields ERROR_TOKEN instead of an exception
        self.lex_memo = _SharedLexMemo(tokenizer or robust_text_tokens,
                                       self.config.cache_capacity)
        self.engines: Dict[str, InferenceEngine] = {
            head.name: InferenceEngine(head.model, head.vocab,
                                       max_len=head.max_len,
                                       config=self.config,
                                       tokenizer=self.lex_memo)
            for head in registry
        }
        self._reload_lock = threading.Lock()
        self._reload_count = 0
        self._gate_lock = threading.Lock()
        self.gated_snippets = 0    # snippets whose clause fan-out was skipped
        self.fanned_snippets = 0   # snippets that did reach the clause heads
        self._canary: Optional[_CanaryState] = None
        self._last_canary: Optional[Dict[str, object]] = None
        # vocabulary remap tables for the pre-encoded (ids=) path:
        # (id(src_vocab), id(dst_vocab)) -> int32 id translation table
        self._remap_lock = threading.Lock()
        self._remap_tables: Dict[Tuple[int, int], np.ndarray] = {}
        # shared-weights attachments this engine's models are bound onto
        # (``reload(segment=)`` / ``start_canary(segment=)``); mappings are
        # closed at engine close, unlink stays with the segment's creator
        self._weights_handles: List[object] = []
        self._weights_mode = "private"

    @property
    def directive_engine(self) -> InferenceEngine:
        """The engine behind the mandatory ``directive`` head."""
        return self.engines[DIRECTIVE]

    # -- pre-encoded (ids=) rows ---------------------------------------------

    def _remap_table(self, src: Vocab, dst: Vocab) -> np.ndarray:
        """Id-translation table from ``src`` into ``dst`` (memoized).

        ``table[src_id] = dst.token_to_id(src.id_to_token(src_id))`` —
        specials map to themselves (every :class:`~repro.tokenize.Vocab`
        pins them to ids 0-3) and tokens absent from ``dst`` map to its
        UNK, matching what ``dst`` would produce from the text itself for
        every token the directive vocabulary knows.  (A token OOV in the
        *directive* vocab is already UNK in the row, so a clause head
        that privately knows it still sees UNK — the one place the
        pre-encoded path can differ from re-encoding source text; heads
        trained on the same corpus share the vocabulary in practice.)"""
        key = (id(src), id(dst))
        with self._remap_lock:
            table = self._remap_tables.get(key)
        if table is None:
            table = np.asarray(
                [dst.token_to_id(src.id_to_token(i)) for i in range(len(src))],
                dtype=np.int32)
            with self._remap_lock:
                if len(self._remap_tables) > 32:
                    # vocab objects die with their slots; don't pin them
                    self._remap_tables.clear()
                self._remap_tables[key] = table
        return table

    def _rows_for(self, engine: InferenceEngine,
                  rows: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
        """Translate pre-encoded rows into ``engine``'s vocabulary.

        Rows arrive encoded under the directive head's vocabulary; a head
        sharing that vocabulary object (the common case) passes through
        untouched, otherwise each row is remapped id-by-id and truncated
        to the head's own ``max_len``."""
        src = self.directive_engine.vocab
        dst = engine.vocab
        if dst is src:
            return rows
        table = self._remap_table(src, dst)
        max_len = engine.max_len
        return [table[row][:max_len] for row in rows]

    # -- the advice pipeline ------------------------------------------------

    def advise_v1(self, requests: Sequence) -> List[AdviceResult]:
        """Bulk advice — the public advice entry point.

        ``requests`` is a sequence of :class:`~repro.serve.api
        .AdviceRequest` (bare strings are accepted and wrapped as
        ``code``); every request in one call must use the same input
        form — all source text, or all pre-encoded ``ids``/``digest``
        rows.  Returns one :class:`~repro.serve.api.AdviceResult` per
        request, in order: the directive verdict, the clause verdicts of
        the snippets that fan out, and the operational context —
        ``model_version``, ``arm`` (which canary arm the digest routed
        to), ``degraded`` and ``recovered``.  The arm/version labels are
        advisory snapshots — a promote racing the call can relabel,
        never change a verdict.  See :meth:`_advise` for the stages.
        """
        reqs = [AdviceRequest.of(r) for r in requests]
        if not reqs:
            return []
        n_encoded = sum(1 for r in reqs if r.code is None)
        if n_encoded not in (0, len(reqs)):
            raise ValueError("advise_v1: one call must not mix code= and "
                             "ids= requests")
        if n_encoded:
            results, state, routed = self._advise(
                [r.ids for r in reqs], [r.digest for r in reqs], encoded=True)
        else:
            results, state, routed = self._advise([r.code for r in reqs])
        return [
            replace(result,
                    model_version=(state.version if canary
                                   else self.model_version),
                    arm="canary" if canary else "primary",
                    id=req.id)
            for req, result, canary in zip(reqs, results, routed)
        ]

    def advise_full_many(self, codes: Sequence[str]) -> List[AdviceResult]:
        """:meth:`advise_v1`'s pipeline over source text, answering
        results without the ``model_version``/``arm``/``id`` stamps — the
        fleet's ``advise_full_many`` wire method lands here (the router
        stamps them)."""
        return self._advise(codes)[0]

    def advise_full_many_encoded(self, rows: Sequence[np.ndarray],
                                 digests: Sequence[bytes]
                                 ) -> List[AdviceResult]:
        """:meth:`advise_full_many` for token-id rows already encoded
        under the directive head's vocabulary and ``max_len``, with their
        16-byte source digests.  There is no source text, so canary
        routing runs on the digests (:func:`canary_routes_digest`, the
        slice the text path computes).
        """
        if len(digests) != len(rows):
            raise ValueError("digests must match rows 1:1")
        return self._advise(rows, digests, encoded=True)[0]

    def _advise(self, items: Sequence,
                digests: Optional[Sequence[bytes]] = None,
                encoded: bool = False):
        """The staged pipeline: split by arm, run each arm, merge.

        ``items`` are source texts, or with ``encoded`` token-id rows
        in the directive vocabulary.  Without a canary every item goes to
        the primary arm.  With one, each item's 16-byte source digest
        (``digests``, computed from the text when not given) picks its arm
        (:func:`canary_routes_digest`); each arm runs :meth:`_run_arm` and
        feeds its :class:`~repro.serve.metrics.ArmStats`.  Canary items
        also get a shadow primary directive verdict for the agreement
        counters, and a failing canary arm is served by the primary and
        counted — a bad canary checkpoint degrades metrics, never
        availability.  Returns ``(results, state, routed)``: the unstamped
        results in request order, the canary state the split used (``None`` without
        a rollout) and the per-item canary flags.
        """
        if encoded:
            items = [np.ascontiguousarray(row, dtype=np.int32)
                     for row in items]
        state = self._canary
        if state is None:
            return (self._run_arm(self.engines, items, encoded), None,
                    [False] * len(items))
        if digests is None:
            digests = [source_digest(code) for code in items]
        routed = [canary_routes_digest(digest, state.fraction)
                  for digest in digests]
        out: List[Optional[AdviceResult]] = [None] * len(items)
        p_rows = [i for i, canary in enumerate(routed) if not canary]
        c_rows = [i for i, canary in enumerate(routed) if canary]
        if p_rows:
            start = time.perf_counter()
            try:
                p_results = self._run_arm(self.engines,
                                          [items[i] for i in p_rows], encoded)
            except Exception:
                state.note_primary_errors(len(p_rows))
                raise
            state.note_primary(len(p_rows), time.perf_counter() - start)
            for i, result in zip(p_rows, p_results):
                out[i] = result
        if c_rows:
            c_items = [items[i] for i in c_rows]
            start = time.perf_counter()
            try:
                c_results = self._run_arm(state.engines, c_items, encoded)
            except Exception:
                self._apply_decision(state.note_canary_errors(len(c_rows)))
                c_results = self._run_arm(self.engines, c_items, encoded)
            else:
                elapsed = time.perf_counter() - start
                # cheap: one extra directive-head batch, largely
                # cache-resident on repeated traffic
                shadow = self._head_advice(self.directive_engine, c_items,
                                           encoded)
                agreed = [got.verdict == ref.needs_directive
                          for got, ref in zip(c_results, shadow)]
                self._apply_decision(
                    state.note_canary(len(c_rows), elapsed, agreed))
            for i, result in zip(c_rows, c_results):
                out[i] = result
        return out, state, routed

    def _run_arm(self, engines: Dict[str, InferenceEngine], items: Sequence,
                 encoded: bool) -> List[AdviceResult]:
        """One arm's stages: directive head, gate, clause heads, assembly.

        With ``config.gate_margin`` set, clause heads only see the items
        whose directive probability clears ``0.5 - gate_margin`` (see
        :meth:`_fans_out`); gated-out items get an empty ``clauses``
        dict.  Gating changes which rows a clause head runs, not how a
        row is scored.  Degraded (rejected) items never reach the clause
        heads and stay out of both gating counters: every head shares
        the same dirty-input limits and would reject them identically."""
        directive = self._head_advice(engines[DIRECTIVE], items, encoded)
        n_degraded = sum(1 for adv in directive if adv.degraded)
        fan_idx = [i for i, adv in enumerate(directive)
                   if not adv.degraded and self._fans_out(adv.probability)]
        self._count_gated(len(items) - n_degraded - len(fan_idx),
                          len(fan_idx))
        fan_items = [items[i] for i in fan_idx]
        clause_probs = {
            name: self._head_proba(engine, fan_items, encoded)[:, 1]
            for name, engine in engines.items() if name != DIRECTIVE
        }
        fan_row = {orig: row for row, orig in enumerate(fan_idx)}
        results = []
        for i, adv in enumerate(directive):
            row = fan_row.get(i)
            clauses = {} if row is None else {
                name: ClauseAdvice.of(probs[row])
                for name, probs in clause_probs.items()
            }
            results.append(AdviceResult(
                adv.needs_directive, probability=float(adv.probability),
                clauses=clauses, degraded=adv.degraded,
                recovered=adv.recovered))
        return results

    def _head_advice(self, engine: InferenceEngine, items: Sequence,
                     encoded: bool) -> List[Advice]:
        """One head's :class:`Advice` for ``items``: text goes through the
        head's own memoized encoder, encoded rows through :meth:`_rows_for`."""
        if encoded:
            return engine.advise_many_encoded(self._rows_for(engine, items))
        return engine.advise_many(items)

    def _head_proba(self, engine: InferenceEngine, items: Sequence,
                    encoded: bool) -> np.ndarray:
        """One head's (N, 2) probabilities, rows obtained as in
        :meth:`_head_advice`."""
        if encoded:
            return engine.predict_proba_encoded(self._rows_for(engine, items))
        return engine.predict_proba(items)

    def _fans_out(self, probability: float) -> bool:
        """Gating rule: does a snippet with this directive probability reach
        the clause heads?  Always true with gating disabled; with a margin,
        true for positives and for negatives within ``gate_margin`` of the
        0.5 decision boundary (so near-threshold verdicts still carry
        clause probabilities)."""
        margin = self.config.gate_margin
        return margin is None or float(probability) > 0.5 - margin

    def _count_gated(self, gated: int, fanned: int) -> None:
        """Accumulate gating counters (no-op when gating is disabled)."""
        if self.config.gate_margin is None:
            return
        with self._gate_lock:
            self.gated_snippets += gated
            self.fanned_snippets += fanned

    # -- hot reload ----------------------------------------------------------

    def reload(self, advisor_dir, version: Optional[str] = None,
               segment: Optional[str] = None) -> str:
        """Swap every head to the checkpoint in ``advisor_dir``, live.

        Loads the checkpoint (slow I/O, outside any lock), then swaps each
        head's engine to its new (model, vocab, max_len) under one fresh
        version tag.  Per head the swap is atomic — in-flight requests
        finish on the weights they started with, and version-tagged cache
        keys mean no prediction computed by the old model is ever served
        for the new one.  A request fanning out *during* the reload may
        combine old-directive with new-clause verdicts for one transient
        call; each verdict is still internally consistent.

        The checkpoint must provide every currently served head (extra
        heads in the checkpoint are ignored — the head set is fixed at
        construction).  Raises without touching the engines when the
        checkpoint is missing, malformed, or incomplete, so a failed
        reload leaves the old model serving.  ``version`` overrides the
        default ``v<n>:<dir>`` tag — :class:`~repro.serve.sharding
        .ShardedEngine` passes one tag to every worker so a fleet always
        agrees on its deployed version.  Returns the tag deployed (also
        reported by :meth:`stats` as ``model_version``).

        Raises ``RuntimeError`` while a canary is active — finish the
        rollout (:meth:`promote` / :meth:`rollback`) first, so the canary's
        agreement counters always compare against one fixed primary.

        ``segment`` names an already-published shared weights segment
        (see :func:`repro.models.persistence.share_weights`): the new
        heads then map the fleet's one read-only weight copy instead of
        reading the blob here, and the swap is just a slot-pointer flip.
        An unreachable segment falls back to a private blob load.
        """
        heads, shared = self._load_checkpoint_heads(advisor_dir,
                                                    segment=segment)
        with self._reload_lock:
            # checked under the lock: a start_canary racing this reload
            # either installed its state first (we refuse) or will see the
            # reloaded primary as its comparison baseline
            if self._canary is not None:
                if shared is not None:
                    shared.close()
                raise RuntimeError(
                    "a canary rollout is active; promote() or rollback() "
                    "it before reloading the primary")
            self._reload_count += 1
            if version is None:
                version = f"v{self._reload_count}:{Path(advisor_dir).name}"
            registry = ModelRegistry()
            for name in self.registry.names():
                model, vocab, max_len = heads[name]
                registry.register(name, model, vocab, max_len=max_len)
                self.engines[name].swap_model(model, vocab, max_len,
                                              version=version)
            self.registry = registry
            self.model_version = version
            if shared is not None:
                self._weights_handles.append(shared)
            self._weights_mode = "shared" if shared is not None else "private"
        return version

    def _load_checkpoint_heads(self, advisor_dir, segment=None):
        """Load an advisor checkpoint and require it to cover every served
        head (shared by :meth:`reload` and :meth:`start_canary`; raises
        without touching any engine on a missing/incomplete checkpoint).

        With ``segment`` set, binds the heads onto that already-published
        shared weights segment (zero weight bytes read here); an
        unreachable or invalid segment falls back to a private blob load
        — availability beats sharing.  Returns ``(heads, handle)``
        where ``handle`` is the :class:`~repro.models.persistence
        .SharedWeights` attachment or ``None``.
        """
        from repro.models.persistence import load_advisor

        shared = None
        if segment is not None:
            try:
                heads, shared = load_advisor(advisor_dir, segment=segment)
            except (ValueError, OSError):
                heads = load_advisor(advisor_dir)
        else:
            heads = load_advisor(advisor_dir)
        missing = [name for name in self.engines if name not in heads]
        if missing:
            if shared is not None:
                shared.close()
            raise ValueError(
                f"checkpoint {advisor_dir} lacks served heads {missing}; "
                f"it provides {sorted(heads)}")
        return heads, shared

    # -- canary rollout ------------------------------------------------------

    def start_canary(self, advisor_dir, fraction: float,
                     policy: Optional[CanaryPolicy] = None,
                     version: Optional[str] = None,
                     segment: Optional[str] = None) -> str:
        """Serve the checkpoint in ``advisor_dir`` to a canary slice of
        traffic next to the current primary.

        ``fraction`` of the digest space (``canary_routes``) is served by a
        second versioned engine set loaded from the checkpoint; the rest
        keeps hitting the primary.  Both arms accumulate
        :class:`~repro.serve.metrics.ArmStats` (visible under ``canary``
        in :meth:`stats`), and canary-routed snippets additionally get a
        shadow primary directive verdict for the agreement counters.  A
        canary-arm failure is served by the primary and counted as an arm
        error — a broken canary checkpoint can never fail requests.

        ``policy`` auto-promotes or auto-rolls-back once its sample floor
        is met; without one the operator calls :meth:`promote` /
        :meth:`rollback`.  ``version`` overrides the default
        ``v<n>:<dir>`` tag (:class:`~repro.serve.sharding.ShardedEngine`
        passes one tag fleet-wide).  Raises ``RuntimeError`` if a canary
        is already active; a missing/incomplete checkpoint raises without
        disturbing the primary.  Returns the canary's version tag.

        ``segment`` names an already-published shared weights segment,
        exactly as in :meth:`reload` — the canary arm then maps the same
        one-copy blob the rest of the fleet's canary arms map.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if round(fraction * 100) < 1:
            raise ValueError(
                f"fraction {fraction} quantizes to zero canary traffic "
                "(canary_routes works in whole percent; use >= 0.005)")
        heads, shared = self._load_checkpoint_heads(advisor_dir,
                                                    segment=segment)
        with self._reload_lock:
            if self._canary is not None:
                if shared is not None:
                    shared.close()
                raise RuntimeError(
                    f"canary {self._canary.version} already active; "
                    "promote() or rollback() it first")
            self._reload_count += 1
            if version is None:
                version = f"v{self._reload_count}:{Path(advisor_dir).name}"
            registry = ModelRegistry()
            engines: Dict[str, InferenceEngine] = {}
            for name in self.registry.names():
                model, vocab, max_len = heads[name]
                registry.register(name, model, vocab, max_len=max_len)
                engines[name] = InferenceEngine(
                    model, vocab, max_len=max_len, config=self.config,
                    tokenizer=self.lex_memo, version=version)
            self._canary = _CanaryState(version, fraction, registry, engines,
                                        policy, time.time())
            if shared is not None:
                self._weights_handles.append(shared)
        return version

    def promote(self, reason: Optional[str] = None) -> str:
        """Atomically make the canary the new primary; returns its tag.

        Reuses the hot-reload machinery: each primary head's slot is
        swapped to the canary's (model, vocab, max_len) under the canary's
        version tag, so in-flight primary requests finish on the weights
        they started with and every version-prefixed cache key written
        under the old primary misses by construction afterwards.  A
        request racing the promote falls back to the just-promoted
        primary.  Raises ``RuntimeError`` with no canary active.
        """
        with self._reload_lock:
            state = self._canary
            if state is None:
                raise RuntimeError("no canary active")
            state.finished = True
            self._canary = None
            for name in state.registry.names():
                head = state.registry.get(name)
                self.engines[name].swap_model(head.model, head.vocab,
                                              head.max_len,
                                              version=state.version)
            self.registry = state.registry
            self.model_version = state.version
            self._finish_canary(state, "promoted", reason)
        return state.version

    def rollback(self, reason: Optional[str] = None) -> str:
        """Drop the canary; the primary keeps serving untouched.

        Returns the primary's (still-deployed) version tag.  Raises
        ``RuntimeError`` with no canary active.
        """
        with self._reload_lock:
            state = self._canary
            if state is None:
                raise RuntimeError("no canary active")
            state.finished = True
            self._canary = None
            self._finish_canary(state, "rolled_back", reason)
        return self.model_version

    def _finish_canary(self, state: "_CanaryState", outcome: str,
                       reason: Optional[str]) -> None:
        """Record the rollout's outcome + final counters (``last_canary``
        in :meth:`stats`).  Caller holds ``_reload_lock``."""
        self._last_canary = {
            "version": state.version,
            "fraction": state.fraction,
            "outcome": outcome,
            "reason": reason,
            "duration_s": round(time.time() - state.started_at, 3),
            "arms": state.arms_dict(),
        }

    def _apply_decision(self, decision: Optional[Tuple[str, str]]) -> None:
        """Act on a :class:`CanaryPolicy` verdict from a request thread.

        Promote/rollback may race a concurrent explicit call — the loser's
        ``RuntimeError`` ("no canary active") is deliberately swallowed;
        exactly one finish wins.
        """
        if decision is None:
            return
        action, reason = decision
        try:
            if action == "promote":
                self.promote(reason=f"policy: {reason}")
            else:
                self.rollback(reason=f"policy: {reason}")
        except RuntimeError:
            pass

    # -- observability ------------------------------------------------------

    def head_names(self) -> List[str]:
        """Hosted head names, in registration order (``/v1/healthz`` surface)."""
        return self.registry.names()

    def stats(self) -> Dict[str, object]:
        """Nested per-head counters plus a combined roll-up.

        Shape: ``{"heads": {name: EngineStats.as_dict()}, "combined":
        merged counters, "snippets_lexed": distinct snippets lexed by the
        shared memo, "model_version": deployed checkpoint tag, "reloads":
        completed hot reloads, "clause_gating": gate config + skip
        counters, "canary": live rollout (version, fraction, per-arm
        counters) or ``None``, "last_canary": how the previous rollout
        ended, or ``None``, "weights": whether the served weights map a
        shared segment and how many attachments are held}`` — JSON-ready
        for the ``/v1/stats`` endpoint.
        """
        per_head = {name: eng.stats.as_dict() for name, eng in self.engines.items()}
        with self._gate_lock:
            gating = {
                "enabled": self.config.gate_margin is not None,
                "gate_margin": self.config.gate_margin,
                "gated_snippets": self.gated_snippets,
                "fanned_out": self.fanned_snippets,
            }
        state = self._canary
        canary = None if state is None else {
            "version": state.version,
            "fraction": state.fraction,
            "policy": None if state.policy is None else {
                "min_samples": state.policy.min_samples,
                "max_disagreement": state.policy.max_disagreement,
                "max_error_rate": state.policy.max_error_rate,
                "auto_promote": state.policy.auto_promote,
            },
            "arms": state.arms_dict(),
        }
        return {
            "heads": per_head,
            "combined": merge_engine_stats(
                eng.stats for eng in self.engines.values()),
            "snippets_lexed": self.lex_memo.lexed,
            "model_version": self.model_version,
            "reloads": self._reload_count,
            "clause_gating": gating,
            "canary": canary,
            "last_canary": self._last_canary,
            "weights": {"mode": self._weights_mode,
                        "attached_segments": len(self._weights_handles)},
        }

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the shared-weights attachments, canary's included
        (idempotent).

        Best-effort: model parameter views may keep a mapping exported
        until the models are collected, which is fine: unlinking (the
        creator's job) does not wait on it, and the pages free with the
        process.
        """
        for handle in self._weights_handles:
            handle.close()

    def __enter__(self) -> "MultiModelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Sentinel default for ``CheckpointWatcher(baseline_mtime=...)``: stat the
#: manifest at construction time.
_STAT_AT_INIT = object()


class CheckpointWatcher:
    """Poll an advisor checkpoint directory and hot-reload on change.

    Backs ``repro serve --watch DIR``: a daemon thread stats the
    checkpoint's ``advisor.json`` manifest every ``interval`` seconds and
    calls ``advisor.reload(path)`` when its mtime moves.  The manifest is
    the right sentinel because :func:`repro.models.save_advisor` writes it
    *last* — a new mtime means every head's ``.npz`` is already on disk,
    so the watcher never loads a half-written checkpoint.

    A failed reload (corrupt or incomplete checkpoint) is recorded in
    ``last_error`` and polling continues — the advisor keeps serving the
    old weights.  ``advisor`` is anything exposing ``reload(path)``: a
    :class:`MultiModelEngine` or a
    :class:`~repro.serve.sharding.ShardedEngine` wrapping one per worker.

    ``baseline_mtime`` is the manifest mtime the advisor's *current*
    weights correspond to; by default the watcher stats the manifest at
    construction.  Callers that load the checkpoint *before* building the
    watcher (the CLI) should capture :func:`checkpoint_mtime` before
    loading and pass it here — otherwise a rollout landing during the
    load window is absorbed into the baseline and never served.
    """

    def __init__(self, advisor, path, interval: float = 2.0,
                 baseline_mtime=_STAT_AT_INIT) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.advisor = advisor
        self.path = Path(path)
        self.interval = interval
        self.reloads = 0          # successful reloads triggered by the watch
        self.poll_errors = 0      # poll bodies that raised (and were survived)
        self.last_error: Optional[str] = None
        self._last_mtime = (checkpoint_mtime(self.path)
                            if baseline_mtime is _STAT_AT_INIT
                            else baseline_mtime)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _manifest_mtime(self) -> Optional[int]:
        """The manifest's mtime in ns, or ``None`` while it doesn't exist."""
        return checkpoint_mtime(self.path)

    def poll_once(self) -> bool:
        """One poll step: reload if the manifest mtime moved.

        Returns True when a reload was performed (successfully or not —
        check ``last_error``); False when nothing changed.  Exposed so
        tests and manual operators can drive the watch loop themselves.
        """
        mtime = self._manifest_mtime()
        if mtime is None or mtime == self._last_mtime:
            return False
        # record the mtime before reloading: a *broken* checkpoint must not
        # be retried every interval, only when it changes again
        previous_mtime, self._last_mtime = self._last_mtime, mtime
        try:
            self.advisor.reload(self.path)
        except RuntimeError as exc:
            # a canary-blocked reload is *retryable*, not broken: keep the
            # old baseline so the rollout is retried every poll and lands
            # as soon as the canary is promoted or rolled back (otherwise
            # a checkpoint written mid-canary would be dropped forever)
            self.last_error = f"{type(exc).__name__}: {exc}"
            if "canary" in str(exc):
                self._last_mtime = previous_mtime
        except Exception as exc:  # noqa: BLE001 — keep serving old weights
            self.last_error = f"{type(exc).__name__}: {exc}"
        else:
            self.reloads += 1
            self.last_error = None
        return True

    def start(self) -> "CheckpointWatcher":
        """Start the polling daemon thread (idempotent); returns self."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="checkpoint-watcher", daemon=True)
            self._thread.start()
        return self

    def _loop(self) -> None:
        # the poll body is exception-proofed: a transient unreadable or
        # partially-written checkpoint dir (an unpacking rollout, an NFS
        # blip) must log-and-retry, not silently kill the watcher thread
        # and leave the fleet never reloading again
        while not self._stop.wait(self.interval):
            try:
                self.poll_once()
            except Exception as exc:  # noqa: BLE001 — watcher must survive
                self.poll_errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"

    def stop(self) -> None:
        """Stop the polling thread (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    def __enter__(self) -> "CheckpointWatcher":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
