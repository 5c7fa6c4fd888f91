"""In-memory spans recorded around the program's public entry points.

Nothing under ``src/`` knows about this module: :func:`install` wraps
public functions and methods of each layer (lexing, encoding, engine,
registry, sharding router, model forward, ``nn`` modules, optimizer, DDP
epochs) with :meth:`Tracer.wrap` and :meth:`Tracer.uninstall` restores
them.  Spans are kept in a list per process and analysed (or written
out) when the run ends.  Forked children (shard workers, DDP ranks)
start with an empty list of their own.

A span is ``(pid, sid, parent_sid, layer, start_s, end_s, attrs)`` on
the system-wide monotonic clock, so spans from different processes line
up.  A call nested in a span of the *same* layer is not recorded
separately (it is that layer's own work), which keeps self time per
layer exact.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from common import self_time, union_length


class Span(NamedTuple):
    pid: int
    sid: int
    parent: int
    layer: str
    start: float
    end: float
    attrs: Optional[dict]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``layer`` span per outermost call;
        ``attrs(args, kwargs, result)`` adds counts to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, layer))
            result, ok = None, False
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.monotonic()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and ok else None
                tracer.spans.append(
                    (tracer.pid, sid, parent, layer, t0, t1, extra))

        return traced

    def patch(self, owner, name: str, layer: str,
              attrs: Optional[Callable] = None) -> None:
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        setattr(owner, name, self.wrap(layer, original, attrs))
        self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def drain(self) -> List[tuple]:
        spans, self.spans = self.spans, []
        return spans


def encoder_gflop(b: int, length: int, cfg) -> float:
    """Matmul GFLOP of one encoder forward over a ``(b, length)`` batch,
    computed from the tensor shapes: per layer QKV + output projections
    (8·B·L·d²), scores and weighted values (4·B·L²·d) and the FFN
    (4·B·L·d·d_ff)."""
    d, dff = cfg.d_model, cfg.d_ff
    per_layer = 8 * b * length * d * d + 4 * b * length * length * d \
        + 4 * b * length * d * dff
    return cfg.n_layers * per_layer / 1e9


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points (idempotent per tracer)."""
    import repro.data.encoding as encoding_mod
    import repro.serve.engine as engine_mod
    import repro.tokenize.representations as reps
    from repro.clang.lexer import TokenKind
    from repro.models.pragformer import PragFormer
    from repro.nn.attention import MultiHeadSelfAttention
    from repro.nn.heads import ClassificationHead
    from repro.nn.layers import Embedding, LayerNorm, ResidualLayerNorm
    from repro.nn.optim import FusedAdamW
    from repro.nn.transformer import FeedForward, TransformerEncoder
    from repro.serve.engine import InferenceEngine
    from repro.serve.registry import MultiModelEngine
    from repro.serve.sharding import ShardedEngine
    from repro.tokenize.vocab import Vocab
    from repro.train.ddp import DataParallelTrainer

    if tracer._undo:
        return tracer

    def lex_attrs(args, kwargs, tokens):
        return {"tokens": max(0, len(tokens) - 1),
                "recovered": any(t.kind is TokenKind.ERROR for t in tokens)}

    def pad_attrs(args, kwargs, split):
        return {"cells": int(split.mask.size), "real": float(split.mask.sum())}

    def request_attrs(args, kwargs, result):
        reqs = args[1]
        first = reqs[0] if len(reqs) else None
        return {"n": len(reqs), "id": getattr(first, "id", None)}

    def encoder_attrs(args, kwargs, result):
        b, length = args[1].shape
        return {"rows": int(b),
                "gflop": encoder_gflop(b, length, args[0].cfg)}

    def epoch_attrs(args, kwargs, result):
        counters = args[0].counters
        return {"steps": len(args[1]), "steps_total": counters["steps"],
                "grad_bytes_total": counters["grad_bytes_reduced"]}

    tracer.patch(reps, "tokenize", "lex", lex_attrs)
    tracer.patch(Vocab, "encode", "encode")
    tracer.patch(engine_mod, "pad_encoded", "pad", pad_attrs)
    tracer.patch(encoding_mod, "pad_encoded", "pad", pad_attrs)
    for name in ("predict_proba", "advise_many", "predict_proba_encoded",
                 "advise_many_encoded"):
        tracer.patch(InferenceEngine, name, "engine")
    tracer.patch(MultiModelEngine, "advise_v1", "registry", request_attrs)
    for name in ("advise_full_many", "advise_full_many_encoded"):
        tracer.patch(MultiModelEngine, name, "registry")
    tracer.patch(ShardedEngine, "advise_v1", "sharding", request_attrs)
    tracer.patch(PragFormer, "predict_proba", "forward")
    tracer.patch(PragFormer, "evaluate", "train.validation")
    tracer.patch(TransformerEncoder, "forward", "model.forward",
                 encoder_attrs)
    tracer.patch(TransformerEncoder, "backward", "model.backward")
    tracer.patch(ClassificationHead, "forward", "model.forward")
    tracer.patch(ClassificationHead, "backward", "model.backward")
    for cls, layer in ((MultiHeadSelfAttention, "nn.attention"),
                       (FeedForward, "nn.ffn"),
                       (LayerNorm, "nn.layernorm"),
                       (ResidualLayerNorm, "nn.layernorm"),
                       (Embedding, "nn.embedding")):
        tracer.patch(cls, "forward", layer)
        tracer.patch(cls, "backward", layer)
    tracer.patch(FusedAdamW, "step", "optim")
    tracer.patch(FusedAdamW, "clip_grad_norm", "optim")
    tracer.patch(DataParallelTrainer, "run_epoch", "train.epoch", epoch_attrs)
    return tracer


# -- analysis -------------------------------------------------------------------

class SpanSet:
    """Spans from one or more processes, indexed for self-time queries."""

    def __init__(self, raw: Iterable[tuple]) -> None:
        self.spans = [Span(*s) for s in raw]
        self.by_key = {(s.pid, s.sid): s for s in self.spans}
        self.children: Dict[tuple, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent:
                self.children[(s.pid, s.parent)].append(s)

    def layer(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.layer == name]

    def self_time(self, span: Span, extra: Iterable[Span] = ()) -> float:
        """``span``'s self time; ``extra`` adds children recorded in
        other processes (worker spans under a router call)."""
        kids = self.children.get((span.pid, span.sid), [])
        return self_time(span.start, span.end,
                         [(c.start, c.end) for c in (*kids, *extra)])

    def ancestor_layers(self, span: Span) -> List[str]:
        out = []
        cur = span
        while cur.parent:
            cur = self.by_key.get((cur.pid, cur.parent))
            if cur is None:
                break
            out.append(cur.layer)
        return out

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.layer(name))

    def within(self, windows: List[Tuple[float, float]]) -> "SpanSet":
        """Spans that start inside one of the measured ``windows``; the
        ancestry index stays whole so parents outside still resolve."""
        out = SpanSet(s for s in self.spans
                      if any(lo <= s.start <= hi for lo, hi in windows))
        out.by_key = self.by_key
        return out

    def coverage(self, windows: List[Tuple[float, float]],
                 exclude: Iterable[str] = ()) -> float:
        """Share of the ``windows`` covered by spans of any layer not in
        ``exclude`` (the workload's own root operation)."""
        skip = set(exclude)
        covered = sum(
            union_length((max(s.start, lo), min(s.end, hi))
                         for s in self.spans if s.layer not in skip)
            for lo, hi in windows)
        total = sum(hi - lo for lo, hi in windows)
        return covered / total if total > 0 else 0.0


NN_LAYERS = ("attention", "ffn", "layernorm", "embedding")


def model_metrics(spans: SpanSet) -> Dict[str, float]:
    """Layer metrics every workload shares: lexing, encoding, padding,
    the inference forward and the ``nn`` modules."""
    lex = spans.layer("lex")
    tokens = sum(s.attrs["tokens"] for s in lex if s.attrs)
    pads = [s for s in spans.layer("pad") if s.attrs]
    cells = sum(s.attrs["cells"] for s in pads)
    real = sum(s.attrs["real"] for s in pads)
    encoders = [s for s in spans.layer("model.forward") if s.attrs]
    rows_all = sum(s.attrs["rows"] for s in encoders)
    inference = [s for s in encoders
                 if "train.epoch" not in spans.ancestor_layers(s)]
    rows = sum(s.attrs["rows"] for s in inference)
    forward_s = sum(s.duration for s in inference)
    out = {
        "lex.ms_total": 1e3 * sum(s.duration for s in lex),
        "lex.us_per_token": 1e6 * sum(s.duration for s in lex) / tokens
        if tokens else 0.0,
        "lex.recovered": sum(1 for s in lex if s.attrs and s.attrs["recovered"]),
        "encode.ms_total": 1e3 * (spans.total("encode") + spans.total("pad")),
        "engine.pad_ratio": (cells - real) / real if real else 0.0,
        "forward.rows": rows,
        "forward.us_per_row": 1e6 * forward_s / rows if rows else 0.0,
        "forward.gflop": sum(s.attrs["gflop"] for s in inference),
    }
    for name in NN_LAYERS:
        ms = 1e3 * spans.total(f"nn.{name}")
        out[f"nn.{name}_ms"] = ms / (rows_all / 1e3) if rows_all else 0.0
    return out
