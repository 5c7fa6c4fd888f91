"""Inputs and the correctness oracle shared by the two serving workloads.

The checkpoint is the deployed advisor: three untrained PragFormer heads
(directive, private, reduction) over a vocabulary built from a fixed
generated corpus — inference cost does not depend on the weights.
Workload snippets come from the corpus generators under the workload
seed.  The oracle is an in-process ``MultiModelEngine.advise_v1`` on the
same checkpoint, compared at the JSON precision of a response.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

#: fields of a v1 result that identify the request, not the answer
_REQUEST_FIELDS = ("id",)

HEADS = ("directive", "private", "reduction")


def make_checkpoint(path: Path) -> Path:
    """Write the three-head advisor checkpoint the workloads serve."""
    import numpy as np

    from repro.corpus.generators import sample_snippet
    from repro.models import PragFormer
    from repro.serve import ModelRegistry
    from repro.tokenize import Vocab, text_tokens

    rng = np.random.default_rng(0)
    codes = [sample_snippet(rng, positive=bool(rng.random() < 0.47)).code
             for _ in range(600)]
    vocab = Vocab.build([text_tokens(code) for code in codes], min_freq=2)
    registry = ModelRegistry()
    for k, name in enumerate(HEADS):
        registry.register(name, PragFormer(len(vocab), rng=101 + k), vocab)
    registry.save(path)
    return path


def distinct_snippets(n: int, seed: int, exclude: Sequence[str] = ()
                      ) -> List[str]:
    """``n`` distinct generated loop snippets, deterministic in ``seed``."""
    import numpy as np

    from repro.corpus.generators import sample_snippet

    rng = np.random.default_rng([seed, 7])
    seen = set(exclude)
    out: List[str] = []
    while len(out) < n:
        code = sample_snippet(rng, positive=bool(rng.random() < 0.47)).code
        if code not in seen:
            seen.add(code)
            out.append(code)
    return out


def fuzz_mutants(codes: Sequence[str], n: int, seed: int,
                 exclude: Sequence[str]) -> List[str]:
    """``n`` distinct ``repro.clang.fuzz`` mutants of ``codes`` that differ
    from every snippet in ``exclude``, deterministic in ``seed``."""
    from repro.clang.fuzz import fuzz_corpus

    seen = set(exclude)
    out: List[str] = []
    batch = 0
    while len(out) < n:
        for code in fuzz_corpus(codes, n, seed=seed * 1000 + batch):
            if code.strip() and code not in seen:
                seen.add(code)
                out.append(code)
                if len(out) == n:
                    break
        batch += 1
    return out


#: one unit in the last place of a response probability (rounded to 6)
JSON_ULP = 1e-6


def answer(result_dict: Dict) -> Dict:
    """The answer part of a v1 result dict (request id dropped)."""
    return {k: v for k, v in result_dict.items() if k not in _REQUEST_FIELDS}


def same_answer(got, want) -> bool:
    """Equality at the JSON precision of a response: probabilities agree
    within one unit of their sixth decimal (float32 sums change in the
    last bits with batch composition, which can move the rounding), and
    everything else — verdicts, suggested clauses, degraded/recovered
    flags, model version, arm — is identical."""
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(
            same_answer(got[k], want[k]) for k in got)
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(
            same_answer(a, b) for a, b in zip(got, want))
    if isinstance(got, float) and isinstance(want, float):
        return abs(got - want) <= JSON_ULP * 1.001
    return type(got) is type(want) and got == want


def reference(checkpoint: Path, codes: Sequence[str]) -> Dict[str, Dict]:
    """``{code: answer}`` from an in-process ``MultiModelEngine.advise_v1``
    on ``checkpoint``, rendered through JSON like an HTTP response."""
    from repro.serve import ModelRegistry, MultiModelEngine

    registry = ModelRegistry.from_checkpoint(checkpoint)
    distinct = list(dict.fromkeys(codes))
    out: Dict[str, Dict] = {}
    with MultiModelEngine(registry) as engine:
        for i in range(0, len(distinct), 64):
            chunk = distinct[i:i + 64]
            for code, result in zip(chunk, engine.advise_v1(chunk)):
                out[code] = json.loads(json.dumps(answer(result.as_dict())))
    return out
