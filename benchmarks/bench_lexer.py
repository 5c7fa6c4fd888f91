"""Lexer hot-path guard: the master-pattern scanner against the old one.

Every cold ``/advise`` lexes its snippet in recover mode before the model
sees it.  ``repro.clang.lexer.tokenize`` matches one compiled master
pattern per token; the scanner it replaced advanced one character per
Python call and survives as ``_ReferenceLexer`` in
``tests/test_clang_lexer_oracle.py``, which also proves the two agree
token for token.  This smoke bench times both over ~500 corpus snippets
and asserts a generous floor on the speedup (about 2.3x on a 2-core x86
host), so a return to per-character scanning fails ``scripts/check.sh
--perf``.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from repro.clang.lexer import tokenize
from repro.corpus import CorpusConfig, build_corpus

pytestmark = pytest.mark.perf

_ORACLE = Path(__file__).resolve().parent.parent / "tests" / \
    "test_clang_lexer_oracle.py"

#: the floor a per-character scanner cannot reach
MIN_SPEEDUP = 1.5


def _reference_tokenize():
    spec = importlib.util.spec_from_file_location("lexer_oracle", _ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_tokenize


def _best_of(lex, codes, repeats=5):
    """Fastest of ``repeats`` passes over ``codes`` — the least disturbed
    by whatever else the host runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for code in codes:
            lex(code, recover=True)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.smoke
def test_lexer_speedup_smoke():
    codes = [r.code for r in
             build_corpus(CorpusConfig(n_records=500, seed=3)).records]
    reference = _reference_tokenize()
    tokens = sum(len(tokenize(code, recover=True)) for code in codes)
    old = _best_of(reference, codes)
    new = _best_of(tokenize, codes)
    print(f"\nlexer: {len(codes)} snippets, {tokens} tokens — reference "
          f"{1e6 * old / tokens:.2f} us/token, master pattern "
          f"{1e6 * new / tokens:.2f} us/token ({old / new:.2f}x)")
    assert old / new >= MIN_SPEEDUP
