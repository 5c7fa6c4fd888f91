"""Lexer hot-path guards: the master-pattern scanner against the old one,
and the strings-only loop against token building.

Every cold ``/v1/advise`` lexes its snippet in recover mode before the model
sees it.  ``repro.clang.lexer.tokenize`` matches one compiled master
pattern per token; the scanner it replaced advanced one character per
Python call and survives as ``_ReferenceLexer`` in
``tests/test_clang_lexer_oracle.py``, which also proves the two agree
token for token.  This smoke bench times both over ~500 corpus snippets
and asserts a generous floor on the speedup (about 2.3x on a 2-core x86
host), so a return to per-character scanning fails ``scripts/check.sh
--perf``.

The model-input path needs only token texts: ``robust_text_tokens`` calls
``repro.clang.lexer.token_strings``, which shares the master pattern but
builds no ``Token`` and counts no lines.  The second smoke bench times it
against what it replaced, ``tokenize`` plus a list comprehension over the
values (kept below as ``_values_via_tokens``), and asserts a floor of
1.6x (2.1-3.0x on a 2-core x86 host).
"""

import importlib.util
import time
from pathlib import Path

import pytest

from repro.clang.lexer import TokenKind, token_strings, tokenize
from repro.corpus import CorpusConfig, build_corpus
from repro.tokenize import ERROR_TOKEN

pytestmark = pytest.mark.perf

_ORACLE = Path(__file__).resolve().parent.parent / "tests" / \
    "test_clang_lexer_oracle.py"

#: the floor a per-character scanner cannot reach
MIN_SPEEDUP = 1.5
#: the floor building and unpacking a Token per token cannot reach
MIN_STRINGS_SPEEDUP = 1.6


def _reference_tokenize():
    spec = importlib.util.spec_from_file_location("lexer_oracle", _ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_tokenize


def _values_via_tokens(source, error):
    """The replaced model-input lexing: build every ``Token``, then read
    the values back out."""
    return [error if t.kind is TokenKind.ERROR else t.value
            for t in tokenize(source, keep_pragmas=False, recover=True)[:-1]]


def _best_of(lex, codes, repeats=5, **kwargs):
    """Fastest of ``repeats`` passes over ``codes`` — the least disturbed
    by whatever else the host runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for code in codes:
            lex(code, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def _corpus_codes():
    return [r.code for r in
            build_corpus(CorpusConfig(n_records=500, seed=3)).records]


@pytest.mark.smoke
def test_lexer_speedup_smoke():
    codes = _corpus_codes()
    reference = _reference_tokenize()
    tokens = sum(len(tokenize(code, recover=True)) for code in codes)
    old = _best_of(reference, codes, recover=True)
    new = _best_of(tokenize, codes, recover=True)
    print(f"\nlexer: {len(codes)} snippets, {tokens} tokens — reference "
          f"{1e6 * old / tokens:.2f} us/token, master pattern "
          f"{1e6 * new / tokens:.2f} us/token ({old / new:.2f}x)")
    assert old / new >= MIN_SPEEDUP


@pytest.mark.smoke
def test_token_strings_speedup_smoke():
    codes = _corpus_codes()
    for code in codes:
        assert token_strings(code, ERROR_TOKEN) == \
            _values_via_tokens(code, ERROR_TOKEN)
    old = new = float("inf")
    for _ in range(3):  # alternate, keep each side's best
        old = min(old, _best_of(_values_via_tokens, codes, error=ERROR_TOKEN))
        new = min(new, _best_of(token_strings, codes, error=ERROR_TOKEN))
    print(f"\nmodel-input lexing: {len(codes)} snippets — tokenize + values "
          f"{1e6 * old / len(codes):.1f} us/snippet, strings only "
          f"{1e6 * new / len(codes):.1f} us/snippet ({old / new:.2f}x)")
    assert old / new >= MIN_STRINGS_SPEEDUP
