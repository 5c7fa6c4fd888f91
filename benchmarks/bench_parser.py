"""Parser hot-path guard: precedence climbing against the precedence ladder.

``build_corpus`` parses every candidate snippet to apply the inclusion
criteria, and that parse was the largest stage of building a corpus.
``repro.clang.parser.Parser`` parses binary expressions by precedence
climbing and reads the current token straight from the token list; the
ladder it replaced recursed once per precedence level for every operand,
and survives as ``_ReferenceParser`` in
``tests/test_clang_parser_oracle.py``, which also proves the two build
equal ASTs.  This smoke bench times both over the same pre-lexed ~500
corpus snippets (lexing is left out: it is the same code on both sides)
and asserts a floor on the speedup: 3.5-3.9x on a 2-core x86 host, 1.8x
with the ladder put back over the one-read token helpers, so a return to
the ladder fails ``scripts/check.sh --perf``.
"""

import importlib.util
import time
from pathlib import Path

import pytest

from repro.clang.lexer import tokenize
from repro.clang.parser import Parser
from repro.corpus import CorpusConfig, build_corpus

pytestmark = pytest.mark.perf

_ORACLE = Path(__file__).resolve().parent.parent / "tests" / \
    "test_clang_parser_oracle.py"

#: the floor a ten-level call ladder per operand cannot reach
MIN_SPEEDUP = 2.5


def _reference_parser():
    spec = importlib.util.spec_from_file_location("parser_oracle", _ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._ReferenceParser


def _best_of(parser_cls, token_lists, repeats=5):
    """Fastest of ``repeats`` passes over ``token_lists`` — the least
    disturbed by whatever else the host runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for toks in token_lists:
            parser_cls(toks).parse_snippet()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.smoke
def test_parser_speedup_smoke():
    codes = [r.code for r in
             build_corpus(CorpusConfig(n_records=500, seed=3)).records]
    token_lists = [tokenize(code) for code in codes]
    reference = _reference_parser()
    old = new = float("inf")
    for _ in range(3):  # alternate, keep each side's best
        old = min(old, _best_of(reference, token_lists))
        new = min(new, _best_of(Parser, token_lists))
    tokens = sum(len(toks) for toks in token_lists)
    print(f"\nparser: {len(codes)} snippets, {tokens} tokens — ladder "
          f"{1e6 * old / tokens:.2f} us/token, precedence climbing "
          f"{1e6 * new / tokens:.2f} us/token ({old / new:.2f}x)")
    assert old / new >= MIN_SPEEDUP
