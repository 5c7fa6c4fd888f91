"""Differential oracle for the C parser's expression hot path.

``Parser`` parses binary expressions by precedence climbing over
``_BINARY_PREC`` and reads the current token straight from the token list
(see ``repro.clang.parser``).  It replaced a ladder that recursed once per
precedence level for every operand; that ladder, and the token helpers and
unary/postfix rules it ran on, are kept below as :class:`_ReferenceParser`,
the old method bodies unchanged, as the specification.  Every input here
must give, from both parsers:

* in strict mode (``parse``), equal ASTs (dataclass ``==``, checked
  without recursion, see :func:`_flat`) or the same :class:`ParseError` —
  message, ``kind`` and token;
* in resilient mode (``parse_resilient``), equal ASTs and equal
  diagnostics.

The inputs are the generated corpus on three seeds, the committed dirty
fixtures (``tests/data/dirty``), seeded ``repro.clang.fuzz`` mutants,
``hypothesis`` expressions over every binary operator, prefix and postfix
unary operator, the ternary, every assignment operator, casts and
parentheses (well formed, and as token soup that trips the error paths),
and nesting-depth edges.

Scale the corpus, the fuzz and the ``hypothesis`` sweeps with
``REPRO_FUZZ_N`` (the CI ``--fuzz`` stage raises it, the default keeps
tier-1 fast).
"""

import os
from dataclasses import fields
from pathlib import Path
from typing import List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clang.parser as parser_module
from repro.clang.fuzz import fuzz_corpus
from repro.clang.lexer import LexError, Token, TokenKind
from repro.clang.nodes import (
    ArrayRef,
    BinaryOp,
    Call,
    Cast,
    Identifier,
    Node,
    StructRef,
    UnaryOp,
)
from repro.clang.parser import (
    _ASSIGN_OPS,
    _BINARY_PREC,
    DEFAULT_MAX_DEPTH,
    ParseError,
    Parser,
    parse,
    parse_expression,
    parse_resilient,
)
from repro.corpus import CorpusConfig, build_corpus

DIRTY_DIR = Path(__file__).parent / "data" / "dirty"
FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "150"))


class _ReferenceParser(Parser):
    """``Parser`` with its expression hot path as it was: a ten-level
    precedence ladder, and token helpers that clamp every read."""

    # -- token stream helpers ----------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.i + offset, len(self.toks) - 1)
        return self.toks[idx]

    def _at_op(self, *ops: str) -> bool:
        t = self._peek()
        return t.kind is TokenKind.OP and t.value in ops

    def _at_kw(self, *kws: str) -> bool:
        t = self._peek()
        return t.kind is TokenKind.KEYWORD and t.value in kws

    # -- expressions ---------------------------------------------------------

    #: binary operator precedence levels, lowest first
    _BIN_LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def _parse_binary(self, level: int) -> Node:
        if level >= len(self._BIN_LEVELS):
            return self._parse_unary()
        ops = self._BIN_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self._at_op(*ops):
            op = self._advance().value
            right = self._parse_binary(level + 1)
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary_inner(self) -> Node:
        t = self._peek()
        if t.kind is TokenKind.OP and t.value in ("+", "-", "!", "~", "&", "*"):
            op = self._advance().value
            return UnaryOp(op, self._parse_unary())
        if t.kind is TokenKind.OP and t.value in ("++", "--"):
            op = self._advance().value
            return UnaryOp(op, self._parse_unary())
        if self._at_kw("sizeof"):
            self._advance()
            if self._at_op("(") and self._is_type_ahead(1):
                self._advance()
                _, base = self._parse_type_spec()
                depth = 0
                while self._at_op("*"):
                    self._advance()
                    depth += 1
                self._expect_op(")")
                return UnaryOp("sizeof", Identifier(base + "*" * depth))
            return UnaryOp("sizeof", self._parse_unary())
        # cast: '(' type ')' unary
        if self._at_op("(") and self._is_type_ahead(1):
            mark = self.i
            self._advance()
            try:
                _, base = self._parse_type_spec()
                depth = 0
                while self._at_op("*"):
                    self._advance()
                    depth += 1
                self._expect_op(")")
                return Cast(base + "*" * depth, self._parse_unary())
            except ParseError:
                self.i = mark  # fall through to postfix/primary
        return self._parse_postfix()

    def _parse_postfix(self) -> Node:
        expr = self._parse_primary()
        while True:
            if self._at_op("["):
                self._advance()
                sub = self._parse_expression()
                self._expect_op("]")
                expr = ArrayRef(expr, sub)
            elif self._at_op("("):
                self._advance()
                args: List[Node] = []
                while not self._at_op(")"):
                    args.append(self._parse_assignment_expr())
                    if self._at_op(","):
                        self._advance()
                    else:
                        break
                self._expect_op(")")
                expr = Call(expr, args)
            elif self._at_op("."):
                self._advance()
                expr = StructRef(expr, ".", self._expect_ident().value)
            elif self._at_op("->"):
                self._advance()
                expr = StructRef(expr, "->", self._expect_ident().value)
            elif self._at_op("++"):
                self._advance()
                expr = UnaryOp("p++", expr)
            elif self._at_op("--"):
                self._advance()
                expr = UnaryOp("p--", expr)
            else:
                return expr


def _run(entry, parser_cls, *args, **kwargs):
    """``entry(*args, **kwargs)`` with ``parser_cls`` behind the module's
    entry points."""
    with mock.patch.object(parser_module, "Parser", parser_cls):
        return entry(*args, **kwargs)


def _flat(node):
    """Each node's class and every field value, in DFS order: two ASTs are
    dataclass-``==`` exactly when their flattenings are equal.  ``==``
    itself recurses once per level, and a long left-leaning operator chain
    (one dirty fixture has 399 ``+`` in a row) exhausts the interpreter's
    recursion limit."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Node):
            out.append(type(item))
            stack.extend(getattr(item, f.name)
                         for f in reversed(fields(item)))
        elif isinstance(item, list):
            out.append(("list", len(item)))
            stack.extend(reversed(item))
        else:
            out.append(item)
    return out


def _strict(parser_cls, source, max_depth=DEFAULT_MAX_DEPTH):
    """Everything observable about one strict parse: the flattened AST,
    or the error's message, kind and token."""
    try:
        return _flat(_run(parse, parser_cls, source, max_depth=max_depth))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.kind, exc.token)
    except LexError as exc:
        return ("LexError", str(exc))


def assert_same_as_reference(source: str,
                             max_depth: int = DEFAULT_MAX_DEPTH) -> None:
    got = _strict(Parser, source, max_depth)
    want = _strict(_ReferenceParser, source, max_depth)
    assert got == want, f"strict parses disagree on {source!r}"
    got_ast, got_diags = _run(parse_resilient, Parser, source,
                              max_depth=max_depth)
    want_ast, want_diags = _run(parse_resilient, _ReferenceParser, source,
                                max_depth=max_depth)
    assert _flat(got_ast) == _flat(want_ast), \
        f"resilient parses disagree on {source!r}"
    assert got_diags == want_diags, f"diagnostics disagree on {source!r}"


def test_reference_is_the_ladder():
    """The oracle compares two different code paths, and they cover the
    same operators."""
    assert _ReferenceParser._parse_binary is not Parser._parse_binary
    assert not hasattr(Parser, "_BIN_LEVELS")
    laddered = [op for level in _ReferenceParser._BIN_LEVELS for op in level]
    assert sorted(laddered) == sorted(_BINARY_PREC)
    assert len(_BINARY_PREC) == 18


@pytest.fixture(scope="module")
def corpus_codes():
    codes = []
    for seed in (1, 2, 3):
        corpus = build_corpus(CorpusConfig(n_records=2 * FUZZ_N, seed=seed))
        codes += [r.code for r in corpus.records]
    return codes


class TestCorpusOracle:
    def test_generated_corpus(self, corpus_codes):
        assert len(corpus_codes) > 3 * FUZZ_N
        for code in corpus_codes:
            assert_same_as_reference(code)

    def test_dirty_fixtures(self):
        files = sorted(DIRTY_DIR.glob("*.c"))
        assert len(files) == 52
        for path in files:
            assert_same_as_reference(
                path.read_bytes().decode("utf-8", errors="replace"))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fuzz_mutants(self, corpus_codes, seed):
        for mutant in fuzz_corpus(corpus_codes, n=FUZZ_N, seed=seed):
            assert_same_as_reference(mutant)


class TestDepthEdges:
    """The depth guard is untouched: both parsers raise (or recover) at
    the same token."""

    @pytest.mark.parametrize("max_depth", [20, DEFAULT_MAX_DEPTH])
    @pytest.mark.parametrize("source", [
        "x = " + "(" * 30 + "1" + ")" * 30 + ";",
        "x = " + "(" * 5000 + "1" + ")" * 5000 + ";",
        "x = " + "- " * 100 + "y;",
        "x = " + "(int) " * 60 + "y;",
        "x = " + "a[" * 40 + "0" + "]" * 40 + ";",
        "x = " + "f(" * 40 + ")" * 40 + ";",
        "x = " + "c ? " * 40 + "1" + " : 0" * 40 + ";",
        "x" + " = x" * 60 + ";",
        "int v = " + "{" * 60 + "1" + "}" * 60 + ";",
        "{" * 60 + "}" * 60,
    ], ids=["parens30", "parens5000", "unary", "casts", "subscripts",
            "calls", "ternaries", "assignments", "initializer", "blocks"])
    def test_nesting(self, source, max_depth):
        assert_same_as_reference(source, max_depth=max_depth)

    def test_thirty_parens_hit_the_limit_at_twenty(self):
        code = "x = " + "(" * 30 + "1" + ")" * 30 + ";"
        outcome = _strict(Parser, code, max_depth=20)
        assert outcome[0] == "ParseError" and outcome[2] == "depth"
        assert outcome != _strict(Parser, code)
        assert isinstance(_strict(Parser, code)[0], type)


#: operands, including ones that start a cast or a type name
_ATOMS = ["a", "b", "i", "n", "x1", "0", "7", "1.5f", "0x1F", "'c'",
          '"s"', "size_t", "p"]
_PREFIX = ["+", "-", "!", "~", "&", "*", "++", "--", "sizeof "]
_CASTS = ["(int)", "(double)", "(size_t)", "(unsigned long *)",
          "(const char *)"]
_ASSIGN = sorted(_ASSIGN_OPS)
_BINARY = sorted(_BINARY_PREC)


def _wrap(children):
    binary = st.tuples(children, st.sampled_from(_BINARY), children).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}")
    assign = st.tuples(children, st.sampled_from(_ASSIGN), children).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}")
    return (binary | binary | assign
            | st.tuples(st.sampled_from(_PREFIX), children).map("".join)
            | st.tuples(children, st.sampled_from(["++", "--"])).map("".join)
            | st.tuples(children, children, children).map(
                lambda t: f"{t[0]} ? {t[1]} : {t[2]}")
            | st.tuples(st.sampled_from(_CASTS), children).map(" ".join)
            | children.map(lambda c: f"({c})")
            | children.map(lambda c: f"sizeof({c})")
            | st.tuples(children, children).map(lambda t: f"{t[0]}[{t[1]}]")
            | st.tuples(children, st.lists(children, max_size=3)).map(
                lambda t: f"{t[0]}({', '.join(t[1])})")
            | st.tuples(children, st.sampled_from([".", "->"])).map(
                lambda t: f"{t[0]}{t[1]}f"))


_EXPRESSIONS = st.recursive(st.sampled_from(_ATOMS), _wrap, max_leaves=12)

#: every token an expression can hold, drawn without grammar
_SOUP = st.lists(st.sampled_from(
    _ATOMS + _BINARY + _ASSIGN + _PREFIX + _CASTS
    + ["(", ")", "[", "]", "?", ":", ",", ".", "->", "int", ";", "{", "}"]),
    min_size=1, max_size=16).map(" ".join)


class TestPropertyOracle:
    @settings(max_examples=FUZZ_N * 4, deadline=None)
    @given(_EXPRESSIONS)
    def test_expressions(self, expr):
        for source in (f"x = {expr};", f"{expr};",
                       f"for (i = 0; {expr}; i++) {{ {expr}; }}"):
            assert_same_as_reference(source)
        try:
            got = _flat(parse_expression(expr))
        except ParseError as exc:
            got = (str(exc), exc.kind, exc.token)
        try:
            want = _flat(_run(parse_expression, _ReferenceParser, expr))
        except ParseError as exc:
            want = (str(exc), exc.kind, exc.token)
        assert got == want, f"parse_expression disagrees on {expr!r}"

    @settings(max_examples=FUZZ_N * 2, deadline=None)
    @given(_SOUP)
    def test_token_soup(self, soup):
        assert_same_as_reference(f"x = {soup};")
        assert_same_as_reference(soup)
