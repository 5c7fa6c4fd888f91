"""Differential oracle for the C lexer.

``tokenize`` is one compiled master pattern matched once per token (see
``repro.clang.lexer``).  It replaced a scanner that advanced one character
per Python call; that scanner is kept below as :class:`_ReferenceLexer`,
unchanged apart from its name, as the specification.  Every input here must
give the same ``(kind, value, line, col)`` list from both — or the same
:class:`LexError` message, line and column — in strict and recover mode,
with and without pragmas:

* the generated corpus, with and without each record's directive line;
* the committed dirty fixtures (``tests/data/dirty``);
* seeded ``repro.clang.fuzz`` mutants of the corpus;
* ``hypothesis`` strings, arbitrary and from an alphabet rich in C
  punctuation and in the non-ASCII letters and digits where ``str.isalpha``
  / ``str.isdigit`` and the ASCII fast paths could part ways;
* named edge cases.

The same inputs check :func:`token_strings`, the strings-only loop the
model-input path runs, against ``tokenize``'s values (pragmas and EOF
dropped, ERROR tokens as ``ERROR_TOKEN``), or against the same
:class:`LexError` in strict mode.

Scale the fuzz and ``hypothesis`` sweeps with ``REPRO_FUZZ_N`` (the CI
``--fuzz`` stage raises it, the default keeps tier-1 fast).
"""

import os
from pathlib import Path
from typing import Iterator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clang.fuzz import fuzz_corpus
from repro.clang.lexer import (
    _OPERATORS,
    KEYWORDS,
    LexError,
    Token,
    TokenKind,
    token_strings,
    tokenize,
)
from repro.corpus import CorpusConfig, build_corpus
from repro.tokenize import ERROR_TOKEN

DIRTY_DIR = Path(__file__).parent / "data" / "dirty"
FUZZ_N = int(os.environ.get("REPRO_FUZZ_N", "150"))


class _ReferenceLexer:
    """Single-pass scanner over a source string, one character per step.

    ``recover=True`` switches malformed-input handling from raising
    :class:`LexError` to emitting :data:`TokenKind.ERROR` tokens.
    """

    def __init__(self, source: str, recover: bool = False) -> None:
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.recover = recover

    # -- low-level cursor helpers ------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.src[idx] if idx < len(self.src) else ""

    def _advance(self, n: int = 1) -> str:
        text = self.src[self.pos : self.pos + n]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return text

    # -- scanning ----------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Yield tokens until EOF (an EOF token is always the last yield)."""
        while True:
            err = self._skip_ws_and_comments()
            if err is not None:  # recover mode: unterminated comment
                yield err
            if self.pos >= len(self.src):
                yield Token(TokenKind.EOF, "", self.line, self.col)
                return
            start_line, start_col = self.line, self.col
            ch = self._peek()
            if ch == "#":
                tok = self._lex_preprocessor(start_line, start_col)
                if tok is not None:
                    yield tok
                continue
            if ch.isalpha() or ch == "_":
                yield self._lex_word(start_line, start_col)
            elif ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                yield self._lex_number(start_line, start_col)
            elif ch == '"':
                yield self._lex_string(start_line, start_col)
            elif ch == "'":
                yield self._lex_char(start_line, start_col)
            else:
                yield self._lex_operator(start_line, start_col)

    def _skip_ws_and_comments(self) -> Optional[Token]:
        while self.pos < len(self.src):
            ch = self._peek()
            if ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.src) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.src) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.src):
                    if self.recover:
                        return Token(TokenKind.ERROR, "/*",
                                     start_line, start_col)
                    raise LexError("unterminated comment", self.line, self.col)
                self._advance(2)
            else:
                return None
        return None

    def _lex_preprocessor(self, line: int, col: int) -> Optional[Token]:
        # Consume up to end of line, honouring backslash continuations.
        chars: List[str] = []
        self._advance()  # '#'
        while self.pos < len(self.src):
            if self._peek() == "\\" and self._peek(1) == "\n":
                self._advance(2)
                chars.append(" ")
                continue
            if self._peek() == "\n":
                break
            chars.append(self._advance())
        text = "".join(chars).strip()
        if text.startswith("pragma"):
            return Token(TokenKind.PRAGMA, text, line, col)
        return None  # includes, defines, etc. are dropped

    def _lex_word(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.src) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        word = self.src[start : self.pos]
        kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
        return Token(kind, word, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        start = self.pos
        is_float = False
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
            if self._peek() == "." :
                is_float = True
                self._advance()
                while self._peek().isdigit():
                    self._advance()
            if self._peek() in "eE" and (
                self._peek(1).isdigit()
                or (self._peek(1) in "+-" and self._peek(2).isdigit())
            ):
                is_float = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                while self._peek().isdigit():
                    self._advance()
        # integer/float suffixes
        while self._peek() and self._peek() in "uUlLfF":
            if self._peek() in "fF":
                is_float = True
            self._advance()
        text = self.src[start : self.pos]
        kind = TokenKind.FLOAT_CONST if is_float else TokenKind.INT_CONST
        return Token(kind, text, line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()  # opening quote
        while self.pos < len(self.src) and self._peek() != '"':
            if self.recover and self._peek() == "\n":
                # unterminated at end of line: don't swallow the rest of
                # the file — recover at the next line
                return Token(TokenKind.ERROR, self.src[start:self.pos],
                             line, col)
            if self._peek() == "\\":
                self._advance()
            if self.pos >= len(self.src):
                break
            self._advance()
        if self.pos >= len(self.src):
            if self.recover:
                return Token(TokenKind.ERROR, self.src[start:self.pos],
                             line, col)
            raise LexError("unterminated string literal", line, col)
        self._advance()  # closing quote
        return Token(TokenKind.STRING, self.src[start : self.pos], line, col)

    def _lex_char(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()  # opening quote
        while self.pos < len(self.src) and self._peek() != "'":
            if self.recover and self._peek() == "\n":
                return Token(TokenKind.ERROR, self.src[start:self.pos],
                             line, col)
            if self._peek() == "\\":
                self._advance()
            if self.pos >= len(self.src):
                break
            self._advance()
        if self.pos >= len(self.src):
            if self.recover:
                return Token(TokenKind.ERROR, self.src[start:self.pos],
                             line, col)
            raise LexError("unterminated character literal", line, col)
        self._advance()
        return Token(TokenKind.CHAR_CONST, self.src[start : self.pos], line, col)

    def _lex_operator(self, line: int, col: int) -> Token:
        for op in _OPERATORS:
            if self.src.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenKind.OP, op, line, col)
        if self.recover:
            return Token(TokenKind.ERROR, self._advance(), line, col)
        raise LexError(f"unexpected character {self._peek()!r}", line, col)


def reference_tokenize(source: str, keep_pragmas: bool = True,
                       recover: bool = False) -> List[Token]:
    """``tokenize`` as it was, on :class:`_ReferenceLexer`."""
    toks = list(_ReferenceLexer(source, recover=recover).tokens())
    if not keep_pragmas:
        toks = [t for t in toks if t.kind is not TokenKind.PRAGMA]
    return toks


def _outcome(lex, source, keep_pragmas, recover):
    """Everything observable about one lex: the token tuples, or the
    error's message, line and column."""
    try:
        return [(t.kind, t.value, t.line, t.col)
                for t in lex(source, keep_pragmas=keep_pragmas,
                             recover=recover)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


def _strings_outcome(lex, source, error):
    """:func:`_outcome` for the strings-only loop's contract."""
    try:
        return lex(source, error)
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


def _values_from_tokens(source, error):
    """What ``token_strings`` must return, read off ``tokenize``."""
    toks = tokenize(source, keep_pragmas=False, recover=error is not None)
    return [error if t.kind is TokenKind.ERROR else t.value
            for t in toks[:-1]]


def assert_same_as_reference(source: str) -> None:
    for error in (None, ERROR_TOKEN):
        got = _strings_outcome(token_strings, source, error)
        want = _strings_outcome(_values_from_tokens, source, error)
        assert got == want, (
            f"token_strings disagrees with tokenize (error={error!r}) "
            f"on {source!r}")
    for recover in (False, True):
        for keep_pragmas in (True, False):
            got = _outcome(tokenize, source, keep_pragmas, recover)
            want = _outcome(reference_tokenize, source, keep_pragmas,
                            recover)
            assert got == want, (
                f"lexers disagree (recover={recover}, "
                f"keep_pragmas={keep_pragmas}) on {source!r}")


@pytest.fixture(scope="module")
def corpus_codes():
    corpus = build_corpus(CorpusConfig(n_records=400, seed=5))
    codes = [r.code for r in corpus.records]
    codes += [f"{r.directive}\n{r.code}" for r in corpus.records
              if r.directive]
    return codes


class TestCorpusOracle:
    def test_generated_corpus(self, corpus_codes):
        assert len(corpus_codes) > 400
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


EDGE_CASES = [
    "", " ", "\n", "\n\n  \t", "0", "x = 0", "7", ".5", "x = .5;", "1e+",
    "1e+5", "1E-2f", "1e", "1ex", "0x", "0X1fUL", "0x1.5", "0xg", "1.f",
    "1..2", "1...2", "...", ". 5", "a.b", "1uLLf", "2.e3", "09", "1_a",
    '"abc\\', "'a\\", '"abc\\"', '"a\\\nb"', '"line\nnext"', "'\n'",
    '"unterminated\nint y = 1;', "'x;\nint y;",
    "int x; /* never closed", "a;\n  b /* open\n more\n text",
    "/*/", "/**/", "/* a */ b /* c", "// only a comment", "a // c\nb",
    "#pragma omp parallel for \\\n  private(i) \\\n  shared(a)\nfor(;;);",
    "#pragma omp for \\\\\nx", "#pragma", "# pragma omp", "#pragmatic",
    "#include <stdio.h>\nint x;", "#define A \\\n 1\nA", "#", "#\\",
    "  #pragma omp simd // keep\n", "#pragma omp for /* c */\n",
    "a \\\n b", "a \\ b", "a\\", "\\", "\\\r\nx",
    "x = 1 @ 2;", "a \x00 b", "$x", "`", "a b", "�", "x�y",
    "é", "éa1_", "aé", "a²", "²", "1²", "1.²", ".²", "1e²", "1e+²", "٣",
    "x٣", "3٣", "½", "a½", "Ⅷ", "aⅧ", "1Ⅷ", ".é", "a.é", "..²",
    "x\r\ny", "x\ry", "\f\v", "a<<=b>>=c...d->e", "a+++++b", "a/=b/c",
    "a = b /*c*/ / d;", "a/ *b", "p->q", "x ? y : z",
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
]


class TestEdgeCases:
    @pytest.mark.parametrize("source", EDGE_CASES)
    def test_edge_case(self, source):
        assert_same_as_reference(source)

    def test_eof_is_last_in_recover_mode(self):
        for source in EDGE_CASES:
            toks = tokenize(source, recover=True)
            assert toks[-1].kind is TokenKind.EOF
            assert all(t.kind is not TokenKind.EOF for t in toks[:-1])


#: single characters and short fragments where the two scanners could
#: part ways: C punctuation, comment and continuation openers, literal
#: quotes and escapes, and non-ASCII letters and digits
_FRAGMENTS = sorted(set(_OPERATORS) | set(
    " \t\r\n\f\v\\#\"'@$`_0123456789xXeEfFuUlL.aZ"
    "²٣½Ⅷé\x00� ") | {
        "/*", "*/", "//", "\\\n", "0x", "1e", "e+", "#pragma", "pragma",
        "for", "int", "\\\"", "\\'"})

_rich_text = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


class TestPropertyOracle:
    @settings(max_examples=FUZZ_N * 2, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_text(self, source):
        assert_same_as_reference(source)

    @settings(max_examples=FUZZ_N * 4, deadline=None)
    @given(_rich_text)
    def test_c_rich_text(self, source):
        assert_same_as_reference(source)
