"""A C tokenizer sufficient for the loop snippets in the Open-OMP corpus.

The lexer recognises the full C operator set, keywords, identifiers, integer /
floating / character / string literals, comments (dropped), and preprocessor
lines.  ``#pragma`` lines are emitted as single :class:`Token` objects with
kind :data:`TokenKind.PRAGMA` so that downstream passes (corpus extraction,
the S2S compilers) can associate directives with the loop that follows them;
all other preprocessor lines are dropped, matching how the paper's pipeline
treats headers.

Tokens carry line/column information for error reporting and for the
"snippet length in lines" statistics of Table 4.

The scanner is one compiled master pattern, matched once per token at the
current offset: an optional run of whitespace, backslash-newlines and
closed comments, then an ASCII identifier, an operator, or any other single
character.  Identifiers and operators — most of a snippet — become tokens
straight from the match.  The catch-all character goes to small exact code
per kind: numbers, string and character literals, ``#`` lines, identifiers
and digits that start with a non-ASCII character (``str.isalpha`` /
``str.isdigit`` decide, so ``é`` starts an identifier and ``²`` a number),
an unterminated ``/*``, and stray bytes.  Line and column come from
counting newlines over each consumed span, so no per-character work is done
in Python.

Two scanning modes share one code path.  In strict mode (the default)
malformed input — an unterminated string/character literal or comment, a
stray byte — raises :class:`LexError`, which is what the corpus pipeline
wants: a snippet that does not lex is not corpus material.  In *recover*
mode (``tokenize(..., recover=True)``) the same malformations are emitted
as :data:`TokenKind.ERROR` tokens carrying the offending text, and scanning
continues at the next byte, so the serving path can still hand *something*
to the model for dirty real-world input.  Recovery never loses progress:
every ERROR token consumes at least one character, so a recover-mode scan
always terminates in O(len(source)).

The model-input path needs only the token texts.  :func:`token_strings`
runs the same master pattern and catch-all code but builds no
:class:`Token` and counts no lines (an error's line and column are
computed from the source when it is raised), which halves the cost of
lexing a snippet; :func:`tokenize` stays the entry point for the parser
and the corpus pipeline.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, Optional, Tuple

__all__ = ["TokenKind", "Token", "LexError", "tokenize", "token_strings",
           "KEYWORDS"]


class TokenKind(enum.Enum):
    """Lexical classes produced by the lexer."""

    KEYWORD = "keyword"
    IDENT = "ident"
    INT_CONST = "int_const"
    FLOAT_CONST = "float_const"
    CHAR_CONST = "char_const"
    STRING = "string"
    OP = "op"
    PRAGMA = "pragma"
    EOF = "eof"
    #: recover-mode only: a malformed region (unterminated literal/comment,
    #: stray byte); ``value`` is the offending source text
    ERROR = "error"


#: C99 keywords plus the common POSIX/benchmark typedefs the SPEC-like suite
#: uses.  Typedef-like names are *not* keywords here — the parser treats any
#: identifier followed by a declarator as a type when it appears in
#: ``TYPE_NAMES`` — but true keywords must never be parsed as identifiers.
KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    """.split()
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


class Token(NamedTuple):
    """A single lexical token.

    ``value`` is the exact source text (for PRAGMA tokens, the pragma line
    without the leading ``#`` and trailing newline).
    """

    kind: TokenKind
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.col})"


class LexError(ValueError):
    """Raised on malformed input (unterminated literal, stray byte, ...)."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col


def _operator_pattern(op: str) -> str:
    # A "/" before "*" opens an unterminated comment (closed ones are
    # skipped), and a "." before a digit starts a number; both, and a "."
    # before any non-ASCII character (it may be a digit such as "²"), are
    # left to the exact branch.
    if op == "/":
        return r"/(?!\*)"
    if op == ".":
        return r"\.(?![0-9]|[^\x00-\x7f])"
    return re.escape(op)


#: One scanner step: skip whitespace, backslash-newlines and closed
#: comments, then match an ASCII identifier (group 1), an operator (group
#: 2, alternatives in ``_OPERATORS`` order, so maximal munch) or any other
#: single character (group 3).  No group matches only at end of input.
#: ``\w`` is exactly ``str.isalnum() or "_"`` for every code point, so an
#: identifier's tail needs no per-character check.
_MASTER = re.compile(
    r"(?:[ \t\r\n\f\v]+|\\\n|//[^\n]*|/\*.*?\*/)*"
    r"(?:([A-Za-z_]\w*)|("
    + "|".join(_operator_pattern(op) for op in _OPERATORS)
    + r")|(.))?",
    re.DOTALL)
_WORD_TAIL = re.compile(r"\w*")
_ASCII_DIGITS = re.compile(r"[0-9]*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
_SUFFIX = re.compile(r"[uUlLfF]*")
#: a ``#`` line up to its newline; a backslash before the newline
#: continues it
_DIRECTIVE = re.compile(r"#[^\n\\]*(?:(?:\\\n|\\)[^\n\\]*)*")
#: a literal's opening quote and body, up to its closing quote, the end of
#: input or a backslash ending the input; recover mode also stops at a
#: newline, so one bad literal does not swallow the rest of the file
_LITERAL_BODY = {
    (quote, recover): re.compile(
        f"{quote}[^{quote}\\\\{stop}]*(?:\\\\.[^{quote}\\\\{stop}]*)*",
        re.DOTALL)
    for quote in "\"'" for recover, stop in ((False, ""), (True, "\\n"))
}
_LITERAL_KIND = {'"': (TokenKind.STRING, "string literal"),
                 "'": (TokenKind.CHAR_CONST, "character literal")}


def _position(src: str, pos: int) -> Tuple[int, int]:
    """``(line, col)`` of ``src[pos]``, for error reports."""
    return src.count("\n", 0, pos) + 1, pos - src.rfind("\n", 0, pos)


def _digits(src: str, pos: int) -> int:
    """End of the run of ``str.isdigit`` characters at ``pos``."""
    end = _ASCII_DIGITS.match(src, pos).end()
    while src[end:end + 1].isdigit():  # a non-ASCII digit such as "²"
        end = _ASCII_DIGITS.match(src, end + 1).end()
    return end


def _scan_number(src: str, pos: int) -> Tuple[TokenKind, str, int]:
    is_float = False
    if src.startswith(("0x", "0X"), pos):
        end = _HEX_DIGITS.match(src, pos + 2).end()
    else:
        end = _digits(src, pos)
        if src[end:end + 1] == ".":
            is_float = True
            end = _digits(src, end + 1)
        if src[end:end + 1] in ("e", "E"):
            sign = src[end + 1:end + 2] in ("+", "-")
            if src[end + 1 + sign:end + 2 + sign].isdigit():
                is_float = True
                end = _digits(src, end + 1 + sign)
    suffix = _SUFFIX.match(src, end).group()
    if "f" in suffix or "F" in suffix:
        is_float = True
    end += len(suffix)
    kind = TokenKind.FLOAT_CONST if is_float else TokenKind.INT_CONST
    return kind, src[pos:end], end


def _scan_other(src: str, pos: int,
                recover: bool) -> Tuple[Optional[TokenKind], str, int]:
    """``(kind, value, end)`` for the token the master pattern's catch-all
    branch found at ``pos``; ``kind`` is None for a dropped ``#`` line."""
    ch = src[pos]
    if ch == "#":
        end = _DIRECTIVE.match(src, pos).end()
        text = src[pos + 1:end].replace("\\\n", " ").strip()
        kind = TokenKind.PRAGMA if text.startswith("pragma") else None
        return kind, text, end  # includes, defines, etc. are dropped
    if ch in _LITERAL_KIND:
        end = _LITERAL_BODY[ch, recover].match(src, pos).end()
        kind, what = _LITERAL_KIND[ch]
        if src[end:end + 1] == ch:
            return kind, src[pos:end + 1], end + 1
        if not recover:
            raise LexError(f"unterminated {what}", *_position(src, pos))
        if src[end:end + 1] != "\n":  # a backslash ends the input
            end = len(src)
        return TokenKind.ERROR, src[pos:end], end
    if ch.isalpha():  # a non-ASCII letter starts an identifier
        end = _WORD_TAIL.match(src, pos + 1).end()
        return TokenKind.IDENT, src[pos:end], end
    if ch.isdigit() or (ch == "." and src[pos + 1:pos + 2].isdigit()):
        return _scan_number(src, pos)
    if ch == ".":  # before a non-ASCII character that is not a digit
        return TokenKind.OP, ch, pos + 1
    if src.startswith("/*", pos):  # closed comments were skipped
        if not recover:
            raise LexError("unterminated comment",
                           *_position(src, len(src)))
        return TokenKind.ERROR, "/*", len(src)
    if not recover:
        raise LexError(f"unexpected character {ch!r}", *_position(src, pos))
    return TokenKind.ERROR, ch, pos + 1


def tokenize(source: str, keep_pragmas: bool = True,
             recover: bool = False) -> List[Token]:
    """Tokenize ``source`` into a list ending with an EOF token.

    ``keep_pragmas=False`` drops PRAGMA tokens, which is what the model-input
    pipeline wants (the directive is the *label*, never a feature).
    ``recover=True`` emits :data:`TokenKind.ERROR` tokens for malformed
    regions instead of raising :class:`LexError` (serving-path mode).
    """
    toks: List[Token] = []
    append = toks.append
    match = _MASTER.match
    count = source.count
    keyword, ident, op = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.OP
    # line/line_start are exact up to ``mark``, the last token's start
    pos = mark = line_start = 0
    line = 1
    while True:
        m = match(source, pos)
        group = m.lastindex
        start = m.start(group) if group else m.end()
        newlines = count("\n", mark, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", mark, start) + 1
        mark = start
        col = start - line_start + 1
        if group == 1:
            word = m.group(1)
            append(Token(keyword if word in KEYWORDS else ident,
                         word, line, col))
            pos = m.end()
        elif group == 2:
            append(Token(op, m.group(2), line, col))
            pos = m.end()
        elif group == 3:
            kind, value, pos = _scan_other(source, start, recover)
            if kind is not None and (keep_pragmas
                                     or kind is not TokenKind.PRAGMA):
                append(Token(kind, value, line, col))
        else:
            append(Token(TokenKind.EOF, "", line, col))
            return toks


def token_strings(source: str, error: Optional[str] = None) -> List[str]:
    """The values of ``tokenize(source, keep_pragmas=False)`` without the
    EOF token, scanned without building :class:`Token` objects.

    ``error=None`` is strict mode: malformed input raises the same
    :class:`LexError` (message, line and column) as :func:`tokenize`.  A
    string switches to recover mode and stands in for the text of every
    :data:`TokenKind.ERROR` token.
    """
    out: List[str] = []
    append = out.append
    match = _MASTER.match
    recover = error is not None
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastindex
        if group is None:
            return out
        if group < 3:  # an identifier or keyword, or an operator
            append(m.group(group))
            pos = m.end()
            continue
        kind, value, pos = _scan_other(source, m.start(3), recover)
        if kind is TokenKind.ERROR:
            append(error)
        elif kind is not None and kind is not TokenKind.PRAGMA:
            append(value)
