"""The four code representations of §4.2 / Table 6.

* ``TEXT`` — the raw source tokens, lexed as text.
* ``R_TEXT`` — source tokens after canonical identifier replacement.
* ``AST`` — the DFS-flattened pycparser-style AST labels.
* ``R_AST`` — DFS labels after identifier replacement.

``represent`` yields the representation string; ``tokenize_representation``
yields its token list (what the vocabulary and models consume).  Text
representations are tokenized with the C lexer (each keyword, identifier,
operator and literal is one token); AST representations are whitespace-split,
matching "each line contains a single token" in §1.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.clang import Compound, parse, token_strings
# not called here any more; the name stays because perfbench's tracer
# wraps ``repro.tokenize.representations.tokenize`` by attribute
from repro.clang import tokenize  # noqa: F401
from repro.clang.serialize import ast_to_dfs_text, unparse
from repro.tokenize.replace import build_replacement_map, rename_ast

__all__ = [
    "Representation",
    "represent",
    "tokenize_representation",
    "text_tokens",
    "robust_text_tokens",
    "ERROR_TOKEN",
]

#: Sentinel emitted by :func:`robust_text_tokens` in place of a malformed
#: region's raw text.  It is not in any trained vocabulary, so it encodes
#: to UNK — the model sees "something unrecognisable was here" rather than
#: garbage bytes, and the serving engine can count recovered snippets by
#: membership.
ERROR_TOKEN = "<error>"


class Representation(enum.Enum):
    TEXT = "text"
    R_TEXT = "replaced-text"
    AST = "ast"
    R_AST = "replaced-ast"


def represent(code: str, kind: Representation, ast: Optional[Compound] = None) -> str:
    """Render ``code`` in the given representation (pragmas never included)."""
    if kind is Representation.TEXT:
        return code
    tree = ast if ast is not None else parse(code)
    if kind is Representation.AST:
        return ast_to_dfs_text(tree)
    mapping = build_replacement_map(tree)
    renamed = rename_ast(tree, mapping)
    if kind is Representation.R_TEXT:
        return unparse(renamed)
    return ast_to_dfs_text(renamed)


def text_tokens(source: str) -> List[str]:
    """Lex C source into token strings (pragmas and EOF dropped); raises
    :class:`~repro.clang.LexError` on malformed input."""
    return token_strings(source)


def robust_text_tokens(source: str) -> List[str]:
    """Like :func:`text_tokens`, but never raises on dirty input.

    Lexes in recover mode; each malformed region becomes one
    :data:`ERROR_TOKEN` in the output.  On clean input the result is
    identical to :func:`text_tokens`, which is what lets the serving path
    use this as its default tokenizer without perturbing cached encodings.
    """
    return token_strings(source, error=ERROR_TOKEN)


def tokenize_representation(code: str, kind: Representation,
                            ast: Optional[Compound] = None) -> List[str]:
    """Token list for ``code`` under ``kind``."""
    rendered = represent(code, kind, ast=ast)
    if kind in (Representation.TEXT, Representation.R_TEXT):
        return text_tokens(rendered)
    return rendered.split()
