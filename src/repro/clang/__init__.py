"""C language substrate: lexer, recursive-descent parser, AST, OpenMP pragmas.

This package plays the role pycparser plays in the paper: it turns C loop
snippets into token streams and abstract syntax trees, serializes ASTs into
the paper's DFS textual form (Tables 2 and 6), and parses/unparses
``#pragma omp`` directives into a structured clause model.
"""

from repro.clang.lexer import LexError, Token, TokenKind, token_strings, tokenize
from repro.clang.nodes import (
    ArrayRef,
    Assignment,
    BinaryOp,
    Break,
    Call,
    Cast,
    Compound,
    Constant,
    Continue,
    Decl,
    DoWhile,
    ErrorStmt,
    ExprStmt,
    For,
    FuncDef,
    Identifier,
    If,
    Node,
    Return,
    StructRef,
    TernaryOp,
    UnaryOp,
    While,
    walk,
)
from repro.clang.parser import (
    DEFAULT_MAX_DEPTH,
    Diagnostic,
    ParseBudgetExceeded,
    ParseError,
    Parser,
    parse,
    parse_expression,
    parse_resilient,
)
from repro.clang.pragma import Clause, OmpDirective, PragmaError, parse_pragma
from repro.clang.serialize import ast_to_dfs_text, unparse

__all__ = [
    "LexError",
    "Token",
    "TokenKind",
    "tokenize",
    "token_strings",
    "Node",
    "Identifier",
    "Constant",
    "BinaryOp",
    "UnaryOp",
    "TernaryOp",
    "Assignment",
    "ArrayRef",
    "StructRef",
    "Call",
    "Cast",
    "Decl",
    "Compound",
    "For",
    "While",
    "DoWhile",
    "If",
    "Return",
    "Break",
    "Continue",
    "ErrorStmt",
    "ExprStmt",
    "FuncDef",
    "walk",
    "Parser",
    "ParseError",
    "ParseBudgetExceeded",
    "Diagnostic",
    "DEFAULT_MAX_DEPTH",
    "parse",
    "parse_expression",
    "parse_resilient",
    "OmpDirective",
    "Clause",
    "PragmaError",
    "parse_pragma",
    "ast_to_dfs_text",
    "unparse",
]
