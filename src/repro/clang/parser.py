"""Recursive-descent parser for the C subset used by the Open-OMP corpus.

The grammar covers everything the snippet generators and the external
benchmark suites emit: declarations (qualifiers, pointers, multi-dim arrays,
initializers, multiple declarators), the full C expression grammar with
correct precedence and associativity, control flow (``for``/``while``/
``do``/``if``/``switch``), function definitions, and ``#pragma`` attachment
to the following loop.

Design notes
------------
* Snippets are *fragments* — a bare loop is a valid input — so the top-level
  rule accepts a statement list rather than requiring a translation unit.
* Typedef names (``size_t``, ``ssize_t``, user types like ``IndexPacket``)
  cannot be distinguished from identifiers without a symbol table; we use the
  classic heuristic that ``IDENT IDENT`` in statement position begins a
  declaration, plus a seed set of well-known typedef names.
* The parser is deliberately total over our corpus: robustness *limits* of
  the paper's S2S compilers are modelled separately in :mod:`repro.s2s`, not
  by crippling this parser.
* Two failure regimes.  Strict mode (``parse``) raises :class:`ParseError`
  on the first mismatch — corpus material must be clean.  Resilient mode
  (``parse_resilient``) does classic panic-mode recovery: on a mismatch it
  skips to a synchronisation token (``;`` consumed, ``}`` / loop keywords
  stopped before), drops an :class:`~repro.clang.nodes.ErrorStmt` into the
  AST, records a :class:`Diagnostic`, and keeps going.  Recovery always
  consumes at least one token per error, so it terminates.  Both modes
  enforce a hard nesting-depth limit (:data:`DEFAULT_MAX_DEPTH`) so
  pathological input raises a deterministic :class:`ParseError` instead of
  an interpreter-dependent ``RecursionError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.clang.lexer import Token, TokenKind, tokenize
from repro.clang.nodes import (
    ArrayRef,
    Assignment,
    BinaryOp,
    Break,
    Call,
    Case,
    Cast,
    Compound,
    Constant,
    Continue,
    Decl,
    DeclList,
    Default,
    DoWhile,
    EmptyStmt,
    ErrorStmt,
    ExprList,
    ExprStmt,
    For,
    FuncDef,
    Goto,
    Identifier,
    If,
    Label,
    Node,
    Pragma,
    Return,
    StructRef,
    Switch,
    TernaryOp,
    UnaryOp,
    While,
)

__all__ = [
    "ParseError",
    "ParseBudgetExceeded",
    "Diagnostic",
    "Parser",
    "parse",
    "parse_expression",
    "parse_resilient",
    "TYPE_NAMES",
    "DEFAULT_MAX_DEPTH",
]

#: Hard nesting-depth cap.  The counter increments at most twice per source
#: nesting level and each increment costs at most ~5 Python frames (a
#: parenthesis level is 9: expression, assignment and its body, ternary,
#: binary, unary and its body, postfix, primary), so 80 keeps the worst
#: case around 400 frames — comfortably inside CPython's default
#: 1000-frame recursion limit even under a test runner — while still
#: admitting 38 levels of parentheses, far beyond anything in real code.
DEFAULT_MAX_DEPTH = 80

#: Keywords that begin a statement recovery can safely resynchronise on.
_SYNC_KEYWORDS = frozenset(
    "for while do if switch return break continue".split()
)

#: Identifiers treated as type names even though they are not C keywords.
TYPE_NAMES = frozenset(
    """
    size_t ssize_t ptrdiff_t intptr_t uintptr_t
    int8_t int16_t int32_t int64_t uint8_t uint16_t uint32_t uint64_t
    FILE bool wchar_t
    IndexPacket PixelPacket Quantum MagickBooleanType
    real_t DATA_TYPE
    """.split()
)

_BASE_TYPE_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned struct union enum bool".split()
)
_QUALIFIERS = frozenset(
    "const volatile static extern register restrict inline auto".split()
)

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])

#: Binary operator -> precedence level, loosest (``||``) first.
_BINARY_PREC = {"||": 0, "&&": 1, "|": 2, "^": 3, "&": 4, "==": 5, "!=": 5,
                "<": 6, ">": 6, "<=": 6, ">=": 6, "<<": 7, ">>": 7,
                "+": 8, "-": 8, "*": 9, "/": 9, "%": 9}


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar.

    ``kind`` classifies the failure: ``"parse"`` (grammar mismatch),
    ``"depth"`` (nesting-depth limit hit) or ``"budget"`` (wall-clock
    budget exhausted, resilient mode only).
    """

    def __init__(self, message: str, token: Token, kind: str = "parse") -> None:
        super().__init__(f"{message} (got {token.kind.name} {token.value!r} at {token.line}:{token.col})")
        self.token = token
        self.kind = kind


class ParseBudgetExceeded(ParseError):
    """Raised when a resilient parse runs past its wall-clock budget.

    Unlike a plain :class:`ParseError` this is *not* recovered from — the
    resilient entry points catch it, close the partial AST with an
    :class:`~repro.clang.nodes.ErrorStmt`, and return.
    """

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(message, token, kind="budget")


@dataclass(frozen=True)
class Diagnostic:
    """One recovered-from problem in a resilient lex/parse.

    ``kind`` is ``"lex"``, ``"parse"``, ``"depth"`` or ``"budget"``;
    ``line``/``col`` locate the token that triggered it.
    """

    message: str
    line: int
    col: int
    kind: str = "parse"


class Parser:
    """One-token-lookahead recursive-descent parser.

    ``max_depth`` bounds statement/expression nesting in *both* modes;
    ``resilient=True`` switches statement-list parsing from raising on the
    first :class:`ParseError` to panic-mode recovery (see module docstring).
    ``deadline`` (a ``time.monotonic()`` instant) aborts a resilient parse
    via :class:`ParseBudgetExceeded` once exceeded.
    """

    def __init__(self, tokens: List[Token], extra_types: Optional[frozenset] = None,
                 max_depth: int = DEFAULT_MAX_DEPTH, resilient: bool = False,
                 deadline: Optional[float] = None) -> None:
        self.toks = tokens
        self.i = 0
        self.type_names = set(TYPE_NAMES)
        if extra_types:
            self.type_names.update(extra_types)
        self.max_depth = max_depth
        self.resilient = resilient
        self.deadline = deadline
        self.diagnostics: List[Diagnostic] = []
        self._depth = 0

    # -- token stream helpers ----------------------------------------------

    # ``_advance`` stops at EOF, so ``self.toks[self.i]`` always exists;
    # only lookahead clamps

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self.toks[min(self.i + offset, len(self.toks) - 1)]
        return self.toks[self.i]

    def _at_op(self, *ops: str) -> bool:
        t = self.toks[self.i]
        return t.kind is TokenKind.OP and t.value in ops

    def _at_kw(self, *kws: str) -> bool:
        t = self.toks[self.i]
        return t.kind is TokenKind.KEYWORD and t.value in kws

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokenKind.EOF:
            self.i += 1
        return tok

    def _expect_op(self, op: str) -> Token:
        if not self._at_op(op):
            raise ParseError(f"expected {op!r}", self._peek())
        return self._advance()

    def _expect_kw(self, kw: str) -> Token:
        if not self._at_kw(kw):
            raise ParseError(f"expected keyword {kw!r}", self._peek())
        return self._advance()

    def _expect_ident(self) -> Token:
        t = self._peek()
        if t.kind is not TokenKind.IDENT:
            raise ParseError("expected identifier", t)
        return self._advance()

    # -- nesting / budget guards ---------------------------------------------

    def _check_limits(self) -> None:
        """Raise when the depth cap or (resilient-mode) deadline is blown."""
        if self._depth > self.max_depth:
            raise ParseError(
                f"nesting depth exceeds limit {self.max_depth}",
                self._peek(), kind="depth")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ParseBudgetExceeded("parse budget exceeded", self._peek())

    # -- type recognition ----------------------------------------------------

    def _starts_declaration(self) -> bool:
        t = self._peek()
        if t.kind is TokenKind.KEYWORD and (t.value in _BASE_TYPE_KEYWORDS or t.value in _QUALIFIERS):
            return True
        if t.kind is TokenKind.IDENT and t.value in self.type_names:
            nxt = self._peek(1)
            return nxt.kind is TokenKind.IDENT or (nxt.kind is TokenKind.OP and nxt.value == "*")
        return False

    def _parse_type_spec(self) -> tuple:
        """Parse qualifiers + base type; returns (quals, base_type_string)."""
        quals: List[str] = []
        base_parts: List[str] = []
        while True:
            t = self._peek()
            if t.kind is TokenKind.KEYWORD and t.value in _QUALIFIERS:
                quals.append(self._advance().value)
            elif t.kind is TokenKind.KEYWORD and t.value in ("struct", "union", "enum"):
                tag_kw = self._advance().value
                tag = self._expect_ident().value
                base_parts.append(f"{tag_kw} {tag}")
            elif t.kind is TokenKind.KEYWORD and t.value in _BASE_TYPE_KEYWORDS:
                base_parts.append(self._advance().value)
            elif t.kind is TokenKind.IDENT and t.value in self.type_names and not base_parts:
                base_parts.append(self._advance().value)
            else:
                break
        if not base_parts:
            if quals:
                base_parts = ["int"]  # e.g. ``register i;`` — implicit int
            else:
                raise ParseError("expected type specifier", self._peek())
        return quals, " ".join(base_parts)

    # -- declarations --------------------------------------------------------

    def _parse_declarator(self, quals: List[str], base_type: str) -> Decl:
        ptr_depth = 0
        while self._at_op("*"):
            self._advance()
            ptr_depth += 1
            while self._at_kw("const", "restrict", "volatile"):
                self._advance()
        name = self._expect_ident().value
        dims: List[Optional[Node]] = []
        while self._at_op("["):
            self._advance()
            if self._at_op("]"):
                dims.append(None)
            else:
                dims.append(self._parse_assignment_expr())
            self._expect_op("]")
        init: Optional[Node] = None
        if self._at_op("="):
            self._advance()
            init = self._parse_initializer()
        return Decl(name=name, base_type=base_type, quals=list(quals),
                    ptr_depth=ptr_depth, array_dims=dims, init=init)

    def _parse_initializer(self) -> Node:
        self._depth += 1
        try:
            self._check_limits()
            return self._parse_initializer_inner()
        finally:
            self._depth -= 1

    def _parse_initializer_inner(self) -> Node:
        if self._at_op("{"):
            self._advance()
            items: List[Node] = []
            while not self._at_op("}"):
                items.append(self._parse_initializer())
                if self._at_op(","):
                    self._advance()
                else:
                    break
            self._expect_op("}")
            return ExprList(items)
        return self._parse_assignment_expr()

    def _parse_declaration(self) -> Node:
        quals, base = self._parse_type_spec()
        first = self._parse_declarator(quals, base)
        decls = [first]
        while self._at_op(","):
            self._advance()
            decls.append(self._parse_declarator(quals, base))
        self._expect_op(";")
        return first if len(decls) == 1 else DeclList(decls)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> Node:
        self._depth += 1
        try:
            self._check_limits()
            return self._parse_statement_inner()
        finally:
            self._depth -= 1

    def _parse_statement_inner(self) -> Node:
        t = self._peek()
        if t.kind is TokenKind.PRAGMA:
            self._advance()
            pragma = Pragma(t.value)
            nxt = self.parse_statement()
            if isinstance(nxt, For):
                nxt.pragma = pragma
                return nxt
            return Compound([pragma, nxt])
        if self._at_op("{"):
            return self._parse_compound()
        if self._at_op(";"):
            self._advance()
            return EmptyStmt()
        if self._at_kw("for"):
            return self._parse_for()
        if self._at_kw("while"):
            return self._parse_while()
        if self._at_kw("do"):
            return self._parse_do_while()
        if self._at_kw("if"):
            return self._parse_if()
        if self._at_kw("switch"):
            return self._parse_switch()
        if self._at_kw("return"):
            self._advance()
            expr = None if self._at_op(";") else self._parse_expression()
            self._expect_op(";")
            return Return(expr)
        if self._at_kw("break"):
            self._advance()
            self._expect_op(";")
            return Break()
        if self._at_kw("continue"):
            self._advance()
            self._expect_op(";")
            return Continue()
        if self._at_kw("goto"):
            self._advance()
            target = self._expect_ident().value
            self._expect_op(";")
            return Goto(target)
        # label: ``name : stmt``
        if t.kind is TokenKind.IDENT and self._peek(1).kind is TokenKind.OP and self._peek(1).value == ":":
            name = self._advance().value
            self._advance()  # ':'
            return Label(name, self.parse_statement())
        if self._starts_declaration():
            return self._parse_declaration()
        expr = self._parse_expression()
        self._expect_op(";")
        return ExprStmt(expr)

    def _parse_compound(self) -> Compound:
        self._expect_op("{")
        stmts: List[Node] = []
        while not self._at_op("}"):
            if self._peek().kind is TokenKind.EOF:
                if self.resilient:
                    self._note("unterminated block", self._peek())
                    stmts.append(ErrorStmt(message="unterminated block"))
                    return Compound(stmts)
                raise ParseError("unterminated block", self._peek())
            if self.resilient:
                stmts.append(self._parse_statement_resilient())
            else:
                stmts.append(self.parse_statement())
        self._expect_op("}")
        return Compound(stmts)

    # -- panic-mode recovery -------------------------------------------------

    def _note(self, message: str, token: Token, kind: str = "parse") -> None:
        self.diagnostics.append(
            Diagnostic(message, token.line, token.col, kind))

    def _parse_statement_resilient(self) -> Node:
        """One statement, or an :class:`ErrorStmt` after resynchronising.

        Budget exhaustion (:class:`ParseBudgetExceeded`) is *not* recovered
        from — it propagates so the entry point can close the partial AST.
        """
        mark = self.i
        try:
            return self.parse_statement()
        except ParseBudgetExceeded:
            raise
        except ParseError as exc:
            self._note(str(exc), exc.token, exc.kind)
            return self._recover(mark, str(exc))

    def _recover(self, mark: int, message: str) -> ErrorStmt:
        """Skip to a sync token (``;`` consumed; ``}``/loop keywords kept).

        Guarantees forward progress: if the failed parse consumed nothing
        and recovery stopped immediately, one token is force-consumed, so a
        resilient parse can never loop on the same position.
        """
        skipped: List[str] = []
        while True:
            t = self._peek()
            if t.kind is TokenKind.EOF:
                break
            if t.kind is TokenKind.OP and t.value == ";":
                skipped.append(self._advance().value)
                break
            if t.kind is TokenKind.OP and t.value == "}":
                break
            if t.kind is TokenKind.KEYWORD and t.value in _SYNC_KEYWORDS:
                break
            skipped.append(self._advance().value)
        if self.i == mark and self._peek().kind is not TokenKind.EOF:
            skipped.append(self._advance().value)
        return ErrorStmt(message=message, skipped=" ".join(skipped))

    def _parse_for(self) -> For:
        self._expect_kw("for")
        self._expect_op("(")
        init: Optional[Node] = None
        if not self._at_op(";"):
            if self._starts_declaration():
                init = self._parse_declaration()  # consumes ';'
            else:
                init = ExprStmt(self._parse_expression())
                self._expect_op(";")
        else:
            self._advance()
        cond = None if self._at_op(";") else self._parse_expression()
        self._expect_op(";")
        nxt = None if self._at_op(")") else self._parse_expression()
        self._expect_op(")")
        body = self.parse_statement()
        return For(init=init, cond=cond, nxt=nxt, body=body)

    def _parse_while(self) -> While:
        self._expect_kw("while")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        return While(cond, self.parse_statement())

    def _parse_do_while(self) -> DoWhile:
        self._expect_kw("do")
        body = self.parse_statement()
        self._expect_kw("while")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        self._expect_op(";")
        return DoWhile(body, cond)

    def _parse_if(self) -> If:
        self._expect_kw("if")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        iftrue = self.parse_statement()
        iffalse: Optional[Node] = None
        if self._at_kw("else"):
            self._advance()
            iffalse = self.parse_statement()
        return If(cond, iftrue, iffalse)

    def _parse_switch(self) -> Switch:
        self._expect_kw("switch")
        self._expect_op("(")
        cond = self._parse_expression()
        self._expect_op(")")
        self._expect_op("{")
        stmts: List[Node] = []
        while not self._at_op("}"):
            if self._at_kw("case"):
                self._advance()
                expr = self._parse_expression()
                self._expect_op(":")
                body: List[Node] = []
                while not (self._at_kw("case", "default") or self._at_op("}")):
                    body.append(self.parse_statement())
                stmts.append(Case(expr, body))
            elif self._at_kw("default"):
                self._advance()
                self._expect_op(":")
                body = []
                while not (self._at_kw("case", "default") or self._at_op("}")):
                    body.append(self.parse_statement())
                stmts.append(Default(body))
            else:
                raise ParseError("expected case/default", self._peek())
        self._expect_op("}")
        return Switch(cond, Compound(stmts))

    # -- function definitions -------------------------------------------------

    def _try_parse_funcdef(self) -> Optional[FuncDef]:
        """Attempt ``type name ( params ) { ... }``; rewind on mismatch."""
        mark = self.i
        try:
            quals, base = self._parse_type_spec()
            ptr_depth = 0
            while self._at_op("*"):
                self._advance()
                ptr_depth += 1
            name_tok = self._peek()
            if name_tok.kind is not TokenKind.IDENT:
                raise ParseError("not a funcdef", name_tok)
            self._advance()
            if not self._at_op("("):
                raise ParseError("not a funcdef", self._peek())
            self._advance()
            params: List[Decl] = []
            if not self._at_op(")"):
                if self._at_kw("void") and self._peek(1).kind is TokenKind.OP and self._peek(1).value == ")":
                    self._advance()
                else:
                    while True:
                        pq, pbase = self._parse_type_spec()
                        pd = 0
                        while self._at_op("*"):
                            self._advance()
                            pd += 1
                        pname = self._expect_ident().value
                        dims: List[Optional[Node]] = []
                        while self._at_op("["):
                            self._advance()
                            if self._at_op("]"):
                                dims.append(None)
                            else:
                                dims.append(self._parse_assignment_expr())
                            self._expect_op("]")
                        params.append(Decl(pname, pbase, pq, pd, dims))
                        if self._at_op(","):
                            self._advance()
                        else:
                            break
            self._expect_op(")")
            if not self._at_op("{"):
                raise ParseError("not a funcdef (prototype?)", self._peek())
            body = self._parse_compound()
            ret = " ".join(quals + [base]) + "*" * ptr_depth
            return FuncDef(name=name_tok.value, ret_type=ret, params=params, body=body)
        except ParseError:
            self.i = mark
            return None

    # -- expressions (precedence climbing) -------------------------------------

    def _parse_expression(self) -> Node:
        """Full expression including the comma operator."""
        expr = self._parse_assignment_expr()
        if self._at_op(","):
            exprs = [expr]
            while self._at_op(","):
                self._advance()
                exprs.append(self._parse_assignment_expr())
            return ExprList(exprs)
        return expr

    def _parse_assignment_expr(self) -> Node:
        self._depth += 1
        try:
            self._check_limits()
            return self._parse_assignment_expr_inner()
        finally:
            self._depth -= 1

    def _parse_assignment_expr_inner(self) -> Node:
        left = self._parse_ternary()
        t = self._peek()
        if t.kind is TokenKind.OP and t.value in _ASSIGN_OPS:
            op = self._advance().value
            right = self._parse_assignment_expr()  # right-associative
            return Assignment(op, left, right)
        return left

    def _parse_ternary(self) -> Node:
        cond = self._parse_binary(0)
        if self._at_op("?"):
            self._advance()
            iftrue = self._parse_expression()
            self._expect_op(":")
            iffalse = self._parse_ternary()
            return TernaryOp(cond, iftrue, iffalse)
        return cond

    def _parse_binary(self, min_prec: int) -> Node:
        """Binary operators of level ``min_prec`` or tighter, by precedence
        climbing: each right operand takes only tighter operators, so every
        level stays left-associative."""
        left = self._parse_unary()
        toks = self.toks
        while True:
            t = toks[self.i]
            prec = _BINARY_PREC.get(t.value) if t.kind is TokenKind.OP else None
            if prec is None or prec < min_prec:
                return left
            self.i += 1
            left = BinaryOp(t.value, left, self._parse_binary(prec + 1))

    def _parse_unary(self) -> Node:
        self._depth += 1
        try:
            self._check_limits()
            return self._parse_unary_inner()
        finally:
            self._depth -= 1

    def _parse_unary_inner(self) -> Node:
        t = self.toks[self.i]
        kind, value = t.kind, t.value
        if kind is TokenKind.IDENT:
            return self._parse_postfix()
        if kind is TokenKind.OP:
            if value in ("+", "-", "!", "~", "&", "*", "++", "--"):
                self.i += 1
                return UnaryOp(value, self._parse_unary())
            # cast: '(' type ')' unary
            if value == "(" and self._is_type_ahead(1):
                mark = self.i
                self.i += 1
                try:
                    return Cast(self._parse_type_name(), self._parse_unary())
                except ParseError:
                    self.i = mark  # fall through to postfix/primary
        elif kind is TokenKind.KEYWORD and value == "sizeof":
            self.i += 1
            if self._at_op("(") and self._is_type_ahead(1):
                self.i += 1
                return UnaryOp("sizeof", Identifier(self._parse_type_name()))
            return UnaryOp("sizeof", self._parse_unary())
        return self._parse_postfix()

    def _parse_type_name(self) -> str:
        """``type *...)`` after a ``(``, as ``"type*..."``."""
        _, base = self._parse_type_spec()
        depth = 0
        while self._at_op("*"):
            self._advance()
            depth += 1
        self._expect_op(")")
        return base + "*" * depth

    def _is_type_ahead(self, offset: int) -> bool:
        t = self._peek(offset)
        if t.kind is TokenKind.KEYWORD and (t.value in _BASE_TYPE_KEYWORDS or t.value in _QUALIFIERS):
            return True
        return t.kind is TokenKind.IDENT and t.value in self.type_names

    def _parse_postfix(self) -> Node:
        expr = self._parse_primary()
        toks = self.toks
        while True:
            t = toks[self.i]
            if t.kind is not TokenKind.OP:
                return expr
            op = t.value
            if op == "[":
                self.i += 1
                sub = self._parse_expression()
                self._expect_op("]")
                expr = ArrayRef(expr, sub)
            elif op == "(":
                self.i += 1
                args: List[Node] = []
                while not self._at_op(")"):
                    args.append(self._parse_assignment_expr())
                    if self._at_op(","):
                        self._advance()
                    else:
                        break
                self._expect_op(")")
                expr = Call(expr, args)
            elif op == "." or op == "->":
                self.i += 1
                expr = StructRef(expr, op, self._expect_ident().value)
            elif op == "++" or op == "--":
                self.i += 1
                expr = UnaryOp("p" + op, expr)
            else:
                return expr

    def _parse_primary(self) -> Node:
        t = self._peek()
        if t.kind is TokenKind.OP and t.value == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect_op(")")
            return expr
        if t.kind is TokenKind.IDENT:
            return Identifier(self._advance().value)
        if t.kind is TokenKind.INT_CONST:
            return Constant("int", self._advance().value)
        if t.kind is TokenKind.FLOAT_CONST:
            return Constant("float", self._advance().value)
        if t.kind is TokenKind.CHAR_CONST:
            return Constant("char", self._advance().value)
        if t.kind is TokenKind.STRING:
            return Constant("string", self._advance().value)
        raise ParseError("expected expression", t)

    # -- entry points ------------------------------------------------------------

    def parse_snippet(self) -> Compound:
        """Parse a fragment: any mix of function defs, declarations, statements."""
        items: List[Node] = []
        while self._peek().kind is not TokenKind.EOF:
            func = self._try_parse_funcdef()
            if func is not None:
                items.append(func)
                continue
            items.append(self.parse_statement())
        return Compound(items)

    def parse_snippet_resilient(self) -> Compound:
        """Like :meth:`parse_snippet`, but never raises on bad input.

        Each unparseable region becomes an :class:`ErrorStmt`; a blown
        wall-clock budget closes the AST with a final ``ErrorStmt`` instead
        of propagating.
        """
        items: List[Node] = []
        while self._peek().kind is not TokenKind.EOF:
            func = self._try_parse_funcdef()
            if func is not None:
                items.append(func)
                continue
            try:
                items.append(self._parse_statement_resilient())
            except ParseBudgetExceeded as exc:
                self._note(str(exc), exc.token, "budget")
                items.append(ErrorStmt(message="parse budget exceeded"))
                break
        return Compound(items)


def parse(source: str, extra_types: Optional[frozenset] = None,
          max_depth: int = DEFAULT_MAX_DEPTH) -> Compound:
    """Parse a C snippet (fragment or full functions) into a Compound.

    ``max_depth`` bounds expression/statement nesting; exceeding it is a
    deterministic :class:`ParseError` (``kind="depth"``), never a
    ``RecursionError``."""
    return Parser(tokenize(source), extra_types=extra_types,
                  max_depth=max_depth).parse_snippet()


def parse_resilient(
    source: str,
    extra_types: Optional[frozenset] = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
    budget_s: Optional[float] = None,
) -> Tuple[Compound, List[Diagnostic]]:
    """Parse dirty input into a partial AST plus diagnostics; never raises.

    The source is lexed in recover mode (malformed regions become ERROR
    tokens, each reported as a ``"lex"`` diagnostic) and parsed with
    panic-mode recovery, so the returned :class:`~repro.clang.nodes.Compound`
    always serializes and tokenizes.  ``budget_s`` bounds wall-clock time:
    past it the partial AST is closed with an ``ErrorStmt`` and a
    ``"budget"`` diagnostic.  An empty diagnostics list means the snippet
    was clean.
    """
    toks = tokenize(source, recover=True)
    deadline = None if budget_s is None else time.monotonic() + budget_s
    parser = Parser(toks, extra_types=extra_types, max_depth=max_depth,
                    resilient=True, deadline=deadline)
    for t in toks:
        if t.kind is TokenKind.ERROR:
            parser.diagnostics.append(Diagnostic(
                f"lexical error near {t.value[:20]!r}", t.line, t.col, "lex"))
    ast = parser.parse_snippet_resilient()
    return ast, parser.diagnostics


def parse_expression(source: str) -> Node:
    """Parse a single C expression."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expression()
    if parser._peek().kind is not TokenKind.EOF:
        raise ParseError("trailing input after expression", parser._peek())
    return expr
