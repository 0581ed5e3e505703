"""Parser for the rule language, the inverse of ``Formula.to_text``.

``fungo`` builds its rules as ``Formula`` trees and only writes them out
(``rules.txt``); the tests read rules from text with this parser.

Grammar (one rule per line, ``#`` starts a comment):

    rule  := quant+ "." expr
    quant := "forall" IDENT ":" IDENT
    expr  := iff
    iff   := impl ("<=>" impl)*          left associative
    impl  := disj ("=>" disj)*           right associative
    disj  := conj ("or" conj)*
    conj  := unary ("and" unary)*
    unary := "not" unary | atom | "(" expr ")"
    atom  := IDENT "(" IDENT ("," IDENT)? ")"

A "." may also follow each quantifier individually, as in
``forall x:Prot. forall y:Prot. BOUND(x,y) => (P(x) <=> P(y))``.
``exists`` stays a keyword: fungo compiles universal rules only, so an
existential prefix is a ``ParseError``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from fungo.logic.formula import (
    And,
    Atom,
    Formula,
    FormulaError,
    Iff,
    Implies,
    Node,
    Not,
    Or,
    Quantifier,
)

_KEYWORDS = {"forall", "exists", "and", "or", "not"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<iff><=>)
  | (?P<implies>=>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<colon>:)
  | (?P<dot>\.)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """Syntax or binding error in a rule, with a 1-based column position."""

    def __init__(self, message: str, column: int, line: int | None = None):
        self.column = column
        self.line = line
        where = f"column {column}" if line is None else f"line {line}, column {column}"
        super().__init__(f"{message} at {where}")


class _Token(NamedTuple):
    kind: str
    text: str
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            value = m.group()
            if kind == "ident" and value in _KEYWORDS:
                kind = value
            tokens.append(_Token(kind, value, pos + 1))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.bound: set[str] = set()

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            got = tok.text or "end of rule"
            raise ParseError(f"expected {want}, found {got!r}", tok.column)
        return self.advance()

    def parse_rule(self) -> Formula:
        quants = self.parse_prefix()
        body = self.parse_iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.column)
        return Formula(tuple(quants), body)

    def parse_prefix(self) -> list[Quantifier]:
        quants = []
        dotted = False
        while self.peek().kind in ("forall", "exists"):
            quants.append(self.parse_quantifier())
            dotted = False
            if self.peek().kind == "dot":
                self.advance()
                dotted = True
        if not quants:
            tok = self.peek()
            raise ParseError("a rule starts with a quantifier", tok.column)
        if not dotted:
            tok = self.peek()
            raise ParseError("expected '.' after the quantifier prefix", tok.column)
        return quants

    def parse_quantifier(self) -> Quantifier:
        head = self.advance()
        if head.kind == "exists":
            raise ParseError("only 'forall' quantifies a rule", head.column)
        var = self.expect("ident", "a variable name")
        if var.text in self.bound:
            raise ParseError(f"duplicate quantified variable {var.text!r}", var.column)
        self.expect("colon", "':' between variable and domain")
        dom = self.expect("ident", "a domain name")
        self.bound.add(var.text)
        return Quantifier(var.text, dom.text)

    def parse_iff(self) -> Node:
        node = self.parse_impl()
        while self.peek().kind == "iff":
            self.advance()
            node = Iff(node, self.parse_impl())
        return node

    def parse_impl(self) -> Node:
        node = self.parse_disj()
        if self.peek().kind == "implies":
            self.advance()
            return Implies(node, self.parse_impl())
        return node

    def parse_disj(self) -> Node:
        node = self.parse_conj()
        while self.peek().kind == "or":
            self.advance()
            node = Or(node, self.parse_conj())
        return node

    def parse_conj(self) -> Node:
        node = self.parse_unary()
        while self.peek().kind == "and":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "not":
            self.advance()
            return Not(self.parse_unary())
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_iff()
            self.expect("rparen")
            return node
        return self.parse_atom()

    def parse_atom(self) -> Atom:
        name = self.expect("ident", "a predicate name")
        self.expect("lparen", "'(' after predicate name")
        args = [self._atom_arg()]
        if self.peek().kind == "comma":
            self.advance()
            args.append(self._atom_arg())
        self.expect("rparen")
        return Atom(name.text, tuple(args))

    def _atom_arg(self) -> str:
        tok = self.expect("ident", "a variable name")
        if tok.text not in self.bound:
            raise ParseError(f"unbound variable {tok.text!r}", tok.column)
        return tok.text


def parse_rule(text: str) -> Formula:
    """Parse a single rule."""
    return _Parser(_tokenize(text)).parse_rule()


def parse_rules(text: str) -> list[Formula]:
    """Parse a rule file body: one rule per line, blank lines and comments skipped."""
    rules = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rules.append(parse_rule(line))
        except ParseError as exc:
            raise ParseError(str(exc).rsplit(" at ", 1)[0], exc.column, lineno) from None
        except FormulaError as exc:
            raise ParseError(str(exc), 1, lineno) from None
    return rules
