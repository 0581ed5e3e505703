"""Abstract syntax for first-order rules.

A rule is a prenex formula: an ordered prefix of universal quantifiers
followed by a quantifier-free body built from unary and binary predicate
atoms with ``not``, ``and``, ``or``, ``=>`` and ``<=>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

class FormulaError(ValueError):
    """A formula violates a structural invariant."""


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Implies:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Iff:
    left: "Node"
    right: "Node"


Node = Union[Atom, Not, And, Or, Implies, Iff]


@dataclass(frozen=True)
class Quantifier:
    """One universal quantifier of the prefix: ``forall var:domain``."""

    var: str
    domain: str


def iter_atoms(node: Node) -> Iterator[Atom]:
    """Yield every atom of a body, left to right."""
    if isinstance(node, Atom):
        yield node
    elif isinstance(node, Not):
        yield from iter_atoms(node.child)
    else:
        yield from iter_atoms(node.left)
        yield from iter_atoms(node.right)


@dataclass(frozen=True)
class Formula:
    quantifiers: tuple[Quantifier, ...]
    body: Node

    def __post_init__(self) -> None:
        if not self.quantifiers:
            raise FormulaError("a rule needs at least one quantifier")
        seen: set[str] = set()
        for q in self.quantifiers:
            if q.var in seen:
                raise FormulaError(f"duplicate quantified variable {q.var!r}")
            seen.add(q.var)
        for atom in iter_atoms(self.body):
            if len(atom.args) not in (1, 2):
                raise FormulaError(
                    f"atom {atom.pred!r} has arity {len(atom.args)}, only 1 or 2 supported"
                )
            for arg in atom.args:
                if arg not in seen:
                    raise FormulaError(f"unbound variable {arg!r} in atom {atom.pred!r}")
        # A predicate must be used with one arity throughout.
        self.predicates()

    def predicates(self) -> dict[str, int]:
        """Referenced predicate names mapped to their arity."""
        arities: dict[str, int] = {}
        for atom in iter_atoms(self.body):
            prev = arities.setdefault(atom.pred, len(atom.args))
            if prev != len(atom.args):
                raise FormulaError(
                    f"predicate {atom.pred!r} used with arities {prev} and {len(atom.args)}"
                )
        return arities

    def to_text(self) -> str:
        return render(self)


# Rendering back to rule-file syntax.  Higher binds tighter.
_PREC_IFF = 1
_PREC_IMPLIES = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5
_PREC_ATOM = 6


def _render_node(node: Node) -> tuple[str, int]:
    if isinstance(node, Atom):
        return f"{node.pred}({','.join(node.args)})", _PREC_ATOM
    if isinstance(node, Not):
        return f"not {_wrap(node.child, _PREC_NOT)}", _PREC_NOT
    if isinstance(node, And):
        left = _wrap(node.left, _PREC_AND)
        right = _wrap(node.right, _PREC_NOT)
        return f"{left} and {right}", _PREC_AND
    if isinstance(node, Or):
        left = _wrap(node.left, _PREC_OR)
        right = _wrap(node.right, _PREC_AND)
        return f"{left} or {right}", _PREC_OR
    if isinstance(node, Implies):
        # Right-associative: a nested implication on the right needs no parens.
        left = _wrap(node.left, _PREC_OR)
        right = _wrap(node.right, _PREC_IMPLIES)
        return f"{left} => {right}", _PREC_IMPLIES
    if isinstance(node, Iff):
        left = _wrap(node.left, _PREC_IFF)
        right = _wrap(node.right, _PREC_IMPLIES)
        return f"{left} <=> {right}", _PREC_IFF
    raise TypeError(f"not a formula node: {node!r}")


def _wrap(node: Node, min_prec: int) -> str:
    text, prec = _render_node(node)
    if prec < min_prec:
        return f"({text})"
    return text


def render(formula: Formula) -> str:
    """Render a formula in the rule syntax, one line per rule as in
    ``rules.txt``; the test suite's ``tests/rule_text.py`` parses it back."""
    parts = [f"forall {q.var}:{q.domain}." for q in formula.quantifiers]
    parts.append(_render_node(formula.body)[0])
    return " ".join(parts)
