"""Rule language: syntax, fuzzy semantics, compilation, execution."""

from .compiler import (
    CompileError,
    CompiledConstraint,
    CompiledRuleSet,
    PredicateBinding,
    compile_constraint,
)
from .engine import HAS_NUMBA, LUKASIEWICZ, MINIMUM, PRODUCT, TNORMS, resolve_engine
from .formula import (
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
    iter_atoms,
    render,
)

__all__ = [
    "And",
    "Atom",
    "CompileError",
    "CompiledConstraint",
    "CompiledRuleSet",
    "Formula",
    "FormulaError",
    "HAS_NUMBA",
    "Iff",
    "Implies",
    "LUKASIEWICZ",
    "MINIMUM",
    "Node",
    "Not",
    "Or",
    "PredicateBinding",
    "PRODUCT",
    "Quantifier",
    "TNORMS",
    "compile_constraint",
    "iter_atoms",
    "render",
    "resolve_engine",
]
