"""Connective and quantifier semantics of the rule engine: endpoint
behaviour, frozen values, algebraic properties.

Connectives are read off the engine's forward pass on compiled
one-grounding rules; quantifier values come from compiled ``forall`` rules
in the rule set that training evaluates, the only quantifier that fungo
compiles."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rule_text import ParseError, parse_rule
from support import IMPLICATIONS, read_as

from fungo.logic import TNORMS, CompiledRuleSet, PredicateBinding, compile_constraint, engine

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

BODIES = {
    "not": "not A(x)",
    "and": "A(x) and B(x)",
    "or": "A(x) or B(x)",
    "implies": "A(x) => B(x)",
    "iff": "A(x) <=> B(x)",
}

# Classical truth tables on {0, 1}: (a, b) -> value.
BOOL_TABLES = {
    "and": {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    "or": {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    "implies": {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1},
    "iff": {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1},
}


@functools.cache
def _program(tnorm, body, implication):
    formula = read_as(parse_rule(f"forall x:D. {body}"), implication)
    bindings = {
        name: PredicateBinding(name, 1, {"e": 0}) for name in formula.predicates()
    }
    return compile_constraint(formula, tnorm, {"D": ("e",)}, bindings).program


def truth(tnorm, body, *operands, implication="residuum"):
    """The body's truth from ``engine.node_values``, one grounding per
    operand element; operand k feeds the k-th distinct atom of the body."""
    columns = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in operands))
    values = np.stack([c.ravel() for c in columns])
    out = engine.node_values(_program(tnorm, body, implication), values)[-1]
    return out.reshape(columns[0].shape)[()]


def penalty(truths):
    """Penalty of the rule ``forall x:D. P(x)`` with P's truths given."""
    t = np.asarray(truths, dtype=np.float64)
    ids = tuple(f"e{i}" for i in range(t.size))
    bindings = {"P": PredicateBinding("P", 1, {e: i for i, e in enumerate(ids)})}
    rule = compile_constraint(parse_rule("forall x:D. P(x)"), "product", {"D": ids}, bindings)
    return CompiledRuleSet([rule], [(("P",), t.size)]).penalties([t[None, :]])[0]


@pytest.mark.parametrize("tnorm", TNORMS)
def test_boolean_endpoints(tnorm):
    for kind, table in BOOL_TABLES.items():
        for (a, b), want in table.items():
            assert truth(tnorm, BODIES[kind], a, b) == want, (tnorm, kind, a, b)
    assert truth(tnorm, BODIES["not"], 0.0) == 1.0
    assert truth(tnorm, BODIES["not"], 1.0) == 1.0 - 1.0


@pytest.mark.parametrize("tnorm", TNORMS)
def test_residuum_grid_formulas(tnorm):
    grid = np.array([round(0.05 * i, 10) for i in range(21)])
    got = truth(tnorm, BODIES["implies"], grid[:, None], grid[None, :])
    for (i, j), value in np.ndenumerate(got):
        a, b = grid[i], grid[j]
        if a <= b:
            want = 1.0
        elif tnorm == "minimum":
            want = b
        elif tnorm == "product":
            want = b / a
        else:
            want = 1.0 - a + b
        assert value == pytest.approx(want, abs=1e-12), (tnorm, a, b)


def test_frozen_connective_values():
    assert truth("product", BODIES["and"], 0.5, 0.4) == pytest.approx(0.2, abs=1e-15)
    assert truth("product", BODIES["or"], 0.5, 0.4) == pytest.approx(0.7, abs=1e-15)
    assert truth("product", BODIES["implies"], 0.5, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert truth("lukasiewicz", BODIES["implies"], 0.8, 0.5) == pytest.approx(0.7, abs=1e-15)
    assert truth("minimum", BODIES["and"], 1.0, 1.0) == 1.0


def test_material_product_form():
    # With the product t-norm the material implication, not a or b, is 1 + a*b - a.
    grid = np.linspace(0, 1, 11)
    got = truth("product", BODIES["implies"], grid[:, None], grid[None, :],
                implication="material")
    for (i, j), value in np.ndenumerate(got):
        a, b = grid[i], grid[j]
        assert value == pytest.approx(1.0 + a * b - a, abs=1e-12)
    # Boolean endpoints agree with the classical table.
    for (a, b), want in BOOL_TABLES["implies"].items():
        for tnorm in TNORMS:
            assert truth(tnorm, BODIES["implies"], a, b, implication="material") == want


@pytest.mark.parametrize("tnorm", TNORMS)
def test_range_on_grid(tnorm):
    grid = np.linspace(0.0, 1.0, 11)
    for kind in ("and", "or", "implies", "iff"):
        for implication in IMPLICATIONS:
            v = truth(tnorm, BODIES[kind], grid[:, None], grid[None, :],
                      implication=implication)
            assert ((0.0 <= v) & (v <= 1.0)).all(), (kind, implication)
    v = truth(tnorm, BODIES["not"], grid)
    assert ((0.0 <= v) & (v <= 1.0)).all()


@settings(max_examples=200, deadline=None)
@given(a=UNIT, b=UNIT, c=UNIT, tnorm=st.sampled_from(TNORMS))
def test_tnorm_axioms(a, b, c, tnorm):
    def t_norm(x, y):
        return truth(tnorm, BODIES["and"], x, y)

    assert t_norm(a, b) == t_norm(b, a)
    assert t_norm(a, 1.0) == pytest.approx(a, abs=1e-15)
    left = truth(tnorm, "(A(x) and B(x)) and C(x)", a, b, c)
    right = truth(tnorm, "A(x) and (B(x) and C(x))", a, b, c)
    assert left == pytest.approx(right, abs=1e-9)
    # Monotone in each argument, bounded by the minimum.
    assert t_norm(a, b) <= min(a, b) + 1e-15
    if a <= c:
        assert t_norm(a, b) <= t_norm(c, b) + 1e-15


@settings(max_examples=200, deadline=None)
@given(a=UNIT, b=UNIT, tnorm=st.sampled_from(TNORMS))
def test_conorm_duality_and_residuum_bounds(a, b, tnorm):
    assert truth(tnorm, BODIES["or"], a, b) == pytest.approx(
        1.0 - truth(tnorm, BODIES["and"], 1.0 - a, 1.0 - b), abs=1e-15
    )
    r = truth(tnorm, BODIES["implies"], a, b)
    assert 0.0 <= r <= 1.0
    if a <= b:
        assert r == 1.0


def test_aggregate_frozen_values():
    assert penalty([1.0, 1.0, 1.0]) == 0.0
    assert penalty([0.5, 0.75]) == pytest.approx(0.75, abs=1e-15)


def test_aggregate_identities_exact():
    # forall sums the per-grounding penalties 1 - truth, in one numpy sum.
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = rng.uniform(0.0, 1.0, size=rng.integers(1, 12))
        assert penalty(t) == np.sum(1.0 - t)


def test_aggregate_validation():
    # An empty domain is rejected by compile_constraint (test_compiler), and
    # every quantifier but forall by parse_rule (test_parser).
    with pytest.raises(ParseError, match="only 'forall'"):
        parse_rule("exists x:D. P(x)")
    with pytest.raises(ParseError, match="quantifier"):
        parse_rule("most x:D. P(x)")
