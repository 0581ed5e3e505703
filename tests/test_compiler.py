"""Constraint compilation: grounding, penalties and gradients."""

import numpy as np
import pytest
from support import (
    FORMULA_POOL,
    fd_penalty_gradients,
    gradient_close,
    random_instance,
    smooth_instance,
)

from fungo.logic import (
    CompileError,
    PredicateBinding,
    compile_constraint,
    parse_rule,
)


def _unary(name, ids):
    return PredicateBinding(name, 1, positions={p: i for i, p in enumerate(ids)})


def test_frozen_penalty_single_grounding():
    f = parse_rule("forall x:P. A(x) => B(x)")
    ids = ["p0"]
    c = compile_constraint(
        f, "product", {"P": ids}, {"A": _unary("A", ids), "B": _unary("B", ids)}
    )
    phi = c.penalty({"A": np.array([0.8]), "B": np.array([0.4])})
    assert phi == pytest.approx(0.5, abs=1e-15)


def test_grounding_count_two_universals():
    f = parse_rule("forall x:D1. forall y:D2. A(x) => B(y)")
    d1 = ["a", "b", "c"]
    d2 = ["w", "x", "y", "z"]
    c = compile_constraint(
        f, "product", {"D1": d1, "D2": d2}, {"A": _unary("A", d1), "B": _unary("B", d2)}
    )
    assert c.n_groundings == 12
    assert c.shape == (3, 4)


def test_penalty_zero_iff_universal_body_true():
    f = parse_rule("forall x:P. A(x) => B(x)")
    ids = ["p0", "p1", "p2"]
    preds = {"A": _unary("A", ids), "B": _unary("B", ids)}
    c = compile_constraint(f, "minimum", {"P": ids}, preds)
    sat = {"A": np.array([0.2, 0.5, 1.0]), "B": np.array([0.2, 0.9, 1.0])}
    assert c.penalty(sat) == 0.0
    unsat = {"A": np.array([0.2, 0.5, 1.0]), "B": np.array([0.2, 0.4, 1.0])}
    assert c.penalty(unsat) > 0.0


def test_single_grounding_gradient_product_and():
    # forall over one example of T_prod(A, B): d(1 - a*b)/da = -b.
    f = parse_rule("forall x:P. A(x) and B(x)")
    ids = ["p0"]
    c = compile_constraint(
        f, "product", {"P": ids}, {"A": _unary("A", ids), "B": _unary("B", ids)}
    )
    outputs = {"A": np.array([0.7]), "B": np.array([0.3])}
    phi, grads = c.penalty_and_gradients(outputs)
    assert phi == pytest.approx(1.0 - 0.21, abs=1e-15)
    assert grads["A"][0] == pytest.approx(-0.3, abs=1e-15)
    assert grads["B"][0] == pytest.approx(-0.7, abs=1e-15)


def test_satisfied_residuum_has_zero_gradient():
    f = parse_rule("forall x:P. A(x) => B(x)")
    ids = ["p0", "p1"]
    c = compile_constraint(
        f, "product", {"P": ids}, {"A": _unary("A", ids), "B": _unary("B", ids)}
    )
    outputs = {"A": np.array([0.2, 0.3]), "B": np.array([0.6, 0.8])}
    phi, grads = c.penalty_and_gradients(outputs)
    assert phi == 0.0
    assert np.all(grads["A"] == 0.0)
    assert np.all(grads["B"] == 0.0)


def test_compile_is_deterministic():
    f = parse_rule("forall x:P. forall y:P. BOUND(x,y) => (A(x) <=> A(y))")
    ids = [f"p{i}" for i in range(4)]
    pairs = {(a, b): k for k, (a, b) in enumerate([("p0", "p1"), ("p1", "p2")])}
    preds = {
        "A": _unary("A", ids),
        "BOUND": PredicateBinding("BOUND", 2, pair_positions=pairs),
    }
    rng = np.random.default_rng(0)
    outputs = {"A": rng.uniform(0, 1, 4), "BOUND": rng.uniform(0, 1, 2)}
    c1 = compile_constraint(f, "lukasiewicz", {"P": ids}, preds)
    c2 = compile_constraint(f, "lukasiewicz", {"P": ids}, preds)
    assert np.array_equal(c1.program.opcodes, c2.program.opcodes)
    assert c1.penalty(outputs) == c2.penalty(outputs)


def test_given_mode_reads_table_and_gets_no_gradient():
    f = parse_rule("forall x:P. forall y:P. BOUND(x,y) => (A(x) <=> A(y))")
    ids = ["p0", "p1", "p2"]
    preds = {
        "A": _unary("A", ids),
        "BOUND": PredicateBinding(
            "BOUND", 2, mode="given", table={("p0", "p1"): 1.0}
        ),
    }
    c = compile_constraint(f, "product", {"P": ids}, preds)
    assert c.modes == {"A": "learned", "BOUND": "given"}
    outputs = {"A": np.array([0.9, 0.2, 0.5])}
    phi, grads = c.penalty_and_gradients(outputs)
    # Only the (p0, p1) and (p1, p0) groundings have a live antecedent.
    assert phi > 0.0
    assert set(grads) == {"A"}
    # The uninvolved example keeps a zero gradient.
    assert grads["A"][2] == 0.0
    assert grads["A"][0] != 0.0 and grads["A"][1] != 0.0


def test_missing_pairs_read_as_zero():
    f = parse_rule("forall x:P. forall y:P. BOUND(x,y) => A(y)")
    ids = ["p0", "p1"]
    preds = {
        "A": _unary("A", ids),
        "BOUND": PredicateBinding("BOUND", 2, pair_positions={}),
    }
    c = compile_constraint(f, "product", {"P": ids}, preds)
    outputs = {"A": np.array([0.1, 0.1]), "BOUND": np.zeros(0)}
    # Antecedent 0 everywhere: satisfied, no penalty, no gradient.
    phi, grads = c.penalty_and_gradients(outputs)
    assert phi == 0.0
    assert np.all(grads["A"] == 0.0)


def test_compile_validation_errors():
    ids = ["p0"]
    f = parse_rule("forall x:P. A(x) => B(x)")
    with pytest.raises(CompileError, match="unknown predicate 'B'"):
        compile_constraint(f, "product", {"P": ids}, {"A": _unary("A", ids)})
    with pytest.raises(CompileError, match="unknown domain 'P'"):
        compile_constraint(f, "product", {"Q": ids}, {})
    with pytest.raises(CompileError, match="empty"):
        compile_constraint(
            f, "product", {"P": []}, {"A": _unary("A", []), "B": _unary("B", [])}
        )
    with pytest.raises(CompileError, match="arity"):
        compile_constraint(
            f,
            "product",
            {"P": ids},
            {
                "A": PredicateBinding("A", 2, pair_positions={}),
                "B": _unary("B", ids),
            },
        )
    with pytest.raises(CompileError, match="t-norm"):
        compile_constraint(
            f, "softmin", {"P": ids}, {"A": _unary("A", ids), "B": _unary("B", ids)}
        )
    g = parse_rule("exists[5] x:P. A(x)")
    with pytest.raises(CompileError, match="exceeds"):
        compile_constraint(g, "product", {"P": ids}, {"A": _unary("A", ids)})


def test_quantifier_identities_compiled():
    ids = [f"p{i}" for i in range(6)]
    preds = {"A": _unary("A", ids), "B": _unary("B", ids)}
    rng = np.random.default_rng(3)
    outputs = {"A": rng.uniform(0, 1, 6), "B": rng.uniform(0, 1, 6)}
    body = "A(x) => B(x)"
    for tnorm in ("minimum", "product", "lukasiewicz"):
        exists = compile_constraint(
            parse_rule(f"exists x:P. {body}"), tnorm, {"P": ids}, preds
        )
        exists_1 = compile_constraint(
            parse_rule(f"exists[1] x:P. {body}"), tnorm, {"P": ids}, preds
        )
        forall = compile_constraint(
            parse_rule(f"forall x:P. {body}"), tnorm, {"P": ids}, preds
        )
        exists_all = compile_constraint(
            parse_rule(f"exists[6] x:P. {body}"), tnorm, {"P": ids}, preds
        )
        assert exists.penalty(outputs) == exists_1.penalty(outputs)
        assert forall.penalty(outputs) == exists_all.penalty(outputs)


def test_exists_gradient_routes_to_first_minimum():
    f = parse_rule("exists x:P. A(x)")
    ids = ["p0", "p1", "p2"]
    c = compile_constraint(f, "product", {"P": ids}, {"A": _unary("A", ids)})
    outputs = {"A": np.array([0.4, 0.9, 0.9])}
    phi, grads = c.penalty_and_gradients(outputs)
    # Penalties (0.6, 0.1, 0.1): tie between index 1 and 2, index 1 wins.
    assert phi == pytest.approx(0.1, abs=1e-15)
    assert grads["A"].tolist() == [0.0, -1.0, 0.0]


def test_material_flag_changes_semantics():
    f = parse_rule("forall x:P. A(x) => B(x)")
    ids = ["p0"]
    preds = {"A": _unary("A", ids), "B": _unary("B", ids)}
    outputs = {"A": np.array([0.5]), "B": np.array([0.25])}
    resid = compile_constraint(f, "product", {"P": ids}, preds)
    mat = compile_constraint(f, "product", {"P": ids}, preds, implication="material")
    assert resid.penalty(outputs) == pytest.approx(0.5, abs=1e-15)
    # 1 + a*b - a = 1 + 0.125 - 0.5 = 0.625 -> penalty 0.375.
    assert mat.penalty(outputs) == pytest.approx(0.375, abs=1e-15)


@pytest.mark.parametrize("tnorm", ("minimum", "product", "lukasiewicz"))
@pytest.mark.parametrize("implication", ("residuum", "material"))
def test_gradients_match_finite_differences(tnorm, implication):
    rng = np.random.default_rng(hash((tnorm, implication)) % (2**32))
    for _ in range(10):
        constraint, outputs = smooth_instance(rng, tnorm, implication)
        _, grads = constraint.penalty_and_gradients(outputs)
        numeric = fd_penalty_gradients(constraint, outputs)
        assert gradient_close(grads, numeric), constraint.text


@pytest.mark.parametrize("tnorm", ("minimum", "product", "lukasiewicz"))
@pytest.mark.parametrize("implication", ("residuum", "material"))
def test_gradient_pass_penalty_is_exact(tnorm, implication):
    rng = np.random.default_rng(11)
    for text in FORMULA_POOL:
        constraint, outputs = random_instance(rng, tnorm, implication, formula_text=text)
        phi, _ = constraint.penalty_and_gradients(outputs)
        assert constraint.penalty(outputs) == phi, text
