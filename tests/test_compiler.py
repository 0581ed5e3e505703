"""Constraint compilation: grounding, penalties and gradients."""

import tracemalloc

import hierarchy_fixture
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rule_text import parse_rule
from support import (
    FORMULA_POOL,
    GUARDED_PREFIX,
    IMPLICATIONS,
    dense_gathers,
    dense_penalty_and_gradients,
    fd_penalty_gradients,
    given_binding,
    gradient_close,
    random_instance,
    random_rule_set,
    read_as,
    smooth_instance,
    stack_outputs,
)

from fungo import cli
from fungo.io import read_config
from fungo.logic import (
    TNORMS,
    CompileError,
    CompiledRuleSet,
    PredicateBinding,
    compile_constraint,
    engine,
)
from fungo.ontology import PROTEIN_DOMAIN, generate_oc_rules


def _unary(name, ids):
    return PredicateBinding(name, 1, {p: i for i, p in enumerate(ids)})


def test_frozen_penalty_single_grounding():
    f = parse_rule("forall x:P. A(x) => B(x)")
    ids = ["p0"]
    c = compile_constraint(
        f, "product", {"P": ids}, {"A": _unary("A", ids), "B": _unary("B", ids)}
    )
    phi = c.penalty({"A": np.array([0.8]), "B": np.array([0.4])})
    assert phi == pytest.approx(0.5, abs=1e-15)


def test_grounding_count_two_universals():
    f = parse_rule("forall x:D. forall y:D. G(x,y) => (A(x) => B(y))")
    ids = ["a", "b", "c"]
    preds = {"A": _unary("A", ids), "B": _unary("B", ids),
             "G": PredicateBinding("G", 2, {("a", "b"): 0})}
    c = compile_constraint(f, "product", {"D": ids}, preds)
    assert c.n_groundings == 9
    assert c.shape == (3, 3)


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
        "BOUND": PredicateBinding("BOUND", 2, pairs),
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
        "BOUND": PredicateBinding("BOUND", 2, {("p0", "p1"): 0}, given=True),
    }
    c = compile_constraint(f, "product", {"P": ids}, preds)
    assert {slot.binding.name: slot.binding.given for slot in c.slots} == {
        "A": False, "BOUND": True}
    outputs = {"A": np.array([0.9, 0.2, 0.5])}
    phi, grads = c.penalty_and_gradients(outputs)
    # Only the (p0, p1) and (p1, p0) groundings have a live antecedent.
    assert phi > 0.0
    assert set(grads) == {"A"}
    # The uninvolved example keeps a zero gradient.
    assert grads["A"][2] == 0.0
    assert grads["A"][0] != 0.0 and grads["A"][1] != 0.0


@pytest.mark.parametrize("arity", (1, 2))
def test_a_given_key_reads_one_whatever_its_position(arity):
    ids = ["p0", "p1", "p2"]
    if arity == 1:
        f = parse_rule("forall x:P. G(x) => A(x)")
        index = {"p2": 7, "p0": 0, "outside": 3}  # p1 absent
    else:
        f = parse_rule("forall x:P. forall y:P. G(x,y) => A(x)")
        index = {("p2", "p0"): 7, ("p0", "outside"): 3}  # only (p2, p0) and (p0, p2) live
    rule = compile_constraint(
        f, "lukasiewicz", {"P": ids}, {"A": _unary("A", ids), "G": PredicateBinding(
            "G", arity, index, given=True)})
    a = np.array([0.25, 0.5, 0.75])
    phi, grads = rule.penalty_and_gradients({"A": a})
    # Where G reads 1 the residuum is A itself, where it reads 0 it is 1.
    assert phi == 0.75 + 0.25
    assert grads["A"].tolist() == [-1.0, 0.0, -1.0]
    assert CompiledRuleSet([rule], [(("A",), 3)]).n_groundings == (3 if arity == 1 else 2)


@pytest.mark.parametrize("tnorm, bare", (("minimum", [-1.0, 0.0]), ("product", [-0.7, 0.0]),
                                         ("lukasiewicz", [0.0, 0.0])))
def test_a_given_guard_passes_no_gradient_where_its_body_reads_one(tnorm, bare):
    # 1 => b is b in value, not in gradient: where the body reads exactly 1
    # the residuum passes none, while the bare disjunction passes its own.
    ids = ["p0"]
    preds = {"A": _unary("A", ids), "B": _unary("B", ids),
             "G": given_binding("G", 1, ids)}
    outputs = {"A": np.array([1.0]), "B": np.array([0.3])}
    grads = {}
    for text in ("forall x:P. G(x) => A(x) or B(x)", "forall x:P. A(x) or B(x)"):
        phi, found = compile_constraint(parse_rule(text), tnorm, {"P": ids},
                                        preds).penalty_and_gradients(outputs)
        assert phi == 0.0
        grads[text] = [found["A"][0], found["B"][0]]
    assert grads == {"forall x:P. G(x) => A(x) or B(x)": [0.0, 0.0],
                     "forall x:P. A(x) or B(x)": pytest.approx(bare, abs=1e-15)}
    # A DPP-shaped pair rule: a live guard over a disjunction of term pairs.
    ids = ["p0", "p1"]
    rule = compile_constraint(
        parse_rule("forall x:P. forall y:P. BOUND(x,y) => "
                   "((A(x) and A(y)) or (B(x) and B(y)))"),
        tnorm, {"P": ids}, {"A": _unary("A", ids), "B": _unary("B", ids),
                            "BOUND": given_binding("BOUND", 2, [("p0", "p1")])})
    phi, found = rule.penalty_and_gradients({"A": np.ones(2), "B": np.full(2, 0.3)})
    assert phi == 0.0
    assert found["A"].tolist() == found["B"].tolist() == [0.0, 0.0]


def test_a_binding_compares_by_identity():
    binding = PredicateBinding("G", 1, {"p0": 0}, given=True)
    twin = PredicateBinding("G", 1, {"p0": 0}, given=True)
    assert binding == binding and binding != twin and len({binding, twin}) == 2
    assert not PredicateBinding("G", 1, {"p0": 0}).given
    assert (binding.size, PredicateBinding("G", 2, {}, given=True).size) == (1, 0)


def test_a_rule_set_scans_each_shared_index_once():
    # A run binds every predicate of its task to one index map: building the
    # rule set takes that map's size once, not once per predicate.
    class CountingIndex(dict):
        scans = 0

        def values(self):
            self.scans += 1
            return super().values()

    ids = [f"p{i}" for i in range(6)]
    index = CountingIndex((p, i) for i, p in enumerate(ids))
    names = [f"T{k}" for k in range(50)]
    preds = {name: PredicateBinding(name, 1, index) for name in names}
    rules = [compile_constraint(parse_rule(f"forall x:P. {a}(x) => {b}(x)"), "product",
                                {"P": ids}, preds) for a, b in zip(names, names[1:])]
    index.scans = 0
    CompiledRuleSet(rules, [(names, len(ids))])
    assert index.scans == 1
    with pytest.raises(CompileError, match="was compiled for 6 outputs of 'T0', its block has 5"):
        CompiledRuleSet(rules, [(names, 5)])


@pytest.mark.parametrize("tnorm", ("product", "minimum"))
def test_a_given_predicate_keeps_every_penalty_non_negative(tnorm):
    # A given predicate reads only 0 or 1, so no penalty can go negative: the
    # learner's skipping of the rules of rejected trials relies on that.
    f = parse_rule("forall x:P. A(x) or not G(x)")
    ids = ["p0", "p1"]
    c = compile_constraint(f, tnorm, {"P": ids}, {
        "A": _unary("A", ids), "G": given_binding("G", 1, ["p1"]),
    })
    assert c.penalty({"A": np.array([0.0, 1.0])}) == 0.0
    assert c.penalty({"A": np.array([1.0, 0.0])}) == 1.0
    rng = np.random.default_rng(3)
    assert all(c.penalty({"A": rng.uniform(0.0, 1.0, 2)}) >= 0.0 for _ in range(50))


def test_missing_pairs_read_as_zero():
    f = parse_rule("forall x:P. forall y:P. BOUND(x,y) => A(y)")
    ids = ["p0", "p1"]
    preds = {
        "A": _unary("A", ids),
        "BOUND": PredicateBinding("BOUND", 2, {}),
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
    # A rule set checks its id list once, for every rule.
    empty = compile_constraint(
        f, "product", {"P": []}, {"A": _unary("A", []), "B": _unary("B", [])}
    )
    with pytest.raises(CompileError, match="domain 'P' is empty"):
        CompiledRuleSet([empty], [(("A", "B"), 0)])
    with pytest.raises(CompileError, match="arity"):
        compile_constraint(
            f,
            "product",
            {"P": ids},
            {
                "A": PredicateBinding("A", 2, {}),
                "B": _unary("B", ids),
            },
        )
    with pytest.raises(CompileError, match="t-norm"):
        compile_constraint(
            f, "softmin", {"P": ids}, {"A": _unary("A", ids), "B": _unary("B", ids)}
        )
    twice = compile_constraint(
        f, "product", {"P": ["p0", "p1", "p0"]}, {"A": _unary("A", ids), "B": _unary("B", ids)}
    )
    with pytest.raises(CompileError, match="domain 'P' lists an example twice"):
        CompiledRuleSet([twice], [(("A", "B"), 1)])


SHAPE_ERROR = "is neither a one-variable rule nor 'forall x. forall y. G\\(x,y\\) => body'"


@pytest.mark.parametrize("text", [
    # no guard at all, and a guard that is not the whole antecedent
    "forall x:P. forall y:P. A(x) => A(y)",
    "forall x:P. forall y:P. R(x,y) and (A(x) <=> A(y))",
    "forall x:P. forall y:P. R(x,y) and A(x) => A(y)",
    "forall x:P. forall y:P. not R(x,y) or A(y)",
    # a guard read y first, or over one variable twice
    "forall x:P. forall y:P. R(y,x) => (A(x) <=> A(y))",
    "forall x:P. forall y:P. R(x,x) => A(y)",
    # a unary guard, and three variables
    "forall x:P. forall y:P. A(x) => R(x,y)",
    "forall x:P. forall y:P. forall z:P. R(x,y) => R(y,z)",
])
def test_only_one_variable_and_guarded_pair_rules_compile(text):
    ids = ["p0", "p1", "p2"]
    preds = {"A": _unary("A", ids), "R": PredicateBinding("R", 2, {("p0", "p1"): 0})}
    with pytest.raises(CompileError, match=SHAPE_ERROR):
        compile_constraint(parse_rule(text), "product", {"P": ids}, preds)


@pytest.mark.parametrize("text", [
    # a pair atom in a one-variable rule
    "forall x:P. A(x) or R(x,x)",
    "forall x:P. R(x,x) => A(x)",
    # a pair atom besides the guard in a pair rule's body
    "forall x:P. forall y:P. R(x,y) => R(y,x)",
    "forall x:P. forall y:P. R(x,y) => A(x) or R(x,x)",
    "forall x:P. forall y:P. R(x,y) => (A(x) <=> S(x,y))",
])
def test_a_rule_reads_no_pair_atom_but_its_guard(text):
    ids = ["p0", "p1", "p2"]
    preds = {"A": _unary("A", ids), "R": PredicateBinding("R", 2, {("p0", "p1"): 0}),
             "S": given_binding("S", 2, [("p0", "p1")])}
    with pytest.raises(CompileError, match="reads a pair atom other than its guard"):
        compile_constraint(parse_rule(text), "product", {"P": ids}, preds)
    # The guard read again in the body is the guard.
    again = parse_rule("forall x:P. forall y:P. R(x,y) => (R(x,y) <=> A(y))")
    assert len(compile_constraint(again, "product", {"P": ids}, preds).slots) == 2


def test_a_rule_and_a_rule_set_range_over_one_id_list():
    ids, other = ["p0", "p1", "p2"], ["p2", "p1", "p0"]
    preds = {"A": _unary("A", ids), "R": given_binding("R", 2, [("p0", "p1")])}
    pair = parse_rule("forall x:P. forall y:Q. R(x,y) => (A(x) <=> A(y))")
    with pytest.raises(CompileError, match="quantifiers range over more than one id list"):
        compile_constraint(pair, "product", {"P": ids, "Q": other}, preds)
    # Two domain names over one id list are one id list.
    same = compile_constraint(pair, "product", {"P": ids, "Q": list(ids)}, preds)
    assert same.domains == (tuple(ids), tuple(ids))
    rule = parse_rule("forall x:P. A(x)")
    forward, backward = (compile_constraint(rule, "product", {"P": d}, preds) for d in (ids, other))
    with pytest.raises(CompileError, match="rules range over more than one id list"):
        CompiledRuleSet([forward, backward], [(("A",), 3)])
    assert CompiledRuleSet([forward, same], [(("A",), 3)]).n_groundings == 3 + 2


@pytest.mark.parametrize("rules", ("OC+partof", "OC+PP1", "OC+PP2", "OC+DPP1", "OC+DPP2"))
def test_every_rule_that_a_run_builds_compiles(tmp_path, rules):
    root = str(tmp_path)
    namespace = "biological_process" if "DPP" in rules else "molecular_function"
    # The fixture's chain has no part_of edge unless asked: make the child
    # part of the root.
    hierarchy_fixture.write_dataset(root, namespace, part_of=True)
    hierarchy_fixture.write_pair_files(root)
    cfg = hierarchy_fixture.write_config(root, "out", rules=rules, ppi="ppi.tsv",
                                         pair_gram="pairs.csv", namespaces=namespace)
    config = cli.parse_experiment_config(read_config(cfg), root)
    data = cli.load_dataset(config)
    built, bound_mode = cli.build_rules(config, data.cut)
    extra = built[len(generate_oc_rules(data.cut)):]
    assert extra and {len(rule.quantifiers) for rule in extra} == {1 if bound_mode is None else 2}
    preds = {pred: _unary(pred, data.proteins)
             for pred in (data.cut.predicate(node) for node in data.cut.nodes())}
    preds["BOUND"] = PredicateBinding("BOUND", 2, {(data.proteins[0], data.proteins[1]): 0})
    compiled = [compile_constraint(rule, config.train.tnorm, {PROTEIN_DOMAIN: data.proteins},
                                   preds) for rule in built]
    assert [c.formula for c in compiled] == built


def test_material_flag_changes_semantics():
    # "=>" compiles to the residuum; the material reading is written "not a or b".
    f = parse_rule("forall x:P. A(x) => B(x)")
    ids = ["p0"]
    preds = {"A": _unary("A", ids), "B": _unary("B", ids)}
    outputs = {"A": np.array([0.5]), "B": np.array([0.25])}
    resid = compile_constraint(f, "product", {"P": ids}, preds)
    mat = compile_constraint(read_as(f, "material"), "product", {"P": ids}, preds)
    assert mat.text == "forall x:P. not A(x) or B(x)"
    assert resid.penalty(outputs) == pytest.approx(0.5, abs=1e-15)
    # 1 + a*b - a = 1 + 0.125 - 0.5 = 0.625 -> penalty 0.375.
    assert mat.penalty(outputs) == pytest.approx(0.375, abs=1e-15)


@pytest.mark.parametrize("tnorm", ("minimum", "product", "lukasiewicz"))
@pytest.mark.parametrize("implication", IMPLICATIONS)
def test_gradients_match_finite_differences(tnorm, implication):
    rng = np.random.default_rng(hash((tnorm, implication)) % (2**32))
    for _ in range(10):
        constraint, outputs = smooth_instance(rng, tnorm, implication)
        _, grads = constraint.penalty_and_gradients(outputs)
        numeric = fd_penalty_gradients(constraint, outputs)
        assert gradient_close(grads, numeric), constraint.text


@pytest.mark.parametrize("tnorm", ("minimum", "product", "lukasiewicz"))
@pytest.mark.parametrize("implication", IMPLICATIONS)
def test_gradient_pass_penalty_is_exact(tnorm, implication):
    rng = np.random.default_rng(11)
    for text in FORMULA_POOL:
        constraint, outputs = random_instance(rng, tnorm, implication, formula_text=text)
        phi, _ = constraint.penalty_and_gradients(outputs)
        assert constraint.penalty(outputs) == phi, text


def _pair_lookup_loop(entries, left, right):
    """Reference pair lookup: one dict probe per (left, right) cell, then one
    for the reversed pair, -1 where neither is listed."""
    mat = np.empty((len(left), len(right)), dtype=np.int64)
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            value = entries.get((a, b))
            if value is None:
                value = entries.get((b, a))
            mat[i, j] = -1 if value is None else value
    return mat


def test_pair_binding_matches_the_double_loop():
    rng = np.random.default_rng(5)
    f = parse_rule("forall x:P. forall y:P. R(x,y) => A(y)")
    for _ in range(20):
        domain = [f"p{i}" for i in rng.permutation(int(rng.integers(1, 7)))]
        ids = sorted(domain) + ["outside"]
        # Random keys: some in both orders, some outside the domain.
        keys = [(a, b) for a in ids for b in ids if rng.random() < 0.4]
        positions = {key: k for k, key in enumerate(keys)}
        grid = _pair_lookup_loop(positions, domain, domain)
        assert np.array_equal(dense_gathers(compile_constraint(
            f, "product", {"P": domain},
            {"A": _unary("A", ids), "R": PredicateBinding("R", 2, positions)}))[0],
            grid.reshape(-1))
        # The rule set grounds the listed cells, row-major, each reading its
        # position past the A block or, for a given R, the 1.0 after it.
        for given in (False, True):
            binding = PredicateBinding("R", 2, positions, given=given)
            rule = compile_constraint(f, "product", {"P": domain},
                                      {"A": _unary("A", ids), "R": binding})
            layout = [(("A",), len(ids))] + [(("R",), len(keys))] * (not given)
            (group,) = CompiledRuleSet([rule], layout)._groups
            live = grid.reshape(-1)[grid.reshape(-1) >= 0]
            end = 1 + len(ids)
            want = np.full(live.size, end) if given else end + live
            assert np.array_equal(group.index[:, 0], want), given
            cells = np.flatnonzero(grid.reshape(-1) >= 0)
            a = np.array([ids.index(p) for p in domain])[cells % len(domain)]
            assert np.array_equal(group.index[:, 1], 1 + a), given


def test_pair_guards_over_a_subset_match_the_dense_grounding():
    rng = np.random.default_rng(9)
    texts = ["forall x:P. forall y:P. R(x,y) => A(y)",
             "forall x:P. forall y:P. R(x,y) => A(x) or not A(y)"]
    for _ in range(20):
        domain = [f"p{i}" for i in rng.permutation(int(rng.integers(1, 7)))]
        ids = sorted(domain) + ["outside"]
        keys = [(a, b) for a in ids for b in ids if rng.random() < 0.4]
        outputs = {"A": rng.uniform(0.05, 0.95, len(ids)), "R": rng.uniform(0.05, 0.95, len(keys))}
        for mode in ("given", "learned"):
            if mode == "given":
                binding = given_binding("R", 2, keys)
            else:
                binding = PredicateBinding("R", 2, {key: k for k, key in enumerate(keys)})
            bindings = {"A": _unary("A", ids), "R": binding}
            constraints = [compile_constraint(parse_rule(t), "product", {"P": domain}, bindings)
                           for t in texts]
            layout = [(("A",), len(ids))] + [(("R",), len(keys))] * (mode == "learned")
            truths = [outputs[preds[0]][None, :] for preds, _ in layout]
            phis, grads = CompiledRuleSet(constraints, layout).penalties_and_gradients(truths)
            expected = [np.zeros_like(t) for t in truths]
            for constraint, phi in zip(constraints, phis.tolist()):
                oracle, partials = dense_penalty_and_gradients(constraint, outputs)
                assert phi == pytest.approx(oracle, rel=1e-12, abs=0.0), (mode, constraint.text)
                for pred, grad in partials.items():
                    expected[[p for p, _ in layout].index((pred,))][0] += grad
            for grad, want in zip(grads, expected):
                assert np.allclose(grad, want, rtol=1e-12, atol=1e-15), mode


@pytest.mark.parametrize("given", (False, True))
def test_a_guard_without_a_pair_inside_the_ids_grounds_no_rows(given):
    ids = ["p0", "p1", "p2"]
    rule = parse_rule("forall x:P. forall y:P. R(x,y) => (A(x) <=> A(y))")
    truths = [np.array([[0.1, 0.5, 0.9]])]
    for index in ({}, {("p0", "outside"): 0, ("elsewhere", "p2"): 1}):
        binding = PredicateBinding("R", 2, index, given=given)
        layout = [(("A",), 3)] + [(("R",), binding.size)] * (not given)
        blocks = truths + [np.full((1, binding.size), 0.5)] * (not given)
        for tnorm in TNORMS:
            c = compile_constraint(rule, tnorm, {"P": ids}, {"A": _unary("A", ids), "R": binding})
            rule_set = CompiledRuleSet([c, c], layout)
            assert rule_set.n_groundings == 0
            phis, grads = rule_set.penalties_and_gradients(blocks)
            assert phis.tolist() == [0.0, 0.0] and not any(g.any() for g in grads)
    # A narrowed set that keeps no pair of a live guard grounds none either.
    binding = PredicateBinding("R", 2, {("p0", "p1"): 0}, given=given)
    layout = [(("A",), 3)] + [(("R",), 1)] * (not given)
    c = compile_constraint(rule, "product", {"P": ids}, {"A": _unary("A", ids), "R": binding})
    assert CompiledRuleSet([c], layout).n_groundings == 2
    assert CompiledRuleSet([c], layout).restricted([True, False, True]).n_groundings == 0


@settings(max_examples=80, deadline=None)
@given(
    texts=st.lists(st.sampled_from(FORMULA_POOL), min_size=1, max_size=8),
    tnorm=st.sampled_from(TNORMS),
    implication=st.sampled_from(IMPLICATIONS),
    bound_mode=st.sampled_from(("given", "learned")),
    seed=st.integers(0, 2**32 - 1),
)
def test_rule_set_matches_the_per_rule_oracle(texts, tnorm, implication, bound_mode, seed):
    rng = np.random.default_rng(seed)
    constraints, outputs = random_rule_set(rng, texts, tnorm, implication, bound_mode)
    layout, truths, where = stack_outputs(rng, outputs)
    rule_set = CompiledRuleSet(constraints, layout)
    phis = rule_set.penalties(truths)
    grad_phis, grads = rule_set.penalties_and_gradients(truths)
    assert np.array_equal(phis, grad_phis)
    assert [g.shape for g in grads] == [t.shape for t in truths]

    expected = [np.zeros_like(t) for t in truths]
    scale = [np.zeros_like(t) for t in truths]
    for text, constraint, phi in zip(texts, constraints, phis.tolist()):
        oracle, partials = dense_penalty_and_gradients(constraint, outputs)
        if text.startswith(GUARDED_PREFIX):
            assert phi == pytest.approx(oracle, rel=1e-12, abs=0.0), constraint.text
        else:
            assert phi == oracle, constraint.text
        for pred, grad in partials.items():
            b, k = where[pred]
            expected[b][k] += grad
            scale[b][k] += np.abs(grad)
    for grad, want, tol in zip(grads, expected, scale):
        assert np.all(np.abs(grad - want) <= 1e-12 * tol)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(st.sampled_from(FORMULA_POOL), min_size=1, max_size=8),
    implication=st.sampled_from(IMPLICATIONS),
    bound_mode=st.sampled_from(("given", "learned")),
    narrow=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_minimum_rule_gradients_are_the_reverse_pass_to_the_byte(
    texts, implication, bound_mode, narrow, seed
):
    # Truths on a coarse grid tie often, and ties decide which child AND and OR
    # pass on and whether a residuum holds.  Every penalty is then a multiple of
    # 1/4 and every gradient entry a count, so any order of summation is exact
    # and the bytes, signed zeros included, must agree.
    rng = np.random.default_rng(seed)
    constraints, outputs = random_rule_set(rng, texts, "minimum", implication, bound_mode,
                                           levels=(0.0, 0.25, 0.5, 0.75, 1.0))
    layout, truths, where = stack_outputs(rng, outputs)
    rule_set = CompiledRuleSet(constraints, layout)
    if narrow:
        ids = constraints[0].domains[0]
        keep = np.zeros(len(ids), dtype=bool)
        keep[rng.choice(len(ids), size=rng.integers(1, len(ids) + 1), replace=False)] = True
        rule_set = rule_set.restricted(keep)
        kept = [i for i, k in zip(ids, keep) if k]
        constraints = [
            compile_constraint(c.formula, "minimum", {"P": kept},
                               {s.binding.name: s.binding for s in c.slots})
            for c in constraints
        ]
    phis, grads = rule_set.penalties_and_gradients(truths)
    assert rule_set.penalties(truths).tobytes() == phis.tobytes()
    want = []
    expected = [np.zeros_like(t) for t in truths]
    for constraint in constraints:
        phi, partials = dense_penalty_and_gradients(constraint, outputs)
        want.append(phi)
        for pred, grad in partials.items():
            b, k = where[pred]
            expected[b][k] += grad
    assert phis.tobytes() == np.array(want).tobytes()
    for grad, want_grad in zip(grads, expected, strict=True):
        assert grad.tobytes() == want_grad.tobytes()


def test_minimum_rule_gradients_take_no_reverse_pass(monkeypatch):
    ids = [f"p{i}" for i in range(4)]
    preds = {name: _unary(name, ids) for name in "ABC"}
    truths = [np.random.default_rng(5).uniform(0, 1, (3, 4))]
    texts = ["forall x:P. A(x) and not B(x) => C(x)", "forall x:P. A(x) or B(x)"]
    reverse = engine.backward
    reached = []

    def guarded(program, vals, weights):
        if program.tnorm_code == engine.TN_MINIMUM:
            raise AssertionError("a reverse pass under the minimum t-norm")
        reached.append(program.tnorm_code)
        return reverse(program, vals, weights)

    monkeypatch.setattr(engine, "backward", guarded)
    for tnorm in ("minimum", "lukasiewicz"):
        CompiledRuleSet(
            [compile_constraint(parse_rule(t), tnorm, {"P": ids}, preds) for t in texts],
            [(("A", "B", "C"), 4)],
        ).penalties_and_gradients(truths)
    assert reached == [engine.TN_LUKASIEWICZ] * len(texts)


@settings(max_examples=80, deadline=None)
@given(
    texts=st.lists(st.sampled_from(FORMULA_POOL), min_size=1, max_size=8),
    tnorm=st.sampled_from(TNORMS),
    implication=st.sampled_from(IMPLICATIONS),
    bound_mode=st.sampled_from(("given", "learned")),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_restricted_rule_set_matches_a_compile_over_the_kept_ids(
    texts, tnorm, implication, bound_mode, seed
):
    rng = np.random.default_rng(seed)
    constraints, outputs = random_rule_set(rng, texts, tnorm, implication, bound_mode)
    layout, truths, _ = stack_outputs(rng, outputs)
    ids = constraints[0].domains[0]
    full = narrowed = CompiledRuleSet(constraints, layout)
    for _ in range(2):  # a narrowed set narrows again, over its own ids
        keep = np.zeros(len(ids), dtype=bool)
        keep[rng.choice(len(ids), size=rng.integers(1, len(ids) + 1), replace=False)] = True
        ids = [i for i, k in zip(ids, keep) if k]
        narrowed = narrowed.restricted(keep)
        compiled = CompiledRuleSet([
            compile_constraint(c.formula, tnorm, {"P": ids},
                               {s.binding.name: s.binding for s in c.slots})
            for c in constraints
        ], layout)
        assert narrowed.n_groundings == compiled.n_groundings
        assert np.array_equal(narrowed.penalties(truths), compiled.penalties(truths))
        phis, grads = narrowed.penalties_and_gradients(truths)
        want, want_grads = compiled.penalties_and_gradients(truths)
        assert np.array_equal(phis, want)
        for grad, want_grad in zip(grads, want_grads, strict=True):
            assert np.array_equal(grad, want_grad)
    # Narrowing grounds nothing: the full set, never evaluated, holds no rows.
    assert "_groups" not in vars(full)


def test_restricted_rejects_what_a_compile_over_the_kept_ids_rejects():
    ids = ["p0", "p1", "p2"]
    preds = {"A": _unary("A", ids)}
    layout = [(("A",), 3)]
    forward = compile_constraint(parse_rule("forall x:P. A(x)"), "product", {"P": ids}, preds)
    with pytest.raises(ValueError, match="2 entries for the 3 ids"):
        CompiledRuleSet([forward], layout).restricted([True, True])
    with pytest.raises(CompileError, match="domain 'P' is empty"):
        CompiledRuleSet([forward], layout).restricted([False] * 3)


@pytest.mark.parametrize("bound_mode", ("given", "learned"))
def test_guarded_pair_rule_grounds_only_live_guards(bound_mode):
    rng = np.random.default_rng(2)
    text = FORMULA_POOL[5]
    assert text.startswith(GUARDED_PREFIX)
    constraints, outputs = random_rule_set(rng, [text, text], "product", "residuum", bound_mode)
    layout, truths, _ = stack_outputs(rng, outputs)
    assert constraints[0].slots[0].binding.name == "BOUND"
    live = np.count_nonzero(dense_gathers(constraints[0])[0] >= 0)
    assert 0 < live < constraints[0].n_groundings
    assert CompiledRuleSet(constraints[:1], layout).n_groundings == live
    # Both rules read the guard's index map: one group, grounded once over the
    # live pairs, its rows rule-major, each rule's rows the same columns at
    # its own slot offsets.
    (group,) = CompiledRuleSet(constraints, layout)._groups
    assert group.index.shape == (2 * live, len(constraints[0].slots))
    assert np.array_equal(group.row_rule, np.repeat([0, 1], live))
    shift = group.index[live:] - group.index[:live]
    assert np.all(shift == shift[0]) and shift[0, 0] == 0
    # A guard with an equal-content but distinct index map grounds its own group.
    bound = constraints[0].slots[0].binding
    twin = PredicateBinding("LINK" if bound.given else "BOUND", 2, dict(bound.index),
                            given=bound.given)
    preds = {s.binding.name: s.binding for s in constraints[0].slots} | {twin.name: twin}
    third = compile_constraint(parse_rule(constraints[0].text.replace("BOUND(", twin.name + "(")),
                               "product", {"P": constraints[0].domains[0]}, preds)
    assert third.slots[0].binding is twin
    rule_set = CompiledRuleSet([*constraints, third], layout)
    assert len(rule_set._groups) == 2 and rule_set.n_groundings == 3 * live
    phis = rule_set.penalties(truths)
    assert phis[2] == pytest.approx(dense_penalty_and_gradients(third, outputs)[0],
                                    rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tnorm", TNORMS)
# Only the residuum: the material reading's "not G or body" has no guard to ground by.
@pytest.mark.parametrize("implication", ("residuum",))
@pytest.mark.parametrize("bound_mode", ("given", "learned"))
def test_guarded_rules_over_a_scope_subset_match_the_dense_grounding(
    tnorm, implication, bound_mode
):
    rng = np.random.default_rng(7)
    ids = [f"p{i}" for i in range(8)]
    scope = ["p5", "p1", "p3", "p6", "p0"]  # a subset, not in index order
    # Pairs inside the scope (one listed in both orders), with one id
    # outside it, and with both outside it.
    pairs = [("p1", "p5"), ("p5", "p1"), ("p3", "p0"), ("p6", "p3"), ("p1", "p2"),
             ("p7", "p6"), ("p2", "p4"), ("p4", "p7")]
    bindings = {name: _unary(name, ids) for name in "AB"}
    layout = [(("A", "B"), len(ids))]
    truths = [rng.uniform(0.05, 0.95, (2, len(ids)))]
    if bound_mode == "given":
        bindings["BOUND"] = given_binding("BOUND", 2, pairs)
    else:
        bindings["BOUND"] = PredicateBinding("BOUND", 2, {p: k for k, p in enumerate(pairs)})
        layout.append((("BOUND",), len(pairs)))
        truths.append(rng.uniform(0.05, 0.95, (1, len(pairs))))
    outputs = {"A": truths[0][0], "B": truths[0][1]}
    if bound_mode == "learned":
        outputs["BOUND"] = truths[1][0]
    texts = [FORMULA_POOL[5], FORMULA_POOL[6],
             "forall x:P. forall y:P. BOUND(x,y) => (A(x) => B(y))"]
    constraints = [
        compile_constraint(read_as(parse_rule(t), implication), tnorm, {"P": scope}, bindings)
        for t in texts
    ]
    rule_set = CompiledRuleSet(constraints, layout)
    phis, grads = rule_set.penalties_and_gradients(truths)
    live = [np.count_nonzero(dense_gathers(c)[0] >= 0) for c in constraints]
    assert rule_set.n_groundings == sum(live) and 0 < live[0] < len(scope) ** 2
    expected = [np.zeros_like(t) for t in truths]
    scale = [np.zeros_like(t) for t in truths]
    for constraint, phi in zip(constraints, phis.tolist()):
        oracle, partials = dense_penalty_and_gradients(constraint, outputs)
        assert phi == pytest.approx(oracle, rel=1e-12, abs=0.0), constraint.text
        for pred, grad in partials.items():
            b, k = (1, 0) if pred == "BOUND" else (0, "AB".index(pred))
            expected[b][k] += grad
            scale[b][k] += np.abs(grad)
    for grad, want, tol in zip(grads, expected, scale):
        assert np.all(np.abs(grad - want) <= 1e-12 * tol)


def test_rule_set_runs_one_engine_pass_per_template(monkeypatch):
    ids = [f"p{i}" for i in range(4)]
    names = "ABCDE"
    # One index map for every predicate, as a run binds a task's predicates,
    # and five maps of equal content, one per predicate.
    positions = {p: i for i, p in enumerate(ids)}
    shared = {name: PredicateBinding(name, 1, positions) for name in names}
    own = {name: _unary(name, ids) for name in names}
    rng = np.random.default_rng(4)
    truths = [rng.uniform(0, 1, (len(names), 4))]
    texts = [
        "forall x:P. A(x) => B(x)",
        "forall x:P. A(x) and B(x) => C(x)",
        "forall x:P. C(x) => D(x)",
        "forall x:P. B(x) => E(x)",
        "forall x:P. D(x) and E(x) => A(x)",
    ]

    def rule_set(preds, tnorm):
        return CompiledRuleSet(
            [compile_constraint(parse_rule(t), tnorm, {"P": ids}, preds) for t in texts],
            [(tuple(names), 4)],
        )

    calls = []
    forward = engine.node_values
    monkeypatch.setattr(
        engine, "node_values", lambda program, values: calls.append(1) or forward(program, values)
    )
    rule_set(shared, "lukasiewicz").penalties_and_gradients(truths)
    assert len(calls) == 2
    # A group shares its slots' index maps too: no two rules here read the same maps.
    rule_set(own, "lukasiewicz").penalties_and_gradients(truths)
    assert len(calls) == 2 + len(texts)
    for tnorm in TNORMS:
        phis, grads = rule_set(shared, tnorm).penalties_and_gradients(truths)
        own_phis, own_grads = rule_set(own, tnorm).penalties_and_gradients(truths)
        assert phis.tobytes() == own_phis.tobytes()
        for grad, own_grad in zip(grads, own_grads, strict=True):
            if tnorm == "product":  # the groups' gradients add up in another order
                np.testing.assert_allclose(grad, own_grad, rtol=1e-12, atol=0)
            else:  # every term is an integer, so any order of sum is exact
                assert grad.tobytes() == own_grad.tobytes()


def test_rule_set_rejects_truth_blocks_of_the_wrong_shape():
    ids = ["p0", "p1", "p2"]
    preds = {name: _unary(name, ids) for name in "ABC"}
    rule = compile_constraint(parse_rule("forall x:P. A(x) => C(x)"), "product", {"P": ids}, preds)
    rule_set = CompiledRuleSet([rule], [(("A", "B"), 3), (("C",), 3)])
    good = [np.full((2, 3), 0.5), np.full((1, 3), 0.5)]
    assert rule_set.penalties(good).shape == (1,)
    for bad in (
        good[:1],  # a block missing
        good + [np.zeros((1, 3))],  # a block too many
        [good[0].T, good[1]],  # rows and columns swapped
        [good[0], good[1][0]],  # a vector where a block belongs
        [good[0][:, :2], good[1]],  # too few examples
    ):
        with pytest.raises(ValueError, match="truth blocks have shapes"):
            rule_set.penalties(bad)
        with pytest.raises(ValueError, match="truth blocks have shapes"):
            rule_set.penalties_and_gradients(bad)


@settings(max_examples=120, deadline=None)
@given(
    text=st.sampled_from(FORMULA_POOL),
    tnorm=st.sampled_from(TNORMS),
    implication=st.sampled_from(IMPLICATIONS),
    bound_mode=st.sampled_from(("given", "learned")),
    seed=st.integers(0, 2**32 - 1),
)
def test_rule_set_penalties_are_non_negative(text, tnorm, implication, bound_mode, seed):
    # The learner skips the rules of a line-search trial whose ridge and label
    # part already fails Armijo; that is exact only while no penalty is negative.
    rng = np.random.default_rng(seed)
    constraints, outputs = random_rule_set(rng, [text] * 3, tnorm, implication, bound_mode)
    layout, truths, _ = stack_outputs(rng, outputs)
    # Truths anywhere in [0, 1], the end points and values one ulp inside them included.
    edges = np.array([0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), 0.5])
    truths = [
        np.where(rng.random(t.shape) < 0.5, edges[rng.integers(len(edges), size=t.shape)],
                 rng.uniform(0.0, 1.0, t.shape))
        for t in truths
    ]
    rule_set = CompiledRuleSet(constraints, layout)
    assert np.all(rule_set.penalties(truths) >= 0.0)
    assert np.all(rule_set.penalties_and_gradients(truths)[0] >= 0.0)


def test_rule_set_reads_given_truths_as_learned_rows_are_read():
    ids = ["p0", "p1", "p2"]
    rule = parse_rule("forall x:P. forall y:P. G(x,y) => (A(x) <=> A(y))")
    given = PredicateBinding("G", 2, {("p0", "p1"): 1, ("p2", "p1"): 0}, given=True)
    learned = PredicateBinding("G", 2, given.index)
    truths = [np.array([[0.9, 0.2, 0.6]])]
    for tnorm in TNORMS:
        given_rule, learned_rule = (
            compile_constraint(rule, tnorm, {"P": ids}, {"A": _unary("A", ids), "G": binding})
            for binding in (given, learned)
        )
        # The given G, one 1.0 after the learned rows, reads like a learned G at 1.
        phis, grads = CompiledRuleSet([given_rule] * 2, [(("A",), 3)]).penalties_and_gradients(truths)
        want, want_grads = CompiledRuleSet([learned_rule] * 2, [(("A",), 3), (("G",), 2)]) \
            .penalties_and_gradients(truths + [np.array([[1.0, 1.0]])])
        assert phis.tolist() == want.tolist()
        assert np.array_equal(grads[0], want_grads[0])
        # Only the pairs in G's index are grounded, in either order.
        assert CompiledRuleSet([given_rule], [(("A",), 3)]).n_groundings == 4


def test_rule_set_rejects_clashing_given_predicates():
    ids = ["p0", "p1"]
    rule = parse_rule("forall x:P. G(x) => A(x)")
    given = PredicateBinding("G", 1, {"p0": 0}, given=True)
    compiled = compile_constraint(rule, "product", {"P": ids}, {"A": _unary("A", ids), "G": given})
    clash = r"G\(x\) => A\(x\).*binds 'G' otherwise than the rule set reads it"
    # A given predicate named like a learned block row.
    with pytest.raises(CompileError, match=clash):
        CompiledRuleSet([compiled], [(("A", "G"), 2)])
    # Two rules that bind G to different given bindings.
    again = PredicateBinding("G", 1, {"p0": 0}, given=True)
    other = compile_constraint(rule, "product", {"P": ids}, {"A": _unary("A", ids), "G": again})
    with pytest.raises(CompileError, match=clash):
        CompiledRuleSet([compiled, other], [(("A",), 2)])
    # G bound learned by one rule and given by another.
    learned = compile_constraint(
        rule, "product", {"P": ids}, {"A": _unary("A", ids), "G": _unary("G", ids)}
    )
    with pytest.raises(CompileError, match=clash):
        CompiledRuleSet([learned, compiled], [(("A", "G"), 2)])
    with pytest.raises(CompileError, match="unknown learned predicate 'G'"):
        CompiledRuleSet([compiled, learned], [(("A",), 2)])
    assert CompiledRuleSet([compiled, compiled], [(("A",), 2)]).n_groundings == 4


def test_a_guarded_rule_is_grounded_without_its_grid():
    # One PP rule over 1,000 ids and 20 interactions: 40 live rows, both
    # orders of each pair, out of a million-cell grid.
    ids = [f"p{i:04d}" for i in range(1000)]
    pairs = {(ids[i], ids[i + 25]): k for k, i in enumerate(range(0, 1000, 50))}
    bindings = {"A": _unary("A", ids),
                "BOUND": PredicateBinding("BOUND", 2, pairs, given=True)}
    rule = parse_rule(f"{GUARDED_PREFIX} (A(x) <=> A(y))")
    tracemalloc.start()
    try:
        constraint = compile_constraint(rule, "minimum", {"P": ids}, bindings)
        rule_set = CompiledRuleSet([constraint], [(("A",), len(ids))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rule_set.n_groundings == 2 * len(pairs)
    assert peak < 2**20, f"peak {peak} bytes"
