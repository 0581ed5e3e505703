"""Rule grammar: shapes, associativity, round trips, error positions."""

import os

import pytest

import hierarchy_fixture
from fungo import cli
from fungo.io import read_config
from fungo.logic import And, Atom, Iff, Implies, Not, Or, render
from rule_text import ParseError, parse_rule, parse_rules


def test_single_implication():
    f = parse_rule("forall x:Prot. CHILD(x) => PARENT(x)")
    assert len(f.quantifiers) == 1
    assert f.quantifiers[0].var == "x"
    assert f.quantifiers[0].domain == "Prot"
    assert f.body == Implies(Atom("CHILD", ("x",)), Atom("PARENT", ("x",)))


def test_two_variable_rule_with_dot_per_quantifier():
    f = parse_rule("forall x:Prot. forall y:Prot. BOUND(x,y) => (P(x) <=> P(y))")
    assert len(f.quantifiers) == 2
    assert f.body == Implies(
        Atom("BOUND", ("x", "y")),
        Iff(Atom("P", ("x",)), Atom("P", ("y",))),
    )


def test_single_dot_prefix_also_parses():
    f = parse_rule("forall x:Prot forall y:Prot. BOUND(x,y) => P(y)")
    assert len(f.quantifiers) == 2


@pytest.mark.parametrize("text, message", [
    ("exists x:Prot. A(x)", "only 'forall' quantifies a rule at column 1"),
    ("forall x:Prot. exists y:Prot. B(x,y)", "only 'forall' quantifies a rule at column 16"),
    ("exists[3] y:Prot. B(y)", r"unexpected character '\[' at column 7"),
], ids=["exists", "nested-exists", "counted-exists"])
def test_exists_is_rejected(text, message):
    # fungo compiles universal rules only; "exists" stays a keyword.
    with pytest.raises(ParseError, match=message):
        parse_rule(text)


def test_implies_right_associative():
    f = parse_rule("forall x:P. A(x) => B(x) => C(x)")
    assert f.body == Implies(
        Atom("A", ("x",)), Implies(Atom("B", ("x",)), Atom("C", ("x",)))
    )


def test_iff_left_associative():
    f = parse_rule("forall x:P. A(x) <=> B(x) <=> C(x)")
    assert f.body == Iff(
        Iff(Atom("A", ("x",)), Atom("B", ("x",))), Atom("C", ("x",))
    )


def test_precedence_not_and_or():
    f = parse_rule("forall x:P. not A(x) and B(x) or C(x)")
    assert f.body == Or(
        And(Not(Atom("A", ("x",))), Atom("B", ("x",))), Atom("C", ("x",))
    )


def test_parentheses_override():
    f = parse_rule("forall x:P. A(x) and (B(x) or C(x))")
    assert f.body == And(
        Atom("A", ("x",)), Or(Atom("B", ("x",)), Atom("C", ("x",)))
    )


def test_disjunction_chain():
    f = parse_rule("forall x:P. U(x) => C1(x) or C2(x) or C3(x)")
    body = f.body
    assert isinstance(body, Implies)
    assert body.right == Or(
        Or(Atom("C1", ("x",)), Atom("C2", ("x",))), Atom("C3", ("x",))
    )


@pytest.mark.parametrize(
    "text",
    [
        "forall x:Prot. GO_0008150(x) => GO_0003674(x)",
        "forall x:Prot. forall y:Prot. BOUND(x,y) => (P(x) <=> P(y))",
        "forall x:Prot. forall y:Prot. BOUND(x,y) => (A(x) and A(y)) or (B(x) and B(y))",
        "forall x:Prot. not A(x) => B(x)",
        "forall x:P. A(x) => B(x) => C(x)",
        "forall x:P. (A(x) <=> B(x)) <=> C(x)",
        "forall x:P. A(x) <=> (B(x) <=> C(x))",
        "forall x:P. not (A(x) or B(x))",
    ],
)
def test_render_round_trip(text):
    f = parse_rule(text)
    assert parse_rule(render(f)) == f


def test_comments_and_blank_lines_in_files():
    text = """
# ontology rules
forall x:Prot. A(x) => B(x)

forall x:Prot. B(x) => C(x)  # upward closure
"""
    rules = parse_rules(text)
    assert len(rules) == 2
    assert rules[1].body == Implies(Atom("B", ("x",)), Atom("C", ("x",)))


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_rule("forall x:Prot. A(x) =>")
    assert "column" in str(err.value)
    with pytest.raises(ParseError, match="column 1"):
        parse_rule("=> A(x)")


def test_unbound_variable():
    with pytest.raises(ParseError, match="unbound variable 'y'"):
        parse_rule("forall x:Prot. A(y)")


def test_duplicate_quantified_variable():
    with pytest.raises(ParseError, match="duplicate quantified variable 'x'"):
        parse_rule("forall x:Prot. forall x:Prot. A(x)")


def test_missing_final_dot():
    with pytest.raises(ParseError, match="'.'"):
        parse_rule("forall x:Prot A(x)")


def test_arity_must_be_one_or_two():
    with pytest.raises(ParseError):
        parse_rule("forall x:Prot. A()")
    with pytest.raises(ParseError):
        parse_rule("forall x:P. forall y:P. forall z:P. A(x,y,z)")


def test_file_errors_report_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_rules("forall x:P. A(x)\n# fine\nforall x:P. A(")


def test_keywords_not_predicates():
    with pytest.raises(ParseError):
        parse_rule("forall x:P. and(x)")


@pytest.mark.parametrize("rules", ("OC", "OC+PP1", "OC+PP2"))
def test_every_rule_that_a_run_builds_parses_back(tmp_path, rules):
    # fungo writes rules.txt with Formula.to_text and reads no rule text, so
    # this keeps the writer and the tests' parser in step.
    root = str(tmp_path)
    hierarchy_fixture.write_dataset(root)
    hierarchy_fixture.write_pair_files(root)
    cfg = hierarchy_fixture.write_config(root, "out", rules=rules, ppi="ppi.tsv",
                                         pair_gram="pairs.csv")
    config = cli.parse_experiment_config(read_config(cfg), root)
    built, _ = cli.build_rules(config, cli.load_dataset(config).cut)
    assert built
    for rule in built:
        assert parse_rule(rule.to_text()) == rule
    assert cli.main(["rules", "--config", cfg]) == 0
    with open(os.path.join(root, "out", "rules.txt"), encoding="utf-8") as handle:
        assert parse_rules(handle.read()) == built
