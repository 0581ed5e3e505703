"""Ontology: OBO parsing, closure, cuts with bins, rule generation, statistics."""

import os
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungo import io as fungo_io
from fungo.ontology import (
    ISA,
    NAMESPACES,
    PART_OF,
    RELATIONS,
    AnnotationSet,
    GoCut,
    OntologyDag,
    OntologyError,
    Term,
    generate_oc_rules,
    generate_part_of_rules,
    generate_ppi_rules,
    go_cut,
    namespace_coverage,
    parse_obo,
    ppi_statistics,
    predicate_name,
    tpr_closure,
)
from support import (
    LINE_BREAKS,
    ReferenceOntologyDag,
    reference_parse_obo,
    reference_read_lines,
    reference_tpr_closure,
    write_raw,
)

BP = "biological_process"
MF = "molecular_function"

CHAIN_OBO = """\
format-version: 1.2

[Term]
id: GO:0000001
name: alpha
namespace: biological_process

[Term]
id: GO:0000002
name: beta
namespace: biological_process
is_a: GO:0000001 ! alpha

[Term]
id: GO:0000003
name: gamma
namespace: biological_process
is_a: GO:0000002 ! beta
relationship: part_of GO:0000001 ! alpha

[Typedef]
id: part_of
name: part of
"""


def test_parse_chain_levels_and_relations():
    dag = parse_obo(CHAIN_OBO.splitlines())
    assert set(dag.terms) == {"GO:0000001", "GO:0000002", "GO:0000003"}
    assert dag.level("GO:0000001") == 0
    assert dag.level("GO:0000002") == 1
    assert dag.level("GO:0000003") == 2
    assert dag.parents("GO:0000003") == ("GO:0000002",)
    assert dag.relation_edges(PART_OF) == (("GO:0000003", "GO:0000001"),)


def test_parse_diamond_shortest_path():
    text = CHAIN_OBO + """
[Term]
id: GO:0000004
name: delta
namespace: biological_process
is_a: GO:0000002
is_a: GO:0000003
"""
    dag = parse_obo(text.splitlines())
    assert dag.level("GO:0000004") == 2


def test_parse_drops_obsolete_terms():
    text = CHAIN_OBO + """
[Term]
id: GO:0000009
name: gone
namespace: biological_process
is_a: GO:0000001
is_obsolete: true
"""
    dag = parse_obo(text.splitlines())
    assert "GO:0000009" not in dag


def test_parse_errors():
    with pytest.raises(OntologyError, match="dangling"):
        parse_obo(["[Term]", "id: GO:1", "name: a", "namespace: biological_process",
                   "is_a: GO:9"])
    with pytest.raises(OntologyError, match="cycle"):
        OntologyDag(
            [Term("a", "", BP), Term("b", "", BP), Term("r", "", BP)],
            [("a", "b", ISA), ("b", "a", ISA)],
        )
    with pytest.raises(OntologyError, match="multiple roots"):
        OntologyDag([Term("a", "", BP), Term("b", "", BP)], [])
    with pytest.raises(OntologyError, match="duplicate term"):
        OntologyDag([Term("a", "", BP), Term("a", "", BP)], [])
    with pytest.raises(OntologyError, match="no is_a parent in namespace"):
        OntologyDag(
            [Term("r", "", BP), Term("m", "", MF), Term("x", "", MF)],
            [("x", "r", ISA)],
        )


def test_closure_chain_and_idempotence():
    dag = parse_obo(CHAIN_OBO.splitlines())
    closed = tpr_closure({"p1": {"GO:0000003"}}, dag)
    assert closed.terms_of("p1") == {"GO:0000001", "GO:0000002", "GO:0000003"}
    again = tpr_closure(dict(closed.items()), dag)
    assert dict(again.items()) == dict(closed.items())
    assert closed.proteins_of("GO:0000001") == {"p1"}


def test_closure_unknown_term():
    dag = parse_obo(CHAIN_OBO.splitlines())
    with pytest.raises(OntologyError, match="unknown term"):
        tpr_closure({"p1": {"GO:9999999"}}, dag)


def _chain_dag():
    return OntologyDag(
        [Term("A", "a", BP), Term("B", "b", BP), Term("C", "c", BP)],
        [("B", "A", ISA), ("C", "B", ISA)],
    )


def _chain_annotations(dag):
    raw = {f"p{i}": {"B"} for i in range(8)}
    raw.update({f"q{i}": {"C"} for i in range(2)})
    return tpr_closure(raw, dag)


def test_cut_chain_only_child_pruned_means_no_bin():
    # B's sole child C is pruned; with no surviving sibling the bin criterion
    # fails, so B simply becomes a leaf of the cut.
    dag = _chain_dag()
    ann = _chain_annotations(dag)
    cut = go_cut(dag, ann, [BP], level_threshold=2, count_threshold=5)
    assert cut.retained == {"A", "B"}
    assert cut.bins == {}
    assert cut.chil("B") == ()
    # C's proteins are still visible at B through the closure.
    assert {"q0", "q1"} <= cut.proteins("B")


def test_bin_requires_retained_and_pruned_sibling():
    # B has two children: C (2 proteins, pruned at c=5) and D (6 proteins, kept).
    dag = OntologyDag(
        [Term("A", "", BP), Term("B", "", BP), Term("C", "", BP), Term("D", "", BP)],
        [("B", "A", ISA), ("C", "B", ISA), ("D", "B", ISA)],
    )
    raw = {f"p{i}": {"D"} for i in range(6)}
    raw.update({f"q{i}": {"C"} for i in range(2)})
    ann = tpr_closure(raw, dag)
    cut = go_cut(dag, ann, [BP], 3, 5)
    assert cut.retained == {"A", "B", "D"}
    assert cut.bins == {"BIN:B": "B"}
    assert cut.proteins("BIN:B") == {"q0", "q1"}
    assert cut.chil("B") == ("D", "BIN:B")
    assert cut.level("BIN:B") == 2
    assert cut.namespace("BIN:B") == BP

    # Without a retained sibling the pruned child produces no bin.
    cut2 = go_cut(dag, ann, [BP], 1, 5)
    assert cut2.retained == {"A", "B"}
    assert cut2.bins == {}


def test_cut_level_zero_is_roots_only():
    dag = _chain_dag()
    ann = _chain_annotations(dag)
    cut = go_cut(dag, ann, [BP], 0, 1)
    assert cut.retained == {"A"}
    assert cut.bins == {}


def test_cut_no_pruning_no_bins():
    dag = _chain_dag()
    ann = _chain_annotations(dag)
    cut = go_cut(dag, ann, [BP], 5, 0)
    assert cut.retained == {"A", "B", "C"}
    assert cut.bins == {}


def test_cut_errors():
    dag = _chain_dag()
    ann = _chain_annotations(dag)
    with pytest.raises(OntologyError, match="empty"):
        go_cut(dag, ann, [BP], 0, 100)
    with pytest.raises(OntologyError, match="not closed"):
        go_cut(dag, AnnotationSet({"p": {"C"}}), [BP], 2, 0)
    with pytest.raises(OntologyError, match="namespace"):
        go_cut(dag, ann, ["nope"], 2, 0)


def test_predicate_name_sanitization():
    assert predicate_name("GO:0008150") == "GO_0008150"
    assert predicate_name("BIN:GO:0008150") == "BIN_GO_0008150"
    with pytest.raises(OntologyError):
        predicate_name("0bad")
    with pytest.raises(OntologyError):
        predicate_name("and")


def test_predicate_name_collision_detected():
    dag = OntologyDag(
        [Term("R", "", BP), Term("GO:1", "", BP), Term("GO_1", "", BP)],
        [("GO:1", "R", ISA), ("GO_1", "R", ISA)],
    )
    with pytest.raises(OntologyError, match="collision"):
        go_cut(dag, AnnotationSet({}), [BP], 5, 0)


def _small_tree_cut():
    # R root; A, B children of R; C child of A.  Everything retained.
    dag = OntologyDag(
        [Term("R", "", BP), Term("A", "", BP), Term("B", "", BP), Term("C", "", BP)],
        [("A", "R", ISA), ("B", "R", ISA), ("C", "A", ISA)],
    )
    ann = tpr_closure({"p1": {"C"}, "p2": {"B"}}, dag)
    return go_cut(dag, ann, [BP], 5, 0)


def test_oc_rules_small_tree():
    cut = _small_tree_cut()
    texts = [r.to_text() for r in generate_oc_rules(cut)]
    assert sorted(texts) == sorted(
        [
            "forall x:Prot. A(x) => R(x)",
            "forall x:Prot. B(x) => R(x)",
            "forall x:Prot. C(x) => A(x)",
            "forall x:Prot. R(x) => A(x) or B(x)",
            "forall x:Prot. A(x) => C(x)",
        ]
    )


def test_oc_rules_single_root_cut():
    dag = _chain_dag()
    ann = _chain_annotations(dag)
    cut = go_cut(dag, ann, [BP], 0, 1)
    assert generate_oc_rules(cut) == []


def test_oc_rules_include_bins_both_ways():
    dag = OntologyDag(
        [Term("A", "", BP), Term("B", "", BP), Term("C", "", BP), Term("D", "", BP)],
        [("B", "A", ISA), ("C", "B", ISA), ("D", "B", ISA)],
    )
    raw = {f"p{i}": {"D"} for i in range(6)}
    raw.update({f"q{i}": {"C"} for i in range(2)})
    cut = go_cut(dag, tpr_closure(raw, dag), [BP], 3, 5)
    texts = [r.to_text() for r in generate_oc_rules(cut)]
    assert "forall x:Prot. BIN_B(x) => B(x)" in texts
    assert "forall x:Prot. B(x) => D(x) or BIN_B(x)" in texts
    # The bin has no children, so nothing is emitted downward from it.
    assert not any(t.startswith("forall x:Prot. BIN_B(x) => B(x) or") for t in texts)


@pytest.mark.parametrize("dag_class", (OntologyDag, ReferenceOntologyDag))
def test_level_follows_only_the_terms_own_namespace(dag_class):
    # MF:t sits four MF steps below its root and one step below BP:x, which
    # is one below the BP root; the level must not depend on term order.
    terms = [Term("BP:r", "", BP), Term("BP:x", "", BP), Term("MF:r", "", MF)]
    terms += [Term(f"MF:{t}", "", MF) for t in "abct"]
    edges = [("BP:x", "BP:r", ISA), ("MF:a", "MF:r", ISA), ("MF:b", "MF:a", ISA),
             ("MF:c", "MF:b", ISA), ("MF:t", "MF:c", ISA), ("MF:t", "BP:x", ISA)]
    for order in (terms, terms[::-1]):
        dag = dag_class(order, edges)
        assert dag.level("MF:t") == 4
        assert dag.level("BP:x") == 1


@pytest.mark.parametrize("dag_class", (OntologyDag, ReferenceOntologyDag))
def test_level_takes_the_nearest_own_namespace_parent(dag_class):
    # BP:t has BP parents at depths 1 and 3 and the MF root as a third parent.
    terms = [Term(f"BP:{t}", "", BP) for t in "rabct"] + [Term("MF:r", "", MF)]
    edges = [("BP:a", "BP:r", ISA), ("BP:b", "BP:a", ISA), ("BP:c", "BP:b", ISA),
             ("BP:t", "BP:c", ISA), ("BP:t", "MF:r", ISA), ("BP:t", "BP:a", ISA)]
    for order in (terms, terms[::-1]):
        dag = dag_class(order, edges)
        assert [dag.level(f"BP:{t}") for t in "rabct"] == [0, 1, 2, 3, 2]
        assert {t for t in dag.terms if dag.level(t) == 0} == {"BP:r", "MF:r"}


def test_part_of_rules_cross_namespace():
    dag = OntologyDag(
        [Term("R", "", BP), Term("M", "", MF), Term("F", "", MF)],
        [("F", "M", ISA), ("F", "R", PART_OF)],
    )
    ann = tpr_closure({"p": {"F"}, "q": {"R"}}, dag)
    cut = go_cut(dag, ann, [BP, MF], 5, 0)
    texts = [r.to_text() for r in generate_part_of_rules(cut)]
    assert texts == ["forall x:Prot. F(x) => R(x)"]

    # Pruning the target kills the rule.
    cut2 = go_cut(dag, ann, [MF], 5, 0)
    assert generate_part_of_rules(cut2) == []


def test_ppi_rules_pp_shape():
    cut = _small_tree_cut()
    texts = [r.to_text() for r in generate_ppi_rules(cut, "PP")]
    assert len(texts) == len(cut.retained)
    assert "forall x:Prot. forall y:Prot. BOUND(x,y) => (A(x) <=> A(y))" in texts


def test_ppi_rules_dpp_shape():
    cut = _small_tree_cut()
    rules = generate_ppi_rules(cut, "DPP")
    assert len(rules) == 1
    text = rules[0].to_text()
    assert text == (
        "forall x:Prot. forall y:Prot. BOUND(x,y) => "
        "A(x) and A(y) or B(x) and B(y) or C(x) and C(y) or R(x) and R(y)"
    )


def test_ppi_rules_validation():
    cut = _small_tree_cut()
    with pytest.raises(OntologyError, match="variant"):
        generate_ppi_rules(cut, "XX")
    dag = OntologyDag([Term("M", "", MF)], [])
    mf_cut = go_cut(dag, AnnotationSet({}), [MF], 0, 0)
    with pytest.raises(OntologyError, match="biological-process"):
        generate_ppi_rules(mf_cut, "DPP")


# --- randomized battery ----------------------------------------------------


def random_dag(rng, n_terms):
    ids = [f"GO:{i:07d}" for i in range(n_terms)]
    terms = [Term(ids[0], "root", BP)]
    edges = []
    for i in range(1, n_terms):
        terms.append(Term(ids[i], f"t{i}", BP))
        n_par = 1 + int(rng.random() < 0.3 and i > 1)
        for p in rng.choice(i, size=n_par, replace=False):
            edges.append((ids[i], ids[int(p)], ISA))
    return OntologyDag(terms, edges)


def leaf_annotations(rng, dag, n_proteins):
    leaves = [t for t in dag.terms if not dag.children(t)]
    raw = {}
    for i in range(n_proteins):
        k = int(rng.integers(1, min(3, len(leaves)) + 1))
        picked = rng.choice(len(leaves), size=k, replace=False)
        raw[f"p{i}"] = {leaves[int(j)] for j in picked}
    return tpr_closure(raw, dag)


def oracle_levels(dag):
    # Independent BFS re-derivation of levels from the raw edge list.
    root = next(t for t in dag.terms if not dag.parents(t))
    levels = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for t in frontier:
            for c, p in dag.relation_edges(ISA):
                if p == t and c not in levels:
                    levels[c] = levels[t] + 1
                    nxt.append(c)
        frontier = nxt
    return levels


@pytest.mark.parametrize("seed", range(12))
def test_random_cut_membership_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    dag = random_dag(rng, int(rng.integers(5, 31)))
    ann = leaf_annotations(rng, dag, int(rng.integers(5, 25)))
    lvl = int(rng.integers(0, 5))
    cnt = int(rng.integers(0, 6))
    try:
        cut = go_cut(dag, ann, [BP], lvl, cnt)
    except OntologyError:
        levels = oracle_levels(dag)
        for t in dag.terms:
            carriers = sum(1 for _, ts in ann.items() if t in ts)
            assert not (levels[t] <= lvl and carriers >= cnt)
        return
    levels = oracle_levels(dag)
    for t in dag.terms:
        carriers = sum(1 for _, ts in ann.items() if t in ts)
        assert (t in cut.retained) == (levels[t] <= lvl and carriers >= cnt)


@pytest.mark.parametrize("seed", range(12))
def test_random_rule_counts_and_union_premise(seed):
    rng = np.random.default_rng(seed + 100)
    dag = random_dag(rng, int(rng.integers(5, 31)))
    ann = leaf_annotations(rng, dag, int(rng.integers(5, 25)))
    try:
        cut = go_cut(dag, ann, [BP], int(rng.integers(1, 5)), int(rng.integers(0, 4)))
    except OntologyError:
        return

    rules = generate_oc_rules(cut)
    n_impl = sum(len(cut.par(u)) for u in cut.retained) + len(cut.bins)
    n_disj = sum(1 for u in cut.retained if cut.chil(u))
    assert len(rules) == n_impl + n_disj

    # Bin insertion restores the parent-covered-by-children premise.
    for u in cut.retained:
        kids = cut.chil(u)
        if not kids:
            continue
        union = frozenset().union(*(cut.proteins(k) for k in kids))
        assert cut.proteins(u) == union & cut.proteins(u)
        assert cut.proteins(u) <= union

    # Generators are deterministic.
    assert [r.to_text() for r in rules] == [r.to_text() for r in generate_oc_rules(cut)]


@pytest.mark.parametrize("seed", range(6))
def test_random_closure_invariant(seed):
    rng = np.random.default_rng(seed + 200)
    dag = random_dag(rng, int(rng.integers(5, 31)))
    ann = leaf_annotations(rng, dag, 10)
    for _, terms in ann.items():
        for t in terms:
            assert dag.ancestors(t) <= terms


def test_ppi_statistics_brute_force():
    dag = _chain_dag()
    ann = tpr_closure({"p1": {"C"}, "p2": {"B"}, "p3": {"A"}, "p4": {"B"}}, dag)
    cut = go_cut(dag, ann, [BP], 5, 0)
    pairs = [("p1", "p2"), ("p2", "p3"), ("p1", "p4")]
    result = ppi_statistics(pairs, ann, cut)

    by_id = {r.term_id: r for r in result.rows}
    # A covers everything: every pair counts in both POS and TOT.
    assert (by_id["A"].pos, by_id["A"].tot, by_id["A"].ratio) == (3, 3, 1.0)
    # B carriers: p1, p2, p4.
    assert (by_id["B"].pos, by_id["B"].tot) == (2, 3)
    # C carriers: p1 only.
    assert (by_id["C"].pos, by_id["C"].tot, by_id["C"].ratio) == (0, 2, 0.0)
    assert [r.term_id for r in result.rows] == ["A", "B", "C"]

    # Jaccard by hand: sets restricted to {A,B,C}.
    s = {"p1": {"A", "B", "C"}, "p2": {"A", "B"}, "p3": {"A"}, "p4": {"A", "B"}}
    expect = [2 / 3, 1 / 2, 2 / 3]
    got = result.jaccard["overall"]
    assert got.count == 3
    assert got.mean == pytest.approx(sum(expect) / 3)
    assert got.median == pytest.approx(sorted(expect)[1])
    assert got.std == pytest.approx(float(np.std(expect)))
    assert result.jaccard[BP].mean == got.mean


def test_ppi_statistics_undefined_ratio():
    dag = _chain_dag()
    ann = tpr_closure({"p1": {"C"}, "p2": {"B"}}, dag)
    cut = go_cut(dag, ann, [BP], 5, 0)
    result = ppi_statistics([], ann, cut)
    assert all(r.ratio is None for r in result.rows)
    assert result.jaccard["overall"].count == 0
    assert result.jaccard["overall"].mean is None


# --- array-backed DAG against the string-keyed reference -------------------

ID_POOL = tuple(f"GO:{i:07d}" for i in range(1, 13))
MISSING_ID = "GO:9999999"
LINK_RELATIONS = (PART_OF, "regulates", "occurs_in", "has_part")


def _outcome(fn, *args):
    """``fn(*args)``, or the type and text of what it raised."""
    try:
        return fn(*args), None
    except Exception as exc:  # the reference decides which types are expected
        return None, (type(exc), str(exc))


SPACING = (("", ""), (" ", ""), ("\t", " "), ("  ", "\t"))
CORRUPTIONS = ("extra root", "back edge", "dangling parent", "cross-namespace parent",
               "obsolete parent", "no namespace", "short relationship")


@st.composite
def obo_documents(draw):
    """OBO text over a mostly valid DAG: each term's is_a parents come from
    earlier terms of its namespace.  One document in three carries one of
    the CORRUPTIONS.  The text has obsolete terms, ``!`` comments (one
    inside a name), relationship lines of every kind, duplicate edges, odd
    spacing and [Typedef] stanzas."""
    n = draw(st.integers(1, 9))
    ids = tuple(draw(st.permutations(ID_POOL))[:n])
    spaces = draw(st.lists(st.sampled_from(NAMESPACES[:2]), min_size=n, max_size=n))
    obsolete = draw(st.sets(st.integers(0, n - 1), max_size=2))
    live = [k for k in range(n) if k not in obsolete]
    parents: list[list[int]] = []
    for k in range(n):
        same = [j for j in live if j < k and spaces[j] == spaces[k]]
        parents.append(draw(st.lists(st.sampled_from(same), min_size=1, max_size=3))
                       if same else [])
    links = [[ids[j] for j in js] for js in parents]
    for k in range(n):
        relations = draw(st.lists(st.tuples(st.sampled_from(LINK_RELATIONS),
                                            st.sampled_from(live or [0])), max_size=2))
        links[k] += [f"{relation} {ids[j]}" for relation, j in relations]

    corruption = draw(st.sampled_from((None,) * 14 + CORRUPTIONS))
    k = draw(st.integers(0, n - 1))
    namespace_lines = [f"namespace: {space}" for space in spaces]
    if corruption == "extra root":
        links[k] = [link for link in links[k] if " " in link]
    elif corruption == "back edge":
        edges = [(c, p) for c in range(n) for p in parents[c]]
        if edges:
            child, parent = draw(st.sampled_from(edges))
            links[parent].append(ids[child])
    elif corruption == "dangling parent":
        links[k].append(MISSING_ID)
    elif corruption == "cross-namespace parent" and k:
        links[k] = [ids[draw(st.integers(0, k - 1))]]
    elif corruption == "obsolete parent" and obsolete:
        links[k].append(ids[min(obsolete)])
    elif corruption == "no namespace":
        namespace_lines[k] = ""
    elif corruption == "short relationship":
        links[k].append("part_of")

    lines = ["format-version: 1.2", "! a file comment", ""]
    for k, tid in enumerate(ids):
        if draw(st.integers(0, 7)) == 0:
            lines += ["[Typedef]", "id: part_of", "name: part of", f"is_a: {ids[0]}", ""]
        body = [f"id: {tid}", namespace_lines[k]]
        if draw(st.booleans()):
            body.append(f"name: term {k}" + draw(st.sampled_from(("", " ! aside", "!x"))))
        for link in links[k]:
            if " " in link or link == "part_of":
                body.append(f"relationship: {link} ! linked")
            else:
                body.append(f"is_a: {link}" + draw(st.sampled_from(("", " ! parent name"))))
        if k in obsolete:
            body.append("is_obsolete: " + draw(st.sampled_from(("true", "TRUE"))))
        elif draw(st.booleans()):
            body.append("is_obsolete: false")
        pad, tail = draw(st.sampled_from(SPACING))
        lines.append("[Term]")
        lines += [pad + line + tail for line in draw(st.permutations(body)) if line]
        lines.append("")
    return "\n".join(lines)


def _assert_same_dag(dag, reference):
    assert list(dag.terms.items()) == list(reference.terms.items())
    for relation in RELATIONS:
        assert dag.relation_edges(relation) == reference.relation_edges(relation)
    # Ancestors first in a random-ish order, so the memo fills out of order.
    for tid in sorted(reference.terms, reverse=True):
        assert dag.ancestors(tid) == reference.ancestors(tid)
    for tid in reference.terms:
        assert dag.level(tid) == reference.level(tid)
        assert dag.parents(tid) == reference.parents(tid)
        assert dag.children(tid) == reference.children(tid)
    for query in (dag.level, dag.parents, dag.children, dag.ancestors):
        assert _outcome(query, MISSING_ID)[1] == (OntologyError,
                                                  f"unknown term id {MISSING_ID!r}")


@settings(max_examples=200, deadline=None)
@given(obo_documents(), st.data())
def test_parse_obo_matches_the_reference(text, data):
    dag, error = _outcome(parse_obo, text.splitlines())
    reference, expected = _outcome(reference_parse_obo, text)
    assert error == expected
    if expected is not None:
        return
    _assert_same_dag(dag, reference)

    pool = list(reference.terms) + [MISSING_ID]
    raw = data.draw(st.dictionaries(
        st.sampled_from([f"p{i}" for i in range(6)]),
        st.sets(st.sampled_from(pool), max_size=4),
        max_size=6,
    ))
    closed, error = _outcome(tpr_closure, raw, dag)
    want, expected = _outcome(reference_tpr_closure, raw, reference)
    assert error == expected
    coverage, error = _outcome(namespace_coverage, raw, dag)
    assert error == expected
    if expected is None:
        assert dict(closed.items()) == want
        assert coverage == {
            p: {reference.terms[t].namespace for t in ts} for p, ts in want.items()
        }
        # Proteins with the same namespaces share one frozenset.
        assert len({id(spans) for spans in coverage.values()}) == len(set(coverage.values()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dag_constructor_matches_the_reference(data):
    ids = data.draw(st.lists(st.sampled_from(ID_POOL[:6]), min_size=1, max_size=7))
    terms = [Term(t, "", data.draw(st.sampled_from(NAMESPACES[:2] + ("nowhere",))))
             for t in ids]
    edges = data.draw(st.lists(
        st.tuples(st.sampled_from(ID_POOL[:7]), st.sampled_from(ID_POOL[:7]),
                  st.sampled_from(RELATIONS + ("has_part",))),
        max_size=10,
    ))
    dag, error = _outcome(OntologyDag, terms, edges)
    reference, expected = _outcome(ReferenceOntologyDag, terms, edges)
    assert error == expected
    if expected is None:
        _assert_same_dag(dag, reference)


def _stanza(tid, namespace, *links):
    return "\n".join([f"[Term]\nid: {tid}\nnamespace: {namespace}", *links, ""])


MALFORMED = {
    "cycle": (
        _stanza("GO:1", BP)
        + _stanza("GO:3", BP, "is_a: GO:2")
        + _stanza("GO:2", BP, "is_a: GO:1", "is_a: GO:3"),
        "cycle among is_a edges involving ['GO:2', 'GO:3']",
    ),
    "two roots": (
        _stanza("GO:1", BP) + _stanza("GO:2", MF) + _stanza("GO:3", BP),
        "namespace 'biological_process' has multiple roots: 'GO:1' and 'GO:3'",
    ),
    "dangling target": (
        _stanza("GO:1", BP) + _stanza("GO:2", BP, "relationship: part_of GO:7"),
        "dangling edge target 'GO:7'",
    ),
    "obsolete target": (
        _stanza("GO:1", BP) + _stanza("GO:2", BP, "is_a: GO:1", "is_obsolete: true")
        + _stanza("GO:3", BP, "is_a: GO:2"),
        "dangling edge target 'GO:2'",
    ),
    "parent only in another namespace": (
        _stanza("GO:1", BP) + _stanza("GO:2", MF) + _stanza("GO:3", MF, "is_a: GO:1"),
        "term 'GO:3' has no is_a parent in namespace 'molecular_function'",
    ),
    # A term that no root reaches has parents, so it sits below a cycle.
    "unreachable term": (
        _stanza("GO:1", BP) + _stanza("GO:6", BP, "is_a: GO:5")
        + _stanza("GO:5", BP, "is_a: GO:4") + _stanza("GO:4", BP, "is_a: GO:5"),
        "cycle among is_a edges involving ['GO:4', 'GO:5', 'GO:6']",
    ),
    # Two defects each: the error names the one that is checked first.
    "cycle before two roots": (
        _stanza("GO:1", MF) + _stanza("GO:2", MF) + _stanza("GO:3", BP)
        + _stanza("GO:5", BP, "is_a: GO:3", "is_a: GO:4") + _stanza("GO:4", BP, "is_a: GO:5"),
        "cycle among is_a edges involving ['GO:4', 'GO:5']",
    ),
    "parent only in another namespace before a cycle": (
        _stanza("GO:1", BP) + _stanza("GO:2", MF) + _stanza("GO:5", BP, "is_a: GO:4")
        + _stanza("GO:4", BP, "is_a: GO:5") + _stanza("GO:6", MF, "is_a: GO:1"),
        "term 'GO:6' has no is_a parent in namespace 'molecular_function'",
    ),
    "stanza without an id": ("[Term]\nname: x\nnamespace: biological_process\n",
                             "[Term] stanza without an id"),
    "no namespace": ("[Term]\nid: GO:1\n", "term 'GO:1' has no namespace"),
    "bare is_a": (_stanza("GO:1", BP, "is_a: ! nothing"), "is_a line without a target id"),
    "short relationship": (
        _stanza("GO:1", BP, "relationship: part_of ! GO:2"),
        "malformed relationship line 'relationship: part_of ! GO:2'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_ontologies_fail_as_the_reference_does(case):
    text, message = MALFORMED[case]
    assert _outcome(parse_obo, text.splitlines())[1] == (OntologyError, message)
    assert _outcome(reference_parse_obo, text)[1] == (OntologyError, message)


def test_ancestors_are_built_only_on_request():
    text = "".join(
        _stanza(f"GO:{i}", BP, *([f"is_a: GO:{i - 1}"] if i else [])) for i in range(50)
    )
    dag = parse_obo(text.splitlines())
    assert not dag._ancestors
    assert dag.ancestors("GO:3") == {"GO:0", "GO:1", "GO:2"}
    assert set(dag._ancestors) == {"GO:0", "GO:1", "GO:2", "GO:3"}
    # Deep chains need no recursion.
    deep = parse_obo("".join(
        _stanza(f"GO:{i}", BP, *([f"is_a: GO:{i - 1}"] if i else [])) for i in range(3000)
    ).splitlines())
    assert len(deep.ancestors("GO:2999")) == 2999
    assert deep.level("GO:2999") == 2999


def test_memoised_queries_agree_across_threads():
    rng = np.random.default_rng(5)
    edges_dag = random_dag(rng, 60)
    text = "".join(
        _stanza(t, BP, *(f"is_a: {p}" for p in edges_dag.parents(t))) for t in edges_dag.terms
    )
    reference = reference_parse_obo(text)
    expected = {t: (reference.ancestors(t), reference.parents(t), reference.children(t))
                for t in reference.terms}
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            dag = parse_obo(text.splitlines())
            order = list(reference.terms)

            def query(seed):
                local = list(order)
                np.random.default_rng(seed).shuffle(local)
                return {t: (dag.ancestors(t), dag.parents(t), dag.children(t)) for t in local}

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result(timeout=30) for f in
                           [pool.submit(query, seed) for seed in range(8)]]
            assert all(result == expected for result in results)
    finally:
        sys.setswitchinterval(previous)


@settings(max_examples=150, deadline=None)
@given(obo_documents(), st.data())
def test_parse_obo_streams_a_file_as_the_whole_text_parses(text, data):
    lines = text.split("\n")
    breaks = data.draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                                max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    chunk = data.draw(st.sampled_from((1, 3, 8, 1 << 16)))
    with tempfile.TemporaryDirectory() as directory:
        path = write_raw(os.path.join(directory, "go.obo"), text)
        reference, expected = _outcome(reference_parse_obo,
                                       "\n".join(reference_read_lines(path)))
        with mock.patch.object(fungo_io, "_CHUNK_CHARS", chunk):
            dag, error = _outcome(parse_obo, fungo_io.read_lines(path))
    assert error == expected
    if expected is None:
        _assert_same_dag(dag, reference)


def test_parse_obo_refuses_a_bare_string():
    with pytest.raises(TypeError, match="iterable of lines"):
        parse_obo(CHAIN_OBO)


def test_ids_and_namespaces_are_shared_strings():
    # Each value cut from a line is a new string until the parser shares it.
    dag = parse_obo(CHAIN_OBO.splitlines())
    terms = dag.terms
    parent = dag.parents("GO:0000003")[0]
    assert parent is terms[parent].id
    ((_, linked),) = dag.relation_edges(PART_OF)
    assert linked is terms[linked].id
    assert all(term.namespace is BP for term in terms.values())
    assert BP is NAMESPACES[0]


def _big_obo(n):
    lines = [f"[Term]\nid: GO:{0:07d}\nname: root\nnamespace: {BP}\n"]
    rng = np.random.default_rng(3)
    for i in range(1, n):
        parents = {int(rng.integers(0, i)) for _ in range(2)}
        links = "".join(f"is_a: GO:{p:07d} ! term {p}\n" for p in sorted(parents))
        lines.append(f"[Term]\nid: GO:{i:07d}\nname: term {i}\nnamespace: {BP}\n{links}")
    return "\n".join(lines)


def _transient(parse):
    """Peak minus retained traced memory while ``parse()`` runs."""
    tracemalloc.start()
    try:
        dag = parse()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dag.terms) > 0
    return peak - retained


def test_streamed_parse_holds_little_besides_the_dag(tmp_path):
    path = str(tmp_path / "go.obo")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_big_obo(10_000))

    def whole_text():
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        return parse_obo(text.splitlines())

    streamed = _transient(lambda: parse_obo(fungo_io.read_lines(path)))
    reference = _transient(whole_text)
    assert streamed <= reference / 2, (streamed, reference)


def test_terms_are_slotted_and_leaves_share_one_empty_tuple():
    dag = parse_obo(CHAIN_OBO.splitlines())
    term = dag.terms["GO:0000003"]
    assert not hasattr(term, "__dict__")
    assert term == Term("GO:0000003", "gamma", BP)
    assert dag.children("GO:0000003") == ()
    empty = {id(dag._down[t]) for t in dag.terms if not dag.children(t)}
    empty |= {id(dag._up[t]) for t in dag.terms if not dag.parents(t)}
    assert empty == {id(())}
