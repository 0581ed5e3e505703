"""Tests for prediction metrics, curve averaging, and fold generation."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungo import cli
from fungo import io as fungo_io
from fungo.cli import Dataset

from fungo.evaluation import (
    EvalError,
    PredictionSet,
    PRCurve,
    auc_pr,
    average_pr_curves,
    consistency,
    example_metrics,
    generate_folds,
    label_metrics,
    pr_curve,
)
from fungo.ontology import go_cut, parse_obo, tpr_closure
from support import (
    ReferencePredictionSet,
    reference_build_sets,
    reference_consistency,
    reference_example_metrics,
    reference_label_metrics,
)
from test_ontology import leaf_annotations, random_dag

DIAMOND_OBO = """\
format-version: 1.2

[Term]
id: GO:0000001
name: root
namespace: molecular_function

[Term]
id: GO:0000002
name: alpha
namespace: molecular_function
is_a: GO:0000001

[Term]
id: GO:0000003
name: beta
namespace: molecular_function
is_a: GO:0000001

[Term]
id: GO:0000004
name: deep
namespace: molecular_function
is_a: GO:0000002
is_a: GO:0000003
"""

ROOT, ALPHA, BETA, DEEP = "GO:0000001", "GO:0000002", "GO:0000003", "GO:0000004"


def make_preds(truths, predictions, undecided=None, predicates=("a", "b", "c")):
    examples = tuple(f"e{i}" for i in range(len(truths)))
    return PredictionSet(
        tuple(predicates),
        examples,
        tuple(frozenset(y) for y in truths),
        tuple(frozenset(z) for z in predictions),
        ()
        if undecided is None
        else tuple(frozenset(u) for u in undecided),
    )


def diamond_cut():
    dag = parse_obo(DIAMOND_OBO.splitlines())
    closed = tpr_closure({"p1": {DEEP}}, dag)
    return go_cut(dag, closed, ("molecular_function",), 2, 0)


class TestPredictionSet:
    def test_confusion_counts(self):
        preds = make_preds([{"a", "b"}, {"b"}], [{"a"}, {"a", "b"}])
        assert preds.confusion("a") == (1, 1, 0, 0)
        assert preds.confusion("b") == (1, 0, 1, 0)
        assert preds.confusion("c") == (0, 0, 0, 2)

    def test_confusion_sums_to_n(self):
        rng = np.random.default_rng(7)
        predicates = tuple("pqrst")
        truths = []
        predictions = []
        for _ in range(9):
            truths.append({p for p in predicates if rng.random() < 0.4})
            predictions.append({p for p in predicates if rng.random() < 0.4})
        preds = make_preds(truths, predictions, predicates=predicates)
        for p in predicates:
            assert sum(preds.confusion(p)) == preds.n

    def test_filtered_removes_pairs_from_both_sides(self):
        preds = make_preds(
            [{"a"}, {"a"}], [{"a"}, set()], undecided=[set(), {"a"}]
        )
        assert preds.confusion("a") == (1, 0, 1, 0)
        bare = preds.filtered()
        assert bare.confusion("a") == (1, 0, 0, 1)
        assert all(not u for u in bare.undecided_sets)

    def test_rejects_unknown_predicates_and_bad_shapes(self):
        with pytest.raises(EvalError, match="unknown"):
            make_preds([{"z"}], [set()])
        with pytest.raises(EvalError, match="example count"):
            PredictionSet(("a",), ("e0",), (frozenset(),), ())
        with pytest.raises(EvalError, match="duplicate example"):
            PredictionSet(
                ("a",), ("e0", "e0"), (frozenset(),) * 2, (frozenset(),) * 2
            )
        with pytest.raises(EvalError, match="duplicate predicate"):
            PredictionSet(("a", "a"), ("e0",), (frozenset(),), (frozenset(),))


class TestExampleMetrics:
    def test_perfect_predictions(self):
        preds = make_preds([{"a"}, {"b", "c"}], [{"a"}, {"b", "c"}])
        assert example_metrics(preds) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_case(self):
        preds = make_preds([{"a", "b"}], [{"a"}])
        p, r, f1, exact = example_metrics(preds)
        assert p == 1.0
        assert r == 0.5
        assert f1 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert exact == 0.0

    def test_empty_prediction_contributes_zero(self):
        preds = make_preds([{"a"}], [set()])
        assert example_metrics(preds) == (0.0, 0.0, 0.0, 0.0)

    def test_both_empty_is_a_perfect_match(self):
        preds = make_preds([set()], [set()])
        assert example_metrics(preds) == (0.0, 0.0, 1.0, 1.0)

    def test_f1_is_the_per_example_harmonic_mean(self):
        rng = np.random.default_rng(21)
        predicates = tuple("abcdef")
        for _ in range(50):
            shared = {predicates[int(rng.integers(len(predicates)))]}
            truth = shared | {p for p in predicates if rng.random() < 0.4}
            predicted = shared | {p for p in predicates if rng.random() < 0.4}
            p, r, f1, _ = example_metrics(
                make_preds([truth], [predicted], predicates=predicates)
            )
            assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_requires_examples(self):
        with pytest.raises(EvalError):
            example_metrics(make_preds([], []))


class TestLabelMetrics:
    def micro_macro_fixture(self):
        # Confusion (TP, FP, FN): a -> (1, 1, 0), b -> (1, 0, 1).
        return make_preds([{"a", "b"}, {"b"}], [{"a", "b"}, {"a"}], predicates=("a", "b"))

    def test_micro_pools_counts(self):
        micro = label_metrics(self.micro_macro_fixture(), "micro")
        assert micro.precision == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert micro.recall == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_macro_averages_per_predicate(self):
        macro = label_metrics(self.micro_macro_fixture(), "macro")
        assert macro.precision == pytest.approx(0.75, abs=1e-15)
        assert macro.recall == pytest.approx(0.75, abs=1e-15)

    def test_single_predicate_micro_equals_macro(self):
        preds = make_preds([{"a"}, set(), {"a"}], [{"a"}, {"a"}, set()], predicates=("a",))
        assert label_metrics(preds, "micro") == label_metrics(preds, "macro")

    def test_zero_denominator_terms_contribute_zero(self):
        # Predicate b is never true and never predicted.
        preds = make_preds([{"a"}], [{"a"}], predicates=("a", "b"))
        macro = label_metrics(preds, "macro")
        assert macro.precision == 0.5
        assert macro.recall == 0.5
        assert macro.f1 == 0.5

    def test_excluded_predicates_are_ignored(self):
        preds = make_preds(
            [{"a"}, {"a", "bin"}], [{"a", "bin"}, {"a"}], predicates=("a", "bin")
        )
        full = label_metrics(preds, "micro")
        trimmed = label_metrics(preds, "micro", excluded=("bin",))
        assert trimmed.precision == 1.0
        assert full.precision < 1.0

    def test_validation(self):
        preds = make_preds([{"a"}], [{"a"}], predicates=("a",))
        with pytest.raises(EvalError, match="averaging"):
            label_metrics(preds, "median")
        with pytest.raises(EvalError, match="at least one"):
            label_metrics(preds, "micro", excluded=("a",))


class TestConsistency:
    def cut_preds(self, *sets):
        cut = diamond_cut()
        preds = PredictionSet(
            cut.nodes(),
            tuple(f"e{i}" for i in range(len(sets))),
            tuple(frozenset() for _ in sets),
            tuple(frozenset(s) for s in sets),
        )
        return preds, cut

    def test_closed_set_is_fully_consistent(self):
        preds, cut = self.cut_preds({ROOT, ALPHA, BETA, DEEP})
        assert consistency(preds, cut) == 1.0

    def test_orphan_deep_prediction_scores_zero(self):
        preds, cut = self.cut_preds({DEEP})
        assert consistency(preds, cut) == 0.0

    def test_top_level_predictions_are_always_consistent(self):
        preds, cut = self.cut_preds({ALPHA}, {ROOT, BETA})
        assert consistency(preds, cut) == 1.0

    def test_empty_prediction_counts_as_consistent(self):
        preds, cut = self.cut_preds(set())
        assert consistency(preds, cut) == 1.0

    def test_partial_parent_coverage(self):
        preds, cut = self.cut_preds({ALPHA, DEEP})
        assert consistency(preds, cut) == pytest.approx(0.75, abs=1e-15)

    def test_averages_over_examples(self):
        preds, cut = self.cut_preds({ROOT, ALPHA, BETA, DEEP}, {DEEP})
        assert consistency(preds, cut) == pytest.approx(0.5, abs=1e-15)

    def test_dropping_all_parents_strictly_lowers_the_score(self):
        closed, cut = self.cut_preds({ALPHA, BETA, DEEP})
        stripped, _ = self.cut_preds({DEEP})
        assert consistency(stripped, cut) < consistency(closed, cut)

    def test_rejects_nodes_outside_the_cut(self):
        cut = diamond_cut()
        preds = PredictionSet(
            ("GO:9999999",), ("e0",), (frozenset(),), (frozenset(("GO:9999999",)),)
        )
        with pytest.raises(EvalError, match="not part of the cut"):
            consistency(preds, cut)


class TestPRCurve:
    def test_sweep_hand_case(self):
        curve = pr_curve([0.9, 0.8, 0.7], [1, 0, 1])
        assert curve.recalls == (0.0, 0.5, 0.5, 1.0)
        assert curve.precisions == (1.0, 1.0, 0.5, 2.0 / 3.0)

    def test_tied_scores_share_a_threshold(self):
        curve = pr_curve([0.5, 0.5, 0.1], [1, 0, 1])
        assert curve.recalls == (0.0, 0.5, 1.0)
        assert curve.precisions == (0.5, 0.5, 2.0 / 3.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_threshold_loop(self, seed):
        # One threshold per distinct score, as np.unique sweeps them; ties,
        # both zeros and the unit-interval ends are common in clipped truths.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        pool = np.array([0.0, -0.0, 1.0, 0.5, 0.25, 1e-300, rng.uniform()])
        scores = np.where(rng.random(n) < 0.6, pool[rng.integers(len(pool), size=n)],
                          rng.uniform(-1.0, 2.0, n))
        labels = rng.random(n) < 0.4
        labels[rng.integers(n)] = True
        recalls, precisions = [], []
        for threshold in np.unique(scores)[::-1]:
            predicted = scores >= threshold
            tp = int(np.count_nonzero(predicted & labels))
            precisions.append(tp / int(np.count_nonzero(predicted)))
            recalls.append(tp / int(np.count_nonzero(labels)))
        curve = pr_curve(scores.tolist(), labels.astype(int).tolist())
        assert curve.recalls == (0.0, *recalls)
        assert curve.precisions == (precisions[0], *precisions)
        assert all(type(v) is float for v in curve.recalls + curve.precisions)

    def test_validation(self):
        with pytest.raises(EvalError, match="positive"):
            pr_curve([0.1, 0.2], [0, 0])
        with pytest.raises(EvalError, match="at least one example"):
            pr_curve([], [])
        with pytest.raises(EvalError, match="finite"):
            pr_curve([float("nan")], [1])
        with pytest.raises(EvalError, match="equally long"):
            pr_curve([0.1, 0.2], [1])
        with pytest.raises(EvalError, match="non-decreasing"):
            PRCurve((0.5, 0.2), (1.0, 1.0))
        with pytest.raises(EvalError, match="differ in length"):
            PRCurve((0.5,), (1.0, 0.5))
        with pytest.raises(EvalError, match="outside"):
            PRCurve((0.0, 1.5), (1.0, 1.0))

    def test_auc_triangle_and_constant(self):
        assert auc_pr(PRCurve((0.0, 1.0), (1.0, 0.0))) == pytest.approx(0.5)
        constant = PRCurve((0.0, 0.4, 1.0), (0.7, 0.7, 0.7))
        assert auc_pr(constant) == pytest.approx(0.7, abs=1e-15)


def oracle_average(curves, grid):
    """Independent per-sample interpolation, written with plain scans."""
    out = []
    for x in grid:
        total = 0.0
        for curve in curves:
            r, p = curve.recalls, curve.precisions
            if len(r) == 1:
                total += p[0]
                continue
            left = None
            for idx in range(len(r)):
                if r[idx] <= x:
                    left = idx
            right = None
            for idx in range(len(r) - 1, -1, -1):
                if r[idx] >= x:
                    right = idx
            if left is None:
                total += p[right]
            elif right is None:
                total += p[left]
            elif r[left] == r[right]:
                total += p[left]
            else:
                slope = (p[right] - p[left]) / (r[right] - r[left])
                total += p[left] + slope * (x - r[left])
        out.append(total / len(curves))
    return out


def random_curve(rng, allow_duplicates=True):
    k = int(rng.integers(2, 9))
    recalls = np.sort(rng.random(k))
    if allow_duplicates and k > 3 and rng.random() < 0.5:
        recalls[1] = recalls[2]
    precisions = rng.random(k)
    return PRCurve(tuple(float(r) for r in recalls), tuple(float(p) for p in precisions))


class TestCurveAveraging:
    def test_single_curve_is_reproduced(self):
        rng = np.random.default_rng(3)
        interior = np.sort(rng.random(6))
        recalls = (0.0, *(float(x) for x in interior), 1.0)
        precisions = tuple(float(p) for p in rng.random(8))
        curve = PRCurve(recalls, precisions)
        averaged = average_pr_curves([curve], n_samples=100)
        grid = np.linspace(0.0, 1.0, 101)
        expected = np.interp(grid, recalls, precisions)
        assert np.allclose(averaged.recalls, grid, atol=1e-15)
        assert np.allclose(averaged.precisions, expected, atol=1e-9)

    def test_two_constant_curves_average_pointwise(self):
        low = PRCurve((0.3,), (0.2,))
        high = PRCurve((0.6,), (0.8,))
        averaged = average_pr_curves([low, high], n_samples=10)
        assert averaged.precisions == tuple([0.5] * 11)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            curves = [random_curve(rng) for _ in range(3)]
            averaged = average_pr_curves(curves, n_samples=25)
            expected = oracle_average(curves, averaged.recalls)
            assert np.allclose(averaged.precisions, expected, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        curves = [random_curve(rng) for _ in range(4)]
        forward = average_pr_curves(curves)
        backward = average_pr_curves(curves[::-1])
        assert np.allclose(forward.precisions, backward.precisions, atol=1e-12)

    def test_default_grid_has_101_points(self):
        averaged = average_pr_curves([PRCurve((0.5,), (0.5,))])
        assert len(averaged) == 101
        assert averaged.recalls[1] == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(EvalError, match="at least one curve"):
            average_pr_curves([])
        with pytest.raises(EvalError, match="n_samples"):
            average_pr_curves([PRCurve((0.5,), (0.5,))], n_samples=0)


class TestFolds:
    def test_single_term_splits_evenly(self):
        proteins = ("p1", "p2", "p3", "p4")
        folds = generate_folds(
            2,
            proteins,
            ("t",),
            {p: {"t"} for p in proteins},
            {"t": set(proteins)},
        )
        assert folds == (("p1", "p3"), ("p2", "p4"))

    def test_rare_term_lands_in_distinct_folds(self):
        proteins = tuple(f"p{i}" for i in range(1, 7))
        protein_terms = {p: {"big"} for p in proteins}
        protein_terms["p5"] = {"big", "rare"}
        protein_terms["p6"] = {"big", "rare"}
        folds = generate_folds(
            3,
            proteins,
            ("big", "rare"),
            protein_terms,
            {"big": set(proteins), "rare": {"p5", "p6"}},
        )
        homes = {p: i for i, fold in enumerate(folds) for p in fold}
        assert homes["p5"] != homes["p6"]
        assert sorted(len(f) for f in folds) == [2, 2, 2]

    def test_one_fold_per_protein(self):
        proteins = ("a", "b", "c")
        folds = generate_folds(
            3, proteins, ("t",), {p: {"t"} for p in proteins}, {"t": set(proteins)}
        )
        assert sorted(len(f) for f in folds) == [1, 1, 1]

    def test_unannotated_proteins_are_swept_in(self):
        folds = generate_folds(
            2, ("a", "b", "c"), ("t",), {"a": {"t"}}, {"t": {"a"}}
        )
        assert sorted(p for fold in folds for p in fold) == ["a", "b", "c"]
        assert sorted(len(f) for f in folds) == [1, 2]

    def test_validation(self):
        with pytest.raises(EvalError, match="at least 2"):
            generate_folds(1, ("a", "b"), (), {}, {})
        with pytest.raises(EvalError, match="cannot split"):
            generate_folds(3, ("a", "b"), (), {}, {})
        with pytest.raises(EvalError, match="duplicate protein"):
            generate_folds(2, ("a", "a"), (), {}, {})
        with pytest.raises(EvalError, match="duplicate term"):
            generate_folds(2, ("a", "b"), ("t", "t"), {}, {})
        with pytest.raises(EvalError, match="unknown protein"):
            generate_folds(2, ("a", "b"), ("t",), {}, {"t": {"z"}})
        with pytest.raises(EvalError, match="disagree"):
            generate_folds(2, ("a", "b"), ("t",), {}, {"t": {"a"}})
        with pytest.raises(EvalError, match="disagree"):
            generate_folds(2, ("a", "b"), ("t",), {"b": {"t"}}, {"t": {"a"}})

    def test_randomized_invariants(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            size = int(rng.integers(5, 26))
            proteins = tuple(f"p{i:02d}" for i in range(size))
            terms = tuple(f"t{j}" for j in range(int(rng.integers(1, 7))))
            term_proteins = {
                t: {p for p in proteins if rng.random() < 0.4} for t in terms
            }
            protein_terms = {
                p: {t for t in terms if p in term_proteins[t]} for p in proteins
            }
            n = int(rng.integers(2, size + 1))
            folds = generate_folds(n, proteins, terms, protein_terms, term_proteins)
            flat = [p for fold in folds for p in fold]
            assert sorted(flat) == sorted(proteins)
            assert len(flat) == len(set(flat))
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1
            first = min(terms, key=lambda t: (len(term_proteins[t]), t))
            spread = [len(term_proteins[first] & set(fold)) for fold in folds]
            assert max(spread) - min(spread) <= 1
            again = generate_folds(n, proteins, terms, protein_terms, term_proteins)
            assert again == folds


# --- matrix metrics against the set-based reference ------------------------


def _reference_of(preds):
    return ReferencePredictionSet(
        preds.predicates, preds.examples, preds.truth_sets,
        preds.predicted_sets, preds.undecided_sets,
    )


@st.composite
def prediction_sets(draw):
    """Random sets over up to 7 predicates and 40 examples; sizes vary enough
    that the per-example ratios need rounding."""
    predicates = tuple(draw(st.permutations("abcdefg")))[: draw(st.integers(1, 7))]
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.1, 0.4, 0.8)))

    def sets():
        picks = rng.random((n, len(predicates))) < density
        return tuple(frozenset(p for p, on in zip(predicates, row) if on) for row in picks)

    return PredictionSet(predicates, tuple(f"e{i}" for i in range(n)), sets(), sets(), sets())


@settings(max_examples=200, deadline=None)
@given(prediction_sets(), st.data())
def test_metrics_are_bit_equal_to_the_set_reference(preds, data):
    excluded = data.draw(st.sets(st.sampled_from(preds.predicates)))
    for current in (preds, preds.filtered()):
        reference = _reference_of(current)
        if current is not preds:
            assert reference == _reference_of(preds).filtered()
        for predicate in current.predicates:
            assert current.confusion(predicate) == reference.confusion(predicate)
        assert example_metrics(current) == reference_example_metrics(reference)
        for average in ("micro", "macro"):
            if len(excluded) == len(current.predicates):
                with pytest.raises(EvalError, match="at least one scored"):
                    label_metrics(current, average, excluded=excluded)
                continue
            assert label_metrics(current, average, excluded=excluded) == \
                reference_label_metrics(reference, average, excluded=excluded)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_consistency_is_bit_equal_to_the_set_reference(seed):
    # Cut nodes here have at most two cut parents, so every node score is
    # a multiple of 1/2 and the reference's set-order sum is exact.  Some
    # cut nodes may have no predicate: a parent without one is never
    # predicted but still counts in its child's parent total.
    rng = np.random.default_rng(seed)
    dag = random_dag(rng, int(rng.integers(3, 25)))
    annotations = leaf_annotations(rng, dag, int(rng.integers(3, 15)))
    cut = go_cut(dag, annotations, ["biological_process"], int(rng.integers(1, 6)), 0)
    nodes = cut.nodes()
    if rng.random() < 0.5:
        nodes = tuple(n for n in nodes if rng.random() < 0.7) or nodes[-1:]
    picks = rng.random((int(rng.integers(1, 30)), len(nodes))) < rng.random()
    preds = PredictionSet(
        nodes, tuple(f"e{i}" for i in range(len(picks))),
        tuple(frozenset() for _ in picks),
        tuple(frozenset(n for n, on in zip(nodes, row) if on) for row in picks),
    )
    assert consistency(preds, cut) == reference_consistency(_reference_of(preds), cut)


def test_consistency_sums_node_scores_exactly():
    # A node with three cut parents scores a third, and a running sum of
    # 1 + 1 + 1/3 rounds differently from one of 1/3 + 1 + 1; the example's
    # scores are added with fsum instead, so node order does not matter.
    def term(tid, *parents):
        links = "".join(f"is_a: GO:000000{p}\n" for p in parents)
        return f"\n[Term]\nid: GO:000000{tid}\nnamespace: molecular_function\n{links}"

    text = DIAMOND_OBO + term(5, 1) + term(6, 2, 3, 5)
    dag = parse_obo(text.splitlines())
    cut = go_cut(dag, tpr_closure({"p": set(dag.terms)}, dag), ("molecular_function",), 3, 0)
    chosen = frozenset({ROOT, ALPHA, "GO:0000006"})
    assert 1.0 + 1.0 + 1 / 3 != 1 / 3 + 1.0 + 1.0
    expected = math.fsum([1.0, 1.0, 1 / 3]) / 3
    values = set()
    for order in (cut.nodes(), tuple(reversed(cut.nodes()))):
        preds = PredictionSet(order, ("e0",), (frozenset(),), (chosen,))
        values.add(consistency(preds, cut))
    assert values == {expected}
    assert abs(reference_consistency(_reference_of(preds), cut) - expected) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_aggregate_matches_the_set_based_reference(seed):
    rng = np.random.default_rng(seed)
    dag = random_dag(rng, int(rng.integers(3, 20)))
    annotations = leaf_annotations(rng, dag, int(rng.integers(3, 25)))
    cut = go_cut(dag, annotations, ["biological_process"], int(rng.integers(1, 5)),
                 int(rng.integers(0, 3)))
    nodes = cut.nodes()
    proteins = annotations.proteins
    rows = [
        (p, cut.predicate(node), float(rng.random()), bool(rng.random() < 0.5),
         bool(rng.random() < 0.2))
        for p in proteins for node in nodes if rng.random() < 0.9
    ]
    rng.shuffle(rows)
    data = Dataset(dag, proteins, annotations, cut, ())
    real = [n for n in nodes if not cut.is_bin(n)]
    headline = reference_build_sets(cut, rows, real, cut.predicate)
    node_level = reference_build_sets(cut, rows, nodes, lambda n: n)
    if not headline.examples:
        return
    expected = {}
    for tag, preds in (("", headline), ("filtered_", headline.filtered())):
        expected.update(zip(
            (f"{tag}example_precision", f"{tag}example_recall", f"{tag}example_f1",
             f"{tag}example_exact_match"),
            reference_example_metrics(preds),
        ))
        for average in ("micro", "macro"):
            expected.update(zip(
                (f"{tag}label_{average}_precision", f"{tag}label_{average}_recall",
                 f"{tag}label_{average}_f1"),
                reference_label_metrics(preds, average),
            ))
    expected["consistency"] = reference_consistency(node_level, cut)
    expected["filtered_consistency"] = reference_consistency(node_level.filtered(), cut)

    captured = {}
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch:
        patch.setattr(fungo_io, "write_metrics_report",
                      lambda path, metrics: captured.update(metrics))
        cli._aggregate(None, data, [cli.FoldOutcome(0, tuple(rows), ())], out)
        with open(os.path.join(out, "per_node.tsv")) as handle:
            per_node = handle.read().splitlines()
    captured.pop("auc_average", None)
    assert captured == expected
    for line, node in zip(per_node[1:], nodes):
        tp, fp, fn, _ = node_level.confusion(node)
        assert line == "\t".join((
            node,
            f"{tp / (tp + fp) if tp + fp else 0.0:.6f}",
            f"{tp / (tp + fn) if tp + fn else 0.0:.6f}",
            f"{2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0:.6f}",
        ))
    assert len(per_node) == len(nodes) + 1


def test_prediction_set_views_round_trip():
    preds = PredictionSet(("a", "b"), ("e0", "e1"), (frozenset("a"), frozenset()),
                          (frozenset("ab"), frozenset("b")))
    assert preds.truth_sets == (frozenset("a"), frozenset())
    assert preds.predicted_sets == (frozenset("ab"), frozenset("b"))
    assert preds.undecided_sets == (frozenset(), frozenset())
    assert preds.truth.tolist() == [[True, False], [False, False]]
    with pytest.raises(ValueError):
        preds.truth[0, 0] = False
    same = PredictionSet.from_matrices(preds.predicates, preds.examples, preds.truth,
                                       preds.predicted, preds.undecided)
    assert same.predicted_sets == preds.predicted_sets
    with pytest.raises(EvalError, match="shape"):
        PredictionSet.from_matrices(("a",), ("e0",), preds.truth, preds.predicted,
                                    preds.undecided)
    with pytest.raises(EvalError, match="duplicate predicate"):
        PredictionSet.from_matrices(("a", "a"), ("e0", "e1"), preds.truth,
                                    preds.predicted, preds.undecided)
