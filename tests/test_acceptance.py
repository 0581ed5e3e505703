"""Acceptance gate: nine independent checks with frozen tolerances.

One test per check, so ``pytest -v tests/test_acceptance.py`` prints one
pass/fail line each.  Every test also asserts its own runtime budget.
"""

from __future__ import annotations

import time

import numpy as np

from fungo.cli import main as cli_main
from fungo.evaluation import (
    average_pr_curves,
    consistency,
    example_metrics,
    generate_folds,
    label_metrics,
    pr_curve,
)
from fungo.kernels import (
    PSD_TOL,
    GramMatrix,
    diffusion_kernel,
    domain_gram,
    expression_gram,
    psd_check,
    spectrum_gram,
)
from fungo.learner import (
    Model,
    TaskSpec,
    TrainConfig,
    predicate_bindings,
    train,
)
from fungo.logic import TNORMS, PredicateBinding, compile_constraint
from fungo.ontology import (
    PROTEIN_DOMAIN,
    OntologyError,
    generate_oc_rules,
    go_cut,
    tpr_closure,
)
from hierarchy_fixture import read_metrics, write_config, write_dataset
from rule_text import parse_rule
from support import (
    compiled_for,
    dense_penalty_and_gradients,
    fd_penalty_gradients,
    gradient_close,
    nonsmooth_margin,
    objective,
    objective_gradient,
    prediction_set,
    read_as,
    smooth_instance,
    spectrum_kernel,
    weight_rows,
)
from test_ontology import leaf_annotations, random_dag


def _truth(tnorm: str, text: str, implication: str = "residuum", **outputs: float) -> float:
    """Body truth of a one-grounding rule: for a single forall grounding the
    aggregated penalty is exactly 1 - truth."""
    formula = read_as(parse_rule(text), implication)
    bindings = {
        name: PredicateBinding(name, 1, {"e": 0})
        for name in formula.predicates()
    }
    compiled = compile_constraint(formula, tnorm, {"D": ("e",)}, bindings)
    vectors = {name: np.array([value], dtype=np.float64) for name, value in outputs.items()}
    return 1.0 - compiled.penalty(vectors)


def test_truth_endpoints_and_residuum_grid():
    start = time.perf_counter()
    endpoint_cases = [
        ("forall x:D. A(x) and B(x)", lambda a, b: float(a and b)),
        ("forall x:D. A(x) or B(x)", lambda a, b: float(a or b)),
        ("forall x:D. A(x) => B(x)", lambda a, b: float((not a) or b)),
        ("forall x:D. A(x) <=> B(x)", lambda a, b: float(a == b)),
    ]
    for tnorm in TNORMS:
        for text, classical in endpoint_cases:
            for implication in ("residuum", "material"):
                for a in (0.0, 1.0):
                    for b in (0.0, 1.0):
                        got = _truth(tnorm, text, implication, A=a, B=b)
                        assert got == classical(a, b), (tnorm, text, implication, a, b)
        for a in (0.0, 1.0):
            assert _truth(tnorm, "forall x:D. not A(x)", A=a) == 1.0 - a

    def residuum_oracle(tnorm, a, b):
        if a <= b:
            return 1.0
        if tnorm == "minimum":
            return b
        if tnorm == "product":
            return b / a
        return 1.0 - a + b

    grid = np.linspace(0.0, 1.0, 21)
    for tnorm in TNORMS:
        for a in grid:
            for b in grid:
                got = _truth(tnorm, "forall x:D. A(x) => B(x)", A=a, B=b)
                assert abs(got - residuum_oracle(tnorm, a, b)) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_quantifier_reduction_identities():
    # forall reduces to the plain sum of its groundings' penalties, and a
    # guarded pair rule to the sum over the pairs that its guard holds: at
    # every other grounding the guard reads 0 and the residuum is exactly 1.
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    one = parse_rule("forall x:D. P(x)")
    pair = parse_rule("forall x:D. forall y:D. G(x,y) => (P(x) <=> P(y))")
    for i in range(300):
        n = 2 + i % 7
        ids = tuple(f"e{k}" for k in range(n))
        pairs = [(a, b) for a in ids for b in ids if a < b and rng.random() < 0.5]
        bindings = {
            "P": PredicateBinding("P", 1, {e: k for k, e in enumerate(ids)}),
            "G": PredicateBinding("G", 2, {p: k for k, p in enumerate(pairs)}),
        }
        outputs = {"P": rng.random(n), "G": rng.random(len(pairs))}
        tnorm = TNORMS[i % len(TNORMS)]
        assert (compile_constraint(one, tnorm, {"D": ids}, bindings).penalty(outputs)
                == np.sum(1.0 - outputs["P"]))
        guarded = compile_constraint(pair, tnorm, {"D": ids}, bindings)
        dense, _ = dense_penalty_and_gradients(guarded, outputs)
        assert abs(guarded.penalty(outputs) - dense) <= 1e-12 * max(1.0, dense)
    assert time.perf_counter() - start < 1.0


def _smooth_objective_instance(rng):
    """Random two-task training problem whose evaluation point keeps every
    score at least 1e-3 inside (0, 1) and every constraint the same margin
    from a subgradient boundary."""
    while True:
        n = int(rng.integers(3, 7))
        ids = tuple(f"p{i}" for i in range(n))
        basis = rng.normal(size=(n, n))
        gram = GramMatrix(ids, basis @ basis.T / n + 0.2 * np.eye(n))
        labels = np.full((2, n), np.nan)
        for row in labels:  # A, then B
            for i in range(n):
                if rng.random() < 0.8:
                    row[i] = float(rng.integers(0, 2))
        tasks = [TaskSpec(("A", "B"), 1, ids, gram=gram, labels=labels)]
        tnorm = TNORMS[int(rng.integers(len(TNORMS)))]
        constraint = compile_constraint(
            parse_rule(f"forall x:{PROTEIN_DOMAIN}. A(x) => B(x)"),
            tnorm,
            {PROTEIN_DOMAIN: ids},
            predicate_bindings(tasks),
        )
        config = TrainConfig(
            lambda_r=float(rng.uniform(0.2, 2.0)),
            lambda_c=float(rng.uniform(0.2, 2.0)),
            tnorm=tnorm,
        )
        model = Model((rng.normal(scale=0.25, size=(2, n)),))
        scores = dict(zip(("A", "B"), (gram.matrix @ a for a in model.weights[0])))
        margin = min(
            min(float(np.abs(s).min()), float(np.abs(1.0 - s).min()))
            for s in scores.values()
        )
        clamped = {name: np.clip(s, 0.0, 1.0) for name, s in scores.items()}
        if margin > 1e-3 and nonsmooth_margin(constraint, clamped) > 1e-3:
            return model, tasks, [constraint], config


def test_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    for i in range(120):
        tnorm = TNORMS[i % 3]
        implication = ("residuum", "material")[i % 2]
        constraint, outputs = smooth_instance(rng, tnorm, implication)
        _, analytic = constraint.penalty_and_gradients(outputs)
        numeric = fd_penalty_gradients(constraint, outputs)
        assert gradient_close(analytic, numeric, rtol=1e-5)
    for _ in range(80):
        model, tasks, constraints, config = _smooth_objective_instance(rng)
        analytic = weight_rows(tasks, objective_gradient(model, tasks, constraints, config))
        numeric = {}
        h = 1e-6
        (base,) = model.weights
        for k, name in enumerate(analytic):
            grad = np.zeros(base.shape[1])
            for j in range(grad.size):
                plus = base.copy()
                minus = base.copy()
                plus[k, j] += h
                minus[k, j] -= h
                grad[j] = (
                    objective(Model((plus,)), tasks, constraints, config)
                    - objective(Model((minus,)), tasks, constraints, config)
                ) / (2.0 * h)
            numeric[name] = grad
        assert gradient_close(analytic, numeric, rtol=1e-5)
    assert time.perf_counter() - start < 10.0


def test_unconstrained_training_reaches_ridge_solution():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        ids = tuple(f"p{i}" for i in range(n))
        basis = rng.normal(size=(n, n))
        gram = GramMatrix(ids, basis @ basis.T / n + 0.05 * np.eye(n))
        y = rng.integers(0, 2, size=n).astype(float)
        task = TaskSpec(("A",), 1, ids, gram=gram, labels=[y])
        config = TrainConfig(
            lambda_r=float(rng.uniform(0.5, 2.0)),
            lambda_c=0.0,
            tolerance=1e-14,
            max_iterations=3000,
        )
        model = train([task], compiled_for([task]), config)
        expected = np.linalg.solve(config.lambda_r * np.eye(n) + gram.matrix, y)
        scale = max(1.0, float(np.linalg.norm(expected)))
        assert float(np.linalg.norm(model.weights[0][0] - expected)) / scale < 1e-4
    assert time.perf_counter() - start < 5.0


def _naive_kmer_match_count(s1: str, s2: str, k: int) -> int:
    return sum(
        1
        for i in range(len(s1) - k + 1)
        for j in range(len(s2) - k + 1)
        if s1[i : i + k] == s2[j : j + k]
    )


def test_kernel_oracles_and_psd():
    start = time.perf_counter()
    rng = np.random.default_rng(50)
    alphabet = "ACDEF"

    def random_sequence(max_len=25):
        length = int(rng.integers(0, max_len + 1))
        return "".join(alphabet[int(c)] for c in rng.integers(0, len(alphabet), size=length))

    for _ in range(500):
        k = int(rng.integers(1, 5))
        s1, s2 = random_sequence(), random_sequence()
        assert spectrum_kernel(s1, s2, k) == float(_naive_kmer_match_count(s1, s2, k))

    vertices = tuple(f"v{i}" for i in range(6))
    edges = []
    for i in range(6):
        for j in range(i + 1, 6):
            if rng.random() < 0.5:
                edges.append((vertices[i], vertices[j], float(rng.uniform(0.2, 2.0))))
    identity = diffusion_kernel(vertices, edges, beta=0.0)
    assert np.allclose(identity.matrix, np.eye(6), atol=1e-10)

    for beta in (0.1, 0.7, 1.3):
        decay = np.exp(-2.0 * beta)
        expected = 0.5 * np.array([[1.0 + decay, 1.0 - decay], [1.0 - decay, 1.0 + decay]])
        pair = diffusion_kernel(("a", "b"), (("a", "b", 1.0),), beta)
        assert np.allclose(pair.matrix, expected, atol=1e-10)

    ids = tuple(f"p{i}" for i in range(10))
    sequences = {p: random_sequence() or "ACD" for p in ids}
    profiles = {p: rng.normal(size=5) for p in ids}
    domains = {p: {f"d{int(d)}" for d in rng.integers(0, 8, size=rng.integers(0, 5))} for p in ids}
    built = (
        spectrum_gram(sequences, ids, k=2),
        diffusion_kernel(vertices, edges, beta=1.0),
        expression_gram(ids, np.array([profiles[p] for p in ids]), ids),
        domain_gram(domains, ids),
    )
    assert PSD_TOL == 1e-8
    for gram in built:
        ok, smallest = psd_check(gram.matrix)
        assert ok, smallest
    assert time.perf_counter() - start < 10.0


def test_cut_rules_and_bins_on_random_dags():
    start = time.perf_counter()
    rng = np.random.default_rng(60)
    checked_bins = 0
    for _ in range(40):
        dag = random_dag(rng, int(rng.integers(5, 31)))
        annotations = leaf_annotations(rng, dag, int(rng.integers(6, 25)))
        level = int(rng.integers(0, 5))
        count = int(rng.integers(0, 4))
        try:
            cut = go_cut(dag, annotations, ["biological_process"], level, count)
        except OntologyError:
            continue

        # Brute force the membership rule from raw parts: BFS levels from the
        # root plus closed protein counts.
        levels = {}
        frontier = [t for t in dag.terms if not dag.parents(t)]
        for t in frontier:
            levels[t] = 0
        while frontier:
            nxt = []
            for t in frontier:
                for child in dag.children(t):
                    if child not in levels:
                        levels[child] = levels[t] + 1
                        nxt.append(child)
            frontier = nxt
        counts = {t: 0 for t in dag.terms}
        for protein in annotations.proteins:
            for term in annotations.terms_of(protein):
                counts[term] += 1
        expected = {
            t for t in dag.terms if levels[t] <= level and counts[t] >= count
        }
        assert set(cut.retained) == expected

        rules = generate_oc_rules(cut)
        upward = sum(len(cut.par(node)) for node in cut.nodes())
        downward = sum(1 for t in cut.retained if cut.chil(t))
        assert len(rules) == upward + downward

        # With leaf-anchored closed annotations, every cut parent's protein
        # set is exactly the union over its cut children once the bin node
        # carries what pruning removed.
        for bin_id, parent in cut.bins.items():
            union = frozenset().union(*(cut.proteins(c) for c in cut.chil(parent)))
            assert union == cut.proteins(parent)
            assert cut.proteins(bin_id) <= cut.proteins(parent)
            checked_bins += 1
    assert checked_bins > 0
    assert time.perf_counter() - start < 5.0


def test_consistency_rises_with_constraint_weight(tmp_path):
    start = time.perf_counter()
    root = str(tmp_path)
    write_dataset(root)
    observed = []
    for label, lam in (("w0", 0.0), ("w10", 10.0), ("w1000", 1000.0)):
        config = write_config(root, label, lambda_c=lam)
        assert cli_main(["run", "--config", config]) == 0
        observed.append(read_metrics(f"{root}/{label}/metrics.txt")["consistency"])
    assert observed[0] <= observed[1] <= observed[2], observed
    assert observed[2] >= 0.95, observed
    assert time.perf_counter() - start < 60.0


def test_metric_and_fold_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(80)
    for _ in range(1000):
        n_proteins = int(rng.integers(2, 11))
        proteins = tuple(f"p{i}" for i in range(n_proteins))
        n_terms = int(rng.integers(1, 6))
        terms = tuple(f"t{i}" for i in range(n_terms))
        protein_terms = {
            p: tuple(t for t in terms if rng.random() < 0.5) for p in proteins
        }
        term_proteins = {t: tuple(p for p in proteins if t in protein_terms[p]) for t in terms}
        n_folds = int(rng.integers(2, min(4, n_proteins) + 1))
        folds = generate_folds(n_folds, proteins, terms, term_proteins)
        flat = [p for fold in folds for p in fold]
        assert sorted(flat) == sorted(proteins)
        assert len(flat) == len(set(flat))
        sizes = [len(fold) for fold in folds]
        assert max(sizes) - min(sizes) <= 1

    preds = prediction_set(
        predicates=("a", "b"),
        examples=("e1", "e2", "e3"),
        truth_sets=(frozenset({"a"}), frozenset({"a", "b"}), frozenset()),
        predicted_sets=(frozenset({"a", "b"}), frozenset({"b"}), frozenset()),
    )
    em = example_metrics(preds)
    assert em.precision == (1 / 2 + 1 / 1 + 0.0) / 3
    assert em.recall == (1 / 1 + 1 / 2 + 0.0) / 3
    assert em.f1 == (2 * 1 / 3 + 2 * 1 / 3 + 1.0) / 3
    assert em.exact_match == 1 / 3
    micro = label_metrics(preds, average="micro")
    assert micro.precision == 2 / 3  # tp=2 fp=1 pooled over both labels
    assert micro.recall == 2 / 3
    assert micro.f1 == 2 / 3
    macro = label_metrics(preds, average="macro")
    assert macro.precision == (1.0 + 1 / 2) / 2
    assert macro.recall == (1 / 2 + 1 / 1) / 2

    dag = random_dag(np.random.default_rng(81), 12)
    annotations = leaf_annotations(np.random.default_rng(82), dag, 10)
    cut = go_cut(dag, annotations, ["biological_process"], 4, 0)
    nodes = cut.nodes()
    closed = prediction_set(
        predicates=nodes,
        examples=tuple(annotations.proteins),
        truth_sets=tuple(
            frozenset(n for n in nodes if p in cut.proteins(n))
            for p in annotations.proteins
        ),
        predicted_sets=tuple(
            frozenset(n for n in nodes if p in cut.proteins(n))
            for p in annotations.proteins
        ),
    )
    assert consistency(closed, cut) == 1.0

    scores = np.random.default_rng(83).random(40)
    curve = pr_curve(scores, scores > 0.45)
    averaged = average_pr_curves([curve])
    assert len(averaged) == 101
    for recall, precision in zip(averaged.recalls, averaged.precisions):
        expected = float(np.interp(recall, curve.recalls, curve.precisions))
        assert abs(precision - expected) <= 1e-9
    assert time.perf_counter() - start < 5.0


def test_repeated_runs_are_byte_identical(tmp_path):
    start = time.perf_counter()
    root = str(tmp_path)
    write_dataset(root)
    reports = []
    for label in ("first", "second"):
        config = write_config(root, label, lambda_c=10.0)
        assert cli_main(["run", "--config", config]) == 0
        with open(f"{root}/{label}/metrics.txt", "rb") as fh:
            reports.append(fh.read())
    assert reports[0] == reports[1]
    assert time.perf_counter() - start < 120.0
