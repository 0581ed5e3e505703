"""Learner: objective arithmetic, ridge oracle, gradients, stages, prediction."""

import dataclasses
import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import hierarchy_fixture
from rule_text import parse_rule
from support import (
    FORMULA_POOL,
    IMPLICATIONS,
    alpha_gradient_descend,
    compiled_for,
    functional_gradient,
    given_binding,
    nonsmooth_margin,
    objective,
    objective_gradient,
    read_as,
    reference_descend,
    reference_train,
    weight_rows,
)

from fungo import cli, learner
from fungo.io import read_config
from fungo.kernels import GramMatrix
from fungo.learner import (
    LearnerError,
    Model,
    TaskSpec,
    TrainConfig,
    TrainTrace,
    pair_key,
    predicate_bindings,
    predict,
    train,
)
from fungo.logic import TNORMS, CompileError, PredicateBinding, compile_constraint


def gram(ids, matrix):
    return GramMatrix(tuple(ids), np.asarray(matrix, dtype=np.float64))


def row(ids, labels):
    """One label row over ``ids``: the given 0/1 labels, NaN elsewhere."""
    return [float(labels[e]) if e in labels else np.nan for e in ids]


def identity_task(pred, n, labels=None):
    ids = tuple(f"p{i}" for i in range(n))
    return TaskSpec((pred,), 1, ids, gram=gram(ids, np.eye(n)), labels=[row(ids, labels or {})])


def truths_of(model, tasks):
    """Each predicate's clamped ``G @ alpha``, computed directly."""
    return {
        p: np.clip(t.gram.matrix @ a, 0.0, 1.0)
        for t, block in zip(tasks, model.weights) for p, a in zip(t.predicates, block)
    }


def given_bound(rng, pairs):
    """BOUND given over a random two thirds of ``pairs``, as rules see it."""
    draws = rng.choice([0.0, 0.5, 1.0], size=len(pairs))
    return {"BOUND": given_binding("BOUND", 2, [p for p, v in zip(pairs, draws) if v])}


def random_pd_gram(rng, ids):
    # Random symmetric PD matrix with eigenvalues in [0.5, 2].
    n = len(ids)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eig = rng.uniform(0.5, 2.0, size=n)
    m = (q * eig) @ q.T
    return gram(ids, (m + m.T) / 2.0)


def test_objective_frozen_values():
    cfg = TrainConfig(lambda_r=1.0, lambda_c=0.0)
    task = identity_task("A", 1, labels={"p0": 1.0})
    model = Model((np.array([[0.5]]),))
    assert objective(model, [task], [], cfg) == pytest.approx(0.5)

    zero = Model((np.array([[0.0]]),))
    assert objective(zero, [task], [], cfg) == pytest.approx(1.0)

    unlabeled = identity_task("A", 1)
    assert objective(zero, [unlabeled], [], cfg) == 0.0


def test_predict_against_matvec():
    rng = np.random.default_rng(0)
    ids = tuple(f"p{i}" for i in range(6))
    task = TaskSpec(("A",), 1, ids, gram=random_pd_gram(rng, ids))
    alpha = rng.normal(size=6)
    truths = predict(alpha[None, :], task, TrainConfig())[0][:, 0]
    brute = np.array([sum(task.gram.matrix[i, j] * alpha[j] for j in range(6)) for i in range(6)])
    assert np.allclose(truths, np.clip(brute, 0.0, 1.0), atol=1e-12)
    assert 0 < ((brute > 0.0) & (brute < 1.0)).sum() < 6  # both sides of the clamp
    assert truths.min() >= 0.0 and truths.max() <= 1.0

    ztruths = predict(np.zeros((1, 6)), task, TrainConfig())[0]
    assert not ztruths.any()

    f = predict(np.full((1, 4), 0.5), identity_task("B", 4), TrainConfig())[0][:, 0]
    assert np.array_equal(f, np.full(4, 0.5))


def test_predict_size_mismatch():
    task = identity_task("A", 3)
    with pytest.raises(LearnerError, match="shape"):
        predict(np.zeros((1, 2)), task, TrainConfig())


@pytest.mark.parametrize("seed", range(8))
def test_stage1_matches_ridge_closed_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    ids = tuple(f"p{i}" for i in range(n))
    g = random_pd_gram(rng, ids)
    y = rng.integers(0, 2, size=n).astype(float)
    task = TaskSpec(("A",), 1, ids, gram=g, labels=[y])
    cfg = TrainConfig(lambda_r=1.0, lambda_c=0.0, tolerance=1e-14, max_iterations=3000)
    model = train([task], compiled_for([task]), cfg)
    expected = np.linalg.solve(cfg.lambda_r * np.eye(n) + g.matrix, y)
    scale = max(1.0, float(np.linalg.norm(expected)))
    assert np.linalg.norm(model.weights[0][0] - expected) / scale < 1e-4


def test_stage1_trace_is_non_increasing():
    rng = np.random.default_rng(3)
    ids = tuple(f"p{i}" for i in range(6))
    task = TaskSpec(
        ("A",), 1, ids, gram=random_pd_gram(rng, ids), labels=[row(ids, {ids[0]: 1.0, ids[3]: 0.0})]
    )
    model = train([task], compiled_for([task]), TrainConfig(lambda_c=0.0))
    trace = model.trace.stage1
    assert len(trace) == 2  # the objective at zero, then at the minimiser
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert model.trace.stage2 == ()


def _constrained_problem(lambda_c, *, scope_all=True, seed=7):
    rng = np.random.default_rng(seed)
    ids = tuple(f"p{i}" for i in range(6))
    coupling = gram(ids, 0.5 * np.eye(6) + 0.5 / 6.0)
    # The labelled child C and the unlabelled parent P, one block.
    labels = [row(ids, {ids[0]: 1.0, ids[1]: 1.0, ids[2]: 1.0}), row(ids, {})]
    tasks = [TaskSpec(("C", "P"), 1, ids, gram=coupling, labels=labels)]
    domain = list(ids) if scope_all else list(ids[3:])
    rule = parse_rule("forall x:Prot. C(x) => P(x)")
    constraint = compile_constraint(
        rule, "minimum", {"Prot": domain}, predicate_bindings(tasks)
    )
    cfg = TrainConfig(lambda_r=1.0, lambda_c=lambda_c, max_iterations=800)
    return tasks, [constraint], cfg


def test_constraint_pushes_parent_above_child():
    tasks, constraints, cfg = _constrained_problem(50.0, scope_all=False)
    model = train(tasks, compiled_for(tasks, constraints), cfg)
    child_truth, parent_truth = predict(model.weights[0], tasks[0], cfg)[0].T
    # Unsupervised tail: the implication must hold there after training.
    assert (parent_truth[3:] >= child_truth[3:] - 5e-3).all()
    assert model.trace.stage2, "constraint stage should have run"

    # Without constraints the parent stays at zero.
    bare = train(tasks, compiled_for(tasks), cfg)
    bare_parent = predict(bare.weights[0], tasks[0], cfg)[0][:, 1]
    assert not bare_parent.any()


def test_lambda_c_zero_is_bitwise_inert():
    tasks, constraints, _ = _constrained_problem(0.0)
    cfg = TrainConfig(lambda_r=1.0, lambda_c=0.0)
    with_rules = train(tasks, compiled_for(tasks, constraints), cfg)
    without = train(tasks, compiled_for(tasks), cfg)
    assert with_rules.trace == without.trace
    assert np.array_equal(with_rules.weights[0], without.weights[0])


def test_full_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 6:
        tasks, constraints, cfg = _constrained_problem(2.0, seed=int(rng.integers(1 << 30)))
        (block,) = tasks
        weights = rng.normal(scale=0.35, size=(len(block.predicates), block.size))
        model = Model((weights,))
        # Keep probes away from clamp and constraint kinks.
        margin_ok = True
        for a in weights:
            s = block.gram.matrix @ a
            if np.min(np.abs(s)) < 1e-3 or np.min(np.abs(s - 1.0)) < 1e-3:
                margin_ok = False
        if not margin_ok or nonsmooth_margin(constraints[0], truths_of(model, tasks)) < 1e-3:
            continue
        checked += 1
        (grads,) = objective_gradient(model, tasks, constraints, cfg)
        h = 1e-6
        for k, analytic in enumerate(grads):
            for i in range(block.size):
                up = weights.copy()
                up[k, i] += h
                j_up = objective(Model((up,)), tasks, constraints, cfg)
                down = weights.copy()
                down[k, i] -= h
                j_down = objective(Model((down,)), tasks, constraints, cfg)
                numeric = (j_up - j_down) / (2 * h)
                scale = max(1.0, abs(numeric), abs(analytic[i]))
                assert abs(numeric - analytic[i]) / scale < 1e-5


def _ridge_minimiser(task, lambda_r):
    """The exact stage-1 minimiser: ``a_U = 0`` and ``a_L = (G_LL + lambda_r*I)^-1
    y_L`` per predicate, L its labeled examples."""
    weights = np.zeros((len(task.predicates), task.size))
    for a, y in zip(weights, task.labels):
        labeled = ~np.isnan(y)
        g_ll = task.gram.matrix[np.ix_(labeled, labeled)]
        a[labeled] = np.linalg.solve(g_ll + lambda_r * np.eye(int(labeled.sum())), y[labeled])
    return weights


def _partly_labeled_problem(seed):
    """Three predicates on a seeded PSD Gram (eigenvalues from 0.05 up to
    about 4), each labeled on about 60% of the examples."""
    rng = np.random.default_rng(seed)
    n = 30
    ids = tuple(f"p{i}" for i in range(n))
    basis = rng.normal(size=(n, n))
    matrix = basis @ basis.T / n + 0.05 * np.eye(n)
    labels = np.where(rng.random((3, n)) < 0.6, rng.integers(0, 2, (3, n)), np.nan)
    return TaskSpec(("A", "B", "C"), 1, ids, gram=gram(ids, (matrix + matrix.T) / 2.0),
                    labels=labels)


def _hierarchy_fold_task(root):
    """Fold 0's spec of the hierarchy fixture, as ``fungo run`` trains it."""
    hierarchy_fixture.write_dataset(root)
    config = cli.parse_experiment_config(
        read_config(hierarchy_fixture.write_config(root, "out")), root)
    data = cli.load_dataset(config)
    # The run's spec, labelled by every known label; the fold hides its own.
    predicates = tuple(data.cut.predicate(node) for node in data.cut.nodes())
    run = TaskSpec(predicates, 1, data.proteins, gram=cli.build_gram(config, data.proteins),
                   labels=data.membership.T)
    held = np.isin(data.proteins, cli.dataset_folds(config, data)[0])
    task = TaskSpec(run.predicates, run.arity, run.examples, gram=run.gram,
                    labels=np.where(held, np.nan, run.labels))
    return task, config.train


# The closed form against np.linalg.solve on each row's own labeled block.
RIDGE_WEIGHTS_RTOL = 1e-9


@pytest.mark.parametrize("problem", ("psd-0", "psd-1", "psd-2", "psd-3", "hierarchy"))
def test_stage1_reaches_the_ridge_minimiser_in_fewer_steps(problem, tmp_path, monkeypatch):
    if problem == "hierarchy":
        # Every row of a fold's spec shares one label mask.
        task, cfg = _hierarchy_fold_task(str(tmp_path))
        cfg = dataclasses.replace(cfg, lambda_c=0.0)
    else:
        # Each row has its own mask.
        task = _partly_labeled_problem(int(problem[4:]))
        cfg = TrainConfig(lambda_c=0.0)
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: factored.append(m.shape) or cholesky(m))
    model = train([task], compiled_for([task]), cfg)
    monkeypatch.undo()
    labeled = ~np.isnan(task.labels)
    assert len(factored) == len(np.unique(labeled, axis=0)) == (1 if problem == "hierarchy" else 3)
    expected = _ridge_minimiser(task, cfg.lambda_r)
    (weights,) = model.weights
    assert np.abs(weights - expected).max() <= RIDGE_WEIGHTS_RTOL * max(1.0, np.abs(expected).max())
    # The unlabeled examples keep a = 0 exactly.
    assert not weights[~labeled].any()
    # The trace holds the objective at zero and at the minimiser.
    start, best = model.trace.stage1
    assert start == objective(Model((np.zeros_like(weights),)), [task], [], cfg)
    assert best == objective(model, [task], [], cfg)
    # The descents it replaces take more steps and end no lower.
    ws = learner._Workspace([task], compiled_for([task]), cfg)
    for descend in (reference_descend, alpha_gradient_descend):
        trace, _ = descend(ws, [np.zeros_like(weights)], 0.0, "stage 1")
        assert len(trace) > len(model.trace.stage1)
        assert trace[-1] >= best * (1.0 - 1e-12)


def _stop_reasons(records):
    """Stage -> (stop reason, last accepted step) from the DEBUG lines."""
    return {stage: (reason, last)
            for stage, (reason, _, last, *_) in _stage_lines(records).items()}


def _infos(records):
    return [r.getMessage() for r in records
            if r.name == "fungo.learner" and r.levelno >= logging.INFO]


def _pulled_problem():
    """B labeled 0 on every example and a rule that pulls it towards 1: under
    the Lukasiewicz t-norm stage 2 converges to a smooth compromise."""
    ids = tuple(f"p{i}" for i in range(4))
    tasks = [TaskSpec(("A", "B"), 1, ids, gram=random_pd_gram(np.random.default_rng(2), ids),
                      labels=[row(ids, dict.fromkeys(ids, 1.0)), row(ids, dict.fromkeys(ids, 0.0))])]
    rule = parse_rule("forall x:P. B(x)")
    constraint = compile_constraint(rule, "lukasiewicz", {"P": list(ids)}, predicate_bindings(tasks))
    return tasks, [constraint], TrainConfig(lambda_c=0.5, tnorm="lukasiewicz")


def test_a_converged_stage_stops_by_tolerance(caplog):
    tasks, constraints, cfg = _pulled_problem()
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, constraints), cfg)
    assert _stop_reasons(caplog.records).keys() == {"stage 2"}
    (reason, last), = _stop_reasons(caplog.records).values()
    assert reason == "tolerance" and 0.0 < last <= 1.0
    assert len(model.trace.stage2) - 1 < cfg.max_iterations
    assert _infos(caplog.records) == []


def test_a_stalled_stage_is_reported(caplog):
    # The minimum t-norm's residuum jumps where C(x) = P(x): the line search
    # shrinks its step to nothing there, while the slope stays steep.
    tasks, constraints, cfg = _constrained_problem(2.0)
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, constraints), cfg)
    (reason, last), = _stop_reasons(caplog.records).values()
    assert reason == "stalled" and 0.0 < last < 1e-9
    trace = model.trace.stage2
    assert len(trace) - 1 < cfg.max_iterations
    assert abs(trace[-1] - trace[-2]) < cfg.tolerance * max(1.0, abs(trace[-2]))
    assert _infos(caplog.records) == []


def test_a_capped_stage_logs_one_info_line(caplog):
    tasks, constraints, _ = _constrained_problem(2.0)
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, constraints),
                      TrainConfig(lambda_c=2.0, max_iterations=3))
    assert len(model.trace.stage1) == 2 and len(model.trace.stage2) == 4
    (reason, last), = _stop_reasons(caplog.records).values()
    assert reason == "max_iterations" and last > 0.0
    (info,) = _infos(caplog.records)
    assert info.startswith("stage 2: stopped at max_iterations = 3")


def test_an_exhausted_line_search_stops_the_stage(monkeypatch, caplog):
    monkeypatch.setattr(learner, "MAX_HALVINGS", 2)
    tasks, constraints, _ = _constrained_problem(2.0)
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        # Steps of 1e6 and 5e5 both overshoot by far.
        model = train(tasks, compiled_for(tasks, constraints),
                      TrainConfig(lambda_c=2.0, learning_rate=1e6))
    assert len(model.trace.stage2) == 1
    assert _stop_reasons(caplog.records) == {"stage 2": ("line search exhausted", 0.0)}
    (message,) = _infos(caplog.records)
    assert "found no descent step in 2 halvings" in message


def test_no_descent_direction_stops_the_stage(caplog):
    # G = diag(1, -eps) passes psd_check, and the rule pulls A(p1) up along
    # the negative direction: <D, D @ G> = -eps, so -D climbs.  An Armijo
    # bound of current - c*t*<D, D @ G> would accept that climb.
    eps = 1e-9
    ids = ("p0", "p1")
    tasks = [TaskSpec(("A",), 1, ids, gram=gram(ids, np.diag([1.0, -eps])))]
    rule = parse_rule("forall x:P. A(x)")
    constraint = compile_constraint(rule, "lukasiewicz", {"P": ["p1"]}, predicate_bindings(tasks))
    cfg = TrainConfig(lambda_c=1.0, tnorm="lukasiewicz")
    (d,) = functional_gradient(Model((np.zeros((1, 2)),)), tasks, [constraint], cfg)
    assert float(np.vdot(d, d @ tasks[0].gram.matrix)) == pytest.approx(-eps, rel=1e-12)
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, [constraint]), cfg)
    assert model.trace == TrainTrace((0.0, 0.0), (1.0,))
    assert _stop_reasons(caplog.records) == {"stage 2": ("no descent direction", 0.0)}
    # A zero gradient is no descent direction either: nothing is labeled,
    # and A(x) => B(x) holds at zero truths.
    ids = ("p0", "p1", "p2")
    tasks = [TaskSpec(("A", "B"), 1, ids, gram=gram(ids, np.eye(3)))]
    rule = parse_rule("forall x:P. A(x) => B(x)")
    constraint = compile_constraint(rule, "minimum", {"P": list(ids)}, predicate_bindings(tasks))
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, [constraint]), TrainConfig(lambda_c=1.0))
    assert model.trace == TrainTrace((0.0, 0.0), (0.0,))
    assert _stop_reasons(caplog.records) == {"stage 2": ("no descent direction", 0.0)}
    assert _infos(caplog.records) == []


def test_exhausted_line_search_is_logged(monkeypatch, caplog):
    monkeypatch.setattr(learner, "MAX_HALVINGS", 0)
    tasks, constraints, _ = _constrained_problem(2.0)
    with caplog.at_level(logging.WARNING, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, constraints), TrainConfig(lambda_c=2.0))
    (start,) = model.trace.stage2
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "stage 2" in warnings[0]
    assert "iteration 0" in warnings[0]
    assert f"objective {start:.17g})" in warnings[0]


def test_an_exact_tie_exhausts_the_minimum_line_search(caplog):
    # Stage 1 leaves P and C exactly 0 on both proteins, and R => P pushes P
    # up.  The minimum residuum of P => C is 1 at P = C and C = 0 for P > C,
    # so it jumps at the tie: every step up, however small, adds a whole
    # violation.  Product reads an antecedent below PRODUCT_GUARD as
    # satisfied and Lukasiewicz's residuum is continuous, so neither is stuck
    # at the start.
    ids = ("v", "w")
    labels = [row(ids, {"v": 1.0}), row(ids, {"v": 0.0}), row(ids, {"v": 0.0})]
    tasks = [TaskSpec(("R", "P", "C"), 1, ids, gram=gram(ids, [[1.0, 0.5], [0.5, 1.0]]),
                      labels=labels)]
    texts = ("forall x:P. R(x) => P(x)", "forall x:P. P(x) => C(x)")
    stops = {}
    for tnorm in TNORMS:
        constraints = [compile_constraint(parse_rule(t), tnorm, {"P": list(ids)},
                                          predicate_bindings(tasks)) for t in texts]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
            model = train(tasks, compiled_for(tasks, constraints), TrainConfig(tnorm=tnorm))
        stops[tnorm] = _stop_reasons(caplog.records)["stage 2"], model.trace.stage2
        if tnorm == "minimum":  # stage 2 kept the stage-1 weights
            truths = truths_of(model, tasks)
            assert truths["P"].tolist() == truths["C"].tolist() == [0.0, 0.0]
            assert truths["R"].min() > 0.0
    assert stops["minimum"][0] == ("line search exhausted", 0.0)
    assert len(stops["minimum"][1]) == 1
    (reason, last), trace = stops["product"]
    assert reason == "stalled" and 0.0 < last < 1e-12 and len(trace) == 2
    (reason, last), trace = stops["lukasiewicz"]
    assert last > 0.0 and len(trace) > 5 and trace[-1] < trace[0] - 0.25


def test_lambda_r_must_be_positive():
    # At lambda_r = 0 the labeled block G_LL may be singular.
    for lambda_r in (0.0, -0.0, -1.0, float("nan")):
        with pytest.raises(LearnerError, match="lambda_r must be positive"):
            TrainConfig(lambda_r=lambda_r)


@pytest.mark.parametrize("key", ["lambda_c", "learning_rate", "tolerance", "undecided_band"])
def test_train_config_rejects_nan(key):
    # nan > 0 is false: a NaN lambda_c would skip stage 2 without a word.
    with pytest.raises(LearnerError, match=f"{key.replace('_', '.')}.*got nan"):
        TrainConfig(**{key: float("nan")})


def test_a_non_finite_start_of_stage_2_is_an_error():
    # Six violated groundings at lambda_c = 1e308 overflow the objective.
    tasks, constraints, cfg = _constrained_problem(1e308)
    with pytest.raises(LearnerError, match=r"stage 2: the objective at its start is "
                                           r"not finite \(inf\)"):
        train(tasks, compiled_for(tasks, constraints), cfg)


def test_a_failed_factorisation_names_the_task():
    # diag(1, -eps) passes psd_check, but with a tiny lambda_r the labeled
    # block of p1 stays negative: no Cholesky factor exists.
    ids = ("p0", "p1")
    task = TaskSpec(("Z", "A"), 1, ids, gram=gram(ids, np.diag([1.0, -1e-9])),
                    labels=[row(ids, {"p1": 1.0}), row(ids, {})])
    with pytest.raises(LearnerError, match="task 'Z'.*not positive definite"):
        train([task], compiled_for([task]), TrainConfig(lambda_r=1e-12))
    # The same block with a larger lambda_r solves.
    (weights,) = train([task], compiled_for([task]), TrainConfig(lambda_r=1e-3)).weights
    assert weights[0, 1] == pytest.approx(1.0 / (1e-3 - 1e-9), rel=1e-12)


def _rule_problem(rng, tnorm, implication, bound_mode):
    """Five unary tasks, BOUND given or learned and every FORMULA_POOL rule
    over them."""
    ids = tuple(f"p{i}" for i in range(5))
    tasks = [
        TaskSpec((name,), 1, ids, gram=random_pd_gram(rng, ids),
                 labels=[row(ids, {ids[0]: 1.0, ids[1]: 0.0})])
        for name in "ABCDE"
    ]
    pairs = tuple((a, b) for a in ids for b in ids if a < b and rng.random() < 0.5)
    fixed = {}
    if bound_mode == "given":
        fixed = given_bound(rng, pairs)
    else:
        pair_gram = random_pd_gram(rng, tuple(pair_key(pair) for pair in pairs))
        tasks.append(TaskSpec(("BOUND",), 2, pairs, gram=pair_gram))
    bindings = {**predicate_bindings(tasks), **fixed}
    constraints = [
        compile_constraint(read_as(parse_rule(text), implication), tnorm, {"P": list(ids)},
                           bindings)
        for text in FORMULA_POOL
    ]
    return tasks, constraints, Model(tuple(rng.normal(scale=0.4, size=(1, t.size)) for t in tasks))


@pytest.mark.parametrize("bound_mode", ("given", "learned"))
@pytest.mark.parametrize("implication", IMPLICATIONS)
@pytest.mark.parametrize("tnorm", TNORMS)
def test_objective_matches_the_per_rule_sum(tnorm, implication, bound_mode):
    rng = np.random.default_rng(17)
    tasks, constraints, model = _rule_problem(rng, tnorm, implication, bound_mode)
    cfg = TrainConfig(lambda_c=0.7, tnorm=tnorm)
    outputs = truths_of(model, tasks)

    value = objective(model, tasks, [], cfg)
    dtruth = {t.predicates[0]: np.zeros(t.size) for t in tasks}
    for constraint in constraints:
        phi, partials = constraint.penalty_and_gradients(outputs)
        value += cfg.lambda_c * phi
        for pred, grad in partials.items():
            dtruth[pred] += grad
    assert objective(model, tasks, constraints, cfg) == pytest.approx(value, rel=1e-12, abs=0.0)

    bare = weight_rows(tasks, objective_gradient(model, tasks, [], cfg))
    grads = weight_rows(tasks, objective_gradient(model, tasks, constraints, cfg))
    bare_d = weight_rows(tasks, functional_gradient(model, tasks, [], cfg))
    grads_d = weight_rows(tasks, functional_gradient(model, tasks, constraints, cfg))
    for task, (a,) in zip(tasks, model.weights):
        (p,) = task.predicates
        scores = task.gram.matrix @ a
        inside = (scores >= 0.0) & (scores <= 1.0)
        expected = bare[p] + cfg.lambda_c * (
            task.gram.matrix @ np.where(inside, dtruth[p], 0.0)
        )
        tol = 1e-12 * max(1.0, float(np.abs(expected).max()))
        assert np.abs(grads[p] - expected).max() <= tol, p
        # In the scores the rule part adds without a product with G.
        expected = bare_d[p] + cfg.lambda_c * np.where(inside, dtruth[p], 0.0)
        tol = 1e-12 * max(1.0, float(np.abs(expected).max()))
        assert np.abs(grads_d[p] - expected).max() <= tol, p


def _stacked_problem(rng, tnorm, bound_mode):
    """Specs over four Gram matrices: A, B and the rule-free F share one, C
    and D share another with different labeled sets, and the unlabeled E has
    its own; BOUND is a given table or a learned pair spec with its own Gram."""
    ids = tuple(f"p{i}" for i in range(6))
    shared, other, own = (random_pd_gram(rng, ids) for _ in range(3))
    tasks = [
        TaskSpec(("A", "B", "F"), 1, ids, gram=shared, labels=[
            row(ids, {ids[0]: 1.0, ids[1]: 0.0}),
            row(ids, {ids[1]: 1.0, ids[4]: 1.0, ids[5]: 0.0}),
            row(ids, {ids[5]: 1.0}),
        ]),
        TaskSpec(("C", "D"), 1, ids, gram=other, labels=[
            row(ids, {ids[2]: 1.0}), row(ids, {ids[0]: 0.0, ids[3]: 1.0}),
        ]),
        TaskSpec(("E",), 1, ids, gram=own),
    ]
    pairs = tuple((a, b) for a in ids for b in ids if a < b and rng.random() < 0.5)
    fixed = {}
    if bound_mode == "given":
        fixed = given_bound(rng, pairs)
    else:
        pair_gram = random_pd_gram(rng, tuple(pair_key(pair) for pair in pairs))
        tasks.append(TaskSpec(("BOUND",), 2, pairs, gram=pair_gram))
    bindings = {**predicate_bindings(tasks), **fixed}
    constraints = [
        compile_constraint(parse_rule(text), tnorm, {"P": list(ids)}, bindings)
        for text in FORMULA_POOL
    ]
    names = ["A", "C", "B", "E", "D", "F"] + (["BOUND"] if bound_mode == "learned" else [])
    alphas = {p: rng.normal(scale=0.4, size=len(pairs) if p == "BOUND" else 6) for p in names}
    return tasks, constraints, Model(tuple(np.array([alphas[p] for p in t.predicates])
                                           for t in tasks))


def _per_task_evaluate(tasks, constraints, config, alphas, lambda_c):
    """Reference objective and gradient: one product with G per task and term,
    and the per-rule penalties and gradients summed rule by rule."""
    learned = [(t, k, p) for t in tasks for k, p in enumerate(t.predicates)]
    scores = {p: t.gram.matrix @ alphas[p] for t, _, p in learned}
    total = 0.0
    grads = {}
    for task, k, p in learned:
        s = scores[p]
        total += config.lambda_r * float(alphas[p] @ s)
        grads[p] = config.lambda_r * 2.0 * s
        idx = np.flatnonzero(~np.isnan(task.labels[k]))
        if idx.size:
            residual = s[idx] - task.labels[k][idx]
            total += float(residual @ residual)
            full = np.zeros_like(s)
            full[idx] = residual
            grads[p] = grads[p] + 2.0 * (task.gram.matrix @ full)
    if lambda_c and constraints:
        outputs = {p: np.clip(s, 0.0, 1.0) for p, s in scores.items()}
        dtruth = {p: np.zeros_like(s) for p, s in scores.items()}
        for constraint in constraints:
            phi, partials = constraint.penalty_and_gradients(outputs)
            total += lambda_c * phi
            for p, grad in partials.items():
                dtruth[p] += grad
        for task, _, p in learned:
            s = scores[p]
            inside = (s >= 0.0) & (s <= 1.0)
            dscore = np.where(inside, dtruth[p], 0.0)
            grads[p] = grads[p] + lambda_c * (task.gram.matrix @ dscore)
    return total, grads


@pytest.mark.parametrize("bound_mode", ("given", "learned"))
@pytest.mark.parametrize("tnorm", TNORMS)
def test_stacked_objective_matches_the_per_task_loop(tnorm, bound_mode):
    rng = np.random.default_rng(23)
    tasks, constraints, model = _stacked_problem(rng, tnorm, bound_mode)
    blocks = learner._Workspace(tasks, compiled_for(tasks, constraints), TrainConfig()).blocks
    assert [b.predicates for b in blocks] == [t.predicates for t in tasks]
    assert len(blocks) == (4 if bound_mode == "learned" else 3)
    for lambda_c in (0.0, 0.7):
        cfg = TrainConfig(lambda_r=0.3, lambda_c=lambda_c, tnorm=tnorm)
        for rules in ([], constraints):
            alphas = weight_rows(tasks, model.weights)
            value, grads = _per_task_evaluate(tasks, rules, cfg, alphas, lambda_c)
            assert objective(model, tasks, rules, cfg) == pytest.approx(value, rel=1e-12, abs=0.0)
            stacked = objective_gradient(model, tasks, rules, cfg)
            assert [g.shape for g in stacked] == [w.shape for w in model.weights]
            stacked = weight_rows(tasks, stacked)
            for pred, expected in grads.items():
                tol = 1e-12 * max(1.0, float(np.abs(expected).max()))
                assert np.abs(stacked[pred] - expected).max() <= tol, pred


def test_trace_ends_at_the_objective_of_the_returned_weights():
    # Trial steps are scored as S - t * (D @ G); the value the trace keeps
    # must match a fresh evaluation at the weights that step produced.
    rng = np.random.default_rng(29)
    tasks, constraints, _ = _stacked_problem(rng, "lukasiewicz", "learned")
    common = dict(lambda_r=0.3, tnorm="lukasiewicz", max_iterations=40)
    bare_cfg = TrainConfig(lambda_c=0.0, **common)
    bare = train(tasks, compiled_for(tasks, constraints), bare_cfg)
    assert len(bare.trace.stage1) == 2 and bare.trace.stage2 == ()
    assert bare.trace.stage1[-1] == pytest.approx(
        objective(bare, tasks, constraints, bare_cfg), rel=1e-12, abs=0.0
    )
    cfg = TrainConfig(lambda_c=0.7, **common)
    model = train(tasks, compiled_for(tasks, constraints), cfg)
    assert len(model.trace.stage2) > 2
    assert model.trace.stage2[-1] == pytest.approx(
        objective(model, tasks, constraints, cfg), rel=1e-12, abs=0.0
    )


class _CountingGram(np.ndarray):
    """Gram matrix that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingGram.products += 1
        def plain(arrays):
            return tuple(x.view(np.ndarray) if isinstance(x, _CountingGram) else x for x in arrays)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


def _stage_lines(records):
    """The per-stage DEBUG lines of _descend, by stage: the stop reason, the
    accepted steps, the last accepted step, the trials and those that reached
    the rule set."""
    return {
        r.msg.partition(":")[0]: r.args for r in records
        if r.levelno == logging.DEBUG and "accepted steps" in r.msg
    }


def _stage_counts(records):
    """Steps, trials, reached the rule set."""
    return {stage: (steps, *counts)
            for stage, (_, steps, _, *counts) in _stage_lines(records).items()}


def test_each_accepted_step_costs_two_products_per_gram(monkeypatch, caplog):
    rng = np.random.default_rng(31)
    tasks, constraints, _ = _stacked_problem(rng, "lukasiewicz", "learned")
    counting = {}
    for task in tasks:
        if id(task.gram) not in counting:
            counting[id(task.gram)] = GramMatrix(task.gram.ids, task.gram.matrix.view(_CountingGram))
    tasks = [
        TaskSpec(t.predicates, t.arity, t.examples, gram=counting[id(t.gram)], labels=t.labels)
        for t in tasks
    ]
    monkeypatch.setattr(_CountingGram, "products", 0)
    # A large first step forces halvings, so trials outnumber accepted steps.
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, constraints),
                      TrainConfig(tnorm="lukasiewicz", learning_rate=8.0, max_iterations=6))
    steps = len(model.trace.stage2) - 1
    assert steps == 6
    # Every step taken was accepted: the stage did not stop for want of one.
    assert _stop_reasons(caplog.records).keys() == {"stage 2"}
    ((steps_logged, trials, _),) = _stage_counts(caplog.records).values()
    assert steps_logged == steps and trials > steps
    # Stage 1 takes one product per block, for the minimiser's scores, and
    # stage 2 starts from those scores.
    assert _CountingGram.products == len(counting) * 2 * steps


def test_each_line_search_starts_at_twice_the_last_step(monkeypatch):
    searches = []
    evaluate = learner._Workspace.evaluate

    def spy(ws, weights, scores, lambda_c, with_gradient, bound=None):
        value, grads = evaluate(ws, weights, scores, lambda_c, with_gradient, bound)
        if with_gradient:  # a new search from ``weights`` along ``-grads``
            searches.append((weights, grads, []))
        elif bound is not None:  # one of its trials, ``weights = at - t * along``
            at, along, steps = searches[-1]
            t = sum(float(np.vdot(a - w, d)) for a, w, d in zip(at, weights, along)) / sum(
                float(np.vdot(d, d)) for d in along)
            # Every trial step is 8 * 2**-j.
            power = 2.0 ** round(math.log2(t))
            assert t == pytest.approx(power, rel=1e-6)
            steps.append(power)
        return value, grads

    monkeypatch.setattr(learner._Workspace, "evaluate", spy)
    rng = np.random.default_rng(29)
    tasks, constraints, _ = _stacked_problem(rng, "lukasiewicz", "given")
    cfg = TrainConfig(lambda_c=0.7, tnorm="lukasiewicz", learning_rate=8.0, max_iterations=12)
    model = train(tasks, compiled_for(tasks, constraints), cfg)
    searches = [steps for _, _, steps in searches]
    assert len(searches) == len(model.trace.stage2) - 1 == 12
    assert searches[0][0] == 8.0
    for before, after in zip(searches, searches[1:]):
        # Every search ended at its last trial, the accepted step.
        assert after[0] == min(8.0, 2.0 * before[-1])
    assert any(s[0] < 8.0 for s in searches) and any(len(s) == 1 for s in searches)


def test_descent_logs_where_its_trials_were_decided(caplog):
    rng = np.random.default_rng(37)
    tasks, constraints, _ = _stacked_problem(rng, "lukasiewicz", "given")
    with caplog.at_level(logging.DEBUG, logger="fungo.learner"):
        model = train(tasks, compiled_for(tasks, constraints),
                      TrainConfig(learning_rate=8.0, max_iterations=20))
    counts = _stage_counts(caplog.records)
    assert set(counts) == {"stage 2"}
    steps, trials, reached = counts["stage 2"]
    assert steps == len(model.trace.stage2) - 1
    # Every accepted trial reaches the rule set; some rejected ones are
    # decided by their ridge and label part alone.
    assert steps <= reached < trials


def _random_problem(rng, tnorm, bound_mode, n_rules):
    """Unary predicates over one to three Gram matrices with random labeled
    sets, one spec per Gram; BOUND given or learned and ``n_rules`` rules
    drawn from FORMULA_POOL."""
    n = int(rng.integers(3, 7))
    ids = tuple(f"p{i}" for i in range(n))
    grams = [random_pd_gram(rng, ids) for _ in range(int(rng.integers(1, 4)))]
    by_gram = {}
    for name in "ABCDE":
        labeled = [e for e in ids if rng.random() < 0.4]
        labels = row(ids, {e: float(rng.integers(2)) for e in labeled})
        by_gram.setdefault(int(rng.integers(len(grams))), []).append((name, labels))
    tasks = [
        TaskSpec(tuple(name for name, _ in group), 1, ids, gram=grams[g],
                 labels=[labels for _, labels in group])
        for g, group in by_gram.items()
    ]
    pairs = tuple((a, b) for a in ids for b in ids if a < b and rng.random() < 0.5) or ((ids[0], ids[1]),)
    fixed = {}
    if bound_mode == "given":
        fixed = given_bound(rng, pairs)
    else:
        pair_gram = random_pd_gram(rng, tuple(pair_key(pair) for pair in pairs))
        tasks.append(TaskSpec(("BOUND",), 2, pairs, gram=pair_gram,
                              labels=[row(pairs, {pairs[0]: 1.0})]))
    bindings = {**predicate_bindings(tasks), **fixed}
    texts = [FORMULA_POOL[i] for i in rng.permutation(len(FORMULA_POOL))[:n_rules]]
    constraints = [
        compile_constraint(parse_rule(text), tnorm, {"P": list(ids)}, bindings) for text in texts
    ]
    return tasks, constraints


def _train_with_warnings(trainer, tasks, constraints, cfg):
    warnings = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings.append(record.getMessage())
    logger = logging.getLogger("fungo.learner")
    logger.addHandler(handler)
    try:
        return trainer(tasks, compiled_for(tasks, constraints), cfg), warnings
    finally:
        logger.removeHandler(handler)


def _bits(model):
    return (
        np.array(model.trace.stage1).tobytes(),
        np.array(model.trace.stage2).tobytes(),
        [a.tobytes() for a in model.weights],
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tnorm=st.sampled_from(TNORMS),
    bound_mode=st.sampled_from(("given", "learned")),
    n_rules=st.sampled_from((0, 3, len(FORMULA_POOL))),
    lambda_r=st.sampled_from((0.01, 0.3, 1.0)),
    lambda_c=st.sampled_from((0.0, 0.7, 5.0)),
    learning_rate=st.sampled_from((0.25, 1.0, 8.0, 1e3)),
    max_halvings=st.sampled_from((60, 2)),
)
def test_line_search_matches_the_full_evaluation_reference(
    seed, tnorm, bound_mode, n_rules, lambda_r, lambda_c, learning_rate, max_halvings,
):
    rng = np.random.default_rng(seed)
    tasks, constraints = _random_problem(rng, tnorm, bound_mode, n_rules)
    cfg = TrainConfig(
        lambda_r=lambda_r, lambda_c=lambda_c, tnorm=tnorm, learning_rate=learning_rate,
        max_iterations=8,
    )
    with mock.patch.object(learner, "MAX_HALVINGS", max_halvings):
        got, got_warnings = _train_with_warnings(train, tasks, constraints, cfg)
        want, want_warnings = _train_with_warnings(reference_train, tasks, constraints, cfg)
    assert got_warnings == want_warnings
    assert _bits(got) == _bits(want)


def test_psd_check_runs_once_per_gram(monkeypatch):
    rng = np.random.default_rng(43)
    ids = tuple(f"p{i}" for i in range(5))
    shared = random_pd_gram(rng, ids)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    # Two specs on the one Gram, in three runs.
    for labels in ({"p0": 1.0}, {"p1": 1.0}, {"p2": 0.0}):
        tasks = [TaskSpec((p,), 1, ids, gram=shared, labels=[row(ids, labels)]) for p in "AB"]
        train(tasks, compiled_for(tasks), TrainConfig(max_iterations=2))
    assert len(calls) == 1
    # The error still names the first task of each run that uses the Gram.
    bad = gram(("p0", "p1"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    for first in "XY":
        tasks = [TaskSpec((p,), 1, ("p0", "p1"), gram=bad) for p in (first, "Z")]
        with pytest.raises(LearnerError, match=f"task '{first}' is not positive"):
            train(tasks, compiled_for(tasks), TrainConfig())
    assert len(calls) == 2


def test_given_bound_flows_into_unary_predicate():
    ids = ("p0", "p1", "p2")
    task_a = TaskSpec(("A",), 1, ids, gram=gram(ids, np.eye(3)), labels=[row(ids, {"p0": 1.0})])
    tasks = [task_a]
    bindings = {**predicate_bindings(tasks),
                "BOUND": PredicateBinding("BOUND", 2, {("p0", "p1"): 0}, given=True)}
    rule = parse_rule("forall x:Prot. forall y:Prot. BOUND(x,y) => (A(x) <=> A(y))")
    constraint = compile_constraint(rule, "product", {"Prot": list(ids)}, bindings)
    cfg = TrainConfig(lambda_r=0.1, lambda_c=30.0, max_iterations=600)
    model = train(tasks, compiled_for(tasks, [constraint]), cfg)
    truths = predict(model.weights[0], task_a, cfg)[0][:, 0]
    bare = train(tasks, compiled_for(tasks), cfg)
    bare_truths = predict(bare.weights[0], task_a, cfg)[0][:, 0]
    # p1 interacts with the positively-labeled p0, so its truth is pulled up.
    assert truths[1] > bare_truths[1] + 0.1
    assert abs(truths[2] - bare_truths[2]) < 0.05
    # The given pair truths never train.
    assert [w.shape for w in model.weights] == [(1, 3)]


def test_predict_threshold_conventions():
    cfg = TrainConfig(threshold=0.5, undecided_band=0.05)
    ids = ("p0", "p1", "p2", "p3")
    truth_values = np.array([0.5, 0.525, 0.475, 0.9])
    task = TaskSpec(("A",), 1, ids, gram=gram(ids, np.eye(4)))
    truths, positive, undecided = predict(truth_values[None, :], task, cfg)
    assert truths.shape == positive.shape == undecided.shape == (4, 1)
    assert positive[:, 0].tolist() == [True, True, False, True]
    assert undecided[:, 0].tolist() == [True, True, True, False]


def test_predict_stacks_each_predicates_own_matvec():
    rng = np.random.default_rng(3)
    ids = tuple(f"p{i}" for i in range(7))
    root = rng.normal(size=(7, 7))
    shared = gram(ids, root @ root.T)
    task = TaskSpec(("A", "B", "C"), 1, ids, gram=shared)
    model = Model((rng.normal(size=(3, 7)),))
    truths, positive, undecided = predict(model.weights[0], task, TrainConfig())
    direct = truths_of(model, [task])
    for k, p in enumerate(task.predicates):
        assert truths[:, k].tobytes() == direct[p].tobytes()
    assert np.array_equal(positive, truths >= 0.5)
    with pytest.raises(LearnerError, match=r"shape \(2, 7\), expected \(3, 7\)"):
        predict(model.weights[0][:2], task, TrainConfig())


def test_task_validation():
    ids = ("p0", "p1")
    eye = gram(ids, np.eye(2))
    with pytest.raises(LearnerError, match="non-empty tuple"):
        TaskSpec("A", 1, ids, gram=eye)
    with pytest.raises(LearnerError, match="non-empty tuple"):
        TaskSpec((), 1, ids, gram=eye)
    with pytest.raises(LearnerError, match="Gram"):
        TaskSpec(("A",), 1, ids)
    for labels in ([[1.0, 0.0, 1.0]], [1.0, 0.0], [[1.0, 0.0]] * 2):
        with pytest.raises(LearnerError, match=r"labels have shape .*, expected \(1, 2\)"):
            TaskSpec(("A",), 1, ids, gram=eye, labels=labels)
    for value in (0.5, -1.0, float("inf")):
        with pytest.raises(LearnerError, match="0, 1 or NaN"):
            TaskSpec(("A",), 1, ids, gram=eye, labels=[[np.nan, value]])
    with pytest.raises(LearnerError, match="ids do not match"):
        TaskSpec(("A",), 1, ids, gram=gram(("x", "y"), np.eye(2)))


def test_task_labels_are_a_read_only_copy():
    ids = ("p0", "p1", "p2")
    source = np.array([[1.0, np.nan, 0.0], [np.nan, np.nan, 1.0]])
    task = TaskSpec(("A", "B"), 1, ids, gram=gram(ids, np.eye(3)), labels=source)
    source[:] = 0.0
    assert np.array_equal(task.labels, [[1.0, np.nan, 0.0], [np.nan, np.nan, 1.0]], equal_nan=True)
    assert task.labels.dtype == np.float64 and not task.labels.flags.writeable
    with pytest.raises(ValueError):
        task.labels[0, 0] = 0.0
    # No labels: every entry unsupervised.
    bare = TaskSpec(("A", "B"), 1, ids, gram=gram(ids, np.eye(3)))
    assert bare.labels.shape == (2, 3) and np.isnan(bare.labels).all()


def test_train_validation():
    cfg = TrainConfig()
    with pytest.raises(LearnerError, match="at least one task"):
        train([], [], cfg)
    bad = TaskSpec(
        ("A",), 1, ("p0", "p1"), gram=gram(("p0", "p1"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    )
    with pytest.raises(LearnerError, match="positive semi-definite"):
        train([bad], compiled_for([bad]), cfg)
    # A predicate in two specs, or twice in one.
    ids = ("p0", "p1")
    for tasks in ([TaskSpec(("A",), 1, ids, gram=gram(ids, np.eye(2))),
                   TaskSpec(("B", "A"), 1, ids, gram=gram(ids, np.eye(2)))],
                  [TaskSpec(("A", "A"), 1, ids, gram=gram(ids, np.eye(2)))]):
        with pytest.raises(LearnerError, match="duplicate task predicate 'A'"):
            train(tasks, compiled_for(tasks), cfg)
        with pytest.raises(LearnerError, match="duplicate task predicate 'A'"):
            predicate_bindings(tasks)
    with pytest.raises(LearnerError):
        TrainConfig(lambda_r=-1.0)
    with pytest.raises(LearnerError):
        TrainConfig(threshold=1.5)
    with pytest.raises(LearnerError):
        TrainConfig(constraint_scope="sometimes")


def test_train_rejects_rules_that_do_not_fit_the_tasks():
    cfg = TrainConfig()
    ids = ("p0", "p1", "p2")
    tasks = [TaskSpec(("A", "B"), 1, ids, gram=gram(ids, np.eye(3)))]
    rule = parse_rule("forall x:P. A(x) => C(x)")
    # C is learned in the bindings but no task trains it.
    bindings = predicate_bindings(tasks + [TaskSpec(("C",), 1, ids, gram=gram(ids, np.eye(3)))])
    untrained = compile_constraint(rule, "product", {"P": list(ids)}, bindings)
    with pytest.raises(CompileError, match=r"A\(x\) => C\(x\).*unknown learned predicate 'C'"):
        train(tasks, compiled_for(tasks, [untrained]), cfg)
    # Compiled for four examples of B; the task trains three.
    more = ids + ("p3",)
    bindings = predicate_bindings([TaskSpec(("A", "B"), 1, more, gram=gram(more, np.eye(4)))])
    rule = parse_rule("forall x:P. A(x) => B(x)")
    resized = compile_constraint(rule, "product", {"P": list(more)}, bindings)
    with pytest.raises(CompileError, match=r"A\(x\) => B\(x\).*compiled for 4 outputs of 'A'"):
        train(tasks, compiled_for(tasks, [resized]), cfg)
    # A rule set laid out for other blocks: B before A.
    swapped = [TaskSpec(("B", "A"), 1, ids, gram=gram(ids, np.eye(3)))]
    with pytest.raises(LearnerError, match=r"rule set reads blocks \(\(\('B', 'A'\), 3\),\)"):
        train(tasks, compiled_for(swapped), cfg)


def test_bindings_share_one_index_map_per_spec():
    ids = ("p0", "p1", "p2")
    pairs = (("p0", "p1"), ("p2", "p0"))
    bindings = predicate_bindings([
        TaskSpec(("A", "B"), 1, ids, gram=gram(ids, np.eye(3))),
        TaskSpec(("BOUND",), 2, pairs, gram=gram(("p0|p1", "p2|p0"), np.eye(2))),
    ])
    assert bindings["A"].index is bindings["B"].index
    assert bindings["A"].index == {"p0": 0, "p1": 1, "p2": 2}
    assert bindings["BOUND"].index == {pairs[0]: 0, pairs[1]: 1}
    assert (bindings["BOUND"].arity, bindings["BOUND"].given) == (2, False)
    assert not any(b.given for b in bindings.values())


def test_pair_key():
    assert pair_key(("a", "b")) == "a|b"
