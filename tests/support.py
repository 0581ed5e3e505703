"""Shared helpers for the test suite: random constraint instances, a
central finite-difference oracle for penalty gradients and the reference
descent that evaluates every line-search trial in full."""

from __future__ import annotations

import logging
import re

import numpy as np

from fungo import learner
from fungo.logic import PredicateBinding, compile_constraint, parse_rule

# A representative mix of rule shapes: implications, disjunction heads,
# equivalences, negation, two-variable bodies, existentials.
FORMULA_POOL = [
    "forall x:P. A(x) => B(x)",
    "forall x:P. A(x) and B(x) => C(x)",
    "forall x:P. A(x) => B(x) or C(x) or D(x)",
    "forall x:P. not (A(x) and not B(x)) or C(x)",
    "forall x:P. (A(x) <=> B(x)) <=> C(x)",
    "exists x:P. A(x) and not B(x)",
    "exists[2] x:P. A(x) => B(x)",
    "forall x:P. forall y:P. BOUND(x,y) => (A(x) <=> A(y))",
    "forall x:P. forall y:P. BOUND(x,y) => (A(x) and A(y)) or (B(x) and B(y))",
    "forall x:P. exists y:P. BOUND(x,y) and A(y)",
]


def random_instance(rng, tnorm, implication="residuum", formula_text=None):
    """A compiled constraint over a small random domain plus matching outputs."""
    text = formula_text or FORMULA_POOL[rng.integers(len(FORMULA_POOL))]
    formula = parse_rule(text)
    n = int(rng.integers(3, 6))
    ids = [f"p{i}" for i in range(n)]
    positions = {p: i for i, p in enumerate(ids)}

    predicates = {}
    outputs = {}
    for name, arity in formula.predicates().items():
        if arity == 1:
            predicates[name] = PredicateBinding(name, 1, positions=dict(positions))
            outputs[name] = rng.uniform(0.05, 0.95, size=n)
        else:
            pairs = [
                (ids[i], ids[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            pair_positions = {pair: k for k, pair in enumerate(pairs)}
            predicates[name] = PredicateBinding(
                name, 2, pair_positions=pair_positions
            )
            outputs[name] = rng.uniform(0.05, 0.95, size=len(pairs))

    constraint = compile_constraint(
        formula, tnorm, {"P": ids}, predicates, implication=implication
    )
    return constraint, outputs


# The guarded pair rules of FORMULA_POOL: the rule set grounds them only
# where BOUND can be non-zero.
GUARDED_PREFIX = "forall x:P. forall y:P. BOUND(x,y) =>"

UNARY_NAMES = ("A", "B", "C", "D", "E")


def random_rule_set(rng, texts, tnorm, implication, bound_mode):
    """Compiled rules for ``texts`` over one shared domain and shared
    bindings, plus matching outputs.

    Each rule's unary predicates are renamed at random (collisions allowed),
    so one template recurs over different predicates.  BOUND is either a
    given table with some zero entries or a learned predicate with absent
    pairs; pairs may be listed in both orders.
    """
    n = int(rng.integers(3, 7))
    ids = [f"p{i}" for i in range(n)]
    positions = {p: i for i, p in enumerate(ids)}
    predicates = {name: PredicateBinding(name, 1, positions=positions) for name in UNARY_NAMES}
    outputs = {name: rng.uniform(0.05, 0.95, size=n) for name in UNARY_NAMES}
    pairs = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.4]
    if bound_mode == "given":
        choices = (0.0, 1.0, None)
        table = {}
        for pair in pairs:
            value = choices[rng.integers(3)]
            table[pair] = rng.uniform(0.05, 0.95) if value is None else value
        predicates["BOUND"] = PredicateBinding("BOUND", 2, mode="given", table=table)
    else:
        pair_positions = {pair: k for k, pair in enumerate(pairs)}
        predicates["BOUND"] = PredicateBinding("BOUND", 2, pair_positions=pair_positions)
        outputs["BOUND"] = rng.uniform(0.05, 0.95, size=len(pairs))
    constraints = []
    for text in texts:
        renamed = dict(zip("ABCD", rng.choice(UNARY_NAMES, size=4)))
        text = re.sub(r"\b([A-D])\(", lambda m: renamed[m.group(1)] + "(", text)
        constraints.append(
            compile_constraint(
                parse_rule(text), tnorm, {"P": ids}, predicates, implication=implication
            )
        )
    return constraints, outputs


def stack_outputs(rng, outputs):
    """Truth blocks for per-predicate ``outputs``: the unary predicates in one
    block, in a random row order, and a learned BOUND in a block of its own.

    Returns the rule-set layout, the blocks and each predicate's
    ``(block, row)``.
    """
    unary = [p for p in outputs if p != "BOUND"]
    groups = [[unary[i] for i in rng.permutation(len(unary))]]
    if "BOUND" in outputs:
        groups.append(["BOUND"])
    layout = [(preds, outputs[preds[0]].size) for preds in groups]
    truths = [np.array([outputs[p] for p in preds]) for preds in groups]
    where = {p: (b, k) for b, preds in enumerate(groups) for k, p in enumerate(preds)}
    return layout, truths, where


def smooth_instance(rng, tnorm, implication="residuum", margin=1e-3, tries=200):
    """Like random_instance, but resampled until the evaluation point sits at
    least ``margin`` away from every subgradient boundary."""
    for _ in range(tries):
        constraint, outputs = random_instance(rng, tnorm, implication)
        if constraint.nonsmooth_margin(outputs) > margin:
            return constraint, outputs
    raise AssertionError("could not sample a smooth evaluation point")


def fd_penalty_gradients(constraint, outputs, h=1e-6):
    """Central finite differences of the constraint penalty."""
    grads = {}
    for name, vec in outputs.items():
        if constraint.modes.get(name) != "learned":
            continue
        g = np.zeros_like(vec)
        for i in range(vec.size):
            left = dict(outputs)
            right = dict(outputs)
            lv = vec.copy()
            rv = vec.copy()
            lv[i] -= h
            rv[i] += h
            left[name] = lv
            right[name] = rv
            g[i] = (constraint.penalty(right) - constraint.penalty(left)) / (2.0 * h)
        grads[name] = g
    return grads


def gradient_close(analytic, numeric, rtol=1e-5):
    """Relative agreement with an absolute floor of 1 for tiny gradients."""
    for name, g in analytic.items():
        f = numeric[name]
        scale = np.maximum(1.0, np.maximum(np.abs(g), np.abs(f)))
        if not np.all(np.abs(g - f) <= rtol * scale):
            return False
    return True


def reference_descend(ws, weights, lambda_c, stage):
    """``learner._descend`` with every trial built and evaluated in full,
    rules included: the oracle for the scalar and early rejections."""
    config = ws.config
    scores = ws.scores(weights)
    current, grads = ws.evaluate(weights, scores, lambda_c, True)
    if not np.isfinite(current):
        raise learner.DivergenceError(stage, 0, current)
    history = [current]
    growth = 0
    for iteration in range(config.max_iterations):
        if iteration:
            scores = ws.scores(weights)
            _, grads = ws.evaluate(weights, scores, lambda_c, True)
        norm2 = sum(float(np.vdot(d, d)) for d in grads)
        if norm2 == 0.0:
            break
        moves = ws.scores(grads)
        step = config.learning_rate
        # The fixed-step mode takes its one trial whatever its value.
        for _ in range(learner.MAX_HALVINGS if config.line_search else 1):
            trial = [a - step * d for a, d in zip(weights, grads)]
            moved = [s - step * m for s, m in zip(scores, moves)]
            value, _ = ws.evaluate(trial, moved, lambda_c, False)
            if not config.line_search or value <= current - learner.ARMIJO * step * norm2:
                break
            step *= 0.5
        else:
            logging.getLogger("fungo.learner").warning(
                "%s: line search found no descent step in %d halvings at "
                "iteration %d (objective %.17g); stopping",
                stage, learner.MAX_HALVINGS, iteration, current,
            )
            break
        weights = trial
        if not config.line_search:
            if not np.isfinite(value):
                raise learner.DivergenceError(stage, iteration + 1, value)
            if value > current:
                growth += 1
                if growth >= config.divergence_patience:
                    raise learner.DivergenceError(stage, iteration + 1, value)
            else:
                growth = 0
        history.append(value)
        relative = abs(current - value) / max(1.0, abs(current))
        current = value
        if config.line_search and relative < config.tolerance:
            break
    return history, weights


def reference_train(tasks, constraints, config):
    """``learner.train`` on :func:`reference_descend`."""
    ws = learner._Workspace(tasks, constraints, config, check_psd=True)
    weights = [np.zeros_like(b.mask) for b in ws.blocks]
    stage1, weights = reference_descend(ws, weights, 0.0, "stage 1")
    if config.lambda_c > 0 and ws.constraints:
        stage2, weights = reference_descend(ws, weights, config.lambda_c, "stage 2")
    else:
        stage2 = []
    return learner.Model(ws.unstack(weights), learner.TrainTrace(tuple(stage1), tuple(stage2)))
