"""Shared helpers for the test suite: random constraint instances, the
dense per-rule grounding that the rule set must agree with, a central
finite-difference oracle for penalty gradients with the kink margin
that keeps its probes away from subgradient boundaries, the full objective
and its gradients, the reference descent that evaluates every line-search
trial in full, the weight-gradient descent that it replaced, the pairwise
kernels that the Gram builders must reproduce, the string- and
set-based ingest and evaluation that the array versions must reproduce,
and readers for the bundle files that ``fungo run`` only writes."""

from __future__ import annotations

import logging
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from fungo import learner
from fungo.evaluation import EvalError, ExampleMetrics, LabelMetrics, PredictionSet
from fungo.io import DataFileError, _records, _split_columns, parse_real
from fungo.logic import (
    And, Atom, CompiledRuleSet, Formula, Iff, Implies, Not, Or, PredicateBinding,
    compile_constraint, engine,
)
from fungo.ontology import (
    ISA,
    NAMESPACES,
    PART_OF,
    RELATIONS,
    GoCut,
    OntologyError,
    Term,
)
from rule_text import parse_rule

# A representative mix of rule shapes: implications, disjunction heads,
# equivalences, negation, guarded pair rules.
FORMULA_POOL = [
    "forall x:P. A(x) => B(x)",
    "forall x:P. A(x) and B(x) => C(x)",
    "forall x:P. A(x) => B(x) or C(x) or D(x)",
    "forall x:P. not (A(x) and not B(x)) or C(x)",
    "forall x:P. (A(x) <=> B(x)) <=> C(x)",
    "forall x:P. forall y:P. BOUND(x,y) => (A(x) <=> A(y))",
    "forall x:P. forall y:P. BOUND(x,y) => (A(x) and A(y)) or (B(x) and B(y))",
]

# Two readings of ``a => b``: the residuum that the compiler lowers it to,
# and the material ``not a or b`` of the first, CNF-only SBR version, which
# the engine evaluates with its negation and disjunction.
IMPLICATIONS = ("residuum", "material")


def read_as(formula: Formula, implication: str) -> Formula:
    """``formula`` under one of ``IMPLICATIONS``: as written for the
    residuum, with every ``a => b`` rewritten ``not a or b`` and every
    ``a <=> b`` ``(not a or b) and (not b or a)`` for the material reading.
    A pair rule keeps its guard ``G(x,y) =>``, which the compiler needs,
    and reads its body materially."""
    if implication == "residuum":
        return formula

    def material(node):
        if isinstance(node, Atom):
            return node
        if isinstance(node, Not):
            return Not(material(node.child))
        left, right = material(node.left), material(node.right)
        if isinstance(node, Implies):
            return Or(Not(left), right)
        if isinstance(node, Iff):
            return And(Or(Not(left), right), Or(Not(right), left))
        return type(node)(left, right)

    body = formula.body
    if len(formula.quantifiers) == 2:
        return Formula(formula.quantifiers, Implies(body.left, material(body.right)))
    return Formula(formula.quantifiers, material(body))


def random_instance(rng, tnorm, implication="residuum", formula_text=None):
    """A compiled constraint over a small random domain plus matching outputs."""
    text = formula_text or FORMULA_POOL[rng.integers(len(FORMULA_POOL))]
    formula = read_as(parse_rule(text), implication)
    n = int(rng.integers(3, 6))
    ids = [f"p{i}" for i in range(n)]
    positions = {p: i for i, p in enumerate(ids)}

    predicates = {}
    outputs = {}
    for name, arity in formula.predicates().items():
        if arity == 1:
            predicates[name] = PredicateBinding(name, 1, dict(positions))
            outputs[name] = rng.uniform(0.05, 0.95, size=n)
        else:
            pairs = [
                (ids[i], ids[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.7
            ]
            predicates[name] = PredicateBinding(
                name, 2, {pair: k for k, pair in enumerate(pairs)}
            )
            outputs[name] = rng.uniform(0.05, 0.95, size=len(pairs))

    return compile_constraint(formula, tnorm, {"P": ids}, predicates), outputs


def given_binding(name, arity, keys):
    """A given predicate, 1 on ``keys`` and 0 elsewhere."""
    return PredicateBinding(name, arity, {key: k for k, key in enumerate(keys)}, given=True)


# The guarded pair rules of FORMULA_POOL: the rule set grounds them only
# where BOUND can be non-zero.
GUARDED_PREFIX = "forall x:P. forall y:P. BOUND(x,y) =>"

UNARY_NAMES = ("A", "B", "C", "D", "E")


def random_rule_set(rng, texts, tnorm, implication, bound_mode, levels=None):
    """Compiled rules for ``texts`` over one shared domain and shared
    bindings, plus matching outputs.

    Each rule's unary predicates are renamed at random (collisions allowed),
    so one template recurs over different predicates.  BOUND is either
    given or learned; either way some pairs are absent, and pairs may be
    listed in both orders.  Truths are uniform in [0.05, 0.95] or, given
    ``levels``, drawn from them.
    """

    def draw(size=None):
        return rng.uniform(0.05, 0.95, size=size) if levels is None else rng.choice(levels, size)

    n = int(rng.integers(3, 7))
    ids = [f"p{i}" for i in range(n)]
    positions = {p: i for i, p in enumerate(ids)}
    predicates = {name: PredicateBinding(name, 1, positions) for name in UNARY_NAMES}
    outputs = {name: draw(n) for name in UNARY_NAMES}
    pairs = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.4]
    if bound_mode == "given":
        predicates["BOUND"] = given_binding("BOUND", 2, pairs)
    else:
        predicates["BOUND"] = PredicateBinding("BOUND", 2, {pair: k for k, pair in enumerate(pairs)})
        outputs["BOUND"] = draw(len(pairs))
    constraints = []
    for text in texts:
        renamed = dict(zip("ABCD", rng.choice(UNARY_NAMES, size=4)))
        text = re.sub(r"\b([A-D])\(", lambda m: renamed[m.group(1)] + "(", text)
        formula = read_as(parse_rule(text), implication)
        constraints.append(compile_constraint(formula, tnorm, {"P": ids}, predicates))
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


# --- dense per-rule grounding: the reference for the rule set -------------


def dense_gathers(constraint) -> list[np.ndarray]:
    """Each slot's position in its predicate's truth vector at every
    grounding of the full grid, row-major, -1 where absent."""
    mesh = np.indices(constraint.shape).reshape(len(constraint.shape), -1)
    gathers = []
    for slot in constraint.slots:
        index = slot.binding.index
        ids = [constraint.domains[k] for k in slot.axes]
        if slot.binding.arity == 1:
            col = np.array([index.get(i, -1) for i in ids[0]], dtype=np.int64)
            gathers.append(col[mesh[slot.axes[0]]])
        else:
            gathers.append(_pair_matrix(index, *ids)[mesh[slot.axes[0]], mesh[slot.axes[1]]])
    return gathers


def _pair_matrix(index, left, right) -> np.ndarray:
    """``index[(a, b)]`` for every ``a`` of ``left`` and ``b`` of ``right``,
    falling back to ``index[(b, a)]`` and to -1 without either: one walk
    over the entries fills a matrix over the distinct ids."""
    rows = {a: i for i, a in enumerate(dict.fromkeys(left))}
    cols = {b: j for j, b in enumerate(dict.fromkeys(right))}
    mat = np.full((len(rows), len(cols)), -1, dtype=np.int64)
    # The reversed entries go in first so that a direct entry overwrites them.
    for first, second in ((1, 0), (0, 1)):
        hits = [(rows[key[first]], cols[key[second]], position)
                for key, position in index.items()
                if key[first] in rows and key[second] in cols]
        if hits:
            i, j, positions = zip(*hits)
            mat[list(i), list(j)] = positions
    row_of = np.array([rows[a] for a in left], dtype=np.intp)
    col_of = np.array([cols[b] for b in right], dtype=np.intp)
    return mat[row_of[:, None], col_of[None, :]]


def dense_inputs(constraint, outputs) -> np.ndarray:
    """Per-grounding slot values over the full grid, (n_groundings, n_slots)."""
    values = np.empty((constraint.n_groundings, len(constraint.slots)))
    for s, (slot, gather) in enumerate(zip(constraint.slots, dense_gathers(constraint))):
        if slot.binding.given:
            truths = np.ones(slot.binding.size)
        else:
            truths = np.asarray(outputs[slot.binding.name], dtype=np.float64)
        # Absent ids gather -1, the appended 0.0.
        values[:, s] = np.append(truths, 0.0)[gather]
    return values


def dense_forward(constraint, outputs) -> tuple[np.ndarray, np.ndarray]:
    """Every node's value per grounding, and the grid of penalties ``1 - truth``."""
    vals = engine.node_values(constraint.program, dense_inputs(constraint, outputs).T)
    return vals, (1.0 - vals[-1]).reshape(constraint.shape)


def minimum_backward(program, vals, weights) -> np.ndarray:
    """``engine.backward`` under the minimum t-norm: the reverse pass that
    the rule set's signed input positions must agree with, an n_nodes x
    n_groundings adjoint walked from the root."""
    assert program.tnorm_code == engine.TN_MINIMUM
    n_g = len(weights)
    adj = np.zeros((program.n_nodes, n_g))
    adj[-1] = weights
    dvalues = np.zeros((n_g, program.n_slots))
    for i in range(program.n_nodes - 1, -1, -1):
        op, w = program.opcodes[i], adj[i]
        if op == engine.OP_LOAD:
            dvalues[:, program.lhs[i]] += w
            continue
        if op == engine.OP_NOT:
            adj[program.lhs[i]] -= w
            continue
        a = vals[program.lhs[i]]
        b = vals[program.rhs[i]]
        if op == engine.OP_AND:
            da = np.where(a <= b, 1.0, 0.0)
            db = 1.0 - da
        elif op == engine.OP_OR:
            da = np.where(a >= b, 1.0, 0.0)
            db = 1.0 - da
        else:  # OP_IMPL
            da = np.zeros(n_g)
            db = np.where(a > b, 1.0, 0.0)
        adj[program.lhs[i]] += w * da
        adj[program.rhs[i]] += w * db
    return dvalues


def dense_penalty_and_gradients(constraint, outputs) -> tuple[float, dict[str, np.ndarray]]:
    """The rule's penalty from every grounding of its grid, and its gradient
    wrt each learned predicate's outputs."""
    vals, penalties = dense_forward(constraint, outputs)
    program = constraint.program
    reverse = minimum_backward if program.tnorm_code == engine.TN_MINIMUM else engine.backward
    dvalues = reverse(program, vals, np.full(penalties.size, -1.0))
    grads: dict[str, np.ndarray] = {}
    for s, (slot, gather) in enumerate(zip(constraint.slots, dense_gathers(constraint))):
        if slot.binding.given:
            continue
        grad = grads.setdefault(slot.binding.name, np.zeros(slot.binding.size))
        present = gather >= 0
        np.add.at(grad, gather[present], dvalues[present, s])
    return float(penalties.sum(axis=-1).sum()), grads  # innermost variable first


def nonsmooth_margin(constraint, outputs) -> float:
    """Distance of the constraint's evaluation at ``outputs`` from the
    nearest subgradient boundary.

    Used by gradient checks to keep finite-difference probes away from
    kinks (branch switches of min/max, residuum satisfaction boundaries).
    """
    vals, _ = dense_forward(constraint, outputs)
    program = constraint.program
    tn = program.tnorm_code
    margin = np.inf
    for i in range(program.n_nodes):
        op = program.opcodes[i]
        if op in (engine.OP_LOAD, engine.OP_NOT):
            continue
        a = vals[program.lhs[i]]
        b = vals[program.rhs[i]]
        if op == engine.OP_AND or op == engine.OP_OR:
            if tn == engine.TN_MINIMUM:
                margin = min(margin, float(np.abs(a - b).min()))
            elif tn == engine.TN_LUKASIEWICZ:
                margin = min(margin, float(np.abs(a + b - 1.0).min()))
        else:  # OP_IMPL
            margin = min(margin, float(np.abs(a - b).min()))
    return margin


def smooth_instance(rng, tnorm, implication="residuum", margin=1e-3, tries=200):
    """Like random_instance, but resampled until the evaluation point sits at
    least ``margin`` away from every subgradient boundary."""
    for _ in range(tries):
        constraint, outputs = random_instance(rng, tnorm, implication)
        if nonsmooth_margin(constraint, outputs) > margin:
            return constraint, outputs
    raise AssertionError("could not sample a smooth evaluation point")


def fd_penalty_gradients(constraint, outputs, h=1e-6):
    """Central finite differences of the constraint penalty."""
    grads = {}
    learned = {slot.binding.name for slot in constraint.slots if not slot.binding.given}
    for name, vec in outputs.items():
        if name not in learned:
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


def weight_rows(tasks, blocks) -> dict[str, np.ndarray]:
    """The rows of K x n blocks (weights or gradients) by predicate name, in
    task order."""
    return {p: a[k] for t, a in zip(tasks, blocks, strict=True)
            for k, p in enumerate(t.predicates)}


def compiled_for(tasks, constraints=()):
    """``constraints`` compiled together against the tasks' block layout:
    the rule set that ``learner.train`` and its workspace take."""
    return CompiledRuleSet(constraints, [(t.predicates, t.size) for t in tasks])


def objective(model, tasks, constraints, config) -> float:
    """Full objective at the model's weights (constraints at full strength)."""
    return _evaluate_model(model, tasks, constraints, config, False)[0]


def objective_gradient(model, tasks, constraints, config) -> list[np.ndarray]:
    """Gradient of the full objective in the weights, one K x n matrix per
    task: the functional gradient's image ``D @ G``."""
    ws = learner._Workspace(tasks, compiled_for(tasks, constraints), config)
    return ws.scores(functional_gradient(model, tasks, constraints, config))


def functional_gradient(model, tasks, constraints, config) -> list[np.ndarray]:
    """Gradient of the full objective in the scores (``D``), one K x n matrix
    per task."""
    return _evaluate_model(model, tasks, constraints, config, True)[1]


def _evaluate_model(model, tasks, constraints, config, with_gradient):
    ws = learner._Workspace(tasks, compiled_for(tasks, constraints), config)
    weights = list(model.weights)
    return ws.evaluate(weights, ws.scores(weights), config.lambda_c, with_gradient)


def reference_descend(ws, weights, lambda_c, stage):
    """``learner._descend`` with every trial evaluated in full, rules
    included: the oracle for the early rejections."""
    config = ws.config
    scores = ws.scores(weights)
    current, grads = ws.evaluate(weights, scores, lambda_c, True)
    if not np.isfinite(current):
        raise learner.LearnerError(
            f"{stage}: the objective at its start is not finite ({current!r})")
    history = [current]
    last = 0.0
    for iteration in range(config.max_iterations):
        if iteration:
            scores = ws.scores(weights)
            _, grads = ws.evaluate(weights, scores, lambda_c, True)
        moves = ws.scores(grads)
        slope = sum(float(np.vdot(d, m)) for d, m in zip(grads, moves))
        if not slope > 0.0:
            break
        step = min(config.learning_rate, 2.0 * last) if last else config.learning_rate
        for _ in range(learner.MAX_HALVINGS):
            trial = [a - step * d for a, d in zip(weights, grads)]
            moved = [s - step * m for s, m in zip(scores, moves)]
            value, _ = ws.evaluate(trial, moved, lambda_c, False)
            if value <= current - learner.ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            _log_exhausted(stage, iteration, current)
            break
        weights = trial
        last = step
        history.append(value)
        relative = abs(current - value) / max(1.0, abs(current))
        current = value
        if relative < config.tolerance:
            break
    return history, weights


def alpha_gradient_descend(ws, weights, lambda_c, stage):
    """Line-search descent along the gradient in the weights, ``D @ G``,
    with every search starting at ``learning_rate``: the trainer's descent
    before it followed the functional gradient, kept as the step-count
    reference."""
    config = ws.config
    scores = ws.scores(weights)
    current, _ = ws.evaluate(weights, scores, lambda_c, False)
    history = [current]
    for iteration in range(config.max_iterations):
        _, direction = ws.evaluate(weights, scores, lambda_c, True)
        grads = ws.scores(direction)
        norm2 = sum(float(np.vdot(d, d)) for d in grads)
        if norm2 == 0.0:
            break
        moves = ws.scores(grads)
        step = config.learning_rate
        for _ in range(learner.MAX_HALVINGS):
            trial = [a - step * d for a, d in zip(weights, grads)]
            moved = [s - step * m for s, m in zip(scores, moves)]
            value, _ = ws.evaluate(trial, moved, lambda_c, False)
            if value <= current - learner.ARMIJO * step * norm2:
                break
            step *= 0.5
        else:
            _log_exhausted(stage, iteration, current)
            break
        weights = trial
        scores = ws.scores(weights)
        history.append(value)
        relative = abs(current - value) / max(1.0, abs(current))
        current = value
        if relative < config.tolerance:
            break
    return history, weights


def _log_exhausted(stage, iteration, current):
    logging.getLogger("fungo.learner").warning(
        "%s: line search found no descent step in %d halvings at "
        "iteration %d (objective %.17g); stopping",
        stage, learner.MAX_HALVINGS, iteration, current,
    )


def reference_train(tasks, rule_set, config, descend=reference_descend):
    """``learner.train`` with stage 2 on :func:`reference_descend`, or on
    another ``descend`` of the same signature; stage 1 is the trainer's
    closed form."""
    ws = learner._Workspace(tasks, rule_set, config)
    stage1, weights, _ = learner._ridge(ws)
    if config.lambda_c > 0 and ws.rule_set.constraints:
        stage2, weights = descend(ws, weights, config.lambda_c, "stage 2")
    else:
        stage2 = []
    return learner.Model(tuple(weights), learner.TrainTrace(tuple(stage1), tuple(stage2)))


# --- reference kernels: one pair of examples at a time ---------------------


def kmer_counts(sequence: str, k: int) -> dict[str, int]:
    if k < 1:
        raise ValueError(f"k-mer length must be positive, got {k}")
    counts: dict[str, int] = {}
    for i in range(len(sequence) - k + 1):
        mer = sequence[i : i + k]
        counts[mer] = counts.get(mer, 0) + 1
    return counts


def spectrum_kernel(s1: str, s2: str, k: int) -> float:
    """Dot product of k-mer count vectors; 0 when either string is shorter
    than k."""
    c1 = kmer_counts(s1, k)
    c2 = kmer_counts(s2, k)
    if len(c2) < len(c1):
        c1, c2 = c2, c1
    return float(sum(count * c2.get(mer, 0) for mer, count in c1.items()))


def normalize_kernel(raw: float, self1: float, self2: float) -> float:
    """Cosine normalization; zero self-similarity yields 0."""
    if self1 <= 0.0 or self2 <= 0.0:
        return 0.0
    return raw / float(np.sqrt(self1 * self2))


def domain_kernel(domains1: Iterable[str], domains2: Iterable[str]) -> float:
    """Shared-domain similarity |A & B| / (|A| * |B|); empty sets give 0."""
    a = set(domains1)
    b = set(domains2)
    if not a or not b:
        return 0.0
    return len(a & b) / (len(a) * len(b))


def correlation_kernel(x: Sequence[float], y: Sequence[float]) -> float:
    """Covariance of two expression profiles over the measured conditions."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError(f"profile shapes differ: {xv.shape} vs {yv.shape}")
    if xv.size == 0:
        raise ValueError("empty expression profile")
    cx = xv - xv.mean()
    cy = yv - yv.mean()
    return float(np.dot(cx, cy) / xv.size)


# --- reference ingest: string-keyed DAG, eager ancestors -------------------


class ReferenceOntologyDag:
    """The string-keyed :class:`fungo.ontology.OntologyDag`: sorted parent
    and child tuples per term and every ancestor set built eagerly in
    topological order."""

    def __init__(self, terms: Iterable[Term], edges: Iterable[tuple[str, str, str]]):
        table: dict[str, Term] = {}
        for term in terms:
            if term.namespace not in NAMESPACES:
                raise OntologyError(
                    f"term {term.id!r} has unknown namespace {term.namespace!r}"
                )
            if term.id in table:
                raise OntologyError(f"duplicate term id {term.id!r}")
            table[term.id] = term

        seen: set[tuple[str, str, str]] = set()
        kept: list[tuple[str, str, str]] = []
        for child, parent, relation in edges:
            if relation not in RELATIONS:
                raise OntologyError(f"unknown relation {relation!r}")
            if child not in table:
                raise OntologyError(f"dangling edge source {child!r}")
            if parent not in table:
                raise OntologyError(f"dangling edge target {parent!r}")
            key = (child, parent, relation)
            if key in seen:
                continue
            seen.add(key)
            kept.append(key)

        self._terms = table
        self._edges = tuple(sorted(kept))
        self._isa_parents: dict[str, tuple[str, ...]] = {t: () for t in table}
        self._isa_children: dict[str, tuple[str, ...]] = {t: () for t in table}
        up: dict[str, list[str]] = {t: [] for t in table}
        down: dict[str, list[str]] = {t: [] for t in table}
        for child, parent, relation in self._edges:
            if relation == ISA:
                up[child].append(parent)
                down[parent].append(child)
        for tid in table:
            self._isa_parents[tid] = tuple(sorted(up[tid]))
            self._isa_children[tid] = tuple(sorted(down[tid]))

        self._validate_parent_namespaces()
        order = self._topological_order()
        self._roots = self._find_roots()
        self._levels = self._compute_levels()
        self._ancestors = self._compute_ancestors(order)

    def _validate_parent_namespaces(self) -> None:
        for tid, term in self._terms.items():
            parents = self._isa_parents[tid]
            if not parents:
                continue
            same_ns = [p for p in parents if self._terms[p].namespace == term.namespace]
            if not same_ns:
                raise OntologyError(
                    f"term {tid!r} has no is_a parent in namespace {term.namespace!r}"
                )

    def _topological_order(self) -> list[str]:
        pending = {t: len(self._isa_parents[t]) for t in self._terms}
        queue = deque(sorted(t for t, n in pending.items() if n == 0))
        order: list[str] = []
        while queue:
            tid = queue.popleft()
            order.append(tid)
            for child in self._isa_children[tid]:
                pending[child] -= 1
                if pending[child] == 0:
                    queue.append(child)
        if len(order) != len(self._terms):
            cyclic = sorted(t for t, n in pending.items() if n > 0)
            raise OntologyError(f"cycle among is_a edges involving {cyclic[:5]}")
        return order

    def _find_roots(self) -> dict[str, str]:
        roots: dict[str, str] = {}
        for tid, term in self._terms.items():
            if self._isa_parents[tid]:
                continue
            if term.namespace in roots:
                raise OntologyError(
                    f"namespace {term.namespace!r} has multiple roots: "
                    f"{roots[term.namespace]!r} and {tid!r}"
                )
            roots[term.namespace] = tid
        for term in self._terms.values():
            if term.namespace not in roots:
                raise OntologyError(f"namespace {term.namespace!r} has no root")
        return roots

    def _compute_levels(self) -> dict[str, int]:
        levels: dict[str, int] = {}
        for namespace, root in self._roots.items():
            levels[root] = 0
            queue = deque([root])
            while queue:
                tid = queue.popleft()
                for child in self._isa_children[tid]:
                    if child not in levels and self._terms[child].namespace == namespace:
                        levels[child] = levels[tid] + 1
                        queue.append(child)
        missing = sorted(set(self._terms) - set(levels))
        if missing:
            raise OntologyError(f"terms unreachable from their root: {missing[:5]}")
        return levels

    def _compute_ancestors(self, order: Sequence[str]) -> dict[str, frozenset[str]]:
        out: dict[str, frozenset[str]] = {}
        for tid in order:
            acc: set[str] = set()
            for parent in self._isa_parents[tid]:
                acc.add(parent)
                acc.update(out[parent])
            out[tid] = frozenset(acc)
        return out

    @property
    def terms(self) -> Mapping[str, Term]:
        return self._terms

    def __contains__(self, term_id: str) -> bool:
        return term_id in self._terms

    def level(self, term_id: str) -> int:
        self._require(term_id)
        return self._levels[term_id]

    def parents(self, term_id: str) -> tuple[str, ...]:
        self._require(term_id)
        return self._isa_parents[term_id]

    def children(self, term_id: str) -> tuple[str, ...]:
        self._require(term_id)
        return self._isa_children[term_id]

    def ancestors(self, term_id: str) -> frozenset[str]:
        self._require(term_id)
        return self._ancestors[term_id]

    def relation_edges(self, relation: str) -> tuple[tuple[str, str], ...]:
        if relation not in RELATIONS:
            raise OntologyError(f"unknown relation {relation!r}")
        return tuple((c, p) for c, p, r in self._edges if r == relation)

    def _require(self, term_id: str) -> None:
        if term_id not in self._terms:
            raise OntologyError(f"unknown term id {term_id!r}")


# Every line break that str.splitlines knows.
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def write_raw(path: str, text: str) -> str:
    """Write ``text`` with every line break as it is, ``\\r\\n`` included."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def reference_read_lines(path: str) -> list[str]:
    """The whole-file reading that the streamed ``fungo.io.read_lines``
    replaces: the whole text at once, split by ``str.splitlines``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().splitlines()
    except OSError as exc:
        raise DataFileError(path, None, f"cannot read file ({exc.strerror})") from exc


def reference_parse_obo(text: str) -> ReferenceOntologyDag:
    """The per-line parser with a comment-stripping helper call per line and
    a ``flush`` closure per stanza."""
    terms: list[Term] = []
    edges: list[tuple[str, str, str]] = []
    stanza: dict[str, object] | None = None

    def flush() -> None:
        nonlocal stanza
        if stanza is None:
            return
        tid = stanza.get("id")
        if not tid:
            raise OntologyError("[Term] stanza without an id")
        namespace = stanza.get("namespace")
        if not namespace:
            raise OntologyError(f"term {tid!r} has no namespace")
        if not stanza.get("obsolete"):
            terms.append(Term(str(tid), str(stanza.get("name", "")), str(namespace)))
            for parent, relation in stanza.get("links", ()):  # type: ignore[union-attr]
                edges.append((str(tid), parent, relation))
        stanza = None

    in_term = False
    for raw in text.splitlines():
        line = _strip_obo_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            flush()
            in_term = line == "[Term]"
            if in_term:
                stanza = {"links": []}
            continue
        if not in_term or stanza is None or ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "id":
            stanza["id"] = value
        elif key == "name":
            stanza["name"] = value
        elif key == "namespace":
            stanza["namespace"] = value
        elif key == "is_obsolete":
            stanza["obsolete"] = value.lower() == "true"
        elif key == "is_a":
            target = value.split()[0] if value else ""
            if not target:
                raise OntologyError("is_a line without a target id")
            stanza["links"].append((target, ISA))  # type: ignore[union-attr]
        elif key == "relationship":
            parts = value.split()
            if len(parts) < 2:
                raise OntologyError(f"malformed relationship line {raw.strip()!r}")
            relation, target = parts[0], parts[1]
            if relation == PART_OF:
                stanza["links"].append((target, relation))  # type: ignore[union-attr]
    flush()
    return ReferenceOntologyDag(terms, edges)


def _strip_obo_comment(line: str) -> str:
    cut = line.find("!")
    return line if cut < 0 else line[:cut]


def reference_tpr_closure(raw, dag) -> dict[str, set[str]]:
    """Each protein's terms plus all their ancestors, one protein at a time."""
    closed: dict[str, set[str]] = {}
    for protein, term_ids in raw.items():
        acc: set[str] = set()
        for tid in term_ids:
            if tid not in dag:
                raise OntologyError(
                    f"protein {protein!r} annotated with unknown term {tid!r}"
                )
            acc.add(tid)
            acc.update(dag.ancestors(tid))
        closed[protein] = acc
    return closed


# --- reference evaluation: one frozenset per example -----------------------


@dataclass(frozen=True)
class ReferencePredictionSet:
    """Set-based :class:`fungo.evaluation.PredictionSet` (validation left out:
    the oracle feeds it only valid sets)."""

    predicates: tuple[str, ...]
    examples: tuple[str, ...]
    truth_sets: tuple[frozenset[str], ...]
    predicted_sets: tuple[frozenset[str], ...]
    undecided_sets: tuple[frozenset[str], ...]

    @classmethod
    def of(cls, preds: PredictionSet) -> "ReferencePredictionSet":
        """The member sets of each example of a matrix prediction set."""
        def sets(matrix):
            return tuple(frozenset(p for p, on in zip(preds.predicates, row) if on)
                         for row in matrix.tolist())

        return cls(preds.predicates, preds.examples, sets(preds.truth),
                   sets(preds.predicted), sets(preds.undecided))

    @property
    def n(self) -> int:
        return len(self.examples)

    def confusion(self, predicate: str) -> tuple[int, int, int, int]:
        tp = fp = fn = 0
        for truth, predicted in zip(self.truth_sets, self.predicted_sets):
            positive = predicate in truth
            chosen = predicate in predicted
            if positive and chosen:
                tp += 1
            elif chosen:
                fp += 1
            elif positive:
                fn += 1
        return tp, fp, fn, self.n - tp - fp - fn

    def filtered(self) -> "ReferencePredictionSet":
        return ReferencePredictionSet(
            self.predicates,
            self.examples,
            tuple(y - u for y, u in zip(self.truth_sets, self.undecided_sets)),
            tuple(z - u for z, u in zip(self.predicted_sets, self.undecided_sets)),
            tuple(frozenset() for _ in self.examples),
        )


def prediction_set(predicates, examples, truth_sets, predicted_sets,
                   undecided_sets=()) -> PredictionSet:
    """A :class:`PredictionSet` from one member set per example; the undecided
    sets default to empty."""
    column = {p: j for j, p in enumerate(predicates)}

    def matrix(sets):
        out = np.zeros((len(examples), len(predicates)), dtype=bool)
        for i, members in enumerate(sets):
            out[i, [column[p] for p in members]] = True
        return out

    return PredictionSet.from_matrices(predicates, examples, matrix(truth_sets),
                                       matrix(predicted_sets), matrix(undecided_sets))


def reference_example_metrics(preds) -> ExampleMetrics:
    p_sum = r_sum = f_sum = exact = 0.0
    for truth, predicted in zip(preds.truth_sets, preds.predicted_sets):
        hit = len(truth & predicted)
        if predicted:
            p_sum += hit / len(predicted)
        if truth:
            r_sum += hit / len(truth)
        if truth or predicted:
            f_sum += 2.0 * hit / (len(truth) + len(predicted))
        else:
            f_sum += 1.0
        if truth == predicted:
            exact += 1.0
    n = preds.n
    return ExampleMetrics(p_sum / n, r_sum / n, f_sum / n, exact / n)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def reference_label_metrics(preds, average="micro", *, excluded=()) -> LabelMetrics:
    dropped = frozenset(excluded)
    kept = [p for p in preds.predicates if p not in dropped]
    counts = [preds.confusion(p) for p in kept]
    if average == "micro":
        tp = sum(c[0] for c in counts)
        fp = sum(c[1] for c in counts)
        fn = sum(c[2] for c in counts)
        return LabelMetrics(
            _ratio(tp, tp + fp), _ratio(tp, tp + fn), _ratio(2 * tp, 2 * tp + fp + fn)
        )
    k = len(kept)
    precision = sum(_ratio(tp, tp + fp) for tp, fp, _, _ in counts) / k
    recall = sum(_ratio(tp, tp + fn) for tp, _, fn, _ in counts) / k
    f1 = sum(_ratio(2 * tp, 2 * tp + fp + fn) for tp, fp, fn, _ in counts) / k
    return LabelMetrics(precision, recall, f1)


def reference_consistency(preds, cut: GoCut) -> float:
    """Per-example mean of the per-node scores, each example's nodes summed
    in the iteration order of its predicted frozenset."""
    known = set(cut.nodes())
    total = 0.0
    for example, predicted in zip(preds.examples, preds.predicted_sets):
        if not predicted:
            total += 1.0
            continue
        acc = 0.0
        for node in predicted:
            if node not in known:
                raise EvalError(
                    f"predicted node {node!r} for {example!r} is not part of the cut"
                )
            parents = cut.par(node)
            if cut.level(node) <= 1 or not parents:
                acc += 1.0
            else:
                acc += sum(1 for p in parents if p in predicted) / len(parents)
        total += acc / len(predicted)
    return total / preds.n


def reference_build_sets(cut: GoCut, rows, universe, id_of) -> ReferencePredictionSet:
    """Truth, predicted and undecided sets of every protein in ``rows``,
    one frozenset membership test per (protein, node)."""
    by_protein: dict[str, dict] = {}
    for row in rows:
        by_protein.setdefault(row[0], {})[row[1]] = row
    proteins = tuple(sorted(by_protein))
    truth, predicted, undecided = [], [], []
    for protein in proteins:
        members = frozenset(id_of(n) for n in universe if protein in cut.proteins(n))
        chosen = set()
        blurred = set()
        for node in universe:
            row = by_protein[protein].get(cut.predicate(node))
            if row is None:
                continue
            if row[3]:
                chosen.add(id_of(node))
            if row[4]:
                blurred.add(id_of(node))
        truth.append(members)
        predicted.append(frozenset(chosen))
        undecided.append(frozenset(blurred))
    return ReferencePredictionSet(
        tuple(id_of(n) for n in universe), proteins,
        tuple(truth), tuple(predicted), tuple(undecided),
    )


# --- readers for the bundle files that ``fungo run`` writes ----------------
# They read the files back as the tests need them, with fungo.io's record
# loop, so line numbers and streaming follow fungo's own readers.


def read_folds(path: str) -> dict[str, int]:
    """Read ``protein<TAB>fold_index`` rows."""
    assignment: dict[str, int] = {}
    for number, line in _records(path):
        protein, index = _split_columns(path, number, line, 2)
        if protein in assignment:
            raise DataFileError(path, number, f"duplicate protein {protein!r}")
        try:
            assignment[protein] = int(index)
        except ValueError:
            raise DataFileError(path, number, f"not a fold index: {index!r}") from None
        if assignment[protein] < 0:
            raise DataFileError(path, number, f"negative fold index: {index!r}")
    return assignment


PredictionRow = tuple[str, str, float, bool, bool]


def read_predictions(path: str) -> list[PredictionRow]:
    """Read ``example predicate truth label undecided`` rows."""
    rows: list[PredictionRow] = []
    for number, line in _records(path):
        protein, predicate, truth, label, undecided = _split_columns(path, number, line, 5)
        if label not in ("pos", "neg"):
            raise DataFileError(path, number, f"unknown label {label!r}")
        if undecided not in ("0", "1"):
            raise DataFileError(path, number, f"unknown undecided flag {undecided!r}")
        rows.append((protein, predicate, parse_real(path, number, truth),
                     label == "pos", undecided == "1"))
    return rows


def read_curve_file(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Read a ``recall,precision`` curve CSV."""
    records = _records(path)
    number, header = next(records, (1, None))
    if header != "recall,precision":
        raise DataFileError(path, number, "missing 'recall,precision' header")
    recalls: list[float] = []
    precisions: list[float] = []
    for number, line in records:
        tokens = line.split(",")
        if len(tokens) != 2:
            raise DataFileError(path, number, f"expected 2 values, got {line!r}")
        recalls.append(parse_real(path, number, tokens[0]))
        precisions.append(parse_real(path, number, tokens[1]))
    return tuple(recalls), tuple(precisions)
