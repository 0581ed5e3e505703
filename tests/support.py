"""Shared helpers for the test suite: random constraint instances, a
central finite-difference oracle for penalty gradients, the reference
descent that evaluates every line-search trial in full, and the string- and
set-based ingest and evaluation that the array versions must reproduce."""

from __future__ import annotations

import logging
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from fungo import learner
from fungo.evaluation import EvalError, ExampleMetrics, LabelMetrics
from fungo.io import DataFileError
from fungo.logic import PredicateBinding, compile_constraint, parse_rule
from fungo.ontology import (
    ISA,
    NAMESPACES,
    OCCURS_IN,
    PART_OF,
    REGULATES,
    RELATIONS,
    GoCut,
    OntologyError,
    Term,
)

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
        for root in self._roots.values():
            levels[root] = 0
            queue = deque([root])
            while queue:
                tid = queue.popleft()
                for child in self._isa_children[tid]:
                    if child not in levels:
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

    @property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        return self._edges

    def __contains__(self, term_id: str) -> bool:
        return term_id in self._terms

    def level(self, term_id: str) -> int:
        self._require(term_id)
        return self._levels[term_id]

    def parents(self, term_id: str, relation: str = ISA) -> tuple[str, ...]:
        self._require(term_id)
        if relation == ISA:
            return self._isa_parents[term_id]
        return tuple(
            sorted(p for c, p, r in self._edges if c == term_id and r == relation)
        )

    def children(self, term_id: str, relation: str = ISA) -> tuple[str, ...]:
        self._require(term_id)
        if relation == ISA:
            return self._isa_children[term_id]
        return tuple(
            sorted(c for c, p, r in self._edges if p == term_id and r == relation)
        )

    def ancestors(self, term_id: str) -> frozenset[str]:
        self._require(term_id)
        return self._ancestors[term_id]

    def roots(self) -> Mapping[str, str]:
        return dict(self._roots)

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
            if relation in (PART_OF, REGULATES, OCCURS_IN):
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
