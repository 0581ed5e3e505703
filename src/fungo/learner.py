"""Multitask kernel-machine training under compiled rule constraints.

Each predicate is a kernel expansion over its example list: raw scores are
``s = G @ alpha`` and fuzzy truths are ``clip(s, 0, 1)``.  A ``TaskSpec`` is
one block of K predicates sharing a Gram matrix and a K x n label matrix:
their weights stack into a K x n matrix ``A`` with scores ``S = A @ G``, one
product for all K predicates.  The objective

    lambda_r * sum_k alpha_k' G_k alpha_k
    + sum_k sum_{i labeled} (s_k(i) - y_k(i))**2
    + lambda_c * sum_h phi_h(truths)

is minimised in two stages: the first ignores the constraint penalties
entirely (lambda_c = 0) and provides the starting point for the second, which
optimises the full objective.

Without the rules the objective is kernel ridge regression, one problem per
predicate, so stage 1 is solved in closed form: ``a_U = 0`` and ``a_L = (G_LL
+ lambda_r*I)^-1 y_L`` on each predicate's labeled examples L (Saunders,
Gammerman & Vovk 1998).  The predicates of a block that share a label mask
share one Cholesky factor.  ``lambda_r`` must be positive, because G_LL alone
may be singular.

Stage 2 descends along the functional gradient (Kivinen, Smola &
Williamson, Online learning with kernels, IEEE TSP 2004): the derivative in
the scores,

    D = 2*lambda_r*A + 2*mask*(S - Y) + lambda_c*[0 <= S <= 1]*dT,

read as a direction in the weights.  Its image ``M = D @ G`` is the gradient
in the weights, so ``g = <D, M>`` is the slope of the objective along -D, and
each accepted step takes two products with G per block: the scores and M.
A trial step ``A - t*D`` then scores as ``S - t*M`` without one.  Unlike the
weight gradient ``M``, whose step size shrinks like 1/||G||**2, D needs steps
of about 1/||G||.  D is a descent direction only while g > 0, which a Gram
matrix that is PSD within ``psd_check``'s tolerance does not promise; the
stage stops where g <= 0.

Steps use a backtracking line search: ``learning_rate`` is the first and
largest trial step, and each later search starts at twice the stage's last
accepted step, capped there.  An accepted step never raises the objective.
``learning_rate``, ``max_iterations`` and ``tolerance`` govern stage 2 only.
The stage logs why it stopped: ``tolerance`` (the relative change fell below
it along a small slope), ``stalled`` (it fell below it only because the
accepted step was tiny), ``max_iterations``, ``line search exhausted`` or
``no descent direction``.  A trial reaches the rule set only when its ridge
and label part alone stays within the Armijo bound: rule penalties are never
negative, so every decision equals the full evaluation's.

Training takes the rules compiled into one rule set, against the same block
layout, which it checks: the rule set reads the K x n truth blocks
``clip(S, 0, 1)`` as they are and returns one K x n gradient per block.
Fixed evidence, such as an interaction list, is never a task: the rules read
it as a given ``PredicateBinding``, 1 on each listed key and 0 elsewhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .kernels import GramMatrix
from .logic import CompiledRuleSet, PredicateBinding, TNORMS

log = logging.getLogger(__name__)

ARMIJO = 1e-4
MAX_HALVINGS = 60

CONSTRAINT_SCOPES = ("unsupervised", "all")

Example = str | tuple[str, str]


class LearnerError(ValueError):
    """Invalid task, configuration or model input."""


def pair_key(pair: tuple[str, str]) -> str:
    return f"{pair[0]}|{pair[1]}"


@dataclass(frozen=True)
class TaskSpec:
    """K predicates trained as one block over one example list.

    They share a Gram matrix aligned with ``examples`` and a K x n label
    matrix, 1.0 or 0.0 where supervised and NaN where not (``None``:
    nowhere).
    """

    predicates: tuple[str, ...]
    arity: int
    examples: tuple[Example, ...]
    gram: GramMatrix | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.predicates, tuple) or not self.predicates:
            raise LearnerError(f"task predicates must be a non-empty tuple, got {self.predicates!r}")
        name = f"task {self.predicates[0]!r}"
        if self.arity not in (1, 2):
            raise LearnerError(f"{name}: arity must be 1 or 2")
        if len(set(self.examples)) != len(self.examples):
            raise LearnerError(f"{name}: duplicate examples")
        if self.gram is None:
            raise LearnerError(f"{name}: a task needs a Gram matrix")
        expected = tuple(
            e if self.arity == 1 else pair_key(e) for e in self.examples  # type: ignore[arg-type]
        )
        if self.gram.ids != expected:
            raise LearnerError(f"{name}: Gram ids do not match the example list")
        shape = (len(self.predicates), self.size)
        labels = np.full(shape, np.nan) if self.labels is None else np.array(
            self.labels, dtype=np.float64)
        if labels.shape != shape:
            raise LearnerError(f"{name}: labels have shape {labels.shape}, expected {shape}")
        if not (np.isnan(labels) | (labels == 0.0) | (labels == 1.0)).all():
            raise LearnerError(f"{name}: labels must be 0, 1 or NaN (unsupervised)")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.examples)


@dataclass(frozen=True)
class TrainConfig:
    lambda_r: float = 1.0
    lambda_c: float = 1.0
    tnorm: str = "minimum"
    learning_rate: float = 1.0
    max_iterations: int = 500
    tolerance: float = 1e-10
    threshold: float = 0.5
    undecided_band: float = 1e-3
    constraint_scope: str = "unsupervised"

    def __post_init__(self):
        # At lambda_r = 0 the labeled Gram block G_LL that stage 1 factorises
        # can be singular, and the ridge minimiser is then not unique.
        if not self.lambda_r > 0:
            raise LearnerError(f"lambda_r must be positive, got {self.lambda_r!r}")
        if not self.lambda_c >= 0:
            raise LearnerError(f"lambda_c must be non-negative, got {self.lambda_c!r}")
        if self.tnorm not in TNORMS:
            raise LearnerError(f"unknown t-norm {self.tnorm!r}")
        if not self.learning_rate > 0:
            raise LearnerError(f"learning rate must be positive, got {self.learning_rate!r}")
        if self.max_iterations < 1:
            raise LearnerError("at least one iteration is required")
        if not self.tolerance >= 0:
            raise LearnerError(f"tolerance must be non-negative, got {self.tolerance!r}")
        if not 0.0 < self.threshold < 1.0:
            raise LearnerError("decision threshold must lie in (0, 1)")
        if not self.undecided_band >= 0:
            raise LearnerError(
                f"undecided band must be non-negative, got {self.undecided_band!r}")
        if self.constraint_scope not in CONSTRAINT_SCOPES:
            raise LearnerError(f"unknown constraint scope {self.constraint_scope!r}")


class TrainTrace(NamedTuple):
    """The objective along each stage, one tuple per stage.

    ``stage1`` holds the objective at zero weights and at the ridge
    minimiser that stage 1 solves for.  ``stage2`` holds the objective at the
    start and after each accepted step, and is empty when the constraint
    stage was skipped (no constraints or lambda_c = 0).
    """

    stage1: tuple[float, ...]
    stage2: tuple[float, ...] = ()


class Model(NamedTuple):
    """Trained weights, one K x n matrix per ``TaskSpec`` in task order (row
    k is the expansion of the spec's predicate k), and the training trace."""

    weights: tuple[np.ndarray, ...]
    trace: TrainTrace = TrainTrace(())


def predicate_bindings(tasks: Iterable[TaskSpec]) -> dict[str, PredicateBinding]:
    """Compiler bindings for a task list: the predicates of a spec share one
    index map."""
    out: dict[str, PredicateBinding] = {}
    for task in tasks:
        index = {e: i for i, e in enumerate(task.examples)}
        for predicate in task.predicates:
            if predicate in out:
                raise LearnerError(f"duplicate task predicate {predicate!r}")
            out[predicate] = PredicateBinding(predicate, task.arity, index)
    return out


class _Block(NamedTuple):
    """One spec: its Gram matrix, predicates and labels as arrays."""

    gram: np.ndarray
    predicates: tuple[str, ...]  # one row of every K x n array per predicate
    mask: np.ndarray  # 1.0 on labeled examples
    targets: np.ndarray  # the labels there, 0.0 elsewhere


class _Workspace:
    """Validated, array-ified view of one training problem, one block per
    spec.  Row k of a block's scores ``A @ G`` is ``G @ a_k``: G is
    exactly symmetric."""

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        rule_set: CompiledRuleSet,
        config: TrainConfig,
    ):
        self.config = config
        if not tasks:
            raise LearnerError("training needs at least one task")
        seen: set[str] = set()
        for predicate in (p for task in tasks for p in task.predicates):
            if predicate in seen:
                raise LearnerError(f"duplicate task predicate {predicate!r}")
            seen.add(predicate)
        self.blocks: list[_Block] = []
        for task in tasks:
            labels = task.labels
            self.blocks.append(_Block(task.gram.matrix, task.predicates,  # type: ignore[union-attr]
                                      1.0 - np.isnan(labels), np.nan_to_num(labels, nan=0.0)))
        layout = tuple((b.predicates, b.gram.shape[0]) for b in self.blocks)
        if rule_set.layout != layout:
            raise LearnerError(f"the rule set reads blocks {rule_set.layout}, not {layout}")
        self.rule_set = rule_set
        self.rule_calls = 0

    def scores(self, weights: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [a @ b.gram for b, a in zip(self.blocks, weights)]

    def evaluate(
        self, weights: list[np.ndarray], scores: list[np.ndarray], lambda_c: float,
        with_gradient: bool, bound: float | None = None,
    ) -> tuple[float, list[np.ndarray] | None]:
        """Objective at ``weights`` (whose scores the caller supplies) and, when
        asked, its functional gradient ``D`` per block, without a product
        with G: the weight gradient is ``D @ G``.

        Given a ``bound``, a ridge and label part that already exceeds it (or
        is NaN) is returned as it is, without the rules: every penalty is
        ``1 - truth >= 0`` and ``lambda_c >= 0``, and adding non-negative
        floats never lowers a float sum, so the full value would exceed the
        bound too.
        """
        lambda_r = self.config.lambda_r
        total = 0.0
        residuals = []
        for b, a, s in zip(self.blocks, weights, scores):
            r = b.mask * (s - b.targets)
            total += lambda_r * float(np.vdot(a, s)) + float(np.vdot(r, r))
            residuals.append(r)
        if bound is not None and not total <= bound:
            return total, None
        dtruths = None
        if lambda_c and self.rule_set.constraints:
            self.rule_calls += 1
            truths = [np.clip(s, 0.0, 1.0) for s in scores]
            if with_gradient:
                phis, dtruths = self.rule_set.penalties_and_gradients(truths)
            else:
                phis = self.rule_set.penalties(truths)
            # Added rule by rule, in rule order, so the value does not depend on
            # how the rule set groups the rules.
            for phi in phis.tolist():
                total += lambda_c * phi
        if not with_gradient:
            return total, None
        grads = []
        for i, (a, s, r) in enumerate(zip(weights, scores, residuals)):
            slope = 2.0 * lambda_r * a + 2.0 * r
            if dtruths is not None:
                # Slope 1 on the closed unit interval: a task parked exactly
                # at the boundary (e.g. an unlabeled one starting from zero)
                # must still feel the constraints.
                slope += lambda_c * np.where((s >= 0.0) & (s <= 1.0), dtruths[i], 0.0)
            grads.append(slope)
        return total, grads


def _descend(ws: _Workspace, weights: list[np.ndarray],
             scores: list[np.ndarray]) -> tuple[list[float], list[np.ndarray]]:
    """Stage 2: descent from the block weights, whose scores the caller
    supplies; returns the trace and the final weights.

    evaluate() adds the rules only to a trial whose ridge and label part
    stays within the Armijo bound.
    """
    config = ws.config
    current, grads = ws.evaluate(weights, scores, config.lambda_c, True)
    if not np.isfinite(current):
        raise LearnerError(f"stage 2: the objective at its start is not finite ({current!r})")
    history = [current]
    trials = reached = 0
    last = 0.0  # the last accepted step
    reason = "max_iterations"
    for iteration in range(config.max_iterations):
        if iteration:
            scores = ws.scores(weights)
            _, grads = ws.evaluate(weights, scores, config.lambda_c, True)
        moves = ws.scores(grads)  # type: ignore[arg-type]
        slope = sum(float(np.vdot(d, m)) for d, m in zip(grads, moves))  # type: ignore[arg-type]
        if not slope > 0.0:
            reason = "no descent direction"
            break
        # Each search starts at twice the last accepted step, capped at the
        # learning rate.
        step = min(config.learning_rate, 2.0 * last) if last else config.learning_rate
        for _ in range(MAX_HALVINGS):
            trials += 1
            bound = current - ARMIJO * step * slope
            trial = [a - step * d for a, d in zip(weights, grads)]  # type: ignore[arg-type]
            moved = [s - step * m for s, m in zip(scores, moves)]
            before = ws.rule_calls
            value, _ = ws.evaluate(trial, moved, config.lambda_c, False, bound)
            reached += ws.rule_calls - before
            if value <= bound:
                break
            step *= 0.5
        else:
            log.warning(
                "stage 2: line search found no descent step in %d halvings at "
                "iteration %d (objective %.17g); stopping",
                MAX_HALVINGS, iteration, current,
            )
            reason = "line search exhausted"
            break
        weights = trial
        last = step
        history.append(value)
        scale = max(1.0, abs(current))
        relative = abs(current - value) / scale
        current = value
        if relative < config.tolerance:
            reason = "stalled" if _stalled(ws, moves, slope, scale) else "tolerance"
            break
    if reason == "max_iterations":
        log.info("stage 2: stopped at max_iterations = %d (objective %.17g, last step %.3g)",
                 config.max_iterations, current, last)
    log.debug(
        "stage 2: stopped by %s after %d accepted steps (last step %.3g), %d trials, "
        "%d reached the rule set",
        reason, len(history) - 1, last, trials, reached,
    )
    return history, weights


def _stalled(ws: _Workspace, moves: list[np.ndarray], slope: float, scale: float) -> bool:
    """Whether a stage whose relative change fell below the tolerance stalled
    rather than converged.

    Along ``-D`` the ridge and label part is the quadratic ``t*slope -
    t**2*curvature`` below the current value.  When its best step, capped at
    the learning rate, would lower the objective by more than the tolerance,
    the change was small only because the accepted step was: the line search
    met a kink (a clamp or a rule's min/max), not a small slope.
    """
    config = ws.config
    masked = [b.mask * m for b, m in zip(ws.blocks, moves)]
    curvature = config.lambda_r * slope + sum(float(np.vdot(x, x)) for x in masked)
    step = min(config.learning_rate, slope / (2.0 * curvature))
    return step * (slope - step * curvature) > config.tolerance * scale


def _ridge(ws: _Workspace) -> tuple[list[float], list[np.ndarray], list[np.ndarray]]:
    """Stage 1 in closed form: the objective at zero and at the kernel-ridge
    minimiser, and the minimiser's block weights and scores.

    Without the rules the objective splits into one ridge problem per
    predicate, whose minimiser is ``a_U = 0`` and ``a_L = (G_LL + lambda_r*I)^-1
    y_L`` on its labeled examples L (Saunders, Gammerman & Vovk, Ridge
    regression learning algorithm in dual variables, ICML 1998).  The rows of
    a block that share a label mask share the system: one Cholesky factor,
    with their labels as right-hand sides.
    """
    lambda_r = ws.config.lambda_r
    zeros = [np.zeros_like(b.mask) for b in ws.blocks]
    start, _ = ws.evaluate(zeros, zeros, 0.0, False)
    weights = []
    for b in ws.blocks:
        a = np.zeros_like(b.mask)
        masks, group = np.unique(b.mask, axis=0, return_inverse=True)
        for g, mask in enumerate(masks):
            labeled = np.flatnonzero(mask)
            if not labeled.size:
                continue
            rows = np.flatnonzero(group == g)
            system = b.gram[np.ix_(labeled, labeled)]
            system[np.diag_indices_from(system)] += lambda_r
            try:
                factor = np.linalg.cholesky(system)
            except np.linalg.LinAlgError:
                raise LearnerError(
                    f"task {b.predicates[0]!r}: its labeled Gram block plus "
                    f"lambda_r = {lambda_r!r} times the identity is not positive "
                    f"definite; raise lambda_r"
                ) from None
            # numpy has no triangular solver: solve with each factor in turn.
            a[np.ix_(rows, labeled)] = np.linalg.solve(
                factor.T, np.linalg.solve(factor, b.targets[np.ix_(rows, labeled)].T)).T
        weights.append(a)
    scores = ws.scores(weights)
    end, _ = ws.evaluate(weights, scores, 0.0, False)
    return [start, end], weights, scores


def train(
    tasks: Sequence[TaskSpec],
    rule_set: CompiledRuleSet,
    config: TrainConfig,
) -> Model:
    """Two-stage training: label fit first, then the constrained objective.

    Every task's Gram matrix must pass its PSD check first.  Stage one
    solves the ridge problem without the constraint term.  Stage two
    descends from its minimiser at full constraint strength and is skipped
    outright when the rule set is empty or lambda_c is zero, leaving the
    trace bit-identical to a constraint-free run.
    """
    for task in tasks:
        ok, smallest = task.gram.psd_check()  # type: ignore[union-attr]
        if not ok:
            raise LearnerError(
                f"Gram matrix of task {task.predicates[0]!r} is not positive "
                f"semi-definite (smallest eigenvalue {smallest:.3g})"
            )
    ws = _Workspace(tasks, rule_set, config)
    stage1, weights, scores = _ridge(ws)
    if config.lambda_c > 0 and rule_set.constraints:
        stage2, weights = _descend(ws, weights, scores)
    else:
        stage2 = []
    return Model(tuple(weights), TrainTrace(tuple(stage1), tuple(stage2)))


def predict(
    weights: np.ndarray, task: TaskSpec, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Examples × predicates truths, decisions and undecided flags of one
    spec, from its K x n weight matrix.

    Column k is the clamped ``G @ a_k`` of row k, one product per row
    (``A @ G`` would differ in the last bits).  A truth at or above the
    threshold reads positive; truths within the undecided band around it are
    additionally flagged.
    """
    shape = (len(task.predicates), task.size)
    if np.shape(weights) != shape:
        raise LearnerError(f"weights of task {task.predicates[0]!r} have shape "
                           f"{np.shape(weights)}, expected {shape}")
    gram = task.gram.matrix  # type: ignore[union-attr]
    truths = np.clip(np.column_stack([gram @ a for a in weights]), 0.0, 1.0)
    positive = truths >= config.threshold
    undecided = np.abs(truths - config.threshold) < config.undecided_band
    return truths, positive, undecided
