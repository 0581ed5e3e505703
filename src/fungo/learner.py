"""Multitask kernel-machine training under compiled rule constraints.

Each learned task is a kernel expansion over its example list: raw scores are
``s = G @ alpha`` and fuzzy truth values are ``clip(s, 0, 1)``.  The objective

    lambda_r * sum_k alpha_k' G_k alpha_k
    + sum_k sum_{i labeled} (s_k(i) - y_k(i))**2
    + lambda_c * sum_h phi_h(truths)

is minimised by plain gradient descent in two stages: the first ignores the
constraint penalties entirely (lambda_c = 0) and provides the starting point
for the second, which optimises the full objective.  Steps use a backtracking
line search by default; a fixed-step mode exists and is guarded against
divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .kernels import GramMatrix
from .logic import GIVEN, LEARNED, CompiledConstraint, PredicateBinding, TNORMS

ARMIJO = 1e-4
MAX_HALVINGS = 60

CONSTRAINT_SCOPES = ("unsupervised", "all")

Example = str | tuple[str, str]


class LearnerError(ValueError):
    """Invalid task, configuration or model input."""


class DivergenceError(RuntimeError):
    """Fixed-step descent grew the objective for too many consecutive steps."""

    def __init__(self, stage: str, iteration: int, objective: float):
        super().__init__(
            f"objective diverged during {stage} at iteration {iteration} "
            f"(value {objective:.6g}); lower the learning rate"
        )
        self.stage = stage
        self.iteration = iteration
        self.objective = objective


def pair_key(pair: tuple[str, str]) -> str:
    return f"{pair[0]}|{pair[1]}"


@dataclass(frozen=True)
class TaskSpec:
    """One predicate to train (or echo) over an ordered example list.

    Learned tasks carry a Gram matrix aligned with ``examples`` and 0/1
    labels on the supervised subset.  Given tasks carry a read-only value
    table instead and are never touched by training.
    """

    predicate: str
    arity: int
    examples: tuple[Example, ...]
    mode: str = LEARNED
    gram: GramMatrix | None = None
    labels: Mapping[Example, float] | None = None
    values: Mapping[Example, float] | None = None

    def __post_init__(self):
        if self.arity not in (1, 2):
            raise LearnerError(f"task {self.predicate!r}: arity must be 1 or 2")
        if self.mode not in (LEARNED, GIVEN):
            raise LearnerError(f"task {self.predicate!r}: unknown mode {self.mode!r}")
        if len(set(self.examples)) != len(self.examples):
            raise LearnerError(f"task {self.predicate!r}: duplicate examples")
        if self.mode == LEARNED:
            if self.gram is None:
                raise LearnerError(f"task {self.predicate!r}: learned task needs a Gram matrix")
            expected = tuple(
                e if self.arity == 1 else pair_key(e) for e in self.examples  # type: ignore[arg-type]
            )
            if self.gram.ids != expected:
                raise LearnerError(
                    f"task {self.predicate!r}: Gram ids do not match the example list"
                )
            labels = self.labels or {}
            known = set(self.examples)
            for example, value in labels.items():
                if example not in known:
                    raise LearnerError(
                        f"task {self.predicate!r}: label on unknown example {example!r}"
                    )
                if value not in (0, 1, 0.0, 1.0):
                    raise LearnerError(
                        f"task {self.predicate!r}: labels must be 0 or 1, got {value!r}"
                    )
        else:
            if self.values is None:
                raise LearnerError(f"task {self.predicate!r}: given task needs a value table")
            missing = [e for e in self.examples if e not in self.values]
            if missing:
                raise LearnerError(
                    f"task {self.predicate!r}: no value for example {missing[0]!r}"
                )

    @property
    def size(self) -> int:
        return len(self.examples)

    def labeled_indices(self) -> np.ndarray:
        labels = self.labels or {}
        return np.array(
            [i for i, e in enumerate(self.examples) if e in labels], dtype=np.intp
        )

    def label_vector(self) -> np.ndarray:
        labels = self.labels or {}
        return np.array(
            [float(labels[e]) for e in self.examples if e in labels], dtype=np.float64
        )


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
    line_search: bool = True
    divergence_patience: int = 20

    def __post_init__(self):
        if self.lambda_r < 0 or self.lambda_c < 0:
            raise LearnerError("regularization weights must be non-negative")
        if self.tnorm not in TNORMS:
            raise LearnerError(f"unknown t-norm {self.tnorm!r}")
        if self.learning_rate <= 0:
            raise LearnerError("learning rate must be positive")
        if self.max_iterations < 1:
            raise LearnerError("at least one iteration is required")
        if self.tolerance < 0:
            raise LearnerError("tolerance must be non-negative")
        if not 0.0 < self.threshold < 1.0:
            raise LearnerError("decision threshold must lie in (0, 1)")
        if self.undecided_band < 0:
            raise LearnerError("undecided band must be non-negative")
        if self.constraint_scope not in CONSTRAINT_SCOPES:
            raise LearnerError(f"unknown constraint scope {self.constraint_scope!r}")
        if self.divergence_patience < 1:
            raise LearnerError("divergence patience must be at least 1")


@dataclass(frozen=True)
class TrainTrace:
    """Objective values per accepted step, one tuple per stage.

    ``stage1[0]`` is the objective at the zero start; ``stage2`` is empty
    when the constraint stage was skipped (no constraints or lambda_c = 0).
    """

    stage1: tuple[float, ...]
    stage2: tuple[float, ...] = ()


@dataclass(frozen=True)
class Model:
    alphas: Mapping[str, np.ndarray]
    trace: TrainTrace = field(default_factory=lambda: TrainTrace((),))

    def alpha(self, predicate: str) -> np.ndarray:
        try:
            return self.alphas[predicate]
        except KeyError:
            raise LearnerError(f"model has no weights for predicate {predicate!r}") from None


def predicate_bindings(tasks: Iterable[TaskSpec]) -> dict[str, PredicateBinding]:
    """Compiler bindings for a task list: index maps for learned predicates,
    value tables for given ones."""
    out: dict[str, PredicateBinding] = {}
    for task in tasks:
        if task.predicate in out:
            raise LearnerError(f"duplicate task predicate {task.predicate!r}")
        if task.mode == GIVEN:
            out[task.predicate] = PredicateBinding(
                task.predicate, task.arity, GIVEN, table=dict(task.values or {})
            )
        elif task.arity == 1:
            positions = {e: i for i, e in enumerate(task.examples)}
            out[task.predicate] = PredicateBinding(
                task.predicate, 1, LEARNED, positions=positions
            )
        else:
            pair_positions = {e: i for i, e in enumerate(task.examples)}
            out[task.predicate] = PredicateBinding(
                task.predicate, 2, LEARNED, pair_positions=pair_positions
            )
    return out


def decision_values(model: Model, task: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Raw scores ``G @ alpha`` and their clamp to [0, 1]."""
    if task.mode != LEARNED:
        raise LearnerError(f"task {task.predicate!r} is not learned")
    alpha = np.asarray(model.alpha(task.predicate), dtype=np.float64)
    if alpha.shape != (task.size,):
        raise LearnerError(
            f"weights for {task.predicate!r} have shape {alpha.shape}, "
            f"expected ({task.size},)"
        )
    scores = task.gram.matrix @ alpha  # type: ignore[union-attr]
    return scores, np.clip(scores, 0.0, 1.0)


class _Workspace:
    """Validated, array-ified view of one training problem."""

    def __init__(
        self,
        tasks: Sequence[TaskSpec],
        constraints: Sequence[CompiledConstraint],
        config: TrainConfig,
        check_psd: bool = False,
    ):
        self.config = config
        self.learned = [t for t in tasks if t.mode == LEARNED]
        if not self.learned:
            raise LearnerError("training needs at least one learned task")
        seen: set[str] = set()
        for task in tasks:
            if task.predicate in seen:
                raise LearnerError(f"duplicate task predicate {task.predicate!r}")
            seen.add(task.predicate)
        self.constraints = tuple(constraints)
        sizes = {t.predicate: t.size for t in self.learned}
        for constraint in self.constraints:
            for slot in constraint.slots:
                if slot.mode != LEARNED:
                    continue
                if slot.pred not in sizes:
                    raise LearnerError(
                        f"constraint {constraint.text!r} references unknown "
                        f"learned predicate {slot.pred!r}"
                    )
                if slot.out_size != sizes[slot.pred]:
                    raise LearnerError(
                        f"constraint {constraint.text!r} was compiled for "
                        f"{slot.out_size} outputs of {slot.pred!r}, task has "
                        f"{sizes[slot.pred]}"
                    )
        if check_psd:
            # Tasks often share one Gram object; check each distinct one once.
            checked: set[int] = set()
            for task in self.learned:
                if id(task.gram) in checked:
                    continue
                checked.add(id(task.gram))
                ok, smallest = task.gram.psd_check()  # type: ignore[union-attr]
                if not ok:
                    raise LearnerError(
                        f"Gram matrix of task {task.predicate!r} is not positive "
                        f"semi-definite (smallest eigenvalue {smallest:.3g})"
                    )
        self.grams = {t.predicate: t.gram.matrix for t in self.learned}  # type: ignore[union-attr]
        self.labeled = {t.predicate: t.labeled_indices() for t in self.learned}
        self.targets = {t.predicate: t.label_vector() for t in self.learned}
        self.given_outputs = {
            t.predicate: np.array([float(t.values[e]) for e in t.examples])  # type: ignore[index]
            for t in tasks
            if t.mode == GIVEN
        }

    def zero_alphas(self) -> dict[str, np.ndarray]:
        return {t.predicate: np.zeros(t.size, dtype=np.float64) for t in self.learned}

    def _scores(self, alphas: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {p: self.grams[p] @ np.asarray(alphas[p], dtype=np.float64) for p in self.grams}

    def evaluate(
        self, alphas: Mapping[str, np.ndarray], lambda_c: float, with_gradient: bool
    ) -> tuple[float, dict[str, np.ndarray] | None]:
        """Objective at ``alphas`` and, when asked, its gradient wrt each task's weights."""
        lambda_r = self.config.lambda_r
        scores = self._scores(alphas)
        total = 0.0
        grads: dict[str, np.ndarray] = {}
        for task in self.learned:
            p = task.predicate
            s = scores[p]
            total += lambda_r * float(np.asarray(alphas[p]) @ s)
            if with_gradient:
                grads[p] = lambda_r * 2.0 * s
            idx = self.labeled[p]
            if idx.size:
                residual = s[idx] - self.targets[p]
                total += float(residual @ residual)
                if with_gradient:
                    full = np.zeros_like(s)
                    full[idx] = residual
                    grads[p] = grads[p] + 2.0 * (self.grams[p] @ full)
        if lambda_c and self.constraints:
            outputs = self._constraint_outputs(scores)
            dtruth = {p: np.zeros_like(s) for p, s in scores.items()}
            for constraint in self.constraints:
                if with_gradient:
                    phi, partials = constraint.penalty_and_gradients(outputs)
                    for pred, grad in partials.items():
                        if pred in dtruth:
                            dtruth[pred] += grad
                else:
                    phi = constraint.penalty(outputs)
                total += lambda_c * phi
            if with_gradient:
                for task in self.learned:
                    p = task.predicate
                    s = scores[p]
                    # Slope 1 on the closed unit interval: a task parked exactly
                    # at the boundary (e.g. an unlabeled one starting from zero)
                    # must still feel the constraints.
                    inside = (s >= 0.0) & (s <= 1.0)
                    dscore = np.where(inside, dtruth[p], 0.0)
                    grads[p] = grads[p] + lambda_c * (self.grams[p] @ dscore)
        return total, (grads if with_gradient else None)

    def _constraint_outputs(self, scores: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        outputs = {p: np.clip(s, 0.0, 1.0) for p, s in scores.items()}
        outputs.update(self.given_outputs)
        return outputs


def objective(
    model: Model,
    tasks: Sequence[TaskSpec],
    constraints: Sequence[CompiledConstraint],
    config: TrainConfig,
) -> float:
    """Full objective at the model's weights (constraints at full strength)."""
    ws = _Workspace(tasks, constraints, config)
    alphas = {t.predicate: model.alpha(t.predicate) for t in ws.learned}
    return ws.evaluate(alphas, config.lambda_c, False)[0]


def objective_gradient(
    model: Model,
    tasks: Sequence[TaskSpec],
    constraints: Sequence[CompiledConstraint],
    config: TrainConfig,
) -> dict[str, np.ndarray]:
    """Gradient of the full objective with respect to each task's weights."""
    ws = _Workspace(tasks, constraints, config)
    alphas = {t.predicate: model.alpha(t.predicate) for t in ws.learned}
    return ws.evaluate(alphas, config.lambda_c, True)[1]  # type: ignore[return-value]


def _descend(
    ws: _Workspace, alphas: dict[str, np.ndarray], lambda_c: float, stage: str
) -> tuple[list[float], dict[str, np.ndarray]]:
    config = ws.config
    current, grads = ws.evaluate(alphas, lambda_c, True)
    if not np.isfinite(current):
        raise DivergenceError(stage, 0, current)
    history = [current]
    growth = 0
    for iteration in range(config.max_iterations):
        if iteration:
            _, grads = ws.evaluate(alphas, lambda_c, True)
        norm2 = sum(float(g @ g) for g in grads.values())
        if norm2 == 0.0:
            break
        if config.line_search:
            step = config.learning_rate
            candidate = None
            for _ in range(MAX_HALVINGS):
                trial = {p: alphas[p] - step * grads[p] for p in alphas}
                value, _ = ws.evaluate(trial, lambda_c, False)
                if value <= current - ARMIJO * step * norm2:
                    candidate = (trial, value)
                    break
                step *= 0.5
            if candidate is None:
                break
            alphas, value = candidate
        else:
            alphas = {p: alphas[p] - config.learning_rate * grads[p] for p in alphas}
            value, _ = ws.evaluate(alphas, lambda_c, False)
            if not np.isfinite(value):
                raise DivergenceError(stage, iteration + 1, value)
            if value > current:
                growth += 1
                if growth >= config.divergence_patience:
                    raise DivergenceError(stage, iteration + 1, value)
            else:
                growth = 0
        history.append(value)
        relative = abs(current - value) / max(1.0, abs(current))
        current = value
        if config.line_search and relative < config.tolerance:
            break
    return history, alphas


def train(
    tasks: Sequence[TaskSpec],
    constraints: Sequence[CompiledConstraint],
    config: TrainConfig,
) -> Model:
    """Two-stage descent: label fit first, then the constrained objective.

    Stage one starts from zero weights with the constraint term switched
    off.  Stage two resumes from its result at full constraint strength and
    is skipped outright when there are no constraints or lambda_c is zero,
    leaving the trace bit-identical to a constraint-free run.
    """
    ws = _Workspace(tasks, constraints, config, check_psd=True)
    alphas = ws.zero_alphas()
    stage1, alphas = _descend(ws, alphas, 0.0, "stage 1")
    if config.lambda_c > 0 and ws.constraints:
        stage2, alphas = _descend(ws, alphas, config.lambda_c, "stage 2")
    else:
        stage2 = []
    frozen = {p: a.copy() for p, a in alphas.items()}
    return Model(frozen, TrainTrace(tuple(stage1), tuple(stage2)))


@dataclass(frozen=True)
class TaskPrediction:
    predicate: str
    examples: tuple[Example, ...]
    truths: np.ndarray
    positive: np.ndarray
    undecided: np.ndarray


def predict(
    model: Model, tasks: Sequence[TaskSpec], config: TrainConfig
) -> dict[str, TaskPrediction]:
    """Decision per example: truth at or above the threshold reads positive,
    truths within the undecided band around it are additionally flagged."""
    out: dict[str, TaskPrediction] = {}
    for task in tasks:
        if task.mode == GIVEN:
            truths = np.array([float(task.values[e]) for e in task.examples])  # type: ignore[index]
        else:
            _, truths = decision_values(model, task)
        positive = truths >= config.threshold
        undecided = np.abs(truths - config.threshold) < config.undecided_band
        out[task.predicate] = TaskPrediction(
            task.predicate, task.examples, truths, positive, undecided
        )
    return out
