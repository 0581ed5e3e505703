"""Prediction-quality metrics, recall-sampled curve averaging, and fold assignment.

Three groups of tools live here:

* multi-label metrics over boolean examples × predicates matrices —
  example-averaged precision/recall/F1, pooled and per-predicate-averaged
  label metrics, and a hierarchy-consistency score that checks predictions
  against the parent links of a term cut;
* precision-recall curves swept over decision thresholds, plus an averaging
  routine that samples every curve on a shared recall grid and a trapezoidal
  area summary;
* balanced fold generation that spreads the positives of rare terms across
  folds before assigning the common ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ontology import GoCut

__all__ = [
    "EvalError",
    "PredictionSet",
    "ExampleMetrics",
    "LabelMetrics",
    "PRCurve",
    "example_metrics",
    "label_metrics",
    "predicate_metrics",
    "consistency",
    "pr_curve",
    "average_pr_curves",
    "auc_pr",
    "generate_folds",
]

CURVE_SAMPLES = 100  # average_pr_curves' recall grid steps


class EvalError(ValueError):
    """Raised for invalid metric, curve, or fold-generation inputs."""


class PredictionSet:
    """Multi-label predictions for a batch of examples.

    Three read-only boolean examples × predicates matrices: the truth, the
    predictions, and the entries whose decision fell inside the undecided
    band.  Confusion counts are column sums (and always sum to the number of
    examples) and per-example counts are row sums.  Built by
    :meth:`from_matrices`.
    """

    predicates: tuple[str, ...]
    examples: tuple[str, ...]
    truth: np.ndarray
    predicted: np.ndarray
    undecided: np.ndarray

    @classmethod
    def from_matrices(
        cls,
        predicates: Sequence[str],
        examples: Sequence[str],
        truth: np.ndarray,
        predicted: np.ndarray,
        undecided: np.ndarray,
    ) -> "PredictionSet":
        """Wrap boolean examples × predicates matrices (copied)."""
        predicates, examples = tuple(predicates), tuple(examples)
        if len(set(predicates)) != len(predicates):
            raise EvalError("duplicate predicate ids")
        if len(set(examples)) != len(examples):
            raise EvalError("duplicate example ids")
        shape = (len(examples), len(predicates))
        matrices = [np.array(m, dtype=bool) for m in (truth, predicted, undecided)]
        if any(m.shape != shape for m in matrices):
            raise EvalError(f"prediction matrices must have shape {shape}")
        for matrix in matrices:
            matrix.setflags(write=False)
        self = cls.__new__(cls)
        self.predicates, self.examples = predicates, examples
        self.truth, self.predicted, self.undecided = matrices
        return self

    @property
    def n(self) -> int:
        return len(self.examples)

    def confusion_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-predicate (TP, FP, FN, TN) count vectors, in predicate order."""
        truth, predicted = self.truth, self.predicted
        tp = np.count_nonzero(truth & predicted, axis=0)
        fp = np.count_nonzero(predicted, axis=0) - tp
        fn = np.count_nonzero(truth, axis=0) - tp
        return tp, fp, fn, self.n - tp - fp - fn

    def columns(self, keep: Sequence[int]) -> "PredictionSet":
        """The predictions of the predicates at positions ``keep`` only."""
        return PredictionSet.from_matrices(
            [self.predicates[j] for j in keep], self.examples,
            self.truth[:, keep], self.predicted[:, keep], self.undecided[:, keep],
        )

    def filtered(self) -> "PredictionSet":
        """Drop every undecided entry from the computation.

        An undecided (example, predicate) entry is cleared in both the truth
        and the predicted matrix, so it contributes to none of the precision,
        recall, or F1 counts.
        """
        decided = ~self.undecided
        return PredictionSet.from_matrices(
            self.predicates, self.examples, self.truth & decided,
            self.predicted & decided, np.zeros_like(decided),
        )


def _running_sum(values: np.ndarray) -> float:
    """Sum left to right, rounding after each addition as a ``+=`` loop does
    (``np.add.accumulate`` never regroups, unlike ``np.sum``)."""
    return float(np.add.accumulate(values)[-1])


class ExampleMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    exact_match: float


class LabelMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float


def example_metrics(preds: PredictionSet) -> ExampleMetrics:
    """Average per-example precision, recall, F1, and the exact-match ratio.

    Per-example conventions: an empty predicted set contributes 0 to the
    precision average, an empty truth set contributes 0 to the recall
    average, and an example where both sets are empty counts as a perfect
    match for F1.  Per-example values are summed in example order.
    """
    if preds.n == 0:
        raise EvalError("example_metrics requires at least one example")
    truth, predicted = preds.truth, preds.predicted
    hit = np.count_nonzero(truth & predicted, axis=1)
    n_true = np.count_nonzero(truth, axis=1)
    n_chosen = np.count_nonzero(predicted, axis=1)
    both = n_true + n_chosen
    precision = np.divide(hit, n_chosen, out=np.zeros(preds.n), where=n_chosen > 0)
    recall = np.divide(hit, n_true, out=np.zeros(preds.n), where=n_true > 0)
    f1 = np.divide(2.0 * hit, both, out=np.ones(preds.n), where=both > 0)
    exact = np.count_nonzero((truth == predicted).all(axis=1))
    n = preds.n
    return ExampleMetrics(
        _running_sum(precision) / n, _running_sum(recall) / n,
        _running_sum(f1) / n, float(exact) / n,
    )


def label_metrics(preds: PredictionSet, average: str = "micro") -> LabelMetrics:
    """Per-predicate metrics, either pooled (micro) or averaged (macro).

    Zero-denominator terms contribute 0.  Macro averages add the
    per-predicate values with the built-in ``sum``, in predicate order.
    """
    if not preds.predicates:
        raise EvalError("label_metrics requires at least one scored predicate")
    if average == "micro":
        tp, fp, fn = (int(c.sum()) for c in preds.confusion_counts()[:3])
        return LabelMetrics(
            _ratio(tp, tp + fp), _ratio(tp, tp + fn), _ratio(2 * tp, 2 * tp + fp + fn)
        )
    if average == "macro":
        k = len(preds.predicates)
        return LabelMetrics(*(sum(values) / k for values in predicate_metrics(preds)))
    raise EvalError(f"unknown averaging mode {average!r}")


def predicate_metrics(preds: PredictionSet) -> tuple[list[float], list[float], list[float]]:
    """Precision, recall and F1 lists, one value per predicate in predicate
    order; a zero denominator gives 0."""
    tp, fp, fn, _ = preds.confusion_counts()
    return _ratios(tp, tp + fp), _ratios(tp, tp + fn), _ratios(2 * tp, 2 * tp + fp + fn)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _ratios(num: np.ndarray, den: np.ndarray) -> list[float]:
    """``_ratio`` elementwise."""
    return np.divide(num, den, out=np.zeros(num.shape), where=den > 0).tolist()


def consistency(preds: PredictionSet, cut: GoCut) -> float:
    """How well predicted sets respect the parent links of the cut.

    Each predicted node scores 1 when it sits at depth <= 1 (or has no
    parents inside the cut) and otherwise scores the fraction of its cut
    parents that are also predicted; scores are averaged per example and
    then over examples.  An empty predicted set counts as fully consistent.

    Each node's predicted parents are counted over its parent columns for
    all examples at once, in O(examples x parent links) with no
    nodes x nodes array.  Each example's node scores are added
    exactly (``math.fsum``), so the result does not depend on node order;
    the per-example means are summed in example order.
    """
    if preds.n == 0:
        raise EvalError("consistency requires at least one example")
    known = set(cut.nodes())
    predicted = preds.predicted
    outside = [j for j, node in enumerate(preds.predicates) if node not in known]
    if outside:
        stray = predicted[:, outside].any(axis=1)
        if stray.any():
            i = int(np.argmax(stray))
            node = preds.predicates[outside[int(np.argmax(predicted[i, outside]))]]
            raise EvalError(
                f"predicted node {node!r} for {preds.examples[i]!r} is not part of the cut"
            )
    column = {node: j for j, node in enumerate(preds.predicates)}
    scores = np.ones(predicted.shape)  # a free node scores 1 wherever it is predicted
    for j, node in enumerate(preds.predicates):
        if node not in known:
            continue
        parents = cut.par(node)
        if cut.level(node) <= 1 or not parents:
            continue
        cols = [column[p] for p in parents if p in column]
        scores[:, j] = np.count_nonzero(predicted[:, cols], axis=1) / len(parents)
    sizes = np.count_nonzero(predicted, axis=1)
    means = [
        math.fsum(row[chosen]) / size if size else 1.0
        for row, chosen, size in zip(scores, predicted, sizes.tolist())
    ]
    return _running_sum(np.array(means)) / preds.n


@dataclass(frozen=True)
class PRCurve:
    """A precision-recall curve as parallel coordinate tuples.

    Recalls are non-decreasing; a threshold sweep produces them in that
    order because lowering the threshold can only add true positives.
    """

    recalls: tuple[float, ...]
    precisions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.recalls) != len(self.precisions):
            raise EvalError("recall and precision lists differ in length")
        if not self.recalls:
            raise EvalError("a curve needs at least one point")
        for values in (self.recalls, self.precisions):
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise EvalError(f"curve coordinate {v!r} outside [0, 1]")
        if any(b < a for a, b in zip(self.recalls, self.recalls[1:])):
            raise EvalError("recall coordinates must be non-decreasing")

    def __len__(self) -> int:
        return len(self.recalls)


def pr_curve(truths: Sequence[float], labels: Sequence[int]) -> PRCurve:
    """Sweep decision thresholds over the distinct scores, descending.

    Each attained score value becomes a threshold (prediction = score >=
    threshold).  A recall-0 anchor with the precision of the top-score
    point is prepended so the curve always starts at recall 0.
    """
    scores = np.asarray(truths, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if scores.ndim != 1 or y.shape != scores.shape:
        raise EvalError("scores and labels must be 1-D and equally long")
    if scores.size == 0:
        raise EvalError("pr_curve requires at least one example")
    if not np.all(np.isfinite(scores)):
        raise EvalError("scores must be finite")
    positives = int(np.count_nonzero(y))
    if positives == 0:
        raise EvalError("pr_curve requires at least one positive example")
    # Scores descending: the examples predicted at a threshold form a prefix,
    # and each distinct score ends one prefix (-0.0 ties with 0.0).
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    hits = np.cumsum(y[order])[ends].tolist()
    precisions = [tp / (end + 1) for tp, end in zip(hits, ends.tolist())]
    recalls = [tp / positives for tp in hits]
    return PRCurve((0.0, *recalls), (precisions[0], *precisions))


def average_pr_curves(curves: Iterable[PRCurve]) -> PRCurve:
    """Mean curve over a shared recall grid of ``CURVE_SAMPLES + 1`` points.

    Every input curve is interpolated at recall i/CURVE_SAMPLES for
    i = 0..CURVE_SAMPLES, by a line through the two recall-neighbouring
    points, and the precisions are averaged pointwise, curve by curve.
    Samples beyond either end clamp to the end point, a single-point curve
    is constant, and an exact hit on a repeated recall value resolves to
    the last swept point at that recall.
    """
    pool = tuple(curves)
    if not pool:
        raise EvalError("average_pr_curves requires at least one curve")
    grid = tuple(i / CURVE_SAMPLES for i in range(CURVE_SAMPLES + 1))
    x = np.array(grid)
    total = np.zeros(x.size)
    for curve in pool:
        r, p = np.array(curve.recalls), np.array(curve.precisions)
        # Beyond either end both neighbours clamp to the end point: a hit.
        right = np.minimum(np.searchsorted(r, x, "left"), r.size - 1)
        left = np.maximum(np.searchsorted(r, x, "right") - 1, 0)
        hit = r[left] == r[right]
        t = (x - r[left]) / np.where(hit, 1.0, r[right] - r[left])
        total += np.where(hit, p[left], p[left] + (p[right] - p[left]) * t)
    return PRCurve(grid, tuple((total / len(pool)).tolist()))


def auc_pr(curve: PRCurve) -> float:
    """Trapezoidal area under a precision-recall curve."""
    return float(np.trapezoid(curve.precisions, curve.recalls))


def generate_folds(
    n: int,
    proteins: Sequence[str],
    terms: Iterable[str],
    term_proteins: Mapping[str, Iterable[str]],
) -> tuple[tuple[str, ...], ...]:
    """Split ``proteins`` into ``n`` balanced folds, rare terms first.

    Terms are processed by ascending positive count (ties by id); each
    still-unassigned protein of the current term goes to the smallest fold
    (ties to the lowest fold index).  Proteins covered by no term are swept
    into the smallest folds at the end, so the folds always partition the
    protein list and their sizes differ by at most one.
    """
    ordered = tuple(proteins)
    if len(set(ordered)) != len(ordered):
        raise EvalError("duplicate protein ids")
    if n < 2:
        raise EvalError("fold count must be at least 2")
    if n > len(ordered):
        raise EvalError(f"cannot split {len(ordered)} proteins into {n} folds")
    term_list = tuple(terms)
    if len(set(term_list)) != len(term_list):
        raise EvalError("duplicate term ids")
    rank = {protein: index for index, protein in enumerate(ordered)}
    members: dict[str, list[str]] = {}
    for term in term_list:
        group = set(term_proteins.get(term, ()))
        for protein in group:
            if protein not in rank:
                raise EvalError(
                    f"term {term!r} references unknown protein {protein!r}"
                )
        members[term] = sorted(group, key=rank.__getitem__)

    folds: list[list[str]] = [[] for _ in range(n)]
    assigned: set[str] = set()

    def smallest() -> list[str]:
        return min(folds, key=len)

    for term in sorted(term_list, key=lambda t: (len(members[t]), t)):
        for protein in members[term]:
            if protein not in assigned:
                smallest().append(protein)
                assigned.add(protein)
    for protein in ordered:
        if protein not in assigned:
            smallest().append(protein)
            assigned.add(protein)
    return tuple(tuple(fold) for fold in folds)
