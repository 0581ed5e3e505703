"""Prediction-quality metrics, recall-sampled curve averaging, and fold assignment.

Three groups of tools live here:

* multi-label metrics over a batch of per-protein prediction sets —
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

from bisect import bisect_left, bisect_right
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
    "consistency",
    "pr_curve",
    "average_pr_curves",
    "auc_pr",
    "generate_folds",
]


class EvalError(ValueError):
    """Raised for invalid metric, curve, or fold-generation inputs."""


@dataclass(frozen=True)
class PredictionSet:
    """Multi-label predictions for a batch of examples.

    Each example carries a truth set, a predicted set, and the subset of
    predicates whose decision fell inside the undecided band.  Confusion
    counts per predicate are derived on demand and always sum to the number
    of examples.
    """

    predicates: tuple[str, ...]
    examples: tuple[str, ...]
    truth_sets: tuple[frozenset[str], ...]
    predicted_sets: tuple[frozenset[str], ...]
    undecided_sets: tuple[frozenset[str], ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.predicates)) != len(self.predicates):
            raise EvalError("duplicate predicate ids")
        if len(set(self.examples)) != len(self.examples):
            raise EvalError("duplicate example ids")
        if self.undecided_sets == () and self.examples:
            object.__setattr__(
                self, "undecided_sets", tuple(frozenset() for _ in self.examples)
            )
        for name, sets in (
            ("truth", self.truth_sets),
            ("predicted", self.predicted_sets),
            ("undecided", self.undecided_sets),
        ):
            if len(sets) != len(self.examples):
                raise EvalError(f"{name} sets do not match the example count")
            universe = set(self.predicates)
            for example, members in zip(self.examples, sets):
                unknown = set(members) - universe
                if unknown:
                    raise EvalError(
                        f"{name} set of {example!r} references unknown "
                        f"predicates {sorted(unknown)}"
                    )

    @property
    def n(self) -> int:
        return len(self.examples)

    def confusion(self, predicate: str) -> tuple[int, int, int, int]:
        """Return (TP, FP, FN, TN) counts for one predicate."""
        if predicate not in self.predicates:
            raise EvalError(f"unknown predicate {predicate!r}")
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

    def filtered(self) -> "PredictionSet":
        """Drop every undecided entry from the computation.

        An undecided (example, predicate) pair is removed from both the truth
        and the predicted set, so it contributes to none of the precision,
        recall, or F1 counts.
        """
        return PredictionSet(
            self.predicates,
            self.examples,
            tuple(y - u for y, u in zip(self.truth_sets, self.undecided_sets)),
            tuple(z - u for z, u in zip(self.predicted_sets, self.undecided_sets)),
            tuple(frozenset() for _ in self.examples),
        )


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
    match for F1.
    """
    if preds.n == 0:
        raise EvalError("example_metrics requires at least one example")
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


def label_metrics(
    preds: PredictionSet,
    average: str = "micro",
    *,
    excluded: Iterable[str] = (),
) -> LabelMetrics:
    """Per-predicate metrics, either pooled (micro) or averaged (macro).

    ``excluded`` names predicates left out of the computation entirely,
    e.g. the synthetic bin nodes of a term cut.  Zero-denominator terms
    contribute 0.
    """
    dropped = frozenset(excluded)
    kept = [p for p in preds.predicates if p not in dropped]
    if not kept:
        raise EvalError("label_metrics requires at least one scored predicate")
    counts = [preds.confusion(p) for p in kept]
    if average == "micro":
        tp = sum(c[0] for c in counts)
        fp = sum(c[1] for c in counts)
        fn = sum(c[2] for c in counts)
        return LabelMetrics(
            _ratio(tp, tp + fp), _ratio(tp, tp + fn), _ratio(2 * tp, 2 * tp + fp + fn)
        )
    if average == "macro":
        k = len(kept)
        precision = sum(_ratio(tp, tp + fp) for tp, fp, _, _ in counts) / k
        recall = sum(_ratio(tp, tp + fn) for tp, _, fn, _ in counts) / k
        f1 = sum(_ratio(2 * tp, 2 * tp + fp + fn) for tp, fp, fn, _ in counts) / k
        return LabelMetrics(precision, recall, f1)
    raise EvalError(f"unknown averaging mode {average!r}")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def consistency(preds: PredictionSet, cut: GoCut) -> float:
    """How well predicted sets respect the parent links of the cut.

    Each predicted node scores 1 when it sits at depth <= 1 (or has no
    parents inside the cut) and otherwise scores the fraction of its cut
    parents that are also predicted; scores are averaged per example and
    then over examples.  An empty predicted set counts as fully consistent.
    """
    if preds.n == 0:
        raise EvalError("consistency requires at least one example")
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


def _interpolate(curve: PRCurve, recall: float) -> float:
    """Precision of ``curve`` at ``recall``.

    Found by passing a line through the two recall-neighbouring points;
    samples beyond either end clamp to the end point, a single-point curve
    is constant, and an exact hit on a repeated recall value resolves to
    the last swept point at that recall.
    """
    r, p = curve.recalls, curve.precisions
    if len(r) == 1:
        return p[0]
    right = bisect_left(r, recall)
    if right == len(r):
        return p[-1]
    left = bisect_right(r, recall) - 1
    if left < 0:
        return p[0]
    if r[left] == r[right]:
        return p[left]
    t = (recall - r[left]) / (r[right] - r[left])
    return p[left] + (p[right] - p[left]) * t


def average_pr_curves(curves: Iterable[PRCurve], n_samples: int = 100) -> PRCurve:
    """Mean curve over a shared recall grid of ``n_samples + 1`` points.

    Every input curve is interpolated at recall i/n_samples for
    i = 0..n_samples and the precisions are averaged pointwise.
    """
    pool = tuple(curves)
    if not pool:
        raise EvalError("average_pr_curves requires at least one curve")
    if n_samples < 1:
        raise EvalError("n_samples must be at least 1")
    grid = tuple(i / n_samples for i in range(n_samples + 1))
    averaged = tuple(
        sum(_interpolate(curve, x) for curve in pool) / len(pool) for x in grid
    )
    return PRCurve(grid, averaged)


def auc_pr(curve: PRCurve) -> float:
    """Trapezoidal area under a precision-recall curve."""
    return float(np.trapezoid(curve.precisions, curve.recalls))


def generate_folds(
    n: int,
    proteins: Sequence[str],
    terms: Iterable[str],
    protein_terms: Mapping[str, Iterable[str]],
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
    members: dict[str, tuple[str, ...]] = {}
    for term in term_list:
        group = set(term_proteins.get(term, ()))
        for protein in group:
            if protein not in rank:
                raise EvalError(
                    f"term {term!r} references unknown protein {protein!r}"
                )
            if term not in set(protein_terms.get(protein, ())):
                raise EvalError(
                    f"annotation maps disagree on ({protein!r}, {term!r})"
                )
        members[term] = tuple(sorted(group, key=rank.__getitem__))
    for protein in ordered:
        for term in protein_terms.get(protein, ()):
            if term in members and protein not in members[term]:
                raise EvalError(
                    f"annotation maps disagree on ({protein!r}, {term!r})"
                )

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
