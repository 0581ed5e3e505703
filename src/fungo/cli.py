"""Batch front end for cut construction, training, and result export.

Subcommands:

* ``kernel``  — build the configured Gram matrix and write it as CSV;
* ``rules``   — generate the configured constraint rules as a rule file;
* ``folds``   — write a balanced cross-validation fold assignment;
* ``stats``   — interaction-sharing statistics for a pair list;
* ``run``     — cross-validated constrained training with one held-out
  fold per round used as the transductive set, followed by metric
  aggregation, curve export, and per-node statistics;
* ``export-tree`` — the cut as a DOT graph annotated with per-node scores.

Every experiment is driven by a flat ``key = value`` config file; outputs
are plain files in the chosen output directory.  Given the same config,
``run`` produces byte-identical reports.  Folds and training are
deterministic, so the ``seed`` key is only echoed into ``config.txt``.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import io
from .evaluation import (
    PredictionSet,
    auc_pr,
    average_pr_curves,
    consistency,
    example_metrics,
    generate_folds,
    label_metrics,
    pr_curve,
)
from .kernels import (
    GramMatrix,
    InteractionGraph,
    diffusion_kernel,
    domain_gram,
    expression_gram,
    spectrum_gram,
)
from .learner import (
    GIVEN,
    LEARNED,
    DivergenceError,
    TaskSpec,
    TrainConfig,
    pair_key,
    predicate_bindings,
    predict,
    train,
)
from .logic import compile_constraint
from .ontology import (
    DPP,
    PP,
    PROTEIN_DOMAIN,
    AnnotationSet,
    GoCut,
    OntologyDag,
    generate_oc_rules,
    generate_part_of_rules,
    generate_ppi_rules,
    go_cut,
    namespace_coverage,
    parse_obo,
    ppi_statistics,
    tpr_closure,
)

log = logging.getLogger("fungo")

KERNEL_CHOICES = ("spectrum", "domain", "expression", "diffusion", "gram")
RULE_TOKENS = ("none", "OC", "partof", "PP1", "PP2", "DPP1", "DPP2")
SUBCOMMANDS = ("kernel", "rules", "folds", "stats", "run", "export-tree")


class CliError(ValueError):
    """A configuration or usage problem reported to the user."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a flat config file, with paths resolved.

    Its fields, less ``train``, and those of ``TrainConfig`` are the config
    keys; a key left out takes its field's default.
    """

    obo: str
    annotations: str
    namespaces: tuple[str, ...]
    level: int
    min_count: int
    kernel: str
    out: str | None = None
    rules: tuple[str, ...] = ("none",)
    folds: int = 10
    seed: int = 0
    jobs: int | None = None
    sequences: str | None = None
    domains: str | None = None
    expression: str | None = None
    graph: str | None = None
    gram: str | None = None
    pair_gram: str | None = None
    ppi: str | None = None
    k: int = 3
    beta: float = 1.0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if not self.namespaces:
            raise CliError("config key 'namespaces' is empty")
        if self.kernel not in KERNEL_CHOICES:
            raise CliError(
                f"unknown kernel {self.kernel!r} (choose from {KERNEL_CHOICES})"
            )
        _validate_rule_tokens(self.rules)

    def echo(self) -> dict[str, str]:
        """The resolved settings as writable config lines.

        ``jobs`` is left out: the bundle must not depend on it.
        """
        out: dict[str, str] = {}
        for owner in (self, self.train):
            for spec in fields(owner):
                value = getattr(owner, spec.name)
                if spec.name in ("jobs", "train") or value is None:
                    continue
                if isinstance(value, bool):
                    out[spec.name] = "true" if value else "false"
                elif isinstance(value, tuple):
                    out[spec.name] = _SEPARATORS[spec.name].join(value)
                else:
                    out[spec.name] = str(value)
        return out


# How each non-string key is read; list keys are split on their separator.
_KINDS = {
    **dict.fromkeys(("obo", "annotations", "sequences", "domains", "expression",
                     "graph", "gram", "pair_gram", "ppi", "out"), "path"),
    **dict.fromkeys(("level", "min_count", "folds", "seed", "jobs", "k",
                     "max_iterations", "divergence_patience"), "integer"),
    **dict.fromkeys(("beta", "lambda_r", "lambda_c", "learning_rate", "tolerance",
                     "threshold", "undecided_band"), "real"),
    "line_search": "flag",
}
_SEPARATORS = {"namespaces": ",", "rules": "+"}
_TRAIN_KEYS = {spec.name for spec in fields(TrainConfig)}
_KNOWN_KEYS = _TRAIN_KEYS | {spec.name for spec in fields(ExperimentConfig)} - {"train"}
_REQUIRED_KEYS = tuple(
    spec.name for spec in fields(ExperimentConfig)
    if spec.default is MISSING and spec.default_factory is MISSING
)


def _read_value(key: str, text: str, base_dir: str):
    kind = _KINDS.get(key)
    if kind == "path":
        return os.path.abspath(os.path.join(base_dir, text))
    if kind == "integer":
        try:
            return int(text)
        except ValueError:
            raise CliError(f"config key {key!r} must be an integer") from None
    if kind == "real":
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise CliError(f"config key {key!r} must be a finite real number")
        return value
    if kind == "flag":
        if text not in ("true", "false"):
            raise CliError(f"config key {key!r} must be true or false")
        return text == "true"
    if key in _SEPARATORS:
        return tuple(t.strip() for t in text.split(_SEPARATORS[key]) if t.strip())
    return text


def parse_experiment_config(raw: dict[str, str], base_dir: str) -> ExperimentConfig:
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise CliError(f"missing required config key {key!r}")
    values = {key: _read_value(key, text, base_dir) for key, text in raw.items()}
    train = TrainConfig(**{key: values.pop(key) for key in _TRAIN_KEYS & set(raw)})
    return ExperimentConfig(**values, train=train)


def _validate_rule_tokens(tokens: tuple[str, ...]) -> None:
    if not tokens:
        raise CliError("config key 'rules' is empty")
    unknown = sorted(set(tokens) - set(RULE_TOKENS))
    if unknown:
        raise CliError(f"unknown rule tokens: {', '.join(unknown)}")
    if len(set(tokens)) != len(tokens):
        raise CliError("duplicate rule tokens")
    if "none" in tokens and len(tokens) > 1:
        raise CliError("rule set 'none' cannot be combined with others")
    if "partof" in tokens and "OC" not in tokens:
        raise CliError("rule token 'partof' requires 'OC'")
    interaction = [t for t in tokens if t in ("PP1", "PP2", "DPP1", "DPP2")]
    if len(interaction) > 1:
        raise CliError("at most one interaction rule set may be selected")


def _require(value: str | None, key: str, why: str) -> str:
    if value is None:
        raise CliError(f"config key {key!r} is required {why}")
    return value


# ---------------------------------------------------------------------------
# dataset loading


@dataclass(frozen=True)
class Dataset:
    dag: OntologyDag
    proteins: tuple[str, ...]
    closed: AnnotationSet
    cut: GoCut
    dropped: tuple[str, ...]


def load_dataset(config: ExperimentConfig) -> Dataset:
    """Parse the ontology and annotations, then adapt and cut.

    A protein stays in the dataset only if it has at least one annotation
    in every analyzed namespace once closed; drops are counted at INFO and
    listed at DEBUG.  Only the kept proteins' annotations are closed, and
    the cut is built from them.
    """
    dag = parse_obo(io.read_lines(config.obo))
    raw = io.read_annotations(config.annotations)
    coverage = namespace_coverage(raw, dag)
    kept: dict[str, set[str]] = {}
    dropped: list[str] = []
    for protein in sorted(raw):
        missing = [ns for ns in config.namespaces if ns not in coverage[protein]]
        if missing:
            dropped.append(protein)
            log.debug("dropping %s: no annotation in %s", protein, ", ".join(missing))
        else:
            kept[protein] = raw[protein]
    if dropped:
        log.info("dropped %d proteins lacking an annotation in an analyzed namespace",
                 len(dropped))
    if not kept:
        raise CliError("dataset adaptation dropped every protein")
    closed = tpr_closure(kept, dag)
    cut = go_cut(dag, closed, config.namespaces, config.level, config.min_count)
    return Dataset(dag, tuple(sorted(kept)), closed, cut, tuple(dropped))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise io.DataFileError(path, None, f"cannot read file ({exc.strerror})") from exc


def build_gram(config: ExperimentConfig, proteins: tuple[str, ...]) -> GramMatrix:
    """Build (or load and reindex) the configured protein Gram matrix."""
    if config.kernel == "spectrum":
        sequences = io.read_fasta(_require(config.sequences, "sequences",
                                           "for the spectrum kernel"))
        return spectrum_gram(sequences, proteins, k=config.k)
    if config.kernel == "domain":
        annotations = io.read_annotations(
            _require(config.domains, "domains", "for the domain kernel")
        )
        table = {p: annotations.get(p, set()) for p in proteins}
        return domain_gram(table, proteins)
    if config.kernel == "expression":
        ids, matrix = io.read_expression(
            _require(config.expression, "expression", "for the expression kernel")
        )
        profiles = {name: matrix[i] for i, name in enumerate(ids)}
        return expression_gram(profiles, proteins)
    if config.kernel == "diffusion":
        pairs = _canonical_pairs(
            io.read_pairs(_require(config.graph, "graph", "for the diffusion kernel")),
            set(proteins),
        )
        graph = InteractionGraph(proteins, tuple((a, b, 1.0) for a, b in pairs))
        return diffusion_kernel(graph, config.beta)
    loaded = io.read_gram(_require(config.gram, "gram", "for a precomputed kernel"))
    return _reindex_gram(loaded, proteins)


def _reindex_gram(gram: GramMatrix, ids: tuple[str, ...]) -> GramMatrix:
    position = {name: i for i, name in enumerate(gram.ids)}
    missing = [name for name in ids if name not in position]
    if missing:
        raise CliError(f"Gram file has no entry for protein {missing[0]!r}")
    index = np.array([position[name] for name in ids], dtype=np.intp)
    return GramMatrix(ids, gram.matrix[np.ix_(index, index)])


def build_rules(config: ExperimentConfig, cut: GoCut):
    """Materialize the selected rule sets.

    Returns the rule list plus the interaction mode: ``None`` when no rule
    mentions the pair predicate, otherwise ``given`` (pair values read from
    the interaction list) or ``learned`` (pair predicate trained from a
    pair Gram matrix).
    """
    rules = []
    bound_mode: str | None = None
    for token in config.rules:
        if token == "none":
            continue
        if token == "OC":
            rules.extend(generate_oc_rules(cut))
        elif token == "partof":
            rules.extend(generate_part_of_rules(cut))
        else:
            variant = PP if token.startswith("PP") else DPP
            bound_mode = "given" if token.endswith("1") else "learned"
            rules.extend(generate_ppi_rules(cut, variant, bound_mode))
    return rules, bound_mode


# ---------------------------------------------------------------------------
# fold generation


def dataset_folds(config: ExperimentConfig, data: Dataset) -> tuple[tuple[str, ...], ...]:
    terms = tuple(sorted(data.cut.retained))
    term_proteins = {t: data.cut.proteins(t) for t in terms}
    protein_terms: dict[str, set[str]] = {}
    for term, group in term_proteins.items():
        for protein in group:
            protein_terms.setdefault(protein, set()).add(term)
    return generate_folds(config.folds, data.proteins, terms,
                          protein_terms, term_proteins)


# ---------------------------------------------------------------------------
# the run pipeline


@dataclass(frozen=True)
class FoldOutcome:
    index: int
    rows: tuple[io.PredictionRow, ...]
    bound_rows: tuple[io.PredictionRow, ...]
    failure: DivergenceError | None = None


def _canonical_pairs(pairs, known: set[str]) -> tuple[tuple[str, str], ...]:
    out = set()
    skipped = 0
    for a, b in pairs:
        if a == b or a not in known or b not in known:
            log.debug("skipping interaction %s-%s outside the dataset", a, b)
            skipped += 1
            continue
        out.add((min(a, b), max(a, b)))
    if skipped:
        log.info("skipped %d interactions outside the dataset", skipped)
    return tuple(sorted(out))


def _bound_inputs(config: ExperimentConfig, bound_mode: str | None,
                  proteins: tuple[str, ...]):
    """Interaction pairs and, for the learned mode, the pair Gram matrix."""
    if bound_mode is None:
        return None
    pairs = _canonical_pairs(
        io.read_pairs(_require(config.ppi, "ppi", "for interaction rules")),
        set(proteins),
    )
    if not pairs:
        raise CliError("interaction list is empty after dataset adaptation")
    if bound_mode == "given":
        return pairs, None
    loaded = io.read_gram(_require(config.pair_gram, "pair_gram",
                                   "for a learned pair predicate"))
    known = set(proteins)
    examples = []
    keep = []
    for i, name in enumerate(loaded.ids):
        parts = name.split("|")
        if len(parts) != 2:
            raise CliError(f"pair Gram id {name!r} is not 'a|b'")
        if parts[0] in known and parts[1] in known:
            examples.append((parts[0], parts[1]))
            keep.append(i)
        else:
            log.debug("skipping pair Gram entry %s outside the dataset", name)
    if len(keep) < len(loaded.ids):
        log.info("skipped %d pair Gram entries outside the dataset",
                 len(loaded.ids) - len(keep))
    if not examples:
        raise CliError("pair Gram has no pairs inside the dataset")
    index = np.array(keep, dtype=np.intp)
    gram = GramMatrix(
        tuple(pair_key(e) for e in examples), loaded.matrix[np.ix_(index, index)]
    )
    return pairs, (tuple(examples), gram)


def _fold_tasks(data: Dataset, gram: GramMatrix, training: set[str],
                bound_mode: str | None, bound_data) -> list[TaskSpec]:
    tasks = []
    for node in data.cut.nodes():
        members = data.cut.proteins(node)
        labels = {p: (1.0 if p in members else 0.0) for p in training}
        tasks.append(
            TaskSpec(data.cut.predicate(node), 1, data.proteins,
                     LEARNED, gram=gram, labels=labels)
        )
    if bound_mode == "given":
        pairs, _ = bound_data
        if pairs:
            tasks.append(
                TaskSpec("BOUND", 2, pairs, GIVEN,
                         values={pair: 1.0 for pair in pairs})
            )
    elif bound_mode == "learned":
        pairs, (examples, pair_gram) = bound_data
        positive = set(pairs)
        labels = {
            e: (1.0 if (min(e), max(e)) in positive else 0.0)
            for e in examples
            if e[0] in training and e[1] in training
        }
        tasks.append(
            TaskSpec("BOUND", 2, examples, LEARNED, gram=pair_gram, labels=labels)
        )
    return tasks


def _run_fold(index: int, fold: tuple[str, ...], config: ExperimentConfig,
              data: Dataset, gram: GramMatrix, rules, bound_mode,
              bound_data, out_dir: str) -> FoldOutcome:
    held_out = set(fold)
    training = set(data.proteins) - held_out
    assert not (training & held_out), "fold leaked into its training set"
    tasks = _fold_tasks(data, gram, training, bound_mode, bound_data)
    if config.train.constraint_scope == "unsupervised":
        scope = tuple(p for p in data.proteins if p in held_out)
    else:
        scope = data.proteins
    bindings = predicate_bindings(tasks)
    constraints = [
        compile_constraint(rule, config.train.tnorm, {PROTEIN_DOMAIN: scope}, bindings)
        for rule in rules
    ]
    fold_dir = os.path.join(out_dir, f"fold_{index}")
    try:
        model = train(tasks, constraints, config.train)
    except DivergenceError as failure:
        io.atomic_write_text(
            os.path.join(fold_dir, "divergence.txt"),
            f"fold = {index}\n{failure}\n",
        )
        return FoldOutcome(index, (), (), failure)
    predictions = predict(model, tasks, config.train)

    rows: list[io.PredictionRow] = []
    for node in data.cut.nodes():
        predicate = data.cut.predicate(node)
        task_prediction = predictions[predicate]
        for i, example in enumerate(task_prediction.examples):
            if example in held_out:
                rows.append(
                    (example, predicate, float(task_prediction.truths[i]),
                     bool(task_prediction.positive[i]),
                     bool(task_prediction.undecided[i]))
                )
    bound_rows: list[io.PredictionRow] = []
    if bound_mode == "learned":
        # A pair is scored once, in the fold that holds out its lesser protein.
        task_prediction = predictions["BOUND"]
        for i, example in enumerate(task_prediction.examples):
            if min(example) in held_out:
                bound_rows.append(
                    (pair_key(example), "BOUND", float(task_prediction.truths[i]),
                     bool(task_prediction.positive[i]),
                     bool(task_prediction.undecided[i]))
                )
    io.write_predictions(os.path.join(fold_dir, "predictions.tsv"), rows)
    trace_lines = [
        f"stage=1 step={i} objective={value:.17g}"
        for i, value in enumerate(model.trace.stage1)
    ] + [
        f"stage=2 step={i} objective={value:.17g}"
        for i, value in enumerate(model.trace.stage2)
    ]
    io.write_model(
        os.path.join(fold_dir, "model.txt"),
        model.alphas,
        config.echo(),
        trace_lines,
    )
    return FoldOutcome(index, tuple(rows), tuple(bound_rows))


def _aggregate(config: ExperimentConfig, data: Dataset,
               outcomes: list[FoldOutcome], out_dir: str,
               bound_positive: frozenset[str] = frozenset()) -> None:
    """Merge per-fold predictions, compute all metrics, write the bundle."""
    rows: list[io.PredictionRow] = []
    bound_rows: list[io.PredictionRow] = []
    for outcome in sorted(outcomes, key=lambda o: o.index):
        rows.extend(outcome.rows)
        bound_rows.extend(outcome.bound_rows)
    io.write_predictions(os.path.join(out_dir, "predictions.tsv"), rows)
    if bound_rows:
        io.write_predictions(os.path.join(out_dir, "bound_predictions.tsv"),
                             bound_rows)

    # Boolean examples × nodes matrices; folds partition the proteins, so
    # each (protein, node) cell has at most one row.
    cut = data.cut
    nodes = cut.nodes()
    column = {cut.predicate(node): j for j, node in enumerate(nodes)}
    proteins = tuple(sorted({row[0] for row in rows}))
    position = {protein: i for i, protein in enumerate(proteins)}
    cells = [row for row in rows if row[1] in column]
    at = ([position[row[0]] for row in cells], [column[row[1]] for row in cells])
    shape = (len(proteins), len(nodes))
    present = np.zeros(shape, dtype=bool)
    scores = np.zeros(shape)
    predicted = np.zeros(shape, dtype=bool)
    undecided = np.zeros(shape, dtype=bool)
    present[at] = True
    scores[at] = [row[2] for row in cells]
    predicted[at] = [row[3] for row in cells]
    undecided[at] = [row[4] for row in cells]
    truth = np.zeros(shape, dtype=bool)
    for j, node in enumerate(nodes):
        truth[[position[p] for p in cut.proteins(node) if p in position], j] = True

    real = [j for j, node in enumerate(nodes) if not cut.is_bin(node)]
    real_nodes = [nodes[j] for j in real]
    headline = PredictionSet.from_matrices(
        [cut.predicate(node) for node in real_nodes], proteins,
        truth[:, real], predicted[:, real], undecided[:, real],
    )
    node_level = PredictionSet.from_matrices(nodes, proteins, truth, predicted, undecided)

    metrics: dict[str, float] = {}
    for tag, preds in (("", headline), ("filtered_", headline.filtered())):
        example = example_metrics(preds)
        metrics[f"{tag}example_precision"] = example.precision
        metrics[f"{tag}example_recall"] = example.recall
        metrics[f"{tag}example_f1"] = example.f1
        metrics[f"{tag}example_exact_match"] = example.exact_match
        for average in ("micro", "macro"):
            label = label_metrics(preds, average)
            metrics[f"{tag}label_{average}_precision"] = label.precision
            metrics[f"{tag}label_{average}_recall"] = label.recall
            metrics[f"{tag}label_{average}_f1"] = label.f1
    metrics["consistency"] = consistency(node_level, cut)
    metrics["filtered_consistency"] = consistency(node_level.filtered(), cut)

    if bound_rows:
        tp = fp = fn = 0
        for name, _, _, chosen, _ in bound_rows:
            truth_value = name in bound_positive
            if chosen and truth_value:
                tp += 1
            elif chosen:
                fp += 1
            elif truth_value:
                fn += 1
        metrics["bound_precision"] = tp / (tp + fp) if tp + fp else 0.0
        metrics["bound_recall"] = tp / (tp + fn) if tp + fn else 0.0
        metrics["bound_f1"] = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0

    # Per-node statistics drive the result tree and the per-predicate table.
    stats_lines = ["node\tprecision\trecall\tf1"]
    counts = zip(nodes, *(c.tolist() for c in node_level.confusion_counts()[:3]))
    for node, tp, fp, fn in counts:
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        stats_lines.append(
            f"{node}\t{precision:.6f}\t{recall:.6f}\t{f1:.6f}"
        )
    io.atomic_write_text(os.path.join(out_dir, "per_node.tsv"),
                         "\n".join(stats_lines) + "\n")

    curves = []
    curve_dir = os.path.join(out_dir, "curves")
    for j, node in zip(real, real_nodes):
        predicate = cut.predicate(node)
        scored = present[:, j]
        labels = truth[scored, j]
        if not labels.any():
            log.info("no positive test example for %s; curve skipped", predicate)
            continue
        curve = pr_curve(scores[scored, j], labels)
        curves.append(curve)
        io.write_curve_file(os.path.join(curve_dir, f"{predicate}.csv"),
                            curve.recalls, curve.precisions)
    if curves:
        averaged = average_pr_curves(curves)
        io.write_curve_file(os.path.join(out_dir, "curve_average.csv"),
                            averaged.recalls, averaged.precisions)
        metrics["auc_average"] = auc_pr(averaged)

    io.write_metrics_report(os.path.join(out_dir, "metrics.txt"), metrics)


def cmd_run(config: ExperimentConfig) -> int:
    out_dir = _out_dir(config)
    data = load_dataset(config)
    gram = build_gram(config, data.proteins)
    rules, bound_mode = build_rules(config, data.cut)
    folds = dataset_folds(config, data)
    io.write_config(os.path.join(out_dir, "config.txt"), config.echo())
    io.write_rule_file(os.path.join(out_dir, "rules.txt"), rules)
    io.write_folds(os.path.join(out_dir, "folds.tsv"), folds)
    bound_data = _bound_inputs(config, bound_mode, data.proteins)

    # Folds train in threads; more of them than cores only contend for the CPU.
    jobs = config.jobs if config.jobs is not None else os.cpu_count() or 1
    jobs = max(1, min(jobs, len(folds)))
    log.info("training %d folds with %d workers", len(folds), jobs)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [
            pool.submit(_run_fold, index, fold, config, data, gram,
                        rules, bound_mode, bound_data, out_dir)
            for index, fold in enumerate(folds)
        ]
        outcomes = [future.result() for future in futures]

    failed = [o for o in sorted(outcomes, key=lambda o: o.index) if o.failure]
    if failed:
        for outcome in failed:
            log.error("fold %d diverged: %s", outcome.index, outcome.failure)
        print(
            f"error: {len(failed)} fold(s) diverged; partial outputs kept in "
            f"{out_dir}",
            file=sys.stderr,
        )
        return 1
    bound_positive = frozenset()
    if bound_mode == "learned":
        pairs, _ = bound_data
        bound_positive = frozenset(pair_key(pair) for pair in pairs)
    _aggregate(config, data, outcomes, out_dir, bound_positive)
    return 0


# ---------------------------------------------------------------------------
# simple subcommands


def _out_dir(config: ExperimentConfig) -> str:
    if config.out is None:
        raise CliError("an output directory is required (config 'out' or --out)")
    os.makedirs(config.out, exist_ok=True)
    return config.out


def cmd_kernel(config: ExperimentConfig) -> int:
    out_dir = _out_dir(config)
    data = load_dataset(config)
    gram = build_gram(config, data.proteins)
    path = os.path.join(out_dir, f"gram_{config.kernel}.csv")
    io.write_gram(path, gram)
    log.info("wrote %s (%d proteins)", path, len(gram.ids))
    return 0


def cmd_rules(config: ExperimentConfig) -> int:
    out_dir = _out_dir(config)
    data = load_dataset(config)
    rules, _ = build_rules(config, data.cut)
    path = os.path.join(out_dir, "rules.txt")
    io.write_rule_file(path, rules)
    log.info("wrote %d rules to %s", len(rules), path)
    return 0


def cmd_folds(config: ExperimentConfig) -> int:
    out_dir = _out_dir(config)
    data = load_dataset(config)
    folds = dataset_folds(config, data)
    path = os.path.join(out_dir, "folds.tsv")
    io.write_folds(path, folds)
    log.info("wrote %s (%s)", path, "/".join(str(len(f)) for f in folds))
    return 0


def cmd_stats(config: ExperimentConfig) -> int:
    out_dir = _out_dir(config)
    data = load_dataset(config)
    pairs = io.read_pairs(_require(config.ppi, "ppi", "for interaction statistics"))
    stats = ppi_statistics(pairs, data.closed, data.cut)
    lines = ["term\tname\tnamespace\tlevel\tpos\ttot\tratio"]
    for row in stats.rows:
        ratio = "NA" if row.ratio is None else f"{row.ratio:.3f}"
        lines.append(
            f"{row.term_id}\t{row.name}\t{row.namespace}\t{row.level}"
            f"\t{row.pos}\t{row.tot}\t{ratio}"
        )
    lines.append("")
    lines.append("scope\tcount\tmean\tmedian\tstd")
    for scope in sorted(stats.jaccard):
        summary = stats.jaccard[scope]
        if summary.count == 0:
            lines.append(f"{scope}\t0\tNA\tNA\tNA")
        else:
            lines.append(
                f"{scope}\t{summary.count}\t{summary.mean:.3f}"
                f"\t{summary.median:.3f}\t{summary.std:.3f}"
            )
    path = os.path.join(out_dir, "stats.txt")
    io.atomic_write_text(path, "\n".join(lines) + "\n")
    log.info("wrote %s", path)
    return 0


def cmd_export_tree(config: ExperimentConfig) -> int:
    out_dir = _out_dir(config)
    data = load_dataset(config)
    stats_path = os.path.join(out_dir, "per_node.tsv")
    if not os.path.exists(stats_path):
        raise CliError(f"no per-node statistics at {stats_path}; run 'run' first")
    per_node: dict[str, tuple[float, float, float]] = {}
    for number, line in enumerate(_read_text(stats_path).splitlines(), start=1):
        if number == 1 or not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise io.DataFileError(stats_path, number, f"expected 4 fields, got {line!r}")
        per_node[parts[0]] = (float(parts[1]), float(parts[2]), float(parts[3]))

    cut = data.cut
    lines = ["digraph cut {", "  rankdir=BT;", '  node [shape=box];']
    for node in cut.nodes():
        if node not in per_node:
            raise CliError(f"per-node statistics are missing node {node!r}")
        precision, recall, f1 = per_node[node]
        name = node if cut.is_bin(node) else data.dag.terms[node].name
        style = ", style=dashed" if cut.is_bin(node) else ""
        lines.append(
            f'  "{node}" [label="{name}\\n'
            f'P={precision:.3f} R={recall:.3f} F1={f1:.3f}"{style}];'
        )
    for node in cut.nodes():
        for parent in cut.par(node):
            style = " [style=dashed]" if cut.is_bin(node) else ""
            lines.append(f'  "{node}" -> "{parent}"{style};')
    lines.append("}")
    path = os.path.join(out_dir, "tree.dot")
    io.atomic_write_text(path, "\n".join(lines) + "\n")
    log.info("wrote %s", path)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fungo",
        description="Kernel-based protein function prediction with logic rules.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sub = commands.add_parser(name)
        sub.add_argument("--config", required=True, help="flat key = value file")
        sub.add_argument("--out", help="output directory (overrides the config)")
        sub.add_argument("--jobs", type=int, help="max parallel fold workers")
    return parser


_DISPATCH = {
    "kernel": cmd_kernel,
    "rules": cmd_rules,
    "folds": cmd_folds,
    "stats": cmd_stats,
    "run": cmd_run,
    "export-tree": cmd_export_tree,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
        )
    try:
        raw = io.read_config(args.config)
        base_dir = os.path.dirname(os.path.abspath(args.config))
        config = parse_experiment_config(raw, base_dir)
        if args.out is not None:
            config = replace(config, out=os.path.abspath(args.out))
        if args.jobs is not None:
            config = replace(config, jobs=args.jobs)
        return _DISPATCH[args.command](config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
