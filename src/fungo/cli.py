"""Batch front end for cut construction, training, and result export.

Subcommands:

* ``kernel``  — build the configured Gram matrix and write it as CSV;
* ``rules``   — generate the configured constraint rules as a rule file;
* ``folds``   — write a balanced cross-validation fold assignment;
* ``stats``   — interaction-sharing statistics for a pair list;
* ``run``     — cross-validated constrained training: the specs and the
  rule set are built once, each fold hides the labels of its held-out
  proteins, which are its transductive set, and metric aggregation,
  curve export, and per-node statistics follow;
* ``export-tree`` — the cut as a DOT graph annotated with per-node scores.

Every experiment is driven by a flat ``key = value`` config file; every
subcommand makes the output directory, then loads the dataset, and writes
plain files there.  Given the same config,
``run`` produces byte-identical reports.  Folds and training are
deterministic, so the ``seed`` key is only echoed into ``config.txt``.
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property

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
    predicate_metrics,
)
from .kernels import (
    GramMatrix,
    diffusion_kernel,
    domain_gram,
    expression_gram,
    spectrum_gram,
)
from .learner import (
    TaskSpec,
    TrainConfig,
    predicate_bindings,
    predict,
    train,
)
from .logic import CompiledRuleSet, PredicateBinding, compile_constraint
from .ontology import (
    BOUND_PREDICATE,
    DPP,
    PP,
    PROTEIN_DOMAIN,
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
STATS_HEADER = "node\tprecision\trecall\tf1"  # per_node.tsv


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
        """The resolved settings as writable config lines."""
        out: dict[str, str] = {}
        for owner in (self, self.train):
            for spec in fields(owner):
                value = getattr(owner, spec.name)
                if spec.name == "train" or value is None:
                    continue
                if isinstance(value, tuple):
                    out[spec.name] = _SEPARATORS[spec.name].join(value)
                else:
                    out[spec.name] = str(value)
        return out


# How each non-string key is read; list keys are split on their separator.
_KINDS = {
    **dict.fromkeys(("obo", "annotations", "sequences", "domains", "expression",
                     "graph", "gram", "pair_gram", "ppi", "out"), "path"),
    **dict.fromkeys(("level", "min_count", "folds", "seed", "k", "max_iterations"),
                    "integer"),
    **dict.fromkeys(("beta", "lambda_r", "lambda_c", "learning_rate", "tolerance",
                     "threshold", "undecided_band"), "real"),
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
    closed: dict[str, frozenset[str]]
    cut: GoCut
    dropped: tuple[str, ...]

    @cached_property
    def membership(self) -> np.ndarray:
        """Proteins × cut nodes: True where the protein carries the node."""
        members = [self.cut.proteins(node) for node in self.cut.nodes()]
        return np.array([[p in m for m in members] for p in self.proteins], dtype=bool)


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
    list_drops = log.isEnabledFor(logging.DEBUG)
    for protein in sorted(raw):
        missing = [ns for ns in config.namespaces if ns not in coverage[protein]]
        if missing:
            dropped.append(protein)
            if list_drops:
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
        return domain_gram(annotations, proteins)
    if config.kernel == "expression":
        names, profiles = io.read_expression(
            _require(config.expression, "expression", "for the expression kernel")
        )
        return expression_gram(names, profiles, proteins)
    if config.kernel == "diffusion":
        listed = io.read_pairs(_require(config.graph, "graph", "for the diffusion kernel"))
        edges = _inside(listed, set(proteins), "graph edges")
        return diffusion_kernel(proteins, ((a, b, 1.0) for a, b in edges), config.beta)
    loaded = io.read_gram(_require(config.gram, "gram", "for a precomputed kernel"))
    position = {name: i for i, name in enumerate(loaded.ids)}
    for name in proteins:
        if name not in position:
            raise CliError(f"Gram file has no entry for protein {name!r}")
    return loaded.take([position[name] for name in proteins])


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
            rules.extend(generate_ppi_rules(cut, variant))
    return rules, bound_mode


# ---------------------------------------------------------------------------
# fold generation


def dataset_folds(config: ExperimentConfig, data: Dataset) -> tuple[tuple[str, ...], ...]:
    terms = tuple(sorted(data.cut.retained))
    term_proteins = {t: data.cut.proteins(t) for t in terms}
    return generate_folds(config.folds, data.proteins, terms, term_proteins)


# ---------------------------------------------------------------------------
# the run pipeline


def _inside(pairs, known: set[str], what: str) -> dict[tuple[str, str], int]:
    """The unordered pairs of two distinct ``known`` proteins in ``pairs``, in
    ``(min, max)`` order, each mapped to the position of its first mention.

    The other mentions are counted at INFO, one line per kind, naming the
    list as ``what``, and listed at DEBUG.
    """
    first: dict[tuple[str, str], int] = {}
    skipped = dict.fromkeys(("outside the dataset", "that are self-pairs",
                             "that repeat a pair"), 0)
    for i, (a, b) in enumerate(pairs):
        pair = (min(a, b), max(a, b))
        if a not in known or b not in known:
            why = "outside the dataset"
        elif a == b:
            why = "that are self-pairs"
        elif pair in first:
            why = "that repeat a pair"
        else:
            first[pair] = i
            continue
        skipped[why] += 1
        log.debug("skipping %s|%s, one of the %s %s", a, b, what, why)
    for why, count in skipped.items():
        if count:
            log.info("skipped %d %s %s", count, what, why)
    return first


def _bound_inputs(config: ExperimentConfig, bound_mode: str | None,
                  proteins: tuple[str, ...]) -> PredicateBinding | TaskSpec | None:
    """What the rules read of BOUND: the given binding over the interaction
    pairs or, for the learned mode, the BOUND spec over the pair Gram's
    examples, each labelled by whether it is an interaction in either order."""
    if bound_mode is None:
        return None
    known = set(proteins)
    listed = io.read_pairs(_require(config.ppi, "ppi", "for interaction rules"))
    pairs = sorted(_inside(listed, known, "interactions"))
    if not pairs:
        raise CliError("interaction list is empty after dataset adaptation")
    if bound_mode == "given":
        index = {pair: k for k, pair in enumerate(pairs)}
        return PredicateBinding(BOUND_PREDICATE, 2, index, given=True)
    loaded = io.read_gram(_require(config.pair_gram, "pair_gram",
                                   "for a learned pair predicate"))
    written = [tuple(name.split("|")) for name in loaded.ids]
    for name, pair in zip(loaded.ids, written):
        if len(pair) != 2:
            raise CliError(f"pair Gram id {name!r} is not 'a|b'")
    # One example per pair, as written at its first mention in Gram order.
    first = _inside(written, known, "pair Gram entries")
    if not first:
        raise CliError("pair Gram has no pairs inside the dataset")
    keep = list(first.values())
    gram = loaded.take(keep)
    positive = set(pairs)
    return TaskSpec((BOUND_PREDICATE,), 2, tuple(written[i] for i in keep), gram=gram,
                    labels=[[float(pair in positive) for pair in first]])


def _run_fold(index: int, held: np.ndarray, tasks: list[TaskSpec], ends: list[np.ndarray],
              rule_set: CompiledRuleSet, config: ExperimentConfig, out_dir: str,
              predictions: list[tuple[np.ndarray, ...]]) -> None:
    """Train on a fold's specs and set, in each task's run-level
    ``predictions``, the rows of the examples whose lesser protein (of
    ``ends``, each example's protein positions) the fold holds out (mask
    ``held``); a protein is its own lesser protein.  The rows of the first
    task, the proteins', also go to the fold's ``predictions.tsv``."""
    if config.train.constraint_scope == "unsupervised":
        rule_set = rule_set.restricted(held)
    fold_dir = os.path.join(out_dir, f"fold_{index}")
    model = train(tasks, rule_set, config.train)
    for weights, task, e, matrices in zip(model.weights, tasks, ends, predictions):
        rows = held[e.min(axis=1)]
        for whole, part in zip(matrices, predict(weights, task, config.train)):
            whole[rows] = part[rows]
    proteins = np.flatnonzero(held)
    io.write_predictions(os.path.join(fold_dir, "predictions.tsv"),
                         [tasks[0].examples[i] for i in proteins], tasks[0].predicates,
                         *(m[proteins] for m in predictions[0]))
    trace_lines = [f"stage={stage} step={i} objective={value:.17g}"
                   for stage, values in enumerate(model.trace, start=1)
                   for i, value in enumerate(values)]
    io.write_model(os.path.join(fold_dir, "model.txt"), [t.predicates for t in tasks],
                   model.weights, config.echo(), trace_lines)


def _aggregate(data: Dataset, tasks: list[TaskSpec],
               predictions: list[tuple[np.ndarray, ...]], out_dir: str) -> None:
    """Write each task's run-level (truths, positive, undecided) matrices,
    examples × predicates, compute all metrics, write the bundle.  A task's
    truth is its run-level labels: the proteins' cut membership and, for a
    learned BOUND, the interaction list."""
    metrics: dict[str, float] = {}
    for task, rows in zip(tasks, predictions):
        name = "predictions.tsv" if task.arity == 1 else "bound_predictions.tsv"
        io.write_predictions(os.path.join(out_dir, name), task.gram.ids, task.predicates, *rows)
        if task.arity == 2:
            truth = task.labels.T == 1.0
            pairs = PredictionSet.from_matrices(task.predicates, task.gram.ids, truth, *rows[1:])
            metrics.update(_named("bound", label_metrics(pairs, "micro")))

    cut = data.cut
    nodes = cut.nodes()
    truth = tasks[0].labels.T == 1.0
    scores, predicted, undecided = predictions[0]
    real = [j for j, node in enumerate(nodes) if not cut.is_bin(node)]
    node_level = PredictionSet.from_matrices(nodes, data.proteins, truth, predicted, undecided)
    headline = node_level.columns(real)

    for tag, preds in (("", headline), ("filtered_", headline.filtered())):
        metrics.update(_named(f"{tag}example", example_metrics(preds)))
        for average in ("micro", "macro"):
            metrics.update(_named(f"{tag}label_{average}", label_metrics(preds, average)))
    metrics["consistency"] = consistency(node_level, cut)
    metrics["filtered_consistency"] = consistency(node_level.filtered(), cut)

    # Per-node statistics drive the result tree and the per-predicate table.
    stats_lines = [STATS_HEADER]
    for node, *values in zip(nodes, *predicate_metrics(node_level)):
        stats_lines.append(f"{node}\t" + "\t".join(f"{v:.6f}" for v in values))
    io.atomic_write_text(os.path.join(out_dir, "per_node.tsv"),
                         "\n".join(stats_lines) + "\n")

    curves = []
    curve_dir = os.path.join(out_dir, "curves")
    for j in real:
        predicate = cut.predicate(nodes[j])
        if not truth[:, j].any():
            log.info("no positive test example for %s; curve skipped", predicate)
            continue
        curve = pr_curve(scores[:, j], truth[:, j])
        curves.append(curve)
        io.write_curve_file(os.path.join(curve_dir, f"{predicate}.csv"),
                            curve.recalls, curve.precisions)
    if curves:
        averaged = average_pr_curves(curves)
        io.write_curve_file(os.path.join(out_dir, "curve_average.csv"),
                            averaged.recalls, averaged.precisions)
        metrics["auc_average"] = auc_pr(averaged)

    io.write_metrics_report(os.path.join(out_dir, "metrics.txt"), metrics)


def _named(prefix: str, values) -> dict[str, float]:
    """A metrics named tuple as ``<prefix>_<field>`` report entries."""
    return {f"{prefix}_{name}": value for name, value in values._asdict().items()}


def cmd_run(config: ExperimentConfig, out_dir: str, data: Dataset) -> int:
    gram = build_gram(config, data.proteins)
    rules, bound_mode = build_rules(config, data.cut)
    folds = dataset_folds(config, data)
    # The interaction inputs are read before the first write, so a run that
    # cannot read them leaves an earlier bundle in the directory whole.
    bound = _bound_inputs(config, bound_mode, data.proteins)
    io.write_config(os.path.join(out_dir, "config.txt"), config.echo())
    io.write_rule_file(os.path.join(out_dir, "rules.txt"), rules)
    io.write_folds(os.path.join(out_dir, "folds.tsv"), folds)

    # Every fold trains the same proteins, kernel and rules, so the run's specs
    # (every known label, then a learned BOUND) and its rule set are built once.
    # A fold hides the labels of its held-out proteins and of the pairs with
    # either protein held out, and under the unsupervised scope narrows the rules.
    predicates = tuple(data.cut.predicate(node) for node in data.cut.nodes())
    tasks = [TaskSpec(predicates, 1, data.proteins, gram=gram, labels=data.membership.T)]
    if bound_mode == "learned":
        tasks.append(bound)
    bindings = predicate_bindings(tasks)
    if bound_mode == "given":
        bindings[BOUND_PREDICATE] = bound
    rule_set = CompiledRuleSet(
        [compile_constraint(rule, config.train.tnorm, {PROTEIN_DOMAIN: data.proteins}, bindings)
         for rule in rules],
        [(t.predicates, t.size) for t in tasks],
    )
    # Each example's proteins as positions in data.proteins.  That tuple is
    # sorted, so a pair's lesser position holds its lesser protein id.
    position = {p: i for i, p in enumerate(data.proteins)}
    ends = [np.array([[position[p] for p in ((e,) if t.arity == 1 else e)] for e in t.examples])
            for t in tasks]

    # Each task's run-level (truths, positive, undecided) matrices, examples ×
    # predicates.  The folds score disjoint examples that cover each task, so
    # every row is set once.
    predictions = [tuple(np.zeros((t.size, len(t.predicates)), dtype)
                         for dtype in (float, bool, bool)) for t in tasks]
    # One fold after another: each fold's Gram products get every BLAS thread.
    for index, fold in enumerate(folds):
        held = np.zeros(len(data.proteins), dtype=bool)
        held[[position[p] for p in fold]] = True
        fold_tasks = [TaskSpec(t.predicates, t.arity, t.examples, gram=t.gram,
                               labels=np.where(held[e].any(axis=1), np.nan, t.labels))
                      for t, e in zip(tasks, ends)]
        _run_fold(index, held, fold_tasks, ends, rule_set, config, out_dir, predictions)
    _aggregate(data, tasks, predictions, out_dir)
    return 0


# ---------------------------------------------------------------------------
# simple subcommands


def _out_dir(config: ExperimentConfig) -> str:
    if config.out is None:
        raise CliError("an output directory is required (config 'out' or --out)")
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {config.out} ({exc.strerror})") from exc
    return config.out


def cmd_kernel(config: ExperimentConfig, out_dir: str, data: Dataset) -> int:
    gram = build_gram(config, data.proteins)
    path = os.path.join(out_dir, f"gram_{config.kernel}.csv")
    io.write_gram(path, gram)
    log.info("wrote %s (%d proteins)", path, len(gram.ids))
    return 0


def cmd_rules(config: ExperimentConfig, out_dir: str, data: Dataset) -> int:
    rules, _ = build_rules(config, data.cut)
    path = os.path.join(out_dir, "rules.txt")
    io.write_rule_file(path, rules)
    log.info("wrote %d rules to %s", len(rules), path)
    return 0


def cmd_folds(config: ExperimentConfig, out_dir: str, data: Dataset) -> int:
    folds = dataset_folds(config, data)
    path = os.path.join(out_dir, "folds.tsv")
    io.write_folds(path, folds)
    log.info("wrote %s (%s)", path, "/".join(str(len(f)) for f in folds))
    return 0


def cmd_stats(config: ExperimentConfig, out_dir: str, data: Dataset) -> int:
    # The pairs a run would use: each once, inside the dataset, no self-pairs.
    listed = io.read_pairs(_require(config.ppi, "ppi", "for interaction statistics"))
    pairs = sorted(_inside(listed, set(data.proteins), "interactions"))
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


def cmd_export_tree(config: ExperimentConfig, out_dir: str, data: Dataset) -> int:
    stats_path = os.path.join(out_dir, "per_node.tsv")
    if not os.path.exists(stats_path):
        raise CliError(f"no per-node statistics at {stats_path}; run 'run' first")
    per_node: dict[str, tuple[float, float, float]] = {}
    records = ((number, line) for number, line
               in enumerate(_read_text(stats_path).splitlines(), start=1) if line.strip())
    number, header = next(records, (1, None))
    if header != STATS_HEADER:
        raise io.DataFileError(stats_path, number, f"missing {STATS_HEADER!r} header")
    for number, line in records:
        parts = line.split("\t")
        if len(parts) != 4:
            raise io.DataFileError(stats_path, number, f"expected 4 fields, got {line!r}")
        if parts[0] in per_node:
            raise io.DataFileError(stats_path, number, f"duplicate node {parts[0]!r}")
        per_node[parts[0]] = tuple(io.parse_real(stats_path, number, v) for v in parts[1:])
        if not all(0.0 <= v <= 1.0 for v in per_node[parts[0]]):
            raise io.DataFileError(stats_path, number, f"score outside [0, 1] in {line!r}")

    cut = data.cut
    lines = ["digraph cut {", "  rankdir=BT;", '  node [shape=box];']
    for node in cut.nodes():
        if node not in per_node:
            raise CliError(f"per-node statistics are missing node {node!r}")
        precision, recall, f1 = per_node[node]
        name = node if cut.is_bin(node) else data.dag.terms[node].name
        name = name.replace("\\", "\\\\").replace('"', '\\"')  # a DOT string
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
        if name == "run":
            # Still accepted from older callers; the folds train one after another.
            sub.add_argument("--jobs", type=int, help="ignored")
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
    if argv is None:
        # Run as a program: the imports' objects live until exit, and the
        # collections that interpreter exit runs skip frozen objects.
        # In-process callers of main([...]) keep their collector as it was.
        gc.freeze()
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
        return _DISPATCH[args.command](config, _out_dir(config), load_dataset(config))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
