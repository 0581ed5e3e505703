"""Per-layer tracing of one ``fungo run`` from outside the program.

The program is not instrumented.  Instead, :func:`install` replaces the
public functions of each module with wrappers that record a span (name,
start, end, parent) and a few counters, at the names ``fungo.cli`` looks
them up under, since the CLI imports them directly.  A layer is a module:
``io``, ``ontology``, ``kernels``, ``logic``, ``learner``, ``evaluation``
and ``cli``.  A span's self time is its duration minus its children's, so
the self times of all spans add up to the traced wall time.

Spans only nest correctly while one thread runs traced code at a time, so
a traced run uses ``--jobs 1``.  Run as a script to trace one run::

    PYTHONPATH=src python3 perfbench/tracing.py CONFIG OUT_DIR RESULT_JSON
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

CALIBRATION_CALLS = 20000


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(counts, args, result)``
        may add counters afterwards."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _bump(key, amount=lambda args, result: 1):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of ``fungo`` in place."""
    from fungo import cli, io, kernels
    from fungo.logic import compiler

    wrap = tracer.wrap
    cli._read_text = wrap("io.read", cli._read_text)
    for name in ("read_annotations", "read_fasta", "read_expression",
                 "read_pairs", "read_gram", "read_config"):
        setattr(io, name, wrap("io.read", getattr(io, name)))
    for name in ("write_config", "write_rule_file", "write_folds",
                 "write_predictions", "write_model", "write_metrics_report",
                 "write_curve_file"):
        setattr(io, name, wrap("io.write", getattr(io, name)))
    # Every writer ends in atomic_write_text, looked up in io's namespace.
    io.atomic_write_text = wrap(
        "io.write", io.atomic_write_text,
        _bump("io.bytes_written", lambda args, _: len(args[1].encode("utf-8"))),
    )

    cli.parse_obo = wrap("ontology.parse", cli.parse_obo,
                         _bump("ontology.terms", lambda _, dag: len(dag.terms)))
    cli.tpr_closure = wrap("ontology.closure", cli.tpr_closure)
    cli.go_cut = wrap("ontology.cut", cli.go_cut,
                      _bump("ontology.cut_nodes", lambda _, cut: len(cut.nodes())))
    for name in ("generate_oc_rules", "generate_part_of_rules", "generate_ppi_rules"):
        setattr(cli, name, wrap("ontology.rulegen", getattr(cli, name),
                                _bump("ontology.rules", lambda _, rules: len(rules))))

    for name in ("spectrum_gram", "domain_gram", "expression_gram", "diffusion_kernel"):
        setattr(cli, name, wrap("kernels.gram", getattr(cli, name)))
    # GramMatrix.psd_check calls the module-level function.
    kernels.psd_check = wrap("kernels.psd", kernels.psd_check, _bump("kernels.psd_calls"))

    cli.compile_constraint = wrap(
        "logic.compile", cli.compile_constraint,
        lambda counts, _, c: counts.update({"logic.compile_calls": 1,
                                            "logic.groundings": c.n_groundings}),
    )
    constraint = compiler.CompiledConstraint
    constraint.penalty = wrap(
        "logic.penalty", constraint.penalty,
        lambda counts, args, _: counts.update({
            "logic.penalty_calls": 1, "logic.groundings_evaluated": args[0].n_groundings}),
    )
    constraint.penalty_and_gradients = wrap(
        "logic.grad", constraint.penalty_and_gradients,
        lambda counts, args, _: counts.update({
            "logic.grad_calls": 1, "logic.groundings_evaluated": args[0].n_groundings}),
    )

    cli.train = wrap("learner.train", cli.train)
    cli.predict = wrap("learner.predict", cli.predict)
    cli.TaskSpec = wrap("learner.tasks", cli.TaskSpec)
    cli.predicate_bindings = wrap("learner.tasks", cli.predicate_bindings)

    cli.generate_folds = wrap("evaluation.folds", cli.generate_folds)
    for name in ("example_metrics", "label_metrics", "consistency"):
        setattr(cli, name, wrap("evaluation.metrics", getattr(cli, name)))
    for name in ("pr_curve", "average_pr_curves", "auc_pr"):
        setattr(cli, name, wrap("evaluation.curves", getattr(cli, name)))

    cli._aggregate = wrap("cli.aggregate", cli._aggregate)
    cli.main = wrap("cli", cli.main)


def span_cost() -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("calibration", noop)
    clock = time.perf_counter
    start = clock()
    for _ in range(CALIBRATION_CALLS):
        noop()
    plain = clock() - start
    start = clock()
    for _ in range(CALIBRATION_CALLS):
        traced()
    wrapped = clock() - start
    return max(wrapped - plain, 0.0) / CALIBRATION_CALLS


def read_trace(model_path: str) -> tuple[int, int]:
    """Entries of stage 1 and stage 2 in a fold's ``model.txt`` trace."""
    stage1 = stage2 = 0
    with open(model_path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("stage=1 "):
                stage1 += 1
            elif line.startswith("stage=2 "):
                stage2 += 1
    return stage1, stage2


def layer_metrics(tracer: Tracer, wall_s: float, overhead_s: float,
                  out_dir: str, rules: int, max_iterations: int) -> dict[str, float]:
    """Per-layer times and counts of one traced run."""
    own = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    for (name, *_), seconds in zip(tracer.spans, own):
        by_name[name] += seconds

    stage1_s = stage2_s = 0.0
    first_penalty: dict[int, float] = {}
    for name, start, _, parent in tracer.spans:
        if name == "logic.penalty" and parent >= 0 and parent not in first_penalty:
            first_penalty[parent] = start
    for index, (name, start, end, _) in enumerate(tracer.spans):
        if name != "learner.train":
            continue
        # Stage 1 runs with lambda_c = 0 and never calls penalty.
        split = first_penalty.get(index, end)
        stage1_s += split - start
        stage2_s += end - split

    folds = sorted(d for d in os.listdir(out_dir) if d.startswith("fold_"))
    stage1_steps = stage2_steps = capped = 0
    for fold in folds:
        entries1, entries2 = read_trace(os.path.join(out_dir, fold, "model.txt"))
        stage1_steps += max(entries1 - 1, 0)
        stage2_steps += max(entries2 - 1, 0)
        capped += entries1 == max_iterations + 1
    penalty_calls = tracer.counts["logic.penalty_calls"]
    stage2_evals = penalty_calls / rules if rules else 0.0

    metrics = {
        "io.read_s": by_name["io.read"],
        "io.write_s": by_name["io.write"],
        "ontology.parse_s": by_name["ontology.parse"],
        "ontology.closure_s": by_name["ontology.closure"],
        "ontology.cut_s": by_name["ontology.cut"],
        "ontology.rulegen_s": by_name["ontology.rulegen"],
        "kernels.gram_s": by_name["kernels.gram"],
        "kernels.psd_s": by_name["kernels.psd"],
        "logic.compile_s": by_name["logic.compile"],
        "logic.penalty_s": by_name["logic.penalty"],
        "logic.grad_s": by_name["logic.grad"],
        "learner.train_s": sum(e - s for n, s, e, _ in tracer.spans if n == "learner.train"),
        "learner.stage1_s": stage1_s,
        "learner.stage2_s": stage2_s,
        "learner.self_s": by_name["learner.train"],
        "learner.tasks_s": by_name["learner.tasks"],
        "learner.predict_s": by_name["learner.predict"],
        "learner.stage1_steps": stage1_steps,
        "learner.stage2_steps": stage2_steps,
        "learner.stage1_capped_folds": capped,
        "learner.stage2_evals": stage2_evals,
        "learner.stage2_accept_ratio": stage2_steps / stage2_evals if stage2_evals else 0.0,
        "evaluation.folds_s": by_name["evaluation.folds"],
        "evaluation.metrics_s": by_name["evaluation.metrics"],
        "evaluation.curves_s": by_name["evaluation.curves"],
        "cli.aggregate_s": by_name["cli.aggregate"],
        "cli.self_s": by_name["cli"],
        "trace.wall_s": wall_s,
        "trace.self_sum_s": sum(own),
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": overhead_s,
    }
    for key in ("io.bytes_written", "ontology.terms", "ontology.cut_nodes",
                "ontology.rules", "kernels.psd_calls", "logic.compile_calls",
                "logic.groundings", "logic.penalty_calls", "logic.grad_calls",
                "logic.groundings_evaluated"):
        metrics[key] = tracer.counts[key]
    return metrics


def main(argv: list[str]) -> int:
    config, out_dir, result_path = argv
    from fungo import cli, io

    settings = io.read_config(config)
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    status = cli.main(["run", "--config", config, "--out", out_dir, "--jobs", "1"])
    wall_s = time.perf_counter() - start
    if status != 0:
        return status
    with open(os.path.join(out_dir, "rules.txt"), encoding="utf-8") as handle:
        rules = sum(1 for line in handle if line.strip())
    overhead_s = span_cost() * len(tracer.spans)
    metrics = layer_metrics(tracer, wall_s, overhead_s, out_dir, rules,
                            int(settings.get("max_iterations", 500)))
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
