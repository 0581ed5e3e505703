"""End-to-end tests for the command-line front end on a small dataset."""

import dataclasses
import gc
import importlib
import json
import logging
import os
import pkgutil
import shutil
import stat
import subprocess
import sys
import threading
from collections.abc import Mapping
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

import fungo
import hierarchy_fixture
from fungo import cli
from fungo import io as fungo_io
from fungo.cli import ExperimentConfig, main, parse_experiment_config
from fungo.io import read_config, read_gram
from fungo.io import write_config as write_config_file
from fungo.kernels import diffusion_kernel
from fungo.learner import TrainConfig
from fungo.logic import PredicateBinding
from support import read_folds, read_predictions

SMALL_OBO = """\
format-version: 1.2

[Term]
id: GO:0000001
name: catalytic-root
namespace: molecular_function

[Term]
id: GO:0000002
name: transferase
namespace: molecular_function
is_a: GO:0000001

[Term]
id: GO:0000003
name: binding
namespace: molecular_function
is_a: GO:0000001

[Term]
id: GO:0000004
name: kinase
namespace: molecular_function
is_a: GO:0000002

[Term]
id: GO:0000005
name: phosphatase
namespace: molecular_function
is_a: GO:0000002

[Term]
id: GO:0000020
name: process-root
namespace: biological_process
"""

# Leaf-anchored annotations; GO:0000005 stays under the count threshold and
# is pruned at min_count=3, producing a bin under GO:0000002.
ANNOTATIONS = """\
p1\tGO:0000004
p2\tGO:0000004
p3\tGO:0000004
p4\tGO:0000005
p5\tGO:0000003
p6\tGO:0000003
p7\tGO:0000003
p8\tGO:0000003
p8\tGO:0000004
p9\tGO:0000020
"""

EXPRESSION = "\n".join(
    f"p{i},{0.5 * i:.1f},{(-1) ** i}.0,{0.25 * (i % 3):.2f}" for i in range(1, 10)
)

PPI = "p1\tp2\np3\tp8\n"


def write_dataset(root):
    (root / "onto.obo").write_text(SMALL_OBO)
    (root / "ann.tsv").write_text(ANNOTATIONS)
    (root / "expr.csv").write_text(EXPRESSION + "\n")
    (root / "ppi.tsv").write_text(PPI)


def write_config(root, name="run.cfg", **overrides):
    settings = {
        "obo": "onto.obo",
        "annotations": "ann.tsv",
        "namespaces": "molecular_function",
        "level": "2",
        "min_count": "3",
        "kernel": "expression",
        "expression": "expr.csv",
        "ppi": "ppi.tsv",
        "rules": "OC",
        "folds": "2",
        "out": "out",
        "lambda_r": "1.0",
        "lambda_c": "1.0",
        "max_iterations": "80",
        "tolerance": "1e-9",
    }
    settings.update(overrides)
    text = "".join(f"{k} = {v}\n" for k, v in settings.items() if v is not None)
    (root / name).write_text(text)
    return str(root / name)


def record_bound_rows(monkeypatch) -> list:
    """Make ``cli._run_fold`` record, for each fold in order, the pair task's
    example names, the rows of the run's pair predictions that the fold sets and
    their (truths, positive, undecided)."""
    folds = []
    run_fold = cli._run_fold

    def record(*args):
        pairs, (truths, *flags) = args[2][1].gram.ids, args[-1][1]
        earlier = truths.copy()
        truths.fill(np.nan)  # a row that the fold leaves stays NaN
        run_fold(*args)
        rows = np.flatnonzero(~np.isnan(truths[:, 0]))
        folds.append((pairs, rows, tuple(m[rows].copy() for m in (truths, *flags))))
        left = np.isnan(truths)
        truths[left] = earlier[left]

    monkeypatch.setattr(cli, "_run_fold", record)
    return folds


@pytest.fixture
def dataset(tmp_path):
    write_dataset(tmp_path)
    return tmp_path


class TestSimpleCommands:
    def test_rules_writes_the_consistency_rules(self, dataset):
        cfg = write_config(dataset)
        assert main(["rules", "--config", cfg]) == 0
        lines = (dataset / "out" / "rules.txt").read_text().splitlines()
        # Upward: kinase, transferase, binding, bin; downward: root, transferase.
        assert len(lines) == 6
        assert all(line.startswith("forall x:Prot.") for line in lines)

    def test_folds_are_balanced(self, dataset):
        cfg = write_config(dataset)
        assert main(["folds", "--config", cfg]) == 0
        assignment = read_folds(str(dataset / "out" / "folds.tsv"))
        assert len(assignment) == 8  # p9 dropped by dataset adaptation
        assert "p9" not in assignment
        sizes = [list(assignment.values()).count(i) for i in range(2)]
        assert sorted(sizes) == [4, 4]

    def test_adaptation_drop_is_logged(self, dataset, caplog):
        cfg = write_config(dataset)
        with caplog.at_level(logging.DEBUG, logger="fungo"):
            assert main(["folds", "--config", cfg]) == 0
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert any(message.startswith("dropped 1 protein") for message in info)
        assert any("dropping p9" in message for message in debug)
        assert not any("dropping p9" in message for message in info)

    def test_adaptation_lists_no_drops_at_info(self, dataset, caplog, monkeypatch):
        cfg = write_config(dataset)
        calls = []
        monkeypatch.setattr(cli.log, "debug", lambda *args: calls.append(args))
        with caplog.at_level(logging.INFO, logger="fungo"):
            assert main(["folds", "--config", cfg]) == 0
        assert not any(args[0].startswith("dropping") for args in calls)

    def test_kernel_writes_a_gram_file(self, dataset):
        cfg = write_config(dataset)
        assert main(["kernel", "--config", cfg]) == 0
        gram = read_gram(str(dataset / "out" / "gram_expression.csv"))
        assert gram.ids == tuple(f"p{i}" for i in range(1, 9))

    def test_diffusion_kernel_uses_the_canonical_edges(self, dataset):
        # A reversed duplicate, a self-loop, an unknown protein and a protein
        # dropped by dataset adaptation all reduce to the two real edges.
        (dataset / "graph.tsv").write_text(
            "p2\tp1\np1\tp2\np3\tp3\np4\tpX\np9\tp5\np6\tp5\n"
        )
        cfg = write_config(dataset, kernel="diffusion", graph="graph.tsv", beta="0.5")
        assert main(["kernel", "--config", cfg]) == 0
        gram = read_gram(str(dataset / "out" / "gram_diffusion.csv"))
        proteins = tuple(f"p{i}" for i in range(1, 9))
        expected = diffusion_kernel(proteins, (("p1", "p2", 1.0), ("p5", "p6", 1.0)), 0.5)
        assert gram.ids == expected.ids
        assert np.array_equal(gram.matrix, expected.matrix)

    def test_stats_reports_full_sharing_for_shared_terms(self, dataset):
        cfg = write_config(dataset)
        assert main(["stats", "--config", cfg]) == 0
        text = (dataset / "out" / "stats.txt").read_text()
        # Both listed pairs share the kinase term.
        kinase = [line for line in text.splitlines() if line.startswith("GO:0000004")]
        assert kinase and kinase[0].endswith("2\t2\t1.000")
        assert "scope\tcount\tmean\tmedian\tstd" in text
        # Each pair in both orders, a self-pair and a pair with the dropped p9:
        # counted as the run counts them, the report does not change.
        (dataset / "ppi_noisy.tsv").write_text(
            "p1\tp2\np2\tp1\np3\tp8\np8\tp3\np1\tp1\np9\tp1\n")
        noisy = write_config(dataset, name="noisy.cfg", ppi="ppi_noisy.tsv", out="out_noisy")
        assert main(["stats", "--config", noisy]) == 0
        assert (dataset / "out_noisy" / "stats.txt").read_text() == text

    def test_stats_logs_self_pairs_apart(self, dataset, caplog):
        # p1 is kept; p9 is dropped by dataset adaptation.
        (dataset / "ppi_self.tsv").write_text("p1\tp2\np1\tp1\np9\tp1\n")
        cfg = write_config(dataset, ppi="ppi_self.tsv")
        with caplog.at_level(logging.INFO, logger="fungo"):
            assert main(["stats", "--config", cfg]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert "skipped 1 interactions that are self-pairs" in messages
        assert "skipped 1 interactions outside the dataset" in messages

    def test_an_interaction_named_in_both_orders_is_one_pair(self, dataset, caplog,
                                                              monkeypatch):
        (dataset / "ppi_twice.tsv").write_text("p2\tp1\np3\tp8\np1\tp2\n")
        cfg = write_config(dataset, ppi="ppi_twice.tsv")
        seen = []
        statistics = cli.ppi_statistics

        def record(pairs, *rest):
            seen.extend(pairs)
            return statistics(pairs, *rest)

        monkeypatch.setattr(cli, "ppi_statistics", record)
        with caplog.at_level(logging.DEBUG, logger="fungo"):
            assert main(["stats", "--config", cfg]) == 0
        assert seen == [("p1", "p2"), ("p3", "p8")]
        info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert "skipped 1 interactions that repeat a pair" in info
        assert "skipping p1|p2, one of the interactions that repeat a pair" in debug

    def test_out_flag_overrides_config(self, dataset, tmp_path):
        cfg = write_config(dataset, out=None)
        target = tmp_path / "elsewhere"
        assert main(["rules", "--config", cfg, "--out", str(target)]) == 0
        assert (target / "rules.txt").exists()


class TestRun:
    def test_run_produces_a_full_bundle(self, dataset):
        cfg = write_config(dataset)
        assert main(["run", "--config", cfg]) == 0
        out = dataset / "out"
        for name in ("config.txt", "rules.txt", "folds.tsv", "predictions.tsv",
                     "per_node.tsv", "metrics.txt", "curve_average.csv"):
            assert (out / name).exists(), name
        rows = read_predictions(str(out / "predictions.tsv"))
        # Every kept protein is predicted once per cut node (4 real + 1 bin).
        assert len(rows) == 8 * 5
        metrics = (out / "metrics.txt").read_text()
        assert "example_f1 = " in metrics
        assert "consistency = " in metrics
        assert "filtered_label_micro_f1 = " in metrics

    @pytest.mark.parametrize("rules", ["OC", "OC+PP1", "OC+PP2"])
    def test_run_is_deterministic(self, dataset, rules):
        # Under OC+PP1 every fold reads one given BOUND binding.
        (dataset / "pairs.csv").write_text(
            "p1|p2,p3|p8,p5|p6,p4|p1\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in np.eye(4) + 0.5)
        )
        cfg = write_config(dataset, rules=rules, pair_gram="pairs.csv")
        out = dataset / "out"

        def bundle():
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        # ``run`` ignores ``--jobs``: with it or without, the bundle is the same.
        bundles = []
        for extra in ([], ["--jobs", "1"], ["--jobs", "2"]):
            assert main(["run", "--config", cfg, *extra]) == 0
            bundles.append(bundle())
            shutil.rmtree(out)
        first = bundles[0]
        assert "metrics.txt" in {str(p) for p in first}
        for other in bundles[1:]:
            assert first.keys() == other.keys()
            for path in first:
                assert first[path] == other[path], path

    def test_folds_train_one_after_another_in_the_main_thread(self, dataset, monkeypatch):
        calls = []
        train = cli.train

        def spy(*args, **kwargs):
            calls.append((threading.current_thread() is threading.main_thread(),
                          threading.active_count()))
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", spy)
        cfg = write_config(dataset)
        assert main(["run", "--config", cfg, "--jobs", "2"]) == 0
        # One call per fold, each on the main thread with no other thread alive.
        assert calls == [(True, 1)] * 2

    def test_inert_constraints_match_the_bare_run(self, dataset):
        bare = write_config(dataset, name="bare.cfg", rules="none", out="out_bare")
        inert = write_config(dataset, name="inert.cfg", rules="OC", lambda_c="0.0",
                             out="out_inert")
        assert main(["run", "--config", bare]) == 0
        assert main(["run", "--config", inert]) == 0
        first = (dataset / "out_bare" / "metrics.txt").read_bytes()
        second = (dataset / "out_inert" / "metrics.txt").read_bytes()
        assert first == second

    def test_interaction_rules_with_given_pairs(self, dataset):
        cfg = write_config(dataset, rules="PP1", out="out_pp")
        assert main(["run", "--config", cfg]) == 0
        rules = (dataset / "out_pp" / "rules.txt").read_text().splitlines()
        assert len(rules) == 4  # one equivalence rule per retained term
        assert all("BOUND(x,y)" in line for line in rules)
        rows = read_predictions(str(dataset / "out_pp" / "predictions.tsv"))
        assert all(row[1] != "BOUND" for row in rows)

    def test_an_unsupervised_run_scans_the_pair_index_once(self, dataset, monkeypatch):
        # Every fold narrows the run's rule set to its held-out proteins; the
        # narrowed sets take their pair lookups from the run-level set's scan.
        class Counted(Mapping):
            def __init__(self, entries):
                self.entries, self.scans = entries, 0

            def __getitem__(self, key):
                return self.entries[key]

            def __iter__(self):
                return iter(self.entries)

            def __len__(self):
                return len(self.entries)

            def items(self):
                self.scans += 1
                return self.entries.items()

        indexes = []
        bound_inputs = cli._bound_inputs

        def counted(*args):
            bound = bound_inputs(*args)
            indexes.append(Counted(bound.index))
            return PredicateBinding("BOUND", 2, indexes[-1], given=bound.given)

        monkeypatch.setattr(cli, "_bound_inputs", counted)
        cfg = write_config(dataset, rules="PP1", folds="3", out="out_pp")
        assert main(["run", "--config", cfg]) == 0
        assert len(set(read_folds(str(dataset / "out_pp" / "folds.tsv")).values())) == 3
        assert [index.scans for index in indexes] == [1]

    def test_learned_pair_predicate(self, dataset, monkeypatch):
        # The two listed interactions, two non-interacting pairs and one pair
        # with a protein dropped by dataset adaptation.
        ids = ["p1|p2", "p3|p8", "p1|p5", "p4|p6", "p9|p1"]
        matrix = np.eye(len(ids)) + 0.5
        (dataset / "pairs.csv").write_text(
            ",".join(ids) + "\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in matrix)
        )
        cfg = write_config(dataset, rules="OC+PP2", pair_gram="pairs.csv",
                           out="out_pp2")
        folds = record_bound_rows(monkeypatch)
        assert main(["run", "--config", cfg]) == 0
        out = dataset / "out_pp2"
        metrics = (out / "metrics.txt").read_text()
        for key in ("bound_precision", "bound_recall", "bound_f1"):
            assert f"{key} = " in metrics
        fold_of = read_folds(str(out / "folds.tsv"))
        rows = read_predictions(str(out / "bound_predictions.tsv"))
        assert all(row[1] == "BOUND" for row in rows)
        # Each pair is predicted once, in the fold that holds out its lesser
        # protein, even when its proteins sit in different folds.
        names = [row[0] for row in rows]
        assert sorted(names) == sorted(ids[:4])
        assert any(len({fold_of[p] for p in name.split("|")}) == 2 for name in names)
        # Folds run in order.
        scored_in = {pairs[i]: index for index, (pairs, scored, _) in enumerate(folds)
                     for i in scored}
        assert scored_in == {name: fold_of[min(name.split("|"))] for name in names}

    @pytest.mark.parametrize("rules", ["OC", "OC+PP1", "OC+PP2"])
    def test_fold_specs_match_the_per_protein_labels(self, dataset, monkeypatch, rules):
        (dataset / "pairs.csv").write_text(
            "p1|p2,p3|p8,p1|p5,p4|p6,p9|p1\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in np.eye(5) + 0.5)
        )
        events = []
        calls = []
        train = cli.train

        def record(tasks, rule_set, config):
            events.append("train")
            calls.append((tasks, rule_set))
            return train(tasks, rule_set, config)

        compiled = []
        compile_constraint = cli.compile_constraint

        def record_compile(rule, tnorm, domains, bindings):
            events.append("compile")
            compiled.append(bindings.get("BOUND"))
            return compile_constraint(rule, tnorm, domains, bindings)

        monkeypatch.setattr(cli, "train", record)
        monkeypatch.setattr(cli, "compile_constraint", record_compile)
        cfg = write_config(dataset, rules=rules, pair_gram="pairs.csv")
        assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
        # The rules compile once per run, before the first fold trains.
        assert "compile" in events and "compile" not in events[events.index("train"):]
        fold_of = read_folds(str(dataset / "out" / "folds.tsv"))
        # One train call per fold, in fold order.
        assert len(calls) == len(set(fold_of.values()))
        cut = cli.load_dataset(parse_experiment_config(read_config(cfg), str(dataset))).cut
        proteins = tuple(f"p{i}" for i in range(1, 9))
        interactions = {frozenset(("p1", "p2")), frozenset(("p3", "p8"))}
        for index, (tasks, _) in enumerate(calls):
            held = {p for p in fold_of if fold_of[p] == index}
            assert len(tasks) == (2 if rules == "OC+PP2" else 1)
            nodes = tasks[0]
            assert nodes.predicates == tuple(cut.predicate(n) for n in cut.nodes())
            assert nodes.examples == proteins
            expected = [[np.nan if p in held else float(p in cut.proteins(n)) for p in proteins]
                        for n in cut.nodes()]
            assert np.array_equal(nodes.labels, expected, equal_nan=True)
            if rules == "OC+PP2":
                bound = tasks[1]
                assert bound.predicates == ("BOUND",) and bound.gram.ids == (
                    "p1|p2", "p3|p8", "p1|p5", "p4|p6")
                expected = [[float(frozenset(e) in interactions)
                             if e[0] not in held and e[1] not in held else np.nan
                             for e in bound.examples]]
                assert np.array_equal(bound.labels, expected, equal_nan=True)
        # A given BOUND is one binding, built once per run, that the run's
        # rules compile against; it never becomes a task.
        assert len(compiled) > len(calls)
        if rules == "OC+PP1":
            bound = compiled[0]
            assert all(b is bound for b in compiled)
            assert (bound.name, bound.arity) == ("BOUND", 2)
            assert bound.index == {("p1", "p2"): 0, ("p3", "p8"): 1}
            assert bound.given
        else:
            assert not any(b is not None and b.given for b in compiled)
        # Under the 'all' scope every fold trains against the run's one rule set.
        calls.clear()
        cfg = write_config(dataset, name="all.cfg", rules=rules, pair_gram="pairs.csv",
                           out="out_all", constraint_scope="all")
        assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
        assert len(calls) == len(set(fold_of.values()))
        assert all(rule_set is calls[0][1] for _, rule_set in calls)

    def test_a_pair_gram_keeps_one_example_per_interaction(self, dataset, caplog):
        # p2|p1 and p8|p3 repeat p1|p2 and p3|p8; p9 left the dataset.
        ids = ["p1|p2", "p3|p8", "p2|p1", "p1|p5", "p8|p3", "p9|p1"]
        matrix = np.arange(36.0).reshape(6, 6)
        matrix = matrix + matrix.T
        (dataset / "pairs.csv").write_text(
            ",".join(ids) + "\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in matrix)
        )
        cfg = write_config(dataset, rules="OC+PP2", pair_gram="pairs.csv")
        config = parse_experiment_config(read_config(cfg), str(dataset))
        proteins = cli.load_dataset(config).proteins
        with caplog.at_level(logging.INFO, logger="fungo"):
            spec = cli._bound_inputs(config, "learned", proteins)
        assert spec.predicates == ("BOUND",) and spec.arity == 2
        assert spec.examples == (("p1", "p2"), ("p3", "p8"), ("p1", "p5"))
        assert spec.gram.ids == ("p1|p2", "p3|p8", "p1|p5")
        assert np.array_equal(spec.gram.matrix, matrix[np.ix_([0, 1, 3], [0, 1, 3])])
        # The run's labels: every example, labelled by whether it interacts.
        assert spec.labels.tolist() == [[1.0, 1.0, 0.0]]
        messages = [r.getMessage() for r in caplog.records]
        assert "skipped 2 pair Gram entries that repeat a pair" in messages
        assert "skipped 1 pair Gram entries outside the dataset" in messages

    def test_a_pair_gram_skips_a_self_pair(self, dataset, caplog, monkeypatch):
        # p1|p1 names one protein twice: it is no example and is never scored.
        ids = ["p1|p2", "p1|p1", "p3|p8", "p1|p5"]
        (dataset / "pairs.csv").write_text(
            ",".join(ids) + "\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in np.eye(4) + 0.5)
        )
        cfg = write_config(dataset, rules="OC+PP2", pair_gram="pairs.csv")
        examples = []
        train = cli.train

        def record(tasks, *rest):
            examples.append(tasks[1].examples)
            return train(tasks, *rest)

        monkeypatch.setattr(cli, "train", record)
        with caplog.at_level(logging.INFO, logger="fungo"):
            assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
        assert "skipped 1 pair Gram entries that are self-pairs" in [
            r.getMessage() for r in caplog.records]
        assert examples and all(e == (("p1", "p2"), ("p3", "p8"), ("p1", "p5"))
                                for e in examples)
        rows = read_predictions(str(dataset / "out" / "bound_predictions.tsv"))
        assert sorted(row[0] for row in rows) == ["p1|p2", "p1|p5", "p3|p8"]

    def test_a_learned_pair_is_true_in_either_order(self, tmp_path, monkeypatch):
        # The interaction list names prot01-prot02, the pair Gram prot02|prot01:
        # training labels the pair 1.0, and evaluation counts it as true.
        hierarchy_fixture.write_dataset(str(tmp_path))
        (tmp_path / "ppi.tsv").write_text("prot01\tprot02\n")
        ids = ["prot02|prot01", "prot03|prot04", "prot05|prot06"]
        (tmp_path / "pairs.csv").write_text(
            ",".join(ids) + "\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in np.eye(3) + 0.5)
        )
        cfg = hierarchy_fixture.write_config(
            str(tmp_path), "out", rules="OC+PP2", ppi="ppi.tsv", pair_gram="pairs.csv",
            max_iterations=20,
        )
        labels = []
        train = cli.train

        def record_labels(tasks, *rest):
            labels.append(tasks[1].labels[0, 0])
            return train(tasks, *rest)

        truths = []
        from_matrices = cli.PredictionSet.from_matrices

        def record_truths(predicates, examples, truth, *rest):
            if predicates == ("BOUND",):
                truths.append(dict(zip(examples, truth[:, 0].tolist())))
            return from_matrices(predicates, examples, truth, *rest)

        monkeypatch.setattr(cli, "train", record_labels)
        monkeypatch.setattr(cli.PredictionSet, "from_matrices", record_truths)
        assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
        assert 1.0 in labels and all(v == 1.0 or np.isnan(v) for v in labels)
        assert truths == [{"prot02|prot01": True, "prot03|prot04": False,
                           "prot05|prot06": False}]

    def test_merged_files_are_the_union_of_the_fold_files(self, tmp_path, monkeypatch):
        # The hierarchy fixture with a learned pair predicate: ten chained
        # interactions, and a pair Gram over them, the reversals of two of
        # them and five non-interacting pairs.  A reversal repeats its
        # interaction and is dropped.
        hierarchy_fixture.write_dataset(str(tmp_path))
        proteins = [row[0] for row in hierarchy_fixture.protein_positions()]
        interactions = [(proteins[i], proteins[i + 5]) for i in range(0, 50, 5)[:-1]]
        interactions.append((proteins[3], proteins[41]))
        (tmp_path / "ppi.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in interactions))
        ids = [f"{a}|{b}" for a, b in interactions]
        ids += [f"{b}|{a}" for a, b in interactions[:2]]
        ids += [f"{proteins[i]}|{proteins[i + 2]}" for i in (1, 12, 23, 34, 45)]
        matrix = np.eye(len(ids)) + 0.5
        (tmp_path / "pairs.csv").write_text(
            ",".join(ids) + "\n"
            + "".join(",".join(str(v) for v in row) + "\n" for row in matrix)
        )
        cfg = hierarchy_fixture.write_config(
            str(tmp_path), "out", rules="OC+PP2", ppi="ppi.tsv", pair_gram="pairs.csv",
            max_iterations=40,
        )
        outcomes = record_bound_rows(monkeypatch)
        assert main(["run", "--config", cfg, "--jobs", "2"]) == 0
        out = tmp_path / "out"
        folds = sorted(out.glob("fold_*/predictions.tsv"))
        assert len(folds) == len(outcomes) == 5
        fold_lines = [line for path in folds for line in path.read_text().splitlines()]
        merged = (out / "predictions.tsv").read_text().splitlines()
        assert len(merged) == 50 * 3
        assert merged == sorted(fold_lines)
        # Folds write no pair file; each fold's pairs, written alone, give
        # the fold's share of the merged one.
        bound_lines = []
        for index, (pairs, rows, predictions) in enumerate(outcomes):
            path = tmp_path / f"bound_{index}.tsv"
            fungo_io.write_predictions(str(path), [pairs[i] for i in rows],
                                       ("BOUND",), *predictions)
            bound_lines += [line for line in path.read_text().splitlines() if line]
        merged = (out / "bound_predictions.tsv").read_text().splitlines()
        distinct = ids[:len(interactions)] + ids[len(interactions) + 2:]
        assert sorted(line.split("\t")[0] for line in merged) == sorted(distinct)
        assert merged == sorted(bound_lines)
        # The bound_* metrics count the merged pairs against the interactions,
        # each in either order.
        chosen = {line.split("\t")[0] for line in merged if "\tpos\t" in line}
        true = set(ids[:len(interactions)])
        tp, fp, fn = len(chosen & true), len(chosen - true), len(true - chosen)
        assert tp and fp and fn
        metrics = (out / "metrics.txt").read_text().splitlines()
        for key, value in (("precision", tp / (tp + fp)), ("recall", tp / (tp + fn)),
                           ("f1", 2 * tp / (2 * tp + fp + fn))):
            assert f"bound_{key} = {value:.6f}" in metrics

    def test_bundle_files_take_the_umask_mode(self, dataset):
        cfg = write_config(dataset, rules="OC")
        previous = os.umask(0o022)
        try:
            assert main(["run", "--config", cfg]) == 0
        finally:
            os.umask(previous)
        files = [p for p in (dataset / "out").rglob("*") if p.is_file()]
        assert len(files) > 10
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in files} == \
            {p.name: 0o644 for p in files}

    def test_run_does_not_depend_on_the_hash_seed(self, tmp_path):
        # Set and dict iteration order changes with PYTHONHASHSEED; nothing
        # it orders may reach the bundle.
        hierarchy_fixture.write_dataset(str(tmp_path))
        cfg = hierarchy_fixture.write_config(str(tmp_path), "out")
        src = os.path.dirname(os.path.dirname(os.path.abspath(fungo.__file__)))
        bundles = []
        for seed in ("0", "1"):
            out = tmp_path / f"out_{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run(
                [sys.executable, "-m", "fungo.cli", "run", "--config", cfg,
                 "--out", str(out), "--jobs", "2"],
                env=env, capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr.decode()
            bundles.append(_masked_bundle(out))
        first, second = bundles
        assert {"metrics.txt", "per_node.tsv", "curve_average.csv"} <= {str(p) for p in first}
        assert first.keys() == second.keys()
        for path in first:
            assert first[path] == second[path], path

    def test_program_and_in_process_runs_write_the_same_bundle(self, tmp_path):
        # Run as a program, main() freezes the import-time heap before it
        # dispatches; called in-process, main([...]) leaves the collector as
        # it found it.  Neither may change a byte of the bundle.
        hierarchy_fixture.write_dataset(str(tmp_path))
        cfg = hierarchy_fixture.write_config(str(tmp_path), "out")
        src = os.path.dirname(os.path.dirname(os.path.abspath(fungo.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        program, in_process = tmp_path / "program", tmp_path / "in_process"
        done = subprocess.run(
            [sys.executable, "-m", "fungo.cli", "run", "--config", cfg, "--out", str(program)],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr.decode()
        collector = gc.get_freeze_count(), gc.isenabled()
        assert main(["run", "--config", cfg, "--out", str(in_process)]) == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == collector
        first, second = _masked_bundle(program), _masked_bundle(in_process)
        assert "metrics.txt" in {str(p) for p in first}
        assert first.keys() == second.keys()
        for path in first:
            assert first[path] == second[path], path
        # main() with no argv, as the console script and ``-m`` call it.
        probe = ("import gc, sys; from fungo.cli import main; "
                 "sys.argv[1:] = ['folds', '--config', sys.argv[1], '--out', sys.argv[2]]; "
                 "assert gc.get_freeze_count() == 0 and main() == 0; "
                 "print(gc.get_freeze_count())")
        done = subprocess.run([sys.executable, "-c", probe, cfg, str(tmp_path / "folds")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 1000


def _masked_bundle(out):
    """Each file of a bundle by its path under ``out``, with ``out`` masked."""
    masked = str(out).encode()
    return {p.relative_to(out): p.read_bytes().replace(masked, b"<out>")
            for p in out.rglob("*") if p.is_file()}


class TestExportTree:
    def test_tree_after_run(self, dataset):
        cfg = write_config(dataset)
        assert main(["run", "--config", cfg]) == 0
        assert main(["export-tree", "--config", cfg]) == 0
        dot = (dataset / "out" / "tree.dot").read_text()
        assert dot.startswith("digraph")
        assert dot.count(" -> ") == 4
        assert '"BIN:GO:0000002"' in dot
        assert "style=dashed" in dot
        assert "F1=0." in dot or "F1=1." in dot
        assert "kinase" in dot

    def test_term_names_are_escaped_in_labels(self, dataset):
        (dataset / "onto.obo").write_text(
            SMALL_OBO.replace("name: kinase", 'name: a "b" \\ c'))
        cfg = write_config(dataset)
        assert main(["run", "--config", cfg]) == 0
        assert main(["export-tree", "--config", cfg]) == 0
        dot = (dataset / "out" / "tree.dot").read_text()
        assert '"GO:0000004" [label="a \\"b\\" \\\\ c\\nP=' in dot
        # Outside the escapes, every line holds an even number of quotes.
        for line in dot.splitlines():
            assert line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0, line

    def test_tree_requires_run_outputs(self, dataset, capsys):
        cfg = write_config(dataset, out="out_fresh")
        assert main(["export-tree", "--config", cfg]) == 2
        assert "run 'run' first" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, message", [
        ("abc", "not a real number: 'abc'"),
        ("nan", "non-finite value: 'nan'"),
    ], ids=("text", "nan"))
    def test_malformed_statistics_name_their_line(self, dataset, capsys, cell, message):
        cfg = write_config(dataset, out="out_bad")
        (dataset / "out_bad").mkdir()
        (dataset / "out_bad" / "per_node.tsv").write_text(
            f"node\tprecision\trecall\tf1\nGO:0000002\t0.5\t{cell}\t0.5\n"
        )
        assert main(["export-tree", "--config", cfg]) == 2
        assert f"per_node.tsv:2: {message}" in capsys.readouterr().err
        assert not (dataset / "out_bad" / "tree.dot").exists()

    def test_the_header_is_the_first_non_blank_line(self, dataset):
        cfg = write_config(dataset)
        assert main(["run", "--config", cfg]) == 0
        path = dataset / "out" / "per_node.tsv"
        expected = path.read_text()
        assert main(["export-tree", "--config", cfg]) == 0
        dot = (dataset / "out" / "tree.dot").read_text()
        path.write_text("\n \n" + expected)
        assert main(["export-tree", "--config", cfg]) == 0
        assert (dataset / "out" / "tree.dot").read_text() == dot

    def test_statistics_without_their_header_fail(self, dataset, capsys):
        cfg = write_config(dataset)
        assert main(["run", "--config", cfg]) == 0
        path = dataset / "out" / "per_node.tsv"
        header, *rows = path.read_text().splitlines()
        assert header == "node\tprecision\trecall\tf1"
        (dataset / "out" / "tree.dot").unlink(missing_ok=True)
        for text, number in (("\n".join(rows) + "\n", 1), ("\n\n" + "\n".join(rows) + "\n", 3),
                             ("", 1)):
            path.write_text(text)
            assert main(["export-tree", "--config", cfg]) == 2
            assert (f"per_node.tsv:{number}: missing 'node\\tprecision\\trecall\\tf1' header"
                    in capsys.readouterr().err)
            assert not (dataset / "out" / "tree.dot").exists()

    def test_scores_outside_the_unit_interval_and_repeated_rows_fail(self, dataset, capsys):
        cfg = write_config(dataset)
        assert main(["run", "--config", cfg]) == 0
        path = dataset / "out" / "per_node.tsv"
        header, first, *rest = path.read_text().splitlines()
        node, *scores = first.split("\t")
        config = cli.parse_experiment_config(read_config(cfg), str(dataset))
        data = cli.load_dataset(config)
        for column, value in ((0, "-0.1"), (1, "1.000001"), (2, "5.5")):
            bad = "\t".join([node, *scores[:column], value, *scores[column + 1:]])
            path.write_text("\n".join([header, bad, *rest]) + "\n")
            with pytest.raises(fungo_io.DataFileError, match=r"per_node\.tsv:2: score outside"):
                cli.cmd_export_tree(config, config.out, data)
        # The row repeated further down: the later line is named.
        path.write_text("\n".join([header, first, *rest, first]) + "\n")
        assert main(["export-tree", "--config", cfg]) == 2
        assert f"per_node.tsv:{len(rest) + 3}: duplicate node {node!r}" in capsys.readouterr().err
        assert not (dataset / "out" / "tree.dot").exists()


# What perfbench/tracing.py wraps and perfbench/setup_probe.py calls.
BENCHMARK_HOOKS = """
import tracing
tracing.install(tracing.Tracer())
import fungo.cli as cli
from fungo.logic import HAS_NUMBA, resolve_engine
assert isinstance(HAS_NUMBA, bool) and isinstance(resolve_engine(), str)
for name in ("parse_experiment_config", "load_dataset", "build_gram", "build_rules",
             "dataset_folds"):
    assert callable(getattr(cli, name)), name
for name in ("read_config", "read_pairs"):
    assert callable(getattr(cli.io, name)), name
"""


def test_benchmark_hooks_resolve():
    # In a child process: install() patches fungo's modules in place.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fungo.__file__)))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([perfbench, src]))
    done = subprocess.run([sys.executable, "-c", BENCHMARK_HOOKS], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


def _modules_after_importing_the_cli() -> set[str]:
    src = os.path.dirname(os.path.dirname(os.path.abspath(fungo.__file__)))
    code = "import sys, fungo.cli; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_importing_the_cli_loads_neither_statistics_nor_decimal():
    # Only the stats subcommand needs statistics, which imports decimal.
    assert not {"statistics", "decimal"} & _modules_after_importing_the_cli()


# Every module here is on the import path of every fungo process; a module
# that only the tests reach, such as a rule-text parser, belongs in tests/.
CLI_IMPORTS = ["fungo", "fungo.cli", "fungo.evaluation", "fungo.io", "fungo.kernels",
               "fungo.learner", "fungo.logic", "fungo.logic.compiler", "fungo.logic.engine",
               "fungo.logic.formula", "fungo.ontology"]


def test_importing_the_cli_loads_only_the_listed_fungo_modules():
    loaded = _modules_after_importing_the_cli()
    assert sorted(m for m in loaded if m.split(".")[0] == "fungo") == CLI_IMPORTS


# Each dataclass costs about 0.4 ms of every process start, spent generating
# and exec-ing its methods at import.  A plain record is a NamedTuple; these
# classes need what only a dataclass gives: validation in __post_init__,
# cached properties, dataclasses.fields/replace, or equality that tells
# classes apart.
DATACLASSES = {
    "fungo.cli.Dataset",
    "fungo.cli.ExperimentConfig",
    "fungo.evaluation.PRCurve",
    "fungo.kernels.GramMatrix",
    "fungo.learner.TaskSpec",
    "fungo.learner.TrainConfig",
    "fungo.logic.compiler.PredicateBinding",
} | {f"fungo.logic.formula.{name}"
     for name in ("Atom", "Not", "And", "Or", "Implies", "Iff", "Quantifier", "Formula")}


def test_only_the_listed_classes_are_dataclasses():
    found = set()
    for info in pkgutil.walk_packages(fungo.__path__, "fungo."):
        module = importlib.import_module(info.name)
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == info.name}
    assert found == DATACLASSES


def test_traced_run_reads_its_bundle(tmp_path):
    # perfbench/tracing.py run as a script, as the traced benchmark runs it.
    hierarchy_fixture.write_dataset(str(tmp_path))
    hierarchy_fixture.write_pair_files(str(tmp_path))
    cfg = hierarchy_fixture.write_config(str(tmp_path), "out", rules="OC+PP2",
                                         ppi="ppi.tsv", pair_gram="pairs.csv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fungo.__file__)))
    script = os.path.join(os.path.dirname(src), "perfbench", "tracing.py")
    out, result = tmp_path / "out", tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, script, cfg, str(out), str(result)], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    metrics = json.loads(result.read_text())
    # Stage 1 is solved in closed form: each fold's trace holds the objective
    # at zero and at the minimiser, one step, and no fold reaches the cap.
    models = sorted(out.glob("fold_*/model.txt"))
    for path in models:
        lines = path.read_text().splitlines()
        assert sum(line.startswith("stage=1 step=") for line in lines) == 2, path
    assert len(models) > 1
    assert metrics["learner.stage1_steps"] == len(models)
    assert metrics["learner.stage1_capped_folds"] == 0
    assert metrics["learner.predict_s"] > 0
    # The run compiles each rule once, however many folds narrow the set.
    rules = [line for line in (out / "rules.txt").read_text().splitlines() if line.strip()]
    assert metrics["logic.compile_calls"] == len(rules)


class TestErrorHandling:
    def test_missing_input_file(self, dataset, capsys):
        cfg = write_config(dataset, annotations="missing.tsv")
        assert main(["folds", "--config", cfg]) == 2
        assert "missing.tsv" in capsys.readouterr().err

    def test_unknown_config_key(self, dataset, capsys):
        cfg = write_config(dataset, lambda_q="3")
        assert main(["folds", "--config", cfg]) == 2
        assert "lambda_q" in capsys.readouterr().err

    def test_bad_rule_token(self, dataset, capsys):
        cfg = write_config(dataset, rules="OC+mystery")
        assert main(["rules", "--config", cfg]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_partof_requires_oc(self, dataset, capsys):
        cfg = write_config(dataset, rules="partof")
        assert main(["rules", "--config", cfg]) == 2
        assert "requires" in capsys.readouterr().err

    def test_interaction_rules_need_a_pair_list(self, dataset, capsys):
        cfg = write_config(dataset, rules="PP1", ppi=None)
        assert main(["run", "--config", cfg]) == 2
        assert "ppi" in capsys.readouterr().err

    def test_a_run_that_fails_on_its_inputs_keeps_the_earlier_bundle(self, dataset, capsys):
        assert main(["run", "--config", write_config(dataset)]) == 0
        out = dataset / "out"
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg = write_config(dataset, name="pp.cfg", rules="PP1", ppi=None)
        assert main(["run", "--config", cfg]) == 2
        assert "ppi" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_output_path_that_is_a_file(self, dataset, capsys):
        (dataset / "taken").write_text("")
        cfg = write_config(dataset)
        assert main(["folds", "--config", cfg, "--out", str(dataset / "taken")]) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err

    # Keys that once existed: ``jobs``, and the fixed-step descent's two.
    @pytest.mark.parametrize("key, value", [
        ("jobs", "0"), ("jobs", "-3"), ("jobs", "2"),
        ("line_search", "false"), ("divergence_patience", "20"),
    ], ids=["0", "-3", "2", "line_search", "divergence_patience"])
    def test_jobs_is_an_unknown_config_key(self, dataset, capsys, key, value):
        cfg = write_config(dataset, **{key: value})
        assert main(["run", "--config", cfg]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
        assert not (dataset / "out").exists()

    @pytest.mark.parametrize("command", ["kernel", "rules", "folds", "stats", "export-tree"])
    def test_only_run_takes_jobs(self, dataset, capsys, command):
        cfg = write_config(dataset)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (dataset / "out").exists()

    def test_missing_required_key(self, dataset, capsys):
        (dataset / "broken.cfg").write_text("obo = onto.obo\n")
        assert main(["rules", "--config", str(dataset / "broken.cfg")]) == 2
        assert "missing required" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["beta", "lambda_r", "lambda_c", "learning_rate",
                                     "tolerance", "threshold", "undecided_band"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "many"])
    def test_real_keys_must_be_finite(self, dataset, capsys, key, value):
        cfg = write_config(dataset, **{key: value})
        assert main(["rules", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config key {key!r} must be a finite real number" in err

    @pytest.mark.parametrize("key, value, expected", [
        ("level", "2.5", "must be an integer"),
        ("folds", "two", "must be an integer"),
        ("kernel", "cosine", "unknown kernel"),
        ("namespaces", " , ", "'namespaces' is empty"),
        ("lambda_r", "0", "lambda_r must be positive"),
    ])
    def test_malformed_values(self, dataset, capsys, key, value, expected):
        cfg = write_config(dataset, **{key: value})
        assert main(["rules", "--config", cfg]) == 2
        assert expected in capsys.readouterr().err


class TestConfig:
    # Every key, each set away from its default.
    EVERY_KEY = {
        "obo": "onto.obo", "annotations": "ann.tsv",
        "namespaces": "molecular_function,biological_process", "level": "3",
        "min_count": "2", "kernel": "diffusion", "out": "elsewhere",
        "rules": "OC+partof+DPP2", "folds": "4", "seed": "7",
        "sequences": "seq.fasta", "domains": "dom.tsv", "expression": "expr.csv",
        "graph": "graph.tsv", "gram": "gram.csv", "pair_gram": "pairs.csv",
        "ppi": "ppi.tsv", "k": "4", "beta": "0.25", "lambda_r": "0.5",
        "lambda_c": "2.5", "tnorm": "lukasiewicz", "learning_rate": "0.125",
        "max_iterations": "40", "tolerance": "1e-06", "threshold": "0.375",
        "undecided_band": "0.01", "constraint_scope": "all",
    }

    def test_every_key_is_set_away_from_its_default(self, tmp_path):
        keys = {spec.name for spec in fields(ExperimentConfig) + fields(TrainConfig)}
        assert set(self.EVERY_KEY) == keys - {"train"}
        config = parse_experiment_config(self.EVERY_KEY, str(tmp_path))
        for owner in (config, config.train):
            for spec in fields(owner):
                if spec.default is not MISSING:
                    assert getattr(owner, spec.name) != spec.default, spec.name

    def test_the_readme_documents_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
        keys = {spec.name for spec in fields(ExperimentConfig) + fields(TrainConfig)}
        assert sorted(k for k in keys - {"train"} if f"`{k}`" not in section) == []

    def test_config_txt_round_trips(self, tmp_path):
        config = parse_experiment_config(self.EVERY_KEY, str(tmp_path / "a"))
        echoed = config.echo()
        path = str(tmp_path / "b" / "config.txt")
        write_config_file(path, echoed)
        again = parse_experiment_config(read_config(path), str(tmp_path / "b"))
        assert again == config
        assert again.echo() == echoed
