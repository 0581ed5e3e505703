"""End-to-end tests for the command-line front end on a small dataset."""

import logging
import os
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

import fungo
import hierarchy_fixture
from fungo import cli
from fungo.cli import ExperimentConfig, main, parse_experiment_config
from fungo.io import read_config, read_folds, read_gram, read_predictions
from fungo.io import write_config as write_config_file
from fungo.kernels import InteractionGraph, diffusion_kernel
from fungo.learner import TrainConfig

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
        graph = InteractionGraph(proteins, (("p1", "p2", 1.0), ("p5", "p6", 1.0)))
        expected = diffusion_kernel(graph, 0.5)
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

    def test_run_is_deterministic(self, dataset):
        cfg = write_config(dataset)
        out = dataset / "out"

        def bundle():
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

        assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
        first = bundle()
        shutil.rmtree(out)
        assert main(["run", "--config", cfg, "--jobs", "2"]) == 0
        second = bundle()
        assert "metrics.txt" in {str(p) for p in first}
        assert first.keys() == second.keys()
        for path in first:
            assert first[path] == second[path], path

    def test_default_jobs_follow_the_core_count(self, dataset, caplog, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        cfg = write_config(dataset)
        with caplog.at_level(logging.INFO, logger="fungo"):
            assert main(["run", "--config", cfg]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert "training 2 folds with 1 workers" in messages

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

    def test_divergence_fails_the_run_with_diagnostics(self, dataset, capsys):
        cfg = write_config(
            dataset, name="bad.cfg", out="out_bad", rules="none",
            line_search="false", learning_rate="1000.0", divergence_patience="3",
        )
        assert main(["run", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "diverged" in err
        out = dataset / "out_bad"
        assert not (out / "metrics.txt").exists()
        diagnostics = list(out.glob("fold_*/divergence.txt"))
        assert diagnostics
        assert "fold = " in diagnostics[0].read_text()

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
        outcomes = []
        aggregate = cli._aggregate

        def record(config, data, found, *rest):
            outcomes.extend(found)
            return aggregate(config, data, found, *rest)

        monkeypatch.setattr(cli, "_aggregate", record)
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
        scored_in = {row[0]: outcome.index for outcome in outcomes
                     for row in outcome.bound_rows}
        assert scored_in == {name: fold_of[min(name.split("|"))] for name in names}

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
            masked = str(out).encode()
            bundles.append({
                p.relative_to(out): p.read_bytes().replace(masked, b"<out>")
                for p in out.rglob("*") if p.is_file()
            })
        first, second = bundles
        assert {"metrics.txt", "per_node.tsv", "curve_average.csv"} <= {str(p) for p in first}
        assert first.keys() == second.keys()
        for path in first:
            assert first[path] == second[path], path


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

    def test_tree_requires_run_outputs(self, dataset, capsys):
        cfg = write_config(dataset, out="out_fresh")
        assert main(["export-tree", "--config", cfg]) == 2
        assert "run 'run' first" in capsys.readouterr().err


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
        ("jobs", "two", "must be an integer"),
        ("line_search", "yes", "must be true or false"),
        ("kernel", "cosine", "unknown kernel"),
        ("namespaces", " , ", "'namespaces' is empty"),
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
        "rules": "OC+partof+DPP2", "folds": "4", "seed": "7", "jobs": "2",
        "sequences": "seq.fasta", "domains": "dom.tsv", "expression": "expr.csv",
        "graph": "graph.tsv", "gram": "gram.csv", "pair_gram": "pairs.csv",
        "ppi": "ppi.tsv", "k": "4", "beta": "0.25", "lambda_r": "0.5",
        "lambda_c": "2.5", "tnorm": "lukasiewicz", "learning_rate": "0.125",
        "max_iterations": "40", "tolerance": "1e-06", "threshold": "0.375",
        "undecided_band": "0.01", "constraint_scope": "all",
        "line_search": "false", "divergence_patience": "5",
    }

    def test_every_key_is_set_away_from_its_default(self, tmp_path):
        keys = {spec.name for spec in fields(ExperimentConfig) + fields(TrainConfig)}
        assert set(self.EVERY_KEY) == keys - {"train"}
        config = parse_experiment_config(self.EVERY_KEY, str(tmp_path))
        for owner in (config, config.train):
            for spec in fields(owner):
                if spec.default is not MISSING:
                    assert getattr(owner, spec.name) != spec.default, spec.name

    def test_config_txt_round_trips(self, tmp_path):
        config = parse_experiment_config(self.EVERY_KEY, str(tmp_path / "a"))
        echoed = config.echo()
        assert "jobs" not in echoed
        path = str(tmp_path / "b" / "config.txt")
        write_config_file(path, echoed)
        again = parse_experiment_config(read_config(path), str(tmp_path / "b"))
        assert again == replace(config, jobs=None)
        assert again.echo() == echoed
