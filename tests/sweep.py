"""Compare the output bundles of this checkout and of a git revision.

    python tests/sweep.py --against REV

REV's committed ``src/`` is exported with ``git archive`` into a temporary
directory.  Both trees then run ``fungo run --jobs 1`` in a child process on
the same inputs, over these configs:

* the 39 hierarchy-fixture configs of ``test_bundle_bytes.py``: OC,
  OC+partof, OC+PP1, OC+PP2, OC+DPP1 and OC+DPP2 under both constraint
  scopes and all three t-norms on the expression kernel, and OC on each of
  the domain, diffusion and precomputed kernels;
* the three benchmark workloads at seeds 41 and 7, their inputs written by
  ``perfbench/workloads.generate``;
* the two scale shapes under both constraint scopes at seed 41:
  ``pair_network`` (OC+PP1) and ``dpp_network`` (OC+DPP1), ``oc_rules``
  grown to 1,500 proteins and 30,000 interactions with 5 folds, 3 stage-2
  iterations, ``lambda_c = 0.1`` and the minimum t-norm.

A bundle sees its Gram matrix only through training, so both trees also run
``fungo kernel`` on five kernel configs: the fixture's OC configs on the
expression, domain, diffusion and precomputed kernels, and
``baseline_spectrum`` at seed 41, whose kernel is the spectrum kernel.
That writes one file, ``gram_<kernel>.csv``.

Every file of each pair of bundles is compared, with the output directory
masked out of the echoed paths.  The script prints each file that differs,
or that only one bundle has, and each run that exits non-zero, and exits 1
if there is any.  Its last line counts the fixture, workload, scale and
kernel configs, the files compared and the files that differ.  A differing file
that both bundles have is described by how far apart its numbers are:

* ``model.txt``: the largest relative difference of the weights and each
  side's stage-2 step count;
* ``predictions.tsv``: the largest relative difference of the truths;
* ``metrics.txt``: each side's four headline metrics.

"Here" is this checkout and "there" is REV.

pytest does not collect it: it is not named ``test_*.py``.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(REPO, "perfbench")]

import hierarchy_fixture  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

RULES = ("OC", "OC+partof", "OC+PP1", "OC+PP2", "OC+DPP1", "OC+DPP2")
KERNELS = ("domain", "diffusion", "gram")
SCOPES = ("unsupervised", "all")
TNORMS = ("minimum", "product", "lukasiewicz")
SEEDS = (41, 7)
SCALE_RULES = {"pair_network": "OC+PP1", "dpp_network": "OC+DPP1"}
SCALE_SEED = 41
HEADLINE = ("example_f1", "label_macro_f1", "consistency", "auc_average")


def export(rev: str, directory: str) -> str:
    """REV's committed ``src/`` under ``directory``; returns that ``src``."""
    tar = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(directory, filter="data")
    return os.path.join(directory, "src")


def fixture_configs(directory: str) -> dict[str, str]:
    """The 39 fixture configs, by name; each dataset is written once."""
    configs, roots = {}, {}
    for rules in RULES:
        namespace = "biological_process" if "DPP" in rules else "molecular_function"
        part_of = "partof" in rules
        if (namespace, part_of) not in roots:
            root = roots[namespace, part_of] = os.path.join(
                directory, namespace + ("-part_of" if part_of else ""))
            hierarchy_fixture.write_dataset(root, namespace, part_of=part_of)
            hierarchy_fixture.write_pair_files(root)
            hierarchy_fixture.write_kernel_files(root)
        root = roots[namespace, part_of]
        for scope in SCOPES:
            for tnorm in TNORMS:
                name = f"{rules}-{scope}-{tnorm}"
                configs[name] = _fixture_config(root, name, rules, scope, tnorm, "expression",
                                                namespace)
    # Plain OC also runs once on each other kernel.
    root = roots["molecular_function", False]
    for kernel in KERNELS:
        name = f"OC-{kernel}"
        configs[name] = _fixture_config(root, name, "OC", SCOPES[0], TNORMS[0], kernel,
                                        "molecular_function")
    return configs


def _fixture_config(root: str, name: str, rules: str, scope: str, tnorm: str, kernel: str,
                    namespace: str) -> str:
    key, path = hierarchy_fixture.KERNEL_INPUTS[kernel]
    return hierarchy_fixture.write_config(
        root, name, rules=rules, ppi="ppi.tsv", pair_gram="pairs.csv",
        constraint_scope=scope, tnorm=tnorm, namespaces=namespace, kernel=kernel,
        **{key: path})


def workload_configs(directory: str) -> dict[str, str]:
    """The benchmark workloads' configs at each seed, by name."""
    configs = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            tag = f"{name}-{seed}"
            configs[tag] = generate(workload, seed, os.path.join(directory, tag)).config
    return configs


def scale_configs(directory: str) -> dict[str, str]:
    """The scale shapes' configs under each scope, by name."""
    configs = {}
    base = WORKLOADS["oc_rules"]
    for name, rules in SCALE_RULES.items():
        for scope in SCOPES:
            shape = replace(base, name=name, n=1500, rules=rules, ppi_pairs=30000, settings={
                **base.settings, "folds": 5, "max_iterations": 3, "lambda_c": 0.1,
                "tnorm": "minimum", "constraint_scope": scope})
            tag = f"{name}-{scope}"
            configs[tag] = generate(shape, SCALE_SEED, os.path.join(directory, tag)).config
    return configs


def kernel_configs(configs: dict[str, str]) -> dict[str, str]:
    """The kernel configs, by name, taken from the fixture and workload
    ``configs``."""
    kernels = {"kernel-expression": configs[f"OC-{SCOPES[0]}-{TNORMS[0]}"]}
    kernels.update((f"kernel-{kernel}", configs[f"OC-{kernel}"]) for kernel in KERNELS)
    kernels["kernel-spectrum"] = configs[f"baseline_spectrum-{SEEDS[0]}"]
    return kernels


def run(src: str, config: str, out_dir: str, command: str = "run") -> int:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "fungo.cli", command, "--config", config, "--out", out_dir]
    if command == "run":
        argv += ["--jobs", "1"]
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def snapshot(out_dir: str) -> dict[str, bytes]:
    """Every file of a bundle, with the output directory masked."""
    files = {}
    marker = os.path.abspath(out_dir).encode()
    for base, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, out_dir)] = handle.read().replace(marker, b"<out>")
    return files


def _lines(data: bytes, section: str | None = None) -> list[str]:
    """The non-blank lines of a file or, given ``section``, of its
    ``[section]`` block."""
    lines, inside = [], section is None
    for line in data.decode("utf-8").splitlines():
        if line.startswith("["):
            inside = line == f"[{section}]"
        elif inside and line.strip():
            lines.append(line)
    return lines


def weights(data: bytes) -> dict[str, list[float]]:
    """A ``model.txt``'s coefficient rows, by predicate."""
    rows = (line.split(": ", 1) for line in _lines(data, "coefficients"))
    return {name: [float(v) for v in values.split()] for name, values in rows}


def stage2_steps(data: bytes) -> int:
    """The steps that a ``model.txt``'s trace records for stage 2."""
    steps = [int(line.split()[1][len("step="):]) for line in _lines(data, "trace")
             if line.startswith("stage=2 ")]
    return max(steps, default=0)


def truths(data: bytes) -> dict[tuple[str, str], list[float]]:
    """A ``predictions.tsv``'s truths, by protein and node."""
    return {(protein, node): [float(truth)] for protein, node, truth, *_ in
            (line.split("\t") for line in _lines(data))}


def headline(data: bytes) -> str:
    """A ``metrics.txt``'s four headline metrics."""
    values = dict(line.split(" = ") for line in _lines(data))
    return " ".join(f"{name}={values.get(name)}" for name in HEADLINE)


def largest_relative_difference(a: dict, b: dict) -> float | None:
    """max |x - y| / max(|x|, |y|) over the entries of two tables (0 where
    both are 0), or None where their keys or row lengths differ."""
    if a.keys() != b.keys() or any(len(a[k]) != len(b[k]) for k in a):
        return None
    worst = 0.0
    for key in a:
        x, y = np.array(a[key]), np.array(b[key])
        scale = np.maximum(np.abs(x), np.abs(y))
        gap = np.divide(np.abs(x - y), scale, out=np.zeros_like(scale), where=scale > 0)
        worst = max(worst, float(gap.max(initial=0.0)))
    return worst


def describe(path: str, here: bytes, there: bytes) -> str:
    """How far apart two versions of a bundle file are, for the files that
    hold weights, truths or metrics; empty for any other file."""
    name = os.path.basename(path)
    if name == "model.txt":
        gap = largest_relative_difference(weights(here), weights(there))
        return (f"weights: {_gap(gap)}; stage-2 steps {stage2_steps(here)} here, "
                f"{stage2_steps(there)} there")
    if name == "predictions.tsv":
        return f"truths: {_gap(largest_relative_difference(truths(here), truths(there)))}"
    if name == "metrics.txt":
        return f"here {headline(here)}; there {headline(there)}"
    return ""


def _gap(gap: float | None) -> str:
    if gap is None:
        return "the two sides cover different entries"
    return f"largest relative difference {gap:.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision whose bundles this checkout's must equal")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fungo-sweep-") as work:
        trees = {"here": os.path.join(REPO, "src"),
                 "against": export(args.against, os.path.join(work, "against"))}
        configs = fixture_configs(os.path.join(work, "fixture"))
        fixtures = len(configs)
        configs.update(workload_configs(os.path.join(work, "workloads")))
        workloads = len(configs) - fixtures
        configs.update(scale_configs(os.path.join(work, "scale")))
        scale = len(configs) - fixtures - workloads
        kernels = kernel_configs(configs)
        runs = [(name, "run", config) for name, config in configs.items()]
        runs += [(name, "kernel", config) for name, config in kernels.items()]
        compared = differing = 0
        for name, command, config in runs:
            bundles = []
            for tag, src in trees.items():
                out_dir = os.path.join(work, "out", tag, name)
                code = run(src, config, out_dir, command)
                bundles.append((code, snapshot(out_dir) if os.path.isdir(out_dir) else {}))
            (code_a, files_a), (code_b, files_b) = bundles
            if code_a or code_b:
                print(f"{name}: exit {code_a} here, {code_b} at {args.against}")
                differing += 1
            for path in sorted(files_a.keys() | files_b.keys()):
                compared += 1
                here, there = files_a.get(path), files_b.get(path)
                if here != there:
                    detail = describe(path, here, there) if here and there else ""
                    print(f"{name}: {path} differs" + (f": {detail}" if detail else ""))
                    differing += 1
        print(f"{len(runs)} configs ({fixtures} fixture, {workloads} workload, {scale} scale, "
              f"{len(kernels)} kernel), {compared} files compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
