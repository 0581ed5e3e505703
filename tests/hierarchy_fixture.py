"""Synthetic two-level chain dataset for constraint-strength experiments.

Fifty proteins with four-condition expression profiles lying on a single
line in feature space: profile(p) = t_p * (1, -1, 1, -1) plus a little
off-axis noise.  The covariance kernel then represents exactly the
linear functions of t, which pins down what ridge regression can learn:

* child term (level 2): annotated on the 20 proteins with t > 0 — a
  linearly separable target, so its scores grow with t and the strong
  positives cross the 0.5 threshold;
* parent term (level 1): additionally annotated on 10 proteins with
  strongly negative t.  The best linear fit of that non-monotone label
  pattern is nearly flat, so without constraints the parent is predicted
  almost nowhere even though every child positive implies it;
* root (level 0): carries everything else, so every protein has an
  annotation and survives dataset adaptation.

With the ontology rules enabled, raising the constraint weight pushes
parent scores up wherever the child fires, which is what the
consistency metric rewards.
"""

from __future__ import annotations

import os

ROOT = "GO:0000100"
PARENT = "GO:0000200"
CHILD = "GO:0000300"

OBO = """\
format-version: 1.2

[Term]
id: GO:0000100
name: molecular function
namespace: molecular_function

[Term]
id: GO:0000200
name: regulator activity
namespace: molecular_function
is_a: GO:0000100 ! molecular function

[Term]
id: GO:0000300
name: kinase regulator activity
namespace: molecular_function
is_a: GO:0000200 ! regulator activity
"""

N_CHILD = 20
N_EXTRA = 10
N_PLAIN = 20
DIRECTION = (1.0, -1.0, 1.0, -1.0)


def protein_positions() -> list[tuple[str, float, str]]:
    """(protein id, line coordinate, annotated term) for all 50 proteins."""
    rows: list[tuple[str, float, str]] = []
    for i in range(N_CHILD):
        t = 0.8 + 0.8 * i / (N_CHILD - 1)
        rows.append((f"prot{i:02d}", t, CHILD))
    for i in range(N_EXTRA):
        t = -1.6 + 0.7 * i / (N_EXTRA - 1)
        rows.append((f"prot{N_CHILD + i:02d}", t, PARENT))
    for i in range(N_PLAIN):
        t = -0.6 + 0.55 * i / (N_PLAIN - 1)
        rows.append((f"prot{N_CHILD + N_EXTRA + i:02d}", t, ROOT))
    return rows


def write_dataset(root_dir: str, namespace: str = "molecular_function",
                  part_of: bool = False) -> None:
    """Write the ontology, annotation, and expression files into root_dir,
    with every term of the chain in ``namespace``; with ``part_of`` the
    child is also part of the root."""
    os.makedirs(root_dir, exist_ok=True)
    obo = OBO.replace("namespace: molecular_function", f"namespace: {namespace}")
    if part_of:
        edge = "is_a: GO:0000200 ! regulator activity\n"
        obo = obo.replace(edge, edge + "relationship: part_of GO:0000100\n")
    with open(os.path.join(root_dir, "chain.obo"), "w", encoding="utf-8") as fh:
        fh.write(obo)
    rows = protein_positions()
    with open(os.path.join(root_dir, "ann.tsv"), "w", encoding="utf-8") as fh:
        for protein, _, term in rows:
            fh.write(f"{protein}\t{term}\n")
    # Deterministic low-amplitude noise keeps the Gram matrix full rank
    # without disturbing the line geometry that the design relies on.
    with open(os.path.join(root_dir, "expr.csv"), "w", encoding="utf-8") as fh:
        for index, (protein, t, _) in enumerate(rows):
            wobble = 0.03 * ((index * 2654435761 % 97) / 96.0 - 0.5)
            profile = [t * d + wobble * (-1.0) ** s for s, d in enumerate(DIRECTION)]
            fh.write(protein + "," + ",".join(f"{v:.9f}" for v in profile) + "\n")


def write_config(root_dir: str, name: str, **overrides: object) -> str:
    """Write a run config next to the dataset files; returns its path."""
    settings: dict[str, object] = {
        "obo": "chain.obo",
        "annotations": "ann.tsv",
        "namespaces": "molecular_function",
        "level": 2,
        "min_count": 5,
        "kernel": "expression",
        "expression": "expr.csv",
        "rules": "OC",
        "folds": 5,
        "seed": 0,
        "out": name,
        "lambda_r": 1.0,
        "lambda_c": 1.0,
        "max_iterations": 300,
        "tolerance": 1e-9,
    }
    settings.update(overrides)
    path = os.path.join(root_dir, f"config_{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(settings):
            fh.write(f"{key} = {settings[key]}\n")
    return path


def read_metrics(path: str) -> dict[str, float]:
    """Parse a metrics report of ``key = value`` lines."""
    out: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def write_pair_files(root_dir: str) -> None:
    """Write ``ppi.tsv`` (interactions chosen by index arithmetic) and
    ``pairs.csv``, a pair Gram over the interactions plus five
    non-interacting neighbours."""
    proteins = [row[0] for row in protein_positions()]
    interactions = [(proteins[i], proteins[j]) for i in range(50) for j in range(i + 1, 50)
                    if (i + 2 * j) % 11 == 0]
    with open(os.path.join(root_dir, "ppi.tsv"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in interactions))
    ids = [f"{a}|{b}" for a, b in interactions]
    ids += [f"{proteins[i]}|{proteins[i + 1]}" for i in (1, 12, 23, 34, 45)]
    with open(os.path.join(root_dir, "pairs.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(ids) + "\n")
        for i in range(len(ids)):
            fh.write(",".join("1.25" if i == j else "0.25" for j in range(len(ids))) + "\n")


# The config key and file that each kernel reads its input from.
KERNEL_INPUTS = {
    "expression": ("expression", "expr.csv"),
    "domain": ("domains", "domains.tsv"),
    "diffusion": ("graph", "graph.tsv"),
    "gram": ("gram", "gram.csv"),
}


def write_kernel_files(root_dir: str) -> None:
    """Write the inputs of the domain, diffusion and precomputed kernels.

    ``domains.tsv`` gives each protein a bin of its line coordinate and one of
    four families.  ``graph.tsv`` chains the proteins of each annotated term,
    plus one reversed duplicate, one self-loop and one edge to a protein
    outside the dataset.  ``gram.csv`` is the linear kernel of the written
    expression profiles, summed in Python so that its bits do not depend on
    the BLAS, with its ids in reverse order.
    """
    rows = protein_positions()
    with open(os.path.join(root_dir, "domains.tsv"), "w", encoding="utf-8") as fh:
        for index, (protein, t, _) in enumerate(rows):
            fh.write(f"{protein}\tBIN{int((t + 1.6) / 0.4)}\n{protein}\tFAM{index % 4}\n")
    edges = [(a[0], b[0]) for a, b in zip(rows, rows[1:]) if a[2] == b[2]]
    edges += [(rows[1][0], rows[0][0]), (rows[5][0], rows[5][0]), (rows[7][0], "prot99")]
    with open(os.path.join(root_dir, "graph.tsv"), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in edges))
    profiles = {}
    with open(os.path.join(root_dir, "expr.csv"), encoding="utf-8") as fh:
        for line in fh:
            name, *values = line.strip().split(",")
            profiles[name] = [float(v) for v in values]
    ids = sorted(profiles, reverse=True)
    with open(os.path.join(root_dir, "gram.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(ids) + "\n")
        for a in ids:
            fh.write(",".join(repr(sum(x * y for x, y in zip(profiles[a], profiles[b])))
                              for b in ids) + "\n")
