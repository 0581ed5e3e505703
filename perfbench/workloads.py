"""Seeded synthetic inputs for the pipeline benchmark.

Every protein carries a hidden set of latent factors: per analysed
namespace a few active branches, and inside each active branch a few
active leaves.  The same factors decide

* the GO annotations (a protein is annotated with each active leaf, or
  with a level-3 child of it, and the true-path rule adds the rest);
* the expression profile (a sum of one fixed random pattern per active
  branch and leaf, plus noise);
* the sequence (one fixed motif per active branch and leaf, planted into a
  random background);
* the interaction list (pairs are drawn mostly between proteins that share
  a leaf).

So the labels are learnable from every data view and the quality metrics
sit far from chance.  The ontology shape is fixed by the workload, not by
the seed: signal terms are far above ``min_count``, rare terms far below,
so the cut has the same nodes and rules for every seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

ANALYSED = ("molecular_function", "biological_process")
OTHER = "cellular_component"
NAMESPACES = ANALYSED + (OTHER,)
AMINO = "ACDEFGHIKLMNPQRSTVWY"
MOTIF_LENGTH = 6
MOTIF_COPIES = 3
CONDITIONS = 64
RARE_ANNOTATED = 3  # proteins on each rare term: always below min_count
BRANCH_SHARE = 0.4  # proteins in each level-1 factor group
LEAF_SHARE = 0.45  # share of a branch's proteins in each of its leaves
NOISE = 0.5  # expression noise per condition


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the experiment settings run on it."""

    name: str
    why: str
    n: int  # proteins kept by the pipeline
    branches: int  # level-1 terms per analysed namespace
    leaves: int  # level-2 signal terms per branch
    filler_terms: int  # unannotated deep terms that only size the OBO
    extra_proteins: int  # annotated in one namespace only; the pipeline drops them
    kernel: str
    rules: str
    ppi_pairs: int = 0
    seq_len: int = 0
    settings: dict = field(default_factory=dict)

    @property
    def folds(self) -> int:
        return int(self.settings["folds"])

    @property
    def cut_nodes(self) -> int:
        """Roots, branches, leaves and one bin per branch, per namespace."""
        per_namespace = 1 + self.branches * (self.leaves + 2)
        return len(ANALYSED) * per_namespace

    @property
    def rule_count(self) -> int:
        """OC: one upward rule per cut edge (every second leaf has two
        parents) and one downward rule for the root and each branch.
        PP1: one rule per retained term."""
        count = 0
        if "OC" in self.rules:
            upward = self.branches * (self.leaves + 2 + self.leaves // 2)
            count += len(ANALYSED) * (upward + 1 + self.branches)
        if "PP1" in self.rules:
            count += len(ANALYSED) * (1 + self.branches * (1 + self.leaves))
        return count


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="baseline_spectrum",
            why=(
                "no rules, spectrum kernel, GO-sized OBO with dropped proteins: "
                "ingest, Gram and stage-1 descent do the work; rule changes "
                "should read no change"
            ),
            n=180,
            branches=4,
            leaves=4,
            filler_terms=12000,
            extra_proteins=8000,
            kernel="spectrum",
            rules="none",
            seq_len=300,
            settings={"folds": 5, "max_iterations": 30, "min_count": 10},
        ),
        Workload(
            name="oc_rules",
            why=(
                "OC rules under the Lukasiewicz t-norm, expression kernel: stage 2 "
                "descends every iteration, so per-rule penalty dispatch dominates"
            ),
            n=120,
            branches=4,
            leaves=4,
            filler_terms=60,
            extra_proteins=0,
            kernel="expression",
            rules="OC",
            settings={"folds": 3, "max_iterations": 15, "min_count": 8,
                      "tnorm": "lukasiewicz"},
        ),
        Workload(
            name="pair_dense",
            why=(
                "OC+PP1 over all proteins: the only workload with n^2 pair "
                "groundings, almost all with a zero guard; sparse grounding "
                "shows here only"
            ),
            n=50,
            branches=3,
            leaves=3,
            filler_terms=30,
            extra_proteins=0,
            kernel="expression",
            rules="OC+PP1",
            ppi_pairs=80,
            settings={"folds": 3, "max_iterations": 10, "min_count": 5,
                      "lambda_c": 0.1, "constraint_scope": "all"},
        ),
    )
}


@dataclass(frozen=True)
class CutNode:
    """What the pipeline's cut should hold for one node, by construction."""

    members: frozenset[str]
    parents: tuple[str, ...]  # predicates of the node's parents in the cut
    level: int
    is_bin: bool


@dataclass(frozen=True)
class Inputs:
    """The generated config plus the planted truth, keyed by predicate."""

    config: str
    proteins: tuple[str, ...]
    nodes: dict[str, CutNode]


def _term(namespace_index: int, number: int) -> str:
    return f"GO:{namespace_index + 1}{number:06d}"


class _Ontology:
    """Term ids and is_a links of the generated DAG."""

    def __init__(self, workload: Workload, rng: np.random.Generator):
        self.names: dict[str, str] = {}
        self.namespace: dict[str, str] = {}
        self.parents: dict[str, list[str]] = {}
        self.roots: dict[str, str] = {}
        self.branches: dict[str, list[str]] = {}  # namespace -> level-1 terms
        self.leaves: dict[str, list[str]] = {}  # branch -> level-2 signal terms
        self.rare: dict[str, str] = {}  # branch -> its rare child
        self.deep: dict[str, str] = {}  # leaf -> its level-3 child
        counter = {ns: 0 for ns in NAMESPACES}

        def add(ns: str, parents: list[str], label: str) -> str:
            ns_index = NAMESPACES.index(ns)
            tid = _term(ns_index, counter[ns])
            counter[ns] += 1
            self.names[tid] = f"{label} {tid[3:]}"
            self.namespace[tid] = ns
            self.parents[tid] = parents
            return tid

        deep_terms: dict[str, list[str]] = {ns: [] for ns in NAMESPACES}
        for ns in NAMESPACES:
            root = add(ns, [], f"{ns} root")
            self.roots[ns] = root
            self.branches[ns] = []
            for b in range(workload.branches):
                branch = add(ns, [root], "branch")
                self.branches[ns].append(branch)
                self.leaves[branch] = []
            for b, branch in enumerate(self.branches[ns]):
                for leaf_index in range(workload.leaves):
                    parents = [branch]
                    if leaf_index % 2 == 1:
                        # Every second leaf also sits under the next branch,
                        # so the cut is a DAG, not a tree.
                        parents.append(self.branches[ns][(b + 1) % workload.branches])
                    leaf = add(ns, parents, "leaf")
                    self.leaves[branch].append(leaf)
                    deep = add(ns, [leaf], "specific")
                    self.deep[leaf] = deep
                    deep_terms[ns].append(deep)
                self.rare[branch] = add(ns, [branch], "rare")
        # Filler subtrees below level 3 make the OBO GO-sized without
        # touching the cut; a few filler terms get a second parent.
        for i in range(workload.filler_terms):
            ns = NAMESPACES[i % len(NAMESPACES)]
            pool = deep_terms[ns]
            parents = [pool[int(rng.integers(len(pool)))]]
            if rng.random() < 0.1:
                other = pool[int(rng.integers(len(pool)))]
                if other != parents[0]:
                    parents.append(other)
            filler = add(ns, parents, "filler")
            pool.append(filler)

    def obo(self) -> str:
        lines = ["format-version: 1.2", "ontology: go", ""]
        for tid in self.names:
            lines += ["[Term]", f"id: {tid}", f"name: {self.names[tid]}",
                      f"namespace: {self.namespace[tid]}"]
            lines += [f"is_a: {p} ! {self.names[p]}" for p in self.parents[tid]]
            lines.append("")
        return "\n".join(lines) + "\n"

    def ancestors(self, tid: str) -> set[str]:
        out: set[str] = set()
        stack = [tid]
        while stack:
            for p in self.parents[stack.pop()]:
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return out


def _subset(rng: np.random.Generator, pool: list[str], share: float) -> list[str]:
    """Exactly ``round(share * len(pool))`` members of ``pool``, at random."""
    picked = rng.choice(len(pool), size=round(share * len(pool)), replace=False)
    return [pool[int(i)] for i in sorted(picked)]


def generate(workload: Workload, seed: int, directory: str) -> Inputs:
    """Write the workload's input files and config into ``directory``."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    onto = _Ontology(workload, rng)
    os.makedirs(directory, exist_ok=True)

    # Fixed-size factor groups keep term sizes, and so the cut, the label
    # balance and the amount of descent work, the same for every seed.
    proteins = [f"P{i:05d}" for i in range(workload.n)]
    raw: dict[str, set[str]] = {p: set() for p in proteins}
    active: dict[str, list[str]] = {p: [] for p in proteins}  # branches and leaves
    for ns in ANALYSED:
        groups = {b: set(_subset(rng, proteins, BRANCH_SHARE)) for b in onto.branches[ns]}
        for protein in proteins:
            if not any(protein in group for group in groups.values()):
                # Every kept protein needs an annotation in every analysed namespace.
                groups[onto.branches[ns][int(rng.integers(workload.branches))]].add(protein)
        for branch, group in groups.items():
            members = sorted(group)
            leafless = set(members)
            for leaf in onto.leaves[branch]:
                for protein in _subset(rng, members, LEAF_SHARE):
                    active[protein].append(leaf)
                    raw[protein].add(onto.deep[leaf] if rng.random() < 0.3 else leaf)
                    leafless.discard(protein)
            for protein in members:
                active[protein].append(branch)
            for protein in leafless:
                raw[protein].add(branch)
    for protein in proteins:
        # The non-analysed namespace is annotated too, as in a GOA file.
        raw[protein].add(onto.branches[OTHER][int(rng.integers(workload.branches))])
    # Rare terms stay below min_count, so each branch gets a bin node.
    for ns in ANALYSED:
        for branch in onto.branches[ns]:
            for i in rng.choice(workload.n, RARE_ANNOTATED, replace=False):
                raw[proteins[int(i)]].add(onto.rare[branch])
    closed = {
        p: set(ts).union(*(onto.ancestors(t) for t in ts)) for p, ts in raw.items()
    }

    annotation_lines = [f"{p}\t{t}" for p in proteins for t in sorted(raw[p])]
    for i in range(workload.extra_proteins):
        # One analysed namespace only: dropped by dataset adaptation.
        ns = ANALYSED[i % len(ANALYSED)]
        branch = onto.branches[ns][int(rng.integers(workload.branches))]
        leaf = onto.leaves[branch][int(rng.integers(workload.leaves))]
        annotation_lines.append(f"X{i:06d}\t{leaf}")
    files = {
        "go.obo": onto.obo(),
        "annotations.tsv": "\n".join(annotation_lines) + "\n",
    }

    factor_ids = sorted({t for ns in ANALYSED for b in onto.branches[ns]
                         for t in [b] + onto.leaves[b]})
    settings = {
        "obo": "go.obo",
        "annotations": "annotations.tsv",
        "namespaces": ",".join(ANALYSED),
        "level": "2",
        "kernel": workload.kernel,
        "rules": workload.rules,
        "seed": "0",
    }
    if workload.kernel == "spectrum":
        motifs = {
            t: "".join(AMINO[int(c)] for c in rng.integers(len(AMINO), size=MOTIF_LENGTH))
            for t in factor_ids
        }
        fasta = []
        for protein in proteins:
            seq = [AMINO[int(c)] for c in rng.integers(len(AMINO), size=workload.seq_len)]
            for factor in active[protein]:
                for _ in range(MOTIF_COPIES):
                    at = int(rng.integers(workload.seq_len - MOTIF_LENGTH))
                    seq[at:at + MOTIF_LENGTH] = motifs[factor]
            fasta.append(f">{protein}\n{''.join(seq)}")
        files["sequences.fasta"] = "\n".join(fasta) + "\n"
        settings["sequences"] = "sequences.fasta"
        settings["k"] = "3"
    else:
        # Orthogonal patterns, none with a constant part (the kernel centres
        # each profile), scaled so that every factor adds about the same
        # eigenvalue to the Gram matrix: stage 1 then fits all terms alike.
        basis = np.linalg.qr(np.column_stack(
            [np.ones(CONDITIONS), rng.normal(size=(CONDITIONS, len(factor_ids)))]))[0]
        sizes = {t: sum(t in active[p] for p in proteins) for t in factor_ids}
        patterns = {
            t: basis[:, i + 1] * np.sqrt(CONDITIONS * workload.n / sizes[t])
            for i, t in enumerate(factor_ids)
        }
        rows = []
        for protein in proteins:
            profile = NOISE * rng.normal(size=CONDITIONS)
            for factor in active[protein]:
                profile += patterns[factor]
            rows.append(protein + "," + ",".join(f"{v:.6f}" for v in profile))
        files["expression.csv"] = "\n".join(rows) + "\n"
        settings["expression"] = "expression.csv"
    if workload.ppi_pairs:
        leaf_groups = {
            leaf: [p for p in proteins if leaf in closed[p]]
            for ns in ANALYSED for b in onto.branches[ns] for leaf in onto.leaves[b]
        }
        files["ppi.tsv"] = _interactions(rng, workload.ppi_pairs, proteins, leaf_groups)
        settings["ppi"] = "ppi.tsv"
    settings.update({k: str(v) for k, v in workload.settings.items()})

    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    config = os.path.join(directory, "experiment.cfg")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return Inputs(config, tuple(proteins), _cut_truth(onto, closed))


def _predicate(node_id: str) -> str:
    return node_id.replace(":", "_")


def _cut_truth(onto: _Ontology, closed: dict[str, set[str]]) -> dict[str, CutNode]:
    """Roots, branches and leaves are retained and every rare term is pruned,
    which puts one bin under each branch."""
    def members(term: str) -> frozenset[str]:
        return frozenset(p for p, terms in closed.items() if term in terms)

    nodes: dict[str, CutNode] = {}
    for ns in ANALYSED:
        root = onto.roots[ns]
        nodes[_predicate(root)] = CutNode(members(root), (), 0, False)
        for branch in onto.branches[ns]:
            nodes[_predicate(branch)] = CutNode(
                members(branch), (_predicate(root),), 1, False)
            for leaf in onto.leaves[branch]:
                nodes[_predicate(leaf)] = CutNode(
                    members(leaf), tuple(map(_predicate, onto.parents[leaf])), 2, False)
            nodes[_predicate("BIN:" + branch)] = CutNode(
                members(onto.rare[branch]) & members(branch),
                (_predicate(branch),), 2, True)
    return nodes


def _interactions(rng: np.random.Generator, count: int, proteins: list[str],
                  leaf_groups: dict[str, list[str]]) -> str:
    """``count`` distinct pairs, nine in ten between proteins sharing a leaf."""
    members = {leaf: ps for leaf, ps in leaf_groups.items() if len(ps) >= 2}
    shared = sorted(members)
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < count:
        if rng.random() < 0.9:
            group = members[shared[int(rng.integers(len(shared)))]]
            a, b = (group[int(i)] for i in rng.choice(len(group), 2, replace=False))
        else:
            a, b = (proteins[int(i)] for i in rng.choice(len(proteins), 2, replace=False))
        pairs.add((min(a, b), max(a, b)))
    return "".join(f"{a}\t{b}\n" for a, b in sorted(pairs))
