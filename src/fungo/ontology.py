"""Ontology DAG handling: OBO parsing, annotation closure, cuts, rule generation.

The label space is a directed acyclic graph of terms split across three
namespaces.  ``is_a`` edges define the hierarchy used for levels, closure and
consistency rules; ``part_of`` edges cross namespaces and feed the
trans-hierarchy rules; ``regulates`` and ``occurs_in`` are parsed and stored
but generate nothing.
"""

from __future__ import annotations

import re
import sys
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .logic import Atom, And, Formula, Iff, Implies, Node, Or, Quantifier

NAMESPACES = ("biological_process", "cellular_component", "molecular_function")

ISA = "is_a"
PART_OF = "part_of"
REGULATES = "regulates"
OCCURS_IN = "occurs_in"
RELATIONS = (ISA, PART_OF, REGULATES, OCCURS_IN)

BIN_PREFIX = "BIN:"
BOUND_PREDICATE = "BOUND"
PROTEIN_DOMAIN = "Prot"

PP = "PP"
DPP = "DPP"
PPI_VARIANTS = (PP, DPP)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED_NAMES = frozenset({"forall", "exists", "and", "or", "not", BOUND_PREDICATE})


class OntologyError(ValueError):
    """Raised for malformed ontologies, annotations or cut parameters."""


class Term(NamedTuple):
    id: str
    name: str
    namespace: str


class OntologyDag:
    """Immutable typed-relation DAG over ontology terms.

    ``is_a`` edges must be acyclic, and every term but its namespace's single
    root needs an ``is_a`` parent in its own namespace.  ``level`` is the
    length of the shortest ``is_a`` path to that root within the namespace.

    The is_a neighbours of each term are kept as tuples, and every term
    without parents or children shares the one empty tuple.  Ancestor sets,
    sorted parent and child tuples and the per-relation edge lists are
    built on first request and memoised, so a closure touches only the
    annotated terms and their ancestors.
    """

    def __init__(self, terms: Iterable[Term], edges: Iterable[tuple[str, str, str]]):
        table: dict[str, Term] = {}
        for term in terms:
            if term.namespace not in NAMESPACES:
                raise OntologyError(
                    f"term {term.id!r} has unknown namespace {term.namespace!r}"
                )
            if term.id in table:
                raise OntologyError(f"duplicate term id {term.id!r}")
            table[term.id] = term

        # is_a edges live in _up and _down alone; _links holds the rest.
        links: list[tuple[str, str, str]] = []
        up: dict[str, list[str]] = {t: [] for t in table}
        down: dict[str, list[str]] = {t: [] for t in table}
        rooted: set[str] = set()  # terms with an is_a parent in their own namespace
        for edge in dict.fromkeys(edges):
            child, parent, relation = edge
            if relation not in RELATIONS:
                raise OntologyError(f"unknown relation {relation!r}")
            if child not in table:
                raise OntologyError(f"dangling edge source {child!r}")
            if parent not in table:
                raise OntologyError(f"dangling edge target {parent!r}")
            if relation == ISA:
                up[child].append(parent)
                down[parent].append(child)
                if table[child].namespace == table[parent].namespace:
                    rooted.add(child)
            else:
                links.append(edge)
        for tid, parents in up.items():
            if parents and tid not in rooted:
                raise OntologyError(
                    f"term {tid!r} has no is_a parent in namespace {table[tid].namespace!r}"
                )

        self._terms = table
        self._links = tuple(links)
        # tuple() of an empty list is the one shared empty tuple.
        self._up = {t: tuple(ps) for t, ps in up.items()}
        self._down = {t: tuple(cs) for t, cs in down.items()}
        self._levels = self._walk()
        self._parents: dict[str, tuple[str, ...]] = {}
        self._children: dict[str, tuple[str, ...]] = {}
        self._ancestors: dict[str, frozenset[str]] = {}
        self._by_relation: dict[str, tuple[tuple[str, str], ...]] | None = None

    def _walk(self) -> dict[str, int]:
        """Levels from one walk over Kahn's topological order, which also
        rejects a cycle and a second root in one namespace.

        The walk starts from the parentless terms in table order, which are
        the roots; the first two of one namespace are the pair a "multiple
        roots" error names.  Each parent offers its children in its own
        namespace its level plus one, and a term keeps the smallest offer;
        it joins the walk only after all of its parents, so its level is
        final by then.  A term the walk never reaches sits on or below a
        cycle.

        No namespace can lack a root and no term can miss a level: once the
        DAG is acyclic, every chain of own-namespace is_a parents ends at a
        parentless term, and since every term with parents has one in its
        own namespace, that term is the namespace's root.
        """
        terms, up, down = self._terms, self._up, self._down
        pending = {t: len(ps) for t, ps in up.items()}
        order = [t for t, n in pending.items() if n == 0]
        levels = dict.fromkeys(order, 0)
        for tid in order:
            depth = levels[tid] + 1
            namespace = terms[tid].namespace
            for child in down[tid]:
                if terms[child].namespace == namespace and levels.get(child, depth) >= depth:
                    levels[child] = depth
                pending[child] -= 1
                if pending[child] == 0:
                    order.append(child)
        if len(order) != len(terms):
            cyclic = sorted(t for t, n in pending.items() if n > 0)
            raise OntologyError(f"cycle among is_a edges involving {cyclic[:5]}")
        roots: dict[str, str] = {}
        for tid in order:
            if up[tid]:
                break
            namespace = terms[tid].namespace
            if namespace in roots:
                raise OntologyError(
                    f"namespace {namespace!r} has multiple roots: "
                    f"{roots[namespace]!r} and {tid!r}"
                )
            roots[namespace] = tid
        return levels

    @property
    def terms(self) -> Mapping[str, Term]:
        return self._terms

    def __contains__(self, term_id: str) -> bool:
        return term_id in self._terms

    def level(self, term_id: str) -> int:
        self._require(term_id)
        return self._levels[term_id]

    def parents(self, term_id: str) -> tuple[str, ...]:
        self._require(term_id)
        return _sorted_once(self._parents, self._up, term_id)

    def children(self, term_id: str) -> tuple[str, ...]:
        self._require(term_id)
        return _sorted_once(self._children, self._down, term_id)

    def ancestors(self, term_id: str) -> frozenset[str]:
        """All is_a ancestors of a term, the term itself excluded."""
        self._require(term_id)
        memo = self._ancestors
        stack = [term_id]
        while stack:
            tid = stack[-1]
            if tid in memo:
                stack.pop()
                continue
            parents = self._up[tid]
            todo = [p for p in parents if p not in memo]
            if todo:
                stack.extend(todo)
                continue
            found = set(parents)
            for p in parents:
                found |= memo[p]
            memo[tid] = frozenset(found)
            stack.pop()
        return memo[term_id]

    def relation_edges(self, relation: str) -> tuple[tuple[str, str], ...]:
        """Sorted (child, parent) pairs of one relation; all relations are
        indexed together on the first call."""
        if relation not in RELATIONS:
            raise OntologyError(f"unknown relation {relation!r}")
        if self._by_relation is None:
            grouped: dict[str, list[tuple[str, str]]] = {r: [] for r in RELATIONS}
            grouped[ISA].extend((c, p) for c, parents in self._up.items() for p in parents)
            for child, parent, relation_of in self._links:
                grouped[relation_of].append((child, parent))
            self._by_relation = {r: tuple(sorted(pairs)) for r, pairs in grouped.items()}
        return self._by_relation[relation]

    def _require(self, term_id: str) -> None:
        if term_id not in self._terms:
            raise OntologyError(f"unknown term id {term_id!r}")


def _sorted_once(memo: dict[str, tuple[str, ...]],
                 lists: Mapping[str, tuple[str, ...]], term_id: str) -> tuple[str, ...]:
    """``lists[term_id]`` as a sorted tuple, memoised in ``memo``."""
    found = memo.get(term_id)
    if found is None:
        found = memo[term_id] = tuple(sorted(lists[term_id]))
    return found


def parse_obo(lines: Iterable[str]) -> OntologyDag:
    """Parse the lines of an OBO 1.2-style document into an :class:`OntologyDag`.

    ``lines`` is any iterable of lines, such as ``text.splitlines()`` or
    :func:`fungo.io.read_lines`; it is read once, line by line.  A bare
    string is refused, since iterating it would yield characters.

    Only ``[Term]`` stanzas are read; recognised keys are ``id``, ``name``,
    ``namespace``, ``is_a``, ``relationship`` and ``is_obsolete``.  Obsolete
    terms are dropped along with their outgoing edges; an edge pointing at a
    dropped or missing term is an error.  A ``!`` starts a comment anywhere
    on a line.  Term ids and edge targets are interned, so each id is one
    string object, and namespaces are the :data:`NAMESPACES` strings.
    """
    if isinstance(lines, str):
        raise TypeError("parse_obo takes an iterable of lines, not a str")
    terms: list[Term] = []
    edges: list[tuple[str, str, str]] = []
    inside = False  # within a [Term] stanza
    tid = name = namespace = None
    obsolete = False
    links: list[tuple[str, str]] = []
    for raw in chain(lines, ["[]"]):  # "[]" closes the last stanza
        cut = raw.find("!")
        line = (raw if cut < 0 else raw[:cut]).strip()
        if not line:
            continue
        if line[0] == "[":
            if inside:
                if not tid:
                    raise OntologyError("[Term] stanza without an id")
                if not namespace:
                    raise OntologyError(f"term {tid!r} has no namespace")
                if not obsolete:
                    terms.append(Term(tid, name or "", namespace))
                    edges.extend([(tid, target, relation) for target, relation in links])
            inside = line == "[Term]"
            tid = name = namespace = None
            obsolete = False
            links = []
            continue
        if not inside:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            continue
        key = key.strip()
        value = value.strip()
        if key == "id":
            tid = sys.intern(value)
        elif key == "name":
            name = value
        elif key == "namespace":
            namespace = _NAMESPACE_OF.get(value, value)
        elif key == "is_a":
            if not value:
                raise OntologyError("is_a line without a target id")
            links.append((sys.intern(value.split()[0]), ISA))
        elif key == "is_obsolete":
            obsolete = value.lower() == "true"
        elif key == "relationship":
            parts = value.split()
            if len(parts) < 2:
                raise OntologyError(f"malformed relationship line {raw.strip()!r}")
            if parts[0] in _LINKED_RELATIONS:
                links.append((sys.intern(parts[1]), _LINKED_RELATIONS[parts[0]]))
    return OntologyDag(terms, edges)


_NAMESPACE_OF = {ns: ns for ns in NAMESPACES}
_LINKED_RELATIONS = {r: r for r in (PART_OF, REGULATES, OCCURS_IN)}


class AnnotationSet:
    """Protein → term-set mapping, expected to be closed over is_a ancestors."""

    def __init__(self, mapping: Mapping[str, Iterable[str]]):
        self._by_protein = {p: frozenset(ts) for p, ts in mapping.items()}
        inverse: dict[str, set[str]] = {}
        for protein, terms in self._by_protein.items():
            for term in terms:
                inverse.setdefault(term, set()).add(protein)
        self._by_term = {t: frozenset(ps) for t, ps in inverse.items()}

    @property
    def proteins(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_protein))

    def terms_of(self, protein: str) -> frozenset[str]:
        return self._by_protein.get(protein, frozenset())

    def proteins_of(self, term: str) -> frozenset[str]:
        return self._by_term.get(term, frozenset())

    def items(self):
        return self._by_protein.items()

    def __contains__(self, protein: str) -> bool:
        return protein in self._by_protein

    def __len__(self) -> int:
        return len(self._by_protein)


def tpr_closure(raw: Mapping[str, Iterable[str]], dag: OntologyDag) -> AnnotationSet:
    """Close each protein's annotations upward over is_a edges.

    Idempotent: applying it to an already-closed set changes nothing.
    """
    closed: dict[str, set[str]] = {}
    for protein, term_ids in raw.items():
        acc: set[str] = set()
        for tid in term_ids:
            if tid not in dag:
                raise _unknown_term(protein, tid)
            acc.add(tid)
            acc.update(dag.ancestors(tid))
        closed[protein] = acc
    return AnnotationSet(closed)


def namespace_coverage(raw: Mapping[str, Iterable[str]],
                       dag: OntologyDag) -> dict[str, frozenset[str]]:
    """The namespaces each protein's closed annotations fall in.

    Equals the namespaces of :func:`tpr_closure` ``(raw, dag)`` and raises
    the same errors, but closes nothing: the namespaces of a term and its
    ancestors are found once per distinct term, and proteins that cover the
    same namespaces share one frozenset.
    """
    reach: dict[str, frozenset[str]] = {}
    terms = dag.terms
    coverage: dict[str, frozenset[str]] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}
    for protein, term_ids in raw.items():
        covered: set[str] = set()
        for tid in term_ids:
            spans = reach.get(tid)
            if spans is None:
                if tid not in dag:
                    raise _unknown_term(protein, tid)
                spans = reach[tid] = frozenset(
                    [terms[tid].namespace] + [terms[a].namespace for a in dag.ancestors(tid)]
                )
            covered |= spans
        key = frozenset(covered)
        coverage[protein] = shared.setdefault(key, key)
    return coverage


def _unknown_term(protein: str, tid: str) -> OntologyError:
    return OntologyError(f"protein {protein!r} annotated with unknown term {tid!r}")


def _check_closed(annotations: AnnotationSet, dag: OntologyDag) -> None:
    for protein, terms in annotations.items():
        for tid in terms:
            if tid not in dag:
                raise _unknown_term(protein, tid)
            for parent in dag.parents(tid):
                if parent not in terms:
                    raise OntologyError(
                        f"annotations are not closed: protein {protein!r} has "
                        f"{tid!r} but not its parent {parent!r}"
                    )


def predicate_name(node_id: str) -> str:
    """Turn a term or bin id into a rule-grammar identifier (':' becomes '_')."""
    name = node_id.replace(":", "_")
    if not _IDENT_RE.match(name):
        raise OntologyError(f"id {node_id!r} cannot be used as a predicate name")
    if name in _RESERVED_NAMES:
        raise OntologyError(f"id {node_id!r} maps onto the reserved name {name!r}")
    return name


class GoCut:
    """Level- and count-pruned subgraph of the ontology, with bin nodes.

    :func:`go_cut` retains a real term when its level is at most the level
    threshold and at least the count threshold of proteins carry it.  A bin
    node ``BIN:<id>`` appears under a retained term exactly when that term
    has both a retained child and a pruned one; the bin holds the union of
    the pruned children's proteins, restricted to the parent's own.
    """

    def __init__(
        self,
        dag: OntologyDag,
        namespaces: tuple[str, ...],
        retained: frozenset[str],
        bins: Mapping[str, str],
        proteins: Mapping[str, frozenset[str]],
    ):
        self.dag = dag
        self.namespaces = namespaces
        self.retained = retained
        self._bins = dict(bins)
        self._proteins = dict(proteins)
        self._bin_of_parent = {parent: bid for bid, parent in self._bins.items()}

        names: dict[str, str] = {}
        inverse: dict[str, str] = {}
        for node in self.nodes():
            name = predicate_name(node)
            if name in inverse:
                raise OntologyError(
                    f"predicate name collision: {inverse[name]!r} and {node!r} "
                    f"both map to {name!r}"
                )
            names[node] = name
            inverse[name] = node
        self._names = names

    @property
    def bins(self) -> Mapping[str, str]:
        """Mapping bin id → parent term id."""
        return dict(self._bins)

    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.retained)) + tuple(sorted(self._bins))

    def is_bin(self, node_id: str) -> bool:
        return node_id in self._bins

    def proteins(self, node_id: str) -> frozenset[str]:
        self._require(node_id)
        return self._proteins[node_id]

    def level(self, node_id: str) -> int:
        self._require(node_id)
        if node_id in self._bins:
            return self.dag.level(self._bins[node_id]) + 1
        return self.dag.level(node_id)

    def namespace(self, node_id: str) -> str:
        self._require(node_id)
        real = self._bins.get(node_id, node_id)
        return self.dag.terms[real].namespace

    def par(self, node_id: str) -> tuple[str, ...]:
        """Parents inside the cut; a bin's only parent is the term it hangs under."""
        self._require(node_id)
        if node_id in self._bins:
            return (self._bins[node_id],)
        return tuple(p for p in self.dag.parents(node_id) if p in self.retained)

    def chil(self, node_id: str) -> tuple[str, ...]:
        """Children inside the cut: retained terms first, then the bin if any."""
        self._require(node_id)
        if node_id in self._bins:
            return ()
        kids = [c for c in self.dag.children(node_id) if c in self.retained]
        bin_id = self._bin_of_parent.get(node_id)
        if bin_id is not None:
            kids.append(bin_id)
        return tuple(kids)

    def predicate(self, node_id: str) -> str:
        self._require(node_id)
        return self._names[node_id]

    def _require(self, node_id: str) -> None:
        if node_id not in self.retained and node_id not in self._bins:
            raise OntologyError(f"node {node_id!r} is not part of the cut")


def go_cut(
    dag: OntologyDag,
    annotations: AnnotationSet,
    namespaces: Iterable[str],
    level_threshold: int,
    count_threshold: int,
) -> GoCut:
    """Build the pruned subgraph for the given thresholds.

    Annotations must already be closed (see :func:`tpr_closure`); protein
    counts are taken post-closure.
    """
    ns = tuple(dict.fromkeys(namespaces))
    if not ns:
        raise OntologyError("at least one namespace is required")
    for name in ns:
        if name not in NAMESPACES:
            raise OntologyError(f"unknown namespace {name!r}")
    if level_threshold < 0:
        raise OntologyError("level threshold must be non-negative")
    if count_threshold < 0:
        raise OntologyError("count threshold must be non-negative")
    _check_closed(annotations, dag)

    retained = frozenset(
        tid
        for tid, term in dag.terms.items()
        if term.namespace in ns
        and dag.level(tid) <= level_threshold
        and len(annotations.proteins_of(tid)) >= count_threshold
    )
    if not retained:
        raise OntologyError("cut is empty: no term satisfies both thresholds")

    bins: dict[str, str] = {}
    proteins: dict[str, frozenset[str]] = {
        tid: annotations.proteins_of(tid) for tid in retained
    }
    for tid in sorted(retained):
        kids = dag.children(tid)
        kept = [c for c in kids if c in retained]
        pruned = [c for c in kids if c not in retained]
        if kept and pruned:
            bin_id = BIN_PREFIX + tid
            binned: set[str] = set()
            for child in pruned:
                binned.update(annotations.proteins_of(child))
            bins[bin_id] = tid
            proteins[bin_id] = frozenset(binned & annotations.proteins_of(tid))
    return GoCut(dag, ns, retained, bins, proteins)


def _forall_x(body: Node) -> Formula:
    return Formula((Quantifier("x", PROTEIN_DOMAIN),), body)


def _unary_implication(child_pred: str, parent_pred: str) -> Formula:
    return _forall_x(Implies(Atom(child_pred, ("x",)), Atom(parent_pred, ("x",))))


def _disjunction(atoms: Sequence[Node]) -> Node:
    body = atoms[0]
    for atom in atoms[1:]:
        body = Or(body, atom)
    return body


def generate_oc_rules(cut: GoCut) -> list[Formula]:
    """Hierarchy-consistency rules for a cut.

    Upward: one implication per (node, cut-parent) pair, bin nodes included.
    Downward: every retained term with children in the cut implies the
    disjunction of those children (the bin last).
    """
    rules: list[Formula] = []
    for node in cut.nodes():
        for parent in cut.par(node):
            rules.append(_unary_implication(cut.predicate(node), cut.predicate(parent)))
    for term in sorted(cut.retained):
        kids = cut.chil(term)
        if not kids:
            continue
        atoms = [Atom(cut.predicate(k), ("x",)) for k in kids]
        rules.append(_forall_x(Implies(Atom(cut.predicate(term), ("x",)), _disjunction(atoms))))
    return rules


def generate_part_of_rules(cut: GoCut) -> list[Formula]:
    """One implication per part_of edge whose both endpoints are retained."""
    rules = []
    for child, parent in sorted(cut.dag.relation_edges(PART_OF)):
        if child in cut.retained and parent in cut.retained:
            rules.append(_unary_implication(cut.predicate(child), cut.predicate(parent)))
    return rules


def generate_ppi_rules(cut: GoCut, variant: str) -> list[Formula]:
    """Interaction rules over the BOUND pair predicate.

    PP emits, for every retained term P, ``BOUND(x,y) => (P(x) <=> P(y))``.
    DPP emits a single weaker rule whose conclusion is a disjunction of
    ``P(x) and P(y)`` over the biological-process terms of the cut.
    """
    if variant not in PPI_VARIANTS:
        raise OntologyError(f"unknown interaction-rule variant {variant!r}")
    quantifiers = (
        Quantifier("x", PROTEIN_DOMAIN),
        Quantifier("y", PROTEIN_DOMAIN),
    )
    bound = Atom(BOUND_PREDICATE, ("x", "y"))
    if variant == PP:
        rules = []
        for term in sorted(cut.retained):
            pred = cut.predicate(term)
            body = Implies(bound, Iff(Atom(pred, ("x",)), Atom(pred, ("y",))))
            rules.append(Formula(quantifiers, body))
        return rules
    bps = [t for t in sorted(cut.retained) if cut.namespace(t) == "biological_process"]
    if not bps:
        raise OntologyError("DPP rule requested but the cut has no biological-process terms")
    disjuncts: list[Node] = [
        And(Atom(cut.predicate(t), ("x",)), Atom(cut.predicate(t), ("y",))) for t in bps
    ]
    return [Formula(quantifiers, Implies(bound, _disjunction(disjuncts)))]


class SharingRow(NamedTuple):
    term_id: str
    name: str
    namespace: str
    level: int
    pos: int
    tot: int
    ratio: float | None


class JaccardSummary(NamedTuple):
    count: int
    mean: float | None
    median: float | None
    std: float | None


class PpiStatistics(NamedTuple):
    rows: tuple[SharingRow, ...]
    jaccard: Mapping[str, JaccardSummary]


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union


def _summary(values: Sequence[float]) -> JaccardSummary:
    # Imported here: only ``stats`` needs it, and it pulls in decimal.
    import statistics

    if not values:
        return JaccardSummary(0, None, None, None)
    return JaccardSummary(
        count=len(values),
        mean=float(statistics.fmean(values)),
        median=float(statistics.median(values)),
        std=float(statistics.pstdev(values)),
    )


def ppi_statistics(
    pairs: Iterable[tuple[str, str]],
    annotations: AnnotationSet,
    cut: GoCut,
) -> PpiStatistics:
    """Sharing counts per retained term and Jaccard overlap per interacting pair.

    For each retained term: POS counts pairs whose both proteins carry it, TOT
    pairs where at least one does, RATIO = POS/TOT (None when TOT is zero).
    Rows are sorted by level, then ratio descending, then term id.  Jaccard
    coefficients are computed over annotation sets restricted to the cut's
    retained terms — bins excluded — for pairs whose both proteins carry at
    least one such term, and summarised per namespace and overall.
    """
    pair_list = list(pairs)
    retained = sorted(cut.retained)
    rows = []
    for tid in retained:
        carriers = cut.proteins(tid)
        pos = sum(1 for a, b in pair_list if a in carriers and b in carriers)
        tot = sum(1 for a, b in pair_list if a in carriers or b in carriers)
        ratio = pos / tot if tot else None
        term = cut.dag.terms[tid]
        rows.append(
            SharingRow(tid, term.name, term.namespace, cut.level(tid), pos, tot, ratio)
        )
    rows.sort(key=lambda r: (r.level, -(r.ratio if r.ratio is not None else -1.0), r.term_id))

    cut_terms = frozenset(retained)
    by_ns = {ns: frozenset(t for t in retained if cut.namespace(t) == ns) for ns in cut.namespaces}
    restricted = {
        p: annotations.terms_of(p) & cut_terms
        for p in {x for pair in pair_list for x in pair}
    }
    pool = [(a, b) for a, b in pair_list if restricted[a] and restricted[b]]
    values_all = [_jaccard(restricted[a], restricted[b]) for a, b in pool]
    jaccard: dict[str, JaccardSummary] = {"overall": _summary(values_all)}
    for ns in cut.namespaces:
        terms_ns = by_ns[ns]
        values_ns = [
            _jaccard(restricted[a] & terms_ns, restricted[b] & terms_ns) for a, b in pool
        ]
        jaccard[ns] = _summary(values_ns)
    return PpiStatistics(tuple(rows), jaccard)
