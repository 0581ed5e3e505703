"""Compilation of rules into executable constraints.

``compile_constraint`` grounds a prenex formula over named example
domains: the body is lowered to a flat instruction program (``iff``
becomes the t-norm conjunction of the two residua), every distinct atom
becomes an input slot with a precomputed gather map from grounding index
to the owning predicate's truth vector, and the quantifier prefix
becomes a stack of axis reductions over the grounding grid.

Groundings are enumerated row-major over the quantifier axes, with each
domain in its ingestion order, so penalties are deterministic.

``CompiledRuleSet`` evaluates many compiled rules together over the
learner's stacked truth blocks, one engine pass per group of rules that
share a template; the per-rule ``CompiledConstraint`` methods are its
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from . import engine as _engine
from .engine import (
    OP_AND,
    OP_IMPL,
    OP_IMPL_MAT,
    OP_LOAD,
    OP_NOT,
    OP_OR,
    TN_CODE,
    TNORMS,
    Program,
)
from .formula import (
    And, Atom, EXISTS, EXISTS_N, FORALL, Formula, Iff, Implies, Node, Not, Or, iter_atoms,
)

RESIDUUM = "residuum"
MATERIAL = "material"
IMPLICATIONS = (RESIDUUM, MATERIAL)


class CompileError(ValueError):
    """A formula cannot be grounded against the given bindings."""


@dataclass(frozen=True, eq=False)
class PredicateBinding:
    """Where a predicate's truth for each example or pair is found.

    ``index`` maps an example id (unary) or an ``(a, b)`` pair (binary) to
    a position; binary lookups try ``(a, b)`` then ``(b, a)``, and ids
    absent from the index read as constant 0.  A learned predicate's
    positions index the output vector handed to the constraint at
    evaluation time.  A given predicate carries that vector itself as
    ``truths``, a read-only copy with one entry per position, each checked
    to lie in [0, 1]: that keeps every rule penalty non-negative, which
    the learner's line search relies on to skip the rules of rejected
    trials.  Bindings compare by identity, as the rule set compares truths.
    """

    name: str
    arity: int
    index: Mapping
    truths: np.ndarray | None = None

    def __post_init__(self):
        if self.truths is None:
            return
        truths = np.asarray(self.truths)
        if truths.shape != (self.size,):
            raise CompileError(
                f"predicate {self.name!r}: truths of shape {truths.shape} for an "
                f"index of {self.size} positions"
            )
        bad = [v for v in truths.tolist() if not (isinstance(v, Real) and 0.0 <= v <= 1.0)]
        if bad:
            raise CompileError(
                f"predicate {self.name!r}: value {bad[0]!r} is not a truth in [0, 1]"
            )
        truths = truths.astype(np.float64)
        truths.flags.writeable = False
        object.__setattr__(self, "truths", truths)

    @property
    def size(self) -> int:
        """The length of the predicate's truth vector."""
        return max(self.index.values()) + 1 if self.index else 0


@dataclass(frozen=True)
class SlotBinding:
    """One atom's gather map into its predicate's truth vector (-1 where
    absent), and that vector itself for a given predicate."""

    pred: str
    args: tuple[str, ...]
    out_size: int
    gather: np.ndarray
    truths: np.ndarray | None


@dataclass(frozen=True)
class CompiledConstraint:
    formula: Formula
    shape: tuple[int, ...]
    program: Program
    slots: tuple[SlotBinding, ...]

    @property
    def text(self) -> str:
        return self.formula.to_text()

    @property
    def n_groundings(self) -> int:
        return int(np.prod(self.shape))

    def input_matrix(self, outputs: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per-grounding slot values, shape (n_groundings, n_slots)."""
        values = np.empty((self.n_groundings, len(self.slots)), dtype=np.float64)
        for s, slot in enumerate(self.slots):
            arr = slot.truths
            if arr is None:
                arr = _output_vector(outputs, slot.pred, slot.out_size)
            # Absent ids gather -1, the appended 0.0.
            values[:, s] = np.append(arr, 0.0)[slot.gather]
        return values

    def _forward(self, outputs: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Every node's value per grounding, and the grid of penalties ``1 - truth``."""
        vals = _engine.node_values(self.program, self.input_matrix(outputs))
        return vals, (1.0 - vals[-1]).reshape(self.shape)

    def penalty(self, outputs: Mapping[str, np.ndarray]) -> float:
        _, penalties = self._forward(outputs)
        phi, _ = _aggregate(penalties, self.formula.quantifiers, need_weights=False)
        return float(phi)

    def penalty_and_gradients(
        self, outputs: Mapping[str, np.ndarray]
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Penalty plus its gradient wrt each learned predicate's outputs."""
        vals, penalties = self._forward(outputs)
        phi, weights = _aggregate(penalties, self.formula.quantifiers, need_weights=True)
        # phi depends on truths through penalties = 1 - truths.
        dvalues = _engine.backward(self.program, vals, -weights.reshape(-1))
        grads: dict[str, np.ndarray] = {}
        for s, slot in enumerate(self.slots):
            if slot.truths is not None:
                continue
            grad = grads.setdefault(slot.pred, np.zeros(slot.out_size, dtype=np.float64))
            gather = slot.gather
            present = gather >= 0
            np.add.at(grad, gather[present], dvalues[present, s])
        return float(phi), grads


def _output_vector(outputs: Mapping[str, np.ndarray], pred: str, size: int) -> np.ndarray:
    try:
        arr = np.asarray(outputs[pred], dtype=np.float64)
    except KeyError:
        raise ValueError(f"missing predictions for predicate {pred!r}") from None
    if arr.shape != (size,):
        raise ValueError(
            f"predictions for {pred!r} have shape {arr.shape}, expected ({size},)"
        )
    return arr


@dataclass(frozen=True)
class _RuleGroup:
    """Rules sharing one template, stacked for a single engine pass.

    ``index`` maps each stacked grounding row and slot to a position of the
    rule set's flat input vector.  Dense groups stack every grounding,
    rule-major, with ``row_rule`` unset; guard-sparse groups keep only
    the live rows and name each row's rule (0-based within ``rules``) in
    ``row_rule``.
    """

    program: Program
    quantifiers: tuple
    shape: tuple[int, ...]
    rules: np.ndarray
    index: np.ndarray
    row_rule: np.ndarray | None


class CompiledRuleSet:
    """A sequence of compiled rules evaluated one template at a time.

    The learned outputs arrive as truth blocks laid out by ``layout``: one
    ``(predicates, n)`` entry per block, whose K x n truths hold one row per
    predicate, in that order.  The blocks are read as one flat vector,
    followed by a 0.0 sentinel that absent examples read and by each given
    predicate's truths, placed once.  Every slot, learned or given, reads
    position ``offset + gather`` of that vector, or the sentinel where its
    gather is -1.  Rules with the same program, t-norm, quantifier prefix
    and grid shape form a group that costs one gather, one forward pass
    and, for gradients, one backward pass.

    A ``forall x. forall y. G(x, y) => body`` group is grounded only where
    its guard ``G`` is live, that is where the pair is in ``G``'s index:
    elsewhere ``G = 0``, either implication is exactly 1 under every t-norm
    and passes no gradient to the body, so the dropped groundings change
    only the order of the sum.  Other groups
    over a grid of two or more axes keep one rule each, so memory does not
    grow with the rule count.  :class:`CompiledConstraint` is the per-rule
    reference that this class must agree with.
    """

    def __init__(
        self,
        constraints: Sequence[CompiledConstraint],
        layout: Sequence[tuple[Sequence[str], int]],
    ):
        self.constraints = tuple(constraints)
        self._shapes = [(len(predicates), n) for predicates, n in layout]
        place: dict[str, tuple[int, int]] = {}  # offset into the flat vector, n
        sentinel = 0
        for predicates, n in layout:
            for pred in predicates:
                place[pred] = (sentinel, n)
                sentinel += n
        tail = [np.zeros(1)]
        given: dict[str, np.ndarray] = {}
        end = sentinel + 1

        members: dict[tuple, list[tuple[int, np.ndarray]]] = {}
        for r, constraint in enumerate(self.constraints):
            columns = []
            for slot in constraint.slots:
                if slot.truths is not None and slot.pred not in place:
                    place[slot.pred] = (end, slot.out_size)
                    given[slot.pred] = slot.truths
                    tail.append(slot.truths)
                    end += slot.out_size
                if given.get(slot.pred) is not slot.truths:
                    raise CompileError(
                        f"rule {constraint.text!r} binds {slot.pred!r} to other truths "
                        f"than the rule set reads for it"
                    )
                if slot.pred not in place:
                    raise CompileError(
                        f"rule {constraint.text!r} references unknown learned "
                        f"predicate {slot.pred!r}"
                    )
                offset, n = place[slot.pred]
                if slot.out_size != n:
                    raise CompileError(
                        f"rule {constraint.text!r} was compiled for {slot.out_size} "
                        f"outputs of {slot.pred!r}, its block has {n}"
                    )
                columns.append(np.where(slot.gather >= 0, offset + slot.gather, sentinel))
            index = np.stack(columns, axis=1)
            guard = _guard_slot(constraint)
            if guard is not None:
                index = index[constraint.slots[guard].gather >= 0]
            program = constraint.program
            key = (
                tuple(program.opcodes.tolist()),
                tuple(program.lhs.tolist()),
                tuple(program.rhs.tolist()),
                program.tnorm_code,
                tuple((q.kind, q.count) for q in constraint.formula.quantifiers),
                constraint.shape,
            )
            if guard is None and len(constraint.shape) > 1:
                key += (r,)
            members.setdefault(key, []).append((r, index))

        self._tail = np.concatenate(tail)
        self._groups = []
        for rows in members.values():
            first = self.constraints[rows[0][0]]
            sparse = _guard_slot(first) is not None
            counts = [len(index) for _, index in rows]
            self._groups.append(
                _RuleGroup(
                    program=first.program,
                    quantifiers=first.formula.quantifiers,
                    shape=first.shape,
                    rules=np.array([r for r, _ in rows], dtype=np.intp),
                    index=np.concatenate([index for _, index in rows]),
                    row_rule=np.repeat(np.arange(len(rows)), counts) if sparse else None,
                )
            )

    @property
    def n_groundings(self) -> int:
        """Grounding rows the engine evaluates per pass, over all groups."""
        return sum(len(group.index) for group in self._groups)

    def penalties(self, truths: Sequence[np.ndarray]) -> np.ndarray:
        """Each rule's penalty, in rule order."""
        return self._evaluate(truths, with_gradient=False)[0]

    def penalties_and_gradients(
        self, truths: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each rule's penalty, plus the gradient of their sum wrt each truth
        block, as K x n views of one array."""
        phis, grad = self._evaluate(truths, with_gradient=True)
        grads = []
        start = 0
        for k, n in self._shapes:
            grads.append(grad[start : start + k * n].reshape(k, n))
            start += k * n
        return phis, grads

    def _evaluate(
        self, truths: Sequence[np.ndarray], with_gradient: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        shapes = [np.shape(t) for t in truths]
        if shapes != self._shapes:
            raise ValueError(f"truth blocks have shapes {shapes}, expected {self._shapes}")
        flat = np.concatenate([np.ravel(t) for t in truths] + [self._tail])
        phis = np.empty(len(self.constraints), dtype=np.float64)
        grad = np.zeros(flat.size, dtype=np.float64) if with_gradient else None
        for group in self._groups:
            vals = _engine.node_values(group.program, flat[group.index])
            penalties = 1.0 - vals[-1]
            if group.row_rule is not None:
                phis[group.rules] = np.bincount(
                    group.row_rule, weights=penalties, minlength=len(group.rules)
                )
                weights = np.ones_like(penalties)
            else:
                grid = penalties.reshape(len(group.rules), *group.shape)
                phis[group.rules], weights = _aggregate(grid, group.quantifiers, with_gradient)
            if with_gradient:
                # Each penalty depends on truths through penalties = 1 - truths.
                dvalues = _engine.backward(group.program, vals, -weights.reshape(-1))
                grad += np.bincount(
                    group.index.reshape(-1), weights=dvalues.reshape(-1), minlength=flat.size
                )
        return phis, grad


def _guard_slot(constraint: CompiledConstraint) -> int | None:
    """Slot of the guard ``G`` of a ``forall x. forall y. G => body`` rule."""
    if [q.kind for q in constraint.formula.quantifiers] != [FORALL, FORALL]:
        return None
    program = constraint.program
    root = program.n_nodes - 1
    if program.opcodes[root] not in (OP_IMPL, OP_IMPL_MAT):
        return None
    left = program.lhs[root]
    if program.opcodes[left] != OP_LOAD:
        return None
    return int(program.lhs[left])


def compile_constraint(
    formula: Formula,
    tnorm: str,
    domains: Mapping[str, tuple[str, ...] | list[str]],
    predicates: Mapping[str, PredicateBinding],
    *,
    implication: str = RESIDUUM,
) -> CompiledConstraint:
    """Ground a formula against example domains and predicate bindings."""
    if tnorm not in TNORMS:
        raise CompileError(f"unknown t-norm {tnorm!r}")
    if implication not in IMPLICATIONS:
        raise CompileError(f"unknown implication mapping {implication!r}")

    resolved: dict[str, tuple[str, ...]] = {}
    for q in formula.quantifiers:
        if q.domain not in domains:
            raise CompileError(f"unknown domain {q.domain!r}")
        ids = tuple(domains[q.domain])
        if not ids:
            raise CompileError(f"domain {q.domain!r} is empty")
        if q.kind == EXISTS_N and q.count > len(ids):
            raise CompileError(
                f"exists[{q.count}] over {q.var!r} exceeds the {len(ids)} "
                f"examples of domain {q.domain!r}"
            )
        resolved[q.domain] = ids

    for pred, arity in sorted(formula.predicates().items()):
        binding = predicates.get(pred)
        if binding is None:
            raise CompileError(f"unknown predicate {pred!r}")
        if binding.arity != arity:
            raise CompileError(
                f"predicate {pred!r} bound with arity {binding.arity}, used with {arity}"
            )

    shape = tuple(len(resolved[q.domain]) for q in formula.quantifiers)
    axis_of = {q.var: k for k, q in enumerate(formula.quantifiers)}
    mesh = np.indices(shape).reshape(len(shape), -1)

    slot_order: list[tuple[str, tuple[str, ...]]] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for atom in iter_atoms(formula.body):
        key = (atom.pred, atom.args)
        if key not in seen:
            seen.add(key)
            slot_order.append(key)

    slots = []
    for pred, args in slot_order:
        binding = predicates[pred]
        axes = tuple(axis_of[v] for v in args)
        ids = tuple(resolved[formula.quantifiers[k].domain] for k in axes)
        slots.append(_bind_slot(binding, args, axes, ids, mesh))

    program = _lower(formula.body, slot_order, TN_CODE[tnorm], implication)
    return CompiledConstraint(
        formula=formula,
        shape=shape,
        program=program,
        slots=tuple(slots),
    )


def _bind_slot(
    binding: PredicateBinding,
    args: tuple[str, ...],
    axes: tuple[int, ...],
    axis_ids: tuple[tuple[str, ...], ...],
    mesh: np.ndarray,
) -> SlotBinding:
    index = binding.index
    if binding.arity == 1:
        col = np.array([index.get(i, -1) for i in axis_ids[0]], dtype=np.int64)
        gather = col[mesh[axes[0]]]
    else:
        gather = _pair_matrix(index, *axis_ids)[mesh[axes[0]], mesh[axes[1]]]
    return SlotBinding(binding.name, args, binding.size, gather, binding.truths)


def _pair_matrix(
    index: Mapping, left: tuple[str, ...], right: tuple[str, ...]
) -> np.ndarray:
    """``index[(a, b)]`` for every ``a`` of ``left`` and ``b`` of ``right``.

    A pair without an entry falls back to ``index[(b, a)]``, and to -1
    without either.  One walk over the entries fills a matrix over the
    distinct ids.
    """
    rows = {a: i for i, a in enumerate(dict.fromkeys(left))}
    cols = {b: j for j, b in enumerate(dict.fromkeys(right))}
    mat = np.full((len(rows), len(cols)), -1, dtype=np.int64)
    # The reversed entries go in first so that a direct entry overwrites them.
    for first, second in ((1, 0), (0, 1)):
        hits = [
            (rows[key[first]], cols[key[second]], position)
            for key, position in index.items()
            if isinstance(key, tuple)
            and len(key) == 2
            and key[first] in rows
            and key[second] in cols
        ]
        if hits:
            i, j, positions = zip(*hits)
            mat[list(i), list(j)] = positions
    row_of = np.array([rows[a] for a in left], dtype=np.intp)
    col_of = np.array([cols[b] for b in right], dtype=np.intp)
    return mat[row_of[:, None], col_of[None, :]]


def _lower(body: Node, slot_order: list, tnorm_code: int, implication: str) -> Program:
    slot_index = {key: s for s, key in enumerate(slot_order)}
    impl_op = OP_IMPL if implication == RESIDUUM else OP_IMPL_MAT
    ops: list[int] = []
    lhs: list[int] = []
    rhs: list[int] = []

    def emit(op: int, a: int, b: int) -> int:
        ops.append(op)
        lhs.append(a)
        rhs.append(b)
        return len(ops) - 1

    def lower(node: Node) -> int:
        if isinstance(node, Atom):
            return emit(OP_LOAD, slot_index[(node.pred, node.args)], -1)
        if isinstance(node, Not):
            return emit(OP_NOT, lower(node.child), -1)
        if isinstance(node, And):
            return emit(OP_AND, lower(node.left), lower(node.right))
        if isinstance(node, Or):
            return emit(OP_OR, lower(node.left), lower(node.right))
        if isinstance(node, Implies):
            return emit(impl_op, lower(node.left), lower(node.right))
        if isinstance(node, Iff):
            fwd = emit(impl_op, lower(node.left), lower(node.right))
            bwd = emit(impl_op, lower(node.right), lower(node.left))
            return emit(OP_AND, fwd, bwd)
        raise TypeError(f"not a formula node: {node!r}")

    lower(body)
    return Program(
        opcodes=np.asarray(ops, dtype=np.int8),
        lhs=np.asarray(lhs, dtype=np.int32),
        rhs=np.asarray(rhs, dtype=np.int32),
        tnorm_code=tnorm_code,
        n_slots=len(slot_order),
    )


def _aggregate(
    penalties: np.ndarray, quantifiers, need_weights: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Reduce the grounding grid to a penalty, innermost quantifier first.

    The grid occupies the trailing axes of ``penalties``; a leading axis,
    when present, stacks the grids of several rules and is kept, one
    penalty per rule.  Returns the penalties and, when asked,
    d(penalty)/d(per-grounding penalty) with existential ties routed to the
    lowest grounding index.
    """
    steps = []
    cur = penalties
    for q in reversed(quantifiers):
        if q.kind == FORALL:
            steps.append((FORALL, None, cur.shape))
            cur = cur.sum(axis=-1)
        elif q.kind == EXISTS:
            sel = np.argmin(cur, axis=-1)
            steps.append((EXISTS, sel, cur.shape))
            cur = np.take_along_axis(cur, sel[..., None], axis=-1)[..., 0]
        else:
            order = np.argsort(cur, axis=-1, kind="stable")
            sel = np.sort(order[..., : q.count], axis=-1)
            steps.append((EXISTS_N, sel, cur.shape))
            cur = np.take_along_axis(cur, sel, axis=-1).sum(axis=-1)
    if not need_weights:
        return cur, None
    weights = np.ones(np.shape(cur), dtype=np.float64)
    for kind, sel, shape in reversed(steps):
        if kind == FORALL:
            weights = np.broadcast_to(weights[..., None], shape).copy()
        elif kind == EXISTS:
            expanded = np.zeros(shape, dtype=np.float64)
            np.put_along_axis(expanded, sel[..., None], weights[..., None], axis=-1)
            weights = expanded
        else:
            expanded = np.zeros(shape, dtype=np.float64)
            np.put_along_axis(
                expanded, sel, np.broadcast_to(weights[..., None], sel.shape), axis=-1
            )
            weights = expanded
    return cur, weights

