"""Compilation of rules into executable constraints.

``compile_constraint`` grounds a prenex formula over named example
domains: the body is lowered to a flat instruction program (``iff``
becomes the t-norm conjunction of the two residua), every distinct atom
becomes an input slot with a precomputed gather map from grounding index
to the owning predicate's output vector, and the quantifier prefix
becomes a stack of axis reductions over the grounding grid.

Groundings are enumerated row-major over the quantifier axes, with each
domain in its ingestion order, so penalties are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import engine as _engine
from .engine import (
    OP_AND,
    OP_IMPL,
    OP_IMPL_MAT,
    OP_LOAD,
    OP_NOT,
    OP_OR,
    Program,
)
from .formula import And, Atom, EXISTS, EXISTS_N, FORALL, Formula, Iff, Implies, Node, Not, Or
from .tnorms import LUKASIEWICZ, MINIMUM, PRODUCT, TNORMS

RESIDUUM = "residuum"
MATERIAL = "material"
IMPLICATIONS = (RESIDUUM, MATERIAL)

LEARNED = "learned"
GIVEN = "given"

_TN_CODE = {
    MINIMUM: _engine.TN_MINIMUM,
    PRODUCT: _engine.TN_PRODUCT,
    LUKASIEWICZ: _engine.TN_LUKASIEWICZ,
}


class CompileError(ValueError):
    """A formula cannot be grounded against the given bindings."""


@dataclass
class PredicateBinding:
    """How a predicate symbol maps onto model outputs or fixed values.

    Learned predicates index into an output vector handed to the
    constraint at evaluation time: ``positions`` for unary predicates
    (example id -> vector index), ``pair_positions`` for binary ones.
    Given predicates carry a read-only ``table`` of truth values instead.
    Ids absent from the index or table read as constant 0.  Binary
    lookups try ``(a, b)`` then ``(b, a)`` while ``symmetric`` is set.
    """

    name: str
    arity: int
    mode: str = LEARNED
    positions: Mapping[str, int] | None = None
    pair_positions: Mapping[tuple[str, str], int] | None = None
    table: Mapping | None = None
    symmetric: bool = True

    def output_size(self) -> int:
        if self.mode != LEARNED:
            return 0
        index = self.positions if self.arity == 1 else self.pair_positions
        return 0 if index is None else (max(index.values()) + 1 if index else 0)


@dataclass(frozen=True)
class SlotBinding:
    pred: str
    args: tuple[str, ...]
    mode: str
    out_size: int
    gather: np.ndarray | None
    const: np.ndarray | None


@dataclass(frozen=True)
class CompiledConstraint:
    formula: Formula
    tnorm: str
    implication: str
    domains: dict[str, tuple[str, ...]]
    shape: tuple[int, ...]
    program: Program
    slots: tuple[SlotBinding, ...]
    modes: dict[str, str]

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
            if slot.mode == GIVEN:
                values[:, s] = slot.const
                continue
            try:
                arr = np.asarray(outputs[slot.pred], dtype=np.float64)
            except KeyError:
                raise ValueError(f"missing predictions for predicate {slot.pred!r}") from None
            if arr.shape != (slot.out_size,):
                raise ValueError(
                    f"predictions for {slot.pred!r} have shape {arr.shape}, "
                    f"expected ({slot.out_size},)"
                )
            gather = slot.gather
            present = gather >= 0
            if arr.size == 0:
                values[:, s] = 0.0
            elif present.all():
                values[:, s] = arr[gather]
            else:
                values[:, s] = np.where(present, arr[np.maximum(gather, 0)], 0.0)
        return values

    def _forward(self, outputs: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Every node's value per grounding, and the grid of penalties ``1 - truth``."""
        vals = _engine.node_values(self.program, self.input_matrix(outputs))
        return vals, (1.0 - vals[-1]).reshape(self.shape)

    def penalty(self, outputs: Mapping[str, np.ndarray]) -> float:
        _, penalties = self._forward(outputs)
        phi, _ = _aggregate(penalties, self.formula.quantifiers, need_weights=False)
        return phi

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
            if slot.mode == GIVEN:
                continue
            grad = grads.setdefault(slot.pred, np.zeros(slot.out_size, dtype=np.float64))
            gather = slot.gather
            present = gather >= 0
            np.add.at(grad, gather[present], dvalues[present, s])
        return phi, grads

    def nonsmooth_margin(self, outputs: Mapping[str, np.ndarray]) -> float:
        """Distance of the evaluation from the nearest subgradient boundary.

        Used by gradient checks to keep finite-difference probes away from
        kinks (branch switches of min/max, residuum satisfaction boundaries,
        selection ties of existential aggregation).
        """
        vals, penalties = self._forward(outputs)
        program = self.program
        tn = program.tnorm_code
        margin = np.inf
        for i in range(program.n_nodes):
            op = program.opcodes[i]
            if op in (OP_LOAD, OP_NOT):
                continue
            a = vals[program.lhs[i]]
            b = vals[program.rhs[i]]
            if op == OP_AND or op == OP_OR:
                if tn == _engine.TN_MINIMUM:
                    margin = min(margin, float(np.abs(a - b).min()))
                elif tn == _engine.TN_LUKASIEWICZ:
                    margin = min(margin, float(np.abs(a + b - 1.0).min()))
            elif op == OP_IMPL:
                margin = min(margin, float(np.abs(a - b).min()))
            else:  # OP_IMPL_MAT
                if tn == _engine.TN_MINIMUM:
                    margin = min(margin, float(np.abs(a + b - 1.0).min()))
                elif tn == _engine.TN_LUKASIEWICZ:
                    margin = min(margin, float(np.abs(a - b).min()))
        margin = min(margin, _selection_margin(penalties, self.formula.quantifiers))
        return margin


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

    arities = formula.predicates()
    modes: dict[str, str] = {}
    for pred, arity in sorted(arities.items()):
        binding = predicates.get(pred)
        if binding is None:
            raise CompileError(f"unknown predicate {pred!r}")
        if binding.arity != arity:
            raise CompileError(
                f"predicate {pred!r} bound with arity {binding.arity}, used with {arity}"
            )
        if binding.mode not in (LEARNED, GIVEN):
            raise CompileError(f"predicate {pred!r} has unknown mode {binding.mode!r}")
        modes[pred] = binding.mode

    shape = tuple(len(resolved[q.domain]) for q in formula.quantifiers)
    axis_of = {q.var: k for k, q in enumerate(formula.quantifiers)}
    mesh = np.indices(shape).reshape(len(shape), -1)

    slot_order: list[tuple[str, tuple[str, ...]]] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for atom in _postorder_atoms(formula.body):
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

    program = _lower(formula.body, slot_order, _TN_CODE[tnorm], implication)
    return CompiledConstraint(
        formula=formula,
        tnorm=tnorm,
        implication=implication,
        domains=resolved,
        shape=shape,
        program=program,
        slots=tuple(slots),
        modes=modes,
    )


def _postorder_atoms(node: Node):
    if isinstance(node, Atom):
        yield node
    elif isinstance(node, Not):
        yield from _postorder_atoms(node.child)
    else:
        yield from _postorder_atoms(node.left)
        yield from _postorder_atoms(node.right)


def _bind_slot(
    binding: PredicateBinding,
    args: tuple[str, ...],
    axes: tuple[int, ...],
    axis_ids: tuple[tuple[str, ...], ...],
    mesh: np.ndarray,
) -> SlotBinding:
    if binding.mode == GIVEN:
        table = binding.table or {}
        if binding.arity == 1:
            col = np.array([float(table.get(i, 0.0)) for i in axis_ids[0]])
            const = col[mesh[axes[0]]]
        else:
            left, right = axis_ids
            mat = np.empty((len(left), len(right)), dtype=np.float64)
            for i, a in enumerate(left):
                for j, b in enumerate(right):
                    v = table.get((a, b))
                    if v is None and binding.symmetric:
                        v = table.get((b, a))
                    mat[i, j] = 0.0 if v is None else float(v)
            const = mat[mesh[axes[0]], mesh[axes[1]]]
        return SlotBinding(binding.name, args, GIVEN, 0, None, const)

    if binding.arity == 1:
        index = binding.positions or {}
        col = np.array([index.get(i, -1) for i in axis_ids[0]], dtype=np.int64)
        gather = col[mesh[axes[0]]]
    else:
        index = binding.pair_positions or {}
        left, right = axis_ids
        mat = np.empty((len(left), len(right)), dtype=np.int64)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                pos = index.get((a, b))
                if pos is None and binding.symmetric:
                    pos = index.get((b, a))
                mat[i, j] = -1 if pos is None else pos
        gather = mat[mesh[axes[0]], mesh[axes[1]]]
    return SlotBinding(binding.name, args, LEARNED, binding.output_size(), gather, None)


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
) -> tuple[float, np.ndarray | None]:
    """Reduce the grounding grid to a penalty, innermost quantifier first.

    Returns the penalty and, when asked, d(penalty)/d(per-grounding penalty)
    with existential ties routed to the lowest grounding index.
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
    phi = float(cur)
    if not need_weights:
        return phi, None
    weights = np.ones((), dtype=np.float64)
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
    return phi, weights


def _selection_margin(penalties: np.ndarray, quantifiers) -> float:
    """Smallest gap at any existential selection boundary."""
    margin = np.inf
    cur = penalties
    for q in reversed(quantifiers):
        if q.kind == FORALL:
            cur = cur.sum(axis=-1)
            continue
        srt = np.sort(cur, axis=-1)
        k = 1 if q.kind == EXISTS else q.count
        if k < cur.shape[-1]:
            margin = min(margin, float((srt[..., k] - srt[..., k - 1]).min()))
        if q.kind == EXISTS:
            cur = srt[..., 0]
        else:
            cur = srt[..., :k].sum(axis=-1)
    return margin
