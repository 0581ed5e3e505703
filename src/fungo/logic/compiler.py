"""Compilation of rules into executable constraints.

``compile_constraint`` checks a prenex formula against named example
domains and predicate bindings and lowers its body to a flat instruction
program (``=>`` becomes the t-norm's residuum, and ``iff`` the t-norm
conjunction of the two residua).  It records every distinct atom as an
input slot, that is the predicate's binding and the quantifier axis of
each argument, and the example ids of each axis.  It builds no grounding
arrays.

``CompiledRuleSet`` is the one place where rules are grounded.  It groups
the rules by template first, then grounds each rule straight to the rows
that it evaluates: a guarded pair rule to the pairs in its guard's index,
any other rule to its whole grid.  Grounding rows run row-major over the
quantifier axes, with each domain in its ingestion order, so penalties
are deterministic.  A rule set grounds when it is first evaluated, and
``CompiledRuleSet.restricted`` narrows an ungrounded set to part of its
domain without compiling again.  Under the minimum t-norm a gradient is
one scatter of every grounding's signed input position (see ``engine``).
The per-rule ``CompiledConstraint.penalty`` methods evaluate a one-rule set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Real
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import engine as _engine
from .engine import (
    OP_AND,
    OP_IMPL,
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


class CompileError(ValueError):
    """A formula cannot be grounded against the given bindings."""


@dataclass(frozen=True, eq=False)
class PredicateBinding:
    """Where a predicate's truth for each example or pair is found.

    ``index`` maps an example id (unary) or an ``(a, b)`` pair (binary) to
    a position; binary lookups try ``(a, b)`` then ``(b, a)``, and ids
    absent from the index read as constant 0.  ``size``, the length of the
    truth vector, is taken from the index once.  A learned predicate's
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
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", max(self.index.values()) + 1 if self.index else 0)
        if self.truths is None:
            return
        truths = np.asarray(self.truths)
        if truths.shape != (self.size,):
            raise CompileError(
                f"predicate {self.name!r}: truths of shape {truths.shape} for an "
                f"index of {self.size} positions"
            )
        if truths.dtype.kind in "biuf":  # one mask, which NaN and +-inf fail too
            offenders = np.flatnonzero(~((truths >= 0) & (truths <= 1)))
            bad = [truths.tolist()[offenders[0]]] if offenders.size else []
        else:
            bad = [v for v in truths.tolist() if not (isinstance(v, Real) and 0.0 <= v <= 1.0)]
        if bad:
            raise CompileError(
                f"predicate {self.name!r}: value {bad[0]!r} is not a truth in [0, 1]"
            )
        truths = truths.astype(np.float64)
        truths.flags.writeable = False
        object.__setattr__(self, "truths", truths)


class SlotBinding(NamedTuple):
    """One distinct atom: its predicate's binding and, per argument, the
    quantifier axis it ranges over."""

    binding: PredicateBinding
    axes: tuple[int, ...]


@dataclass(frozen=True)
class CompiledConstraint:
    formula: Formula
    domains: tuple[tuple[str, ...], ...]  # the example ids of each quantifier axis
    program: Program
    slots: tuple[SlotBinding, ...]

    @property
    def text(self) -> str:
        return self.formula.to_text()

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ids) for ids in self.domains)

    @property
    def n_groundings(self) -> int:
        return int(np.prod(self.shape))

    def penalty(self, outputs: Mapping[str, np.ndarray]) -> float:
        rule_set, truths, _ = self._alone(outputs)
        return float(rule_set.penalties(truths)[0])

    def penalty_and_gradients(
        self, outputs: Mapping[str, np.ndarray]
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Penalty plus its gradient wrt each learned predicate's outputs."""
        rule_set, truths, names = self._alone(outputs)
        phis, grads = rule_set.penalties_and_gradients(truths)
        return float(phis[0]), {name: grad[0] for name, grad in zip(names, grads)}

    def _alone(self, outputs: Mapping[str, np.ndarray]):
        """This rule as a rule set over ``outputs``, one block per learned
        predicate, with those blocks and their predicates' names."""
        sizes = {s.binding.name: s.binding.size for s in self.slots if s.binding.truths is None}
        truths = []
        for pred, size in sizes.items():
            try:
                arr = np.asarray(outputs[pred], dtype=np.float64)
            except KeyError:
                raise ValueError(f"missing predictions for predicate {pred!r}") from None
            if arr.shape != (size,):
                raise ValueError(f"predictions for {pred!r} have shape {arr.shape}, "
                                 f"expected ({size},)")
            truths.append(arr[None, :])
        rule_set = CompiledRuleSet([self], [((pred,), size) for pred, size in sizes.items()])
        return rule_set, truths, list(sizes)


class _RuleGroup(NamedTuple):
    """Rules sharing one template, their rows stacked rule-major for a
    single engine pass: ``index`` holds each row's position in the flat input
    vector per slot, and ``row_rule``, in a guarded group, each row's rule
    (0-based within ``rules``)."""

    program: Program
    quantifiers: tuple
    shape: tuple[int, ...]
    rules: np.ndarray
    index: np.ndarray
    row_rule: np.ndarray | None


class CompiledRuleSet:
    """A sequence of compiled rules, grounded together and evaluated one
    template at a time.

    The learned outputs arrive as truth blocks laid out by ``layout``: one
    ``(predicates, n)`` entry per block, whose K x n truths hold one row per
    predicate, in that order.  The blocks are read as one flat vector, after
    a 0.0 sentinel at position 0 that absent examples read and before each
    given predicate's truths, placed once.  Each grounding row reads, for every
    slot, the position of its example or pair in the slot's predicate, or
    the sentinel where the predicate's index lacks it.  Rules with the same
    program, t-norm, quantifier prefix and grid shape form a group that
    costs one gather and one forward pass; for gradients, one walk for
    signed positions (minimum t-norm) or one backward pass.

    A ``forall x. forall y. G(x, y) => body`` rule, ``G`` a pair predicate,
    is grounded only where its guard ``G`` is live, that is where the pair
    is in ``G``'s index: elsewhere ``G = 0``, the residuum is exactly
    1 under every t-norm and passes no gradient to the body, so the dropped
    groundings change only the order of the sum.  Its rows come straight
    from the guard's index and never from the grid.  Other rules over a
    grid of two or more axes walk the whole grid, one rule per group, so
    memory does not grow with the rule count.

    The rows are grounded when the set is first evaluated, so a set that is
    only narrowed with ``restricted`` is never grounded.  Lookups are built
    once per rule set, for each index map and domain: the predicates of one
    block share their index map.  A narrowed set derives its pair lookups
    from the set that it narrows, which scans each pair index once.
    """

    def __init__(
        self,
        constraints: Sequence[CompiledConstraint],
        layout: Sequence[tuple[Sequence[str], int]],
    ):
        self.constraints = tuple(constraints)
        self.layout = tuple((tuple(predicates), n) for predicates, n in layout)
        self._shapes = [(len(predicates), n) for predicates, n in self.layout]
        place: dict[str, tuple[int, int]] = {}  # offset into the flat vector, n
        end = 1  # position 0 holds the 0.0 that absent examples read
        for predicates, n in layout:
            for pred in predicates:
                place[pred] = (end, n)
                end += n
        tail = [np.zeros(0)]
        given: dict[str, np.ndarray] = {}

        offsets: list[list[int]] = []
        members: dict[tuple, list[int]] = {}
        for r, constraint in enumerate(self.constraints):
            offsets.append([])
            for slot in constraint.slots:
                binding = slot.binding
                pred = binding.name
                if binding.truths is not None and pred not in place:
                    place[pred] = (end, binding.size)
                    given[pred] = binding.truths
                    tail.append(binding.truths)
                    end += binding.size
                if given.get(pred) is not binding.truths:
                    raise CompileError(
                        f"rule {constraint.text!r} binds {pred!r} to other truths "
                        f"than the rule set reads for it"
                    )
                if pred not in place:
                    raise CompileError(
                        f"rule {constraint.text!r} references unknown learned "
                        f"predicate {pred!r}"
                    )
                offset, n = place[pred]
                if binding.size != n:
                    raise CompileError(
                        f"rule {constraint.text!r} was compiled for {binding.size} "
                        f"outputs of {pred!r}, its block has {n}"
                    )
                offsets[r].append(offset)
            key = (
                constraint.program,
                tuple((q.kind, q.count) for q in constraint.formula.quantifiers),
                constraint.shape,
            )
            if _guard_slot(constraint) is None and len(constraint.shape) > 1:
                key += (r,)
            members.setdefault(key, []).append(r)

        self._tail = np.concatenate(tail)
        self._offsets, self._members = offsets, members
        self._pairs: dict = {}  # _pair_codes lookups, handed down by restricted

    @cached_property
    def _groups(self) -> list[_RuleGroup]:
        lookups = dict(self._pairs)
        groups = []
        for rules in self._members.values():
            first = self.constraints[rules[0]]
            index = []
            for r in rules:
                position = _positions(self.constraints[r], lookups)
                index.append(np.where(position >= 0, np.array(self._offsets[r]) + position, 0))
            row_rule = None
            if _guard_slot(first) is not None:
                row_rule = np.repeat(np.arange(len(rules)), [len(i) for i in index])
            groups.append(_RuleGroup(
                first.program, first.formula.quantifiers, first.shape,
                np.array(rules, dtype=np.intp), np.concatenate(index), row_rule,
            ))
        return groups

    def restricted(self, keep: Sequence[bool]) -> CompiledRuleSet:
        """This set over the ids of its rules' one id list that the mask
        ``keep`` keeps, in their order: the set that a compile over those ids
        builds, from the same compiled programs.  It grounds only the kept
        ids, when first evaluated."""
        domains = {ids for c in self.constraints for ids in c.domains}
        if len(domains) > 1:
            raise CompileError("the rules range over more than one id list")
        narrowed = self
        for ids in domains:
            kept = tuple(i for i, k in zip(ids, keep, strict=True) if k)
            for q in (q for c in self.constraints for q in c.formula.quantifiers):
                _check_axis(q, kept)
            narrowed = CompiledRuleSet(
                [replace(c, domains=(kept,) * len(c.domains)) for c in self.constraints], self.layout)
            rank = np.where(keep, np.cumsum(keep) - 1, -1)  # -1 for a dropped id
            for c, slot in ((c, s) for c in self.constraints for s in c.slots):
                if slot.binding.arity == 2:
                    codes, positions = _pair_codes(slot, c.domains, self._pairs)
                    i, j = (rank[k] for k in np.divmod(codes[:-1], len(ids)))
                    live = np.append((i >= 0) & (j >= 0), True)  # the last code stays
                    codes = np.append(i * len(kept) + j, len(kept) ** 2)
                    key = "pairs", id(slot.binding.index), kept, kept
                    narrowed._pairs[key] = codes[live], positions[live]
        return narrowed

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
        start = 1
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
        flat = np.concatenate([[0.0], *(np.ravel(t) for t in truths), self._tail])
        phis = np.empty(len(self.constraints), dtype=np.float64)
        grad = np.zeros(flat.size, dtype=np.float64) if with_gradient else None
        codes, signs = [], []  # minimum t-norm rows: |signed position|, signed weight
        for group in self._groups:
            vals = _engine.node_values(group.program, flat[group.index.T])
            penalties = 1.0 - vals[-1]
            if group.row_rule is not None:
                phis[group.rules] = np.bincount(
                    group.row_rule, weights=penalties, minlength=len(group.rules)
                )
                weights = np.ones_like(penalties)
            else:
                grid = penalties.reshape(len(group.rules), *group.shape)
                phis[group.rules], weights = _aggregate(grid, group.quantifiers, with_gradient)
            if not with_gradient:
                continue
            # Each penalty depends on truths through penalties = 1 - truths.
            weights = -weights.reshape(-1)
            if group.program.tnorm_code != _engine.TN_MINIMUM:
                dvalues = _engine.backward(group.program, vals, weights)
                grad += np.bincount(
                    group.index.reshape(-1), weights=dvalues.reshape(-1), minlength=flat.size
                )
                continue
            # Each truth moves by +-1 with one input or not at all, and each weight is
            # 0 or -1, so every gradient entry is a count, exact in any order of sum.
            code = _engine.signed_positions(group.program, vals, group.index.T)
            codes.append(np.abs(code))
            signs.append(np.sign(code) * weights)
        if codes:
            grad += np.bincount(
                np.concatenate(codes), weights=np.concatenate(signs), minlength=flat.size
            )
        return phis, grad


def _positions(constraint: CompiledConstraint, lookups: dict) -> np.ndarray:
    """The rule's grounding rows: each slot's position in its predicate's
    truth vector, -1 where absent.  Rules with the same guard slot that read
    the same index maps over the same domains share one array."""
    guard = _guard_slot(constraint)
    key = ("rows", guard, constraint.domains) + tuple(
        (id(slot.binding.index), slot.axes) for slot in constraint.slots)
    if key in lookups:
        return lookups[key]
    if guard is None:
        cells = np.arange(constraint.n_groundings)
    else:
        # The guard's pairs, row-major; the codes of a G(y, x) guard count y first.
        slot = constraint.slots[guard]
        cells = _pair_codes(slot, constraint.domains, lookups)[0][:-1]
        if slot.axes == (1, 0):
            n_x, n_y = constraint.shape
            cells = np.sort(cells % n_x * n_y + cells // n_x)
    coords = np.unravel_index(cells, constraint.shape)
    columns = []
    for slot in constraint.slots:
        if slot.binding.arity == 1:
            columns.append(_unary_column(slot, constraint.domains, lookups)[coords[slot.axes[0]]])
        else:
            codes, positions = _pair_codes(slot, constraint.domains, lookups)
            a, b = slot.axes
            wanted = coords[a] * len(constraint.domains[b]) + coords[b]
            at = np.searchsorted(codes, wanted)
            columns.append(np.where(codes[at] == wanted, positions[at], -1))
    lookups[key] = np.stack(columns, axis=1)
    return lookups[key]


def _unary_column(slot: SlotBinding, domains, lookups: dict) -> np.ndarray:
    """Each id's position in a unary index, -1 where absent."""
    ids = domains[slot.axes[0]]
    key = ("unary", id(slot.binding.index), ids)
    if key not in lookups:
        index = slot.binding.index
        lookups[key] = np.array([index.get(i, -1) for i in ids], dtype=np.int64)
    return lookups[key]


def _pair_codes(slot: SlotBinding, domains, lookups: dict) -> tuple[np.ndarray, np.ndarray]:
    """A pair index over two domains as the sorted codes ``i * len(right) + j``
    of its pairs ``(left[i], right[j])``, each in either order, and their
    positions.  A direct entry beats a reversed one, and pairs with an id
    outside the domains are left out.  A last code, past every pair, reads
    position -1.
    """
    left, right = (domains[axis] for axis in slot.axes)
    key = ("pairs", id(slot.binding.index), left, right)
    if key not in lookups:
        row = {a: i for i, a in enumerate(left)}
        col = {b: j for j, b in enumerate(right)}
        found = [(len(left) * len(right), 0, -1)]  # code, reversed, position
        for (a, b), position in slot.binding.index.items():
            for flip, (x, y) in enumerate(((a, b), (b, a))):
                if x in row and y in col:
                    found.append((row[x] * len(right) + col[y], flip, position))
        codes, flips, positions = np.array(found, dtype=np.int64).T
        order = np.lexsort((flips, codes))
        codes, positions = codes[order], positions[order]
        first = np.append(True, codes[1:] != codes[:-1])
        lookups[key] = (codes[first], positions[first])
    return lookups[key]


def _guard_slot(constraint: CompiledConstraint) -> int | None:
    """Slot of the pair guard ``G`` of a ``forall x. forall y. G(x, y) => body``
    rule, ``G(y, x)`` too."""
    if [q.kind for q in constraint.formula.quantifiers] != [FORALL, FORALL]:
        return None
    program = constraint.program
    root = program.n_nodes - 1
    if program.opcodes[root] != OP_IMPL:
        return None
    left = program.lhs[root]
    if program.opcodes[left] != OP_LOAD:
        return None
    guard = int(program.lhs[left])
    return guard if sorted(constraint.slots[guard].axes) == [0, 1] else None


def compile_constraint(
    formula: Formula,
    tnorm: str,
    domains: Mapping[str, tuple[str, ...] | list[str]],
    predicates: Mapping[str, PredicateBinding],
) -> CompiledConstraint:
    """Check a formula against example domains and predicate bindings and
    lower it; :class:`CompiledRuleSet` grounds it."""
    if tnorm not in TNORMS:
        raise CompileError(f"unknown t-norm {tnorm!r}")

    axis_ids = []
    for q in formula.quantifiers:
        if q.domain not in domains:
            raise CompileError(f"unknown domain {q.domain!r}")
        ids = tuple(domains[q.domain])
        if len(set(ids)) != len(ids):
            raise CompileError(f"domain {q.domain!r} lists an example twice")
        _check_axis(q, ids)
        axis_ids.append(ids)

    for pred, arity in sorted(formula.predicates().items()):
        binding = predicates.get(pred)
        if binding is None:
            raise CompileError(f"unknown predicate {pred!r}")
        if binding.arity != arity:
            raise CompileError(
                f"predicate {pred!r} bound with arity {binding.arity}, used with {arity}"
            )

    axis_of = {q.var: k for k, q in enumerate(formula.quantifiers)}
    slot_order = list(dict.fromkeys((atom.pred, atom.args) for atom in iter_atoms(formula.body)))
    return CompiledConstraint(
        formula=formula,
        domains=tuple(axis_ids),
        program=_lower(formula.body, slot_order, TN_CODE[tnorm]),
        slots=tuple(
            SlotBinding(predicates[pred], tuple(axis_of[v] for v in args))
            for pred, args in slot_order
        ),
    )


def _check_axis(q, ids: tuple) -> None:
    if not ids:
        raise CompileError(f"domain {q.domain!r} is empty")
    if q.kind == EXISTS_N and q.count > len(ids):
        raise CompileError(
            f"exists[{q.count}] over {q.var!r} exceeds the {len(ids)} "
            f"examples of domain {q.domain!r}"
        )


def _lower(body: Node, slot_order: list, tnorm_code: int) -> Program:
    slot_index = {key: s for s, key in enumerate(slot_order)}
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
            return emit(OP_IMPL, lower(node.left), lower(node.right))
        if isinstance(node, Iff):
            fwd = emit(OP_IMPL, lower(node.left), lower(node.right))
            bwd = emit(OP_IMPL, lower(node.right), lower(node.left))
            return emit(OP_AND, fwd, bwd)
        raise TypeError(f"not a formula node: {node!r}")

    lower(body)
    return Program(tuple(ops), tuple(lhs), tuple(rhs), tnorm_code, len(slot_order))


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

