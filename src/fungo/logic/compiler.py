"""Compilation of rules into executable constraints.

``compile_constraint`` checks a rule against named example domains and
predicate bindings and lowers its body to a flat instruction program
(``=>`` becomes the t-norm's residuum, and ``iff`` the t-norm conjunction
of the two residua).  It compiles the two rule shapes that the rule
generators build, every quantifier over one id list:

* a one-variable rule, ``forall x. body``;
* a guarded pair rule, ``forall x. forall y. G(x, y) => body``, ``G`` a
  pair predicate read over ``x`` then ``y`` and the only pair atom that
  the rule reads.

Anything else raises :class:`CompileError`.  A compiled rule records every
distinct atom as an input slot, that is the predicate's binding and the
quantifier axis of each argument, and the example ids of each axis.  It
builds no grounding arrays.

``CompiledRuleSet`` is the one place where rules are grounded.  Its rules
range over one id list, which it checks once for being empty or listing an
example twice.  It groups the rules by template first, then grounds each
rule straight to the rows that it evaluates: a one-variable rule to every
id, a guarded pair rule to the pairs in its guard's index.
Grounding rows run in the id list's order, row-major over a pair rule's
two axes, so penalties are deterministic.  A rule set grounds the ids of
its row mask when it is first evaluated, and ``CompiledRuleSet.restricted``
narrows that mask without compiling again.  Under the minimum t-norm a
gradient is one scatter of every grounding's signed input position (see
``engine``).  The per-rule ``CompiledConstraint.penalty`` methods evaluate
a one-rule set.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from functools import cached_property
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
from .formula import And, Atom, Formula, Iff, Implies, Node, Not, Or, iter_atoms


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
    evaluation time.  A ``given`` predicate is crisp fixed evidence, such
    as an interaction list: it reads 1 on every key of its index, whatever
    the position, and 0 off it.  Every input then lies in [0, 1], so every
    rule penalty is non-negative, which the learner's line search relies on
    to skip the rules of rejected trials.  Bindings compare by identity.
    """

    name: str
    arity: int
    index: Mapping
    given: bool = False
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", max(self.index.values()) + 1 if self.index else 0)


class SlotBinding(NamedTuple):
    """One distinct atom: its predicate's binding and, per argument, the
    quantifier axis it ranges over."""

    binding: PredicateBinding
    axes: tuple[int, ...]


class CompiledConstraint(NamedTuple):
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
        sizes = {s.binding.name: s.binding.size for s in self.slots if not s.binding.given}
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
    rules: np.ndarray
    index: np.ndarray
    row_rule: np.ndarray | None


class CompiledRuleSet:
    """A sequence of compiled rules, grounded together and evaluated one
    template at a time.

    The learned outputs arrive as truth blocks laid out by ``layout``: one
    ``(predicates, n)`` entry per block, whose K x n truths hold one row per
    predicate, in that order.  The blocks are read as one flat vector, after
    a 0.0 at position 0 that absent examples read and before one 1.0 that
    every given predicate reads on the keys of its index.  Each grounding
    row reads, for every slot, the position of its example or pair in the
    slot's learned predicate, the 1.0 where a given predicate's index holds
    it, or the 0.0 where the predicate's index lacks it.  Rules with the same
    program, t-norm and number of variables form a group that costs one
    gather and one forward pass; for gradients, one walk for signed
    positions (minimum t-norm) or one backward pass.

    A guarded pair rule ``forall x. forall y. G(x, y) => body`` is grounded
    only where its guard ``G`` is live, that is where the pair is in
    ``G``'s index: elsewhere ``G = 0``, the residuum is exactly 1 under
    every t-norm and passes no gradient to the body, so the dropped
    groundings change only the order of the sum.  Its rows come straight
    from the guard's index and never from the n x n grid.

    The rows are grounded when the set is first evaluated, over the ids
    that its mask keeps, so a set only narrowed with ``restricted`` is never
    grounded.  Each index map gets one table over every id, shared with the
    sets narrowed from this one: a unary column or a guard's sorted pair
    codes.  A set grounds their kept entries in the tables' order, which is
    the order of a compile over the kept ids.
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
        given: dict[str, PredicateBinding] = {}  # each reads the 1.0 at position end

        ids = self.constraints[0].domains[0] if self.constraints else ()
        if any(c.domains[0] is not ids and c.domains[0] != ids for c in self.constraints):
            raise CompileError("the rules range over more than one id list")
        if self.constraints:
            name = self.constraints[0].formula.quantifiers[0].domain
            if not ids:
                raise CompileError(f"domain {name!r} is empty")
            if len(set(ids)) != len(ids):
                raise CompileError(f"domain {name!r} lists an example twice")
        offsets: list[np.ndarray] = []  # per rule: each slot's offset, then its stride
        members: dict[tuple, list[int]] = {}
        for r, constraint in enumerate(self.constraints):
            starts, strides = [], []
            for slot in constraint.slots:
                binding = slot.binding
                pred = binding.name
                if binding.given:
                    if pred in place or given.setdefault(pred, binding) is not binding:
                        raise CompileError(
                            f"rule {constraint.text!r} binds {pred!r} otherwise than "
                            f"the rule set reads it"
                        )
                    starts.append(end)
                    strides.append(0)
                    continue
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
                starts.append(offset)
                strides.append(1)
            offsets.append(np.array((starts, strides)))
            members.setdefault((constraint.program, len(constraint.domains)), []).append(r)

        self._offsets, self._members = offsets, members
        self._keep = np.ones(len(ids), dtype=bool)  # the ids that the rows range over
        self._tables: dict = {}  # _table by id(index), shared with every narrowed set

    @cached_property
    def _groups(self) -> list[_RuleGroup]:
        rows: dict = {}  # grounding rows by each slot's index map and axes
        groups = []
        for rules in self._members.values():
            first = self.constraints[rules[0]]
            index = []
            for r in rules:
                position = self._rows(self.constraints[r], rows)
                start, stride = self._offsets[r]
                index.append(np.where(position >= 0, start + stride * position, 0))
            row_rule = None
            if len(first.domains) == 2:
                row_rule = np.repeat(np.arange(len(rules)), [len(i) for i in index])
            groups.append(_RuleGroup(
                first.program, np.array(rules, dtype=np.intp), np.concatenate(index), row_rule,
            ))
        return groups

    def _rows(self, constraint: CompiledConstraint, rows: dict) -> np.ndarray:
        """The rule's grounding rows over the kept ids: each slot's position in
        its predicate's truth vector, -1 where absent.  Rules that read the
        same index maps over the same axes share one array."""
        key = tuple((id(slot.binding.index), slot.axes) for slot in constraint.slots)
        if key not in rows:
            if len(constraint.domains) == 1:
                coords, columns = (np.flatnonzero(self._keep),), []
            else:  # the guard's pairs of two kept ids; the guard is the first slot
                codes, positions = self._table(constraint.slots[0].binding)
                i, j = np.divmod(codes, len(self._keep))
                live = self._keep[i] & self._keep[j]
                coords, columns = (i[live], j[live]), [positions[live]]
            for slot in constraint.slots[len(columns):]:
                columns.append(self._table(slot.binding)[coords[slot.axes[0]]])
            rows[key] = np.stack(columns, axis=1)
        return rows[key]

    def _table(self, binding: PredicateBinding):
        """A unary index's column, each id's position or -1 where absent, or a
        pair index's ``_pair_codes``, over every id; built once for this set
        and every set narrowed from it."""
        key, ids = id(binding.index), self.constraints[0].domains[0]
        if key not in self._tables:
            self._tables[key] = (
                _pair_codes(binding.index, ids) if binding.arity == 2
                else np.array([binding.index.get(i, -1) for i in ids], dtype=np.int64))
        return self._tables[key]

    def restricted(self, keep: Sequence[bool]) -> CompiledRuleSet:
        """This set over the ids that ``keep``, a mask over the ids this set
        keeps, keeps, in their order: the set that a compile over those ids
        builds.  It is a shallow copy with a narrower mask, which shares the
        compiled programs and index tables and grounds only the kept ids,
        when first evaluated."""
        if not self.constraints:
            return self
        keep = np.asarray(keep, dtype=bool)
        kept = np.flatnonzero(self._keep)
        if keep.shape != kept.shape:
            raise ValueError(f"the mask has {keep.size} entries for the {kept.size} ids "
                             f"that the rule set keeps")
        if not keep.any():
            name = self.constraints[0].formula.quantifiers[0].domain
            raise CompileError(f"domain {name!r} is empty")
        # The guard tables are built here, before a narrowed set grounds: built
        # inside that grounding, their scan's temporaries add to its peak memory.
        for slot in (s for c in self.constraints for s in c.slots if s.binding.arity == 2):
            self._table(slot.binding)
        narrowed = copy(self)
        vars(narrowed).pop("_groups", None)
        narrowed._keep = np.zeros_like(self._keep)
        narrowed._keep[kept[keep]] = True
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
        flat = np.concatenate([[0.0], *(np.ravel(t) for t in truths), [1.0]])
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
            else:
                phis[group.rules] = penalties.reshape(len(group.rules), -1).sum(axis=-1)
            if not with_gradient:
                continue
            # A rule's penalty is the sum of 1 - truth over its groundings.
            weights = np.full(penalties.shape, -1.0)
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


def _pair_codes(index: Mapping, ids: tuple) -> tuple[np.ndarray, np.ndarray]:
    """A pair index as the sorted codes ``i * len(ids) + j`` of its pairs
    ``(ids[i], ids[j])``, each in either order, and their positions.  A
    direct entry beats a reversed one, and pairs with an id outside ``ids``
    are left out.
    """
    at = {a: i for i, a in enumerate(ids)}
    found = []  # code, reversed, position
    for (a, b), position in index.items():
        if a in at and b in at:
            found.append((at[a] * len(ids) + at[b], 0, position))
            found.append((at[b] * len(ids) + at[a], 1, position))
    codes, flips, positions = np.array(found, dtype=np.int64).reshape(-1, 3).T
    order = np.lexsort((flips, codes))
    codes, positions = codes[order], positions[order]
    first = np.diff(codes, prepend=-1) != 0
    return codes[first], positions[first]


def _guarded(constraint: CompiledConstraint) -> bool:
    """Whether the body reads ``G(x, y) => ...``: its leftmost atom, the
    first slot, is then the guard."""
    program = constraint.program
    root = program.n_nodes - 1
    return (program.opcodes[root] == OP_IMPL
            and program.opcodes[program.lhs[root]] == OP_LOAD
            and constraint.slots[0].axes == (0, 1))


def compile_constraint(
    formula: Formula,
    tnorm: str,
    domains: Mapping[str, tuple[str, ...] | list[str]],
    predicates: Mapping[str, PredicateBinding],
) -> CompiledConstraint:
    """Check a one-variable or guarded pair rule against example domains and
    predicate bindings and lower it; :class:`CompiledRuleSet` grounds it."""
    if tnorm not in TNORMS:
        raise CompileError(f"unknown t-norm {tnorm!r}")

    id_lists = []
    for q in formula.quantifiers:
        if q.domain not in domains:
            raise CompileError(f"unknown domain {q.domain!r}")
        id_lists.append(tuple(domains[q.domain]))
    ids = id_lists[0]
    if any(other is not ids and other != ids for other in id_lists[1:]):
        raise CompileError("the quantifiers range over more than one id list")

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
    constraint = CompiledConstraint(
        formula=formula,
        domains=(ids,) * len(id_lists),
        program=_lower(formula.body, slot_order, TN_CODE[tnorm]),
        slots=tuple(
            SlotBinding(predicates[pred], tuple(axis_of[v] for v in args))
            for pred, args in slot_order
        ),
    )
    if len(id_lists) > 1 and (len(id_lists) > 2 or not _guarded(constraint)):
        raise CompileError(
            f"rule {constraint.text!r} is neither a one-variable rule nor "
            f"'forall x. forall y. G(x,y) => body' with G a pair predicate"
        )
    if any(len(slot.axes) == 2 for slot in constraint.slots[len(id_lists) - 1:]):
        raise CompileError(f"rule {constraint.text!r} reads a pair atom other than its guard")
    return constraint


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

