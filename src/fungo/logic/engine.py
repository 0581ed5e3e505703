"""Fuzzy semantics and execution of compiled rule bodies.

Three t-norm families are supported; negation is the strong negation
``1 - x``, disjunction the dual co-norm ``1 - T(1 - a, 1 - b)``, and
implication the residuum of the chosen t-norm.

A rule body is lowered to a flat postorder instruction program of plain
ints.  :func:`node_values` is the forward pass over a batch of groundings
read slot-major, and keeps every node's values, an atom's as a view.
Under the minimum t-norm :func:`signed_positions` then finds the one input
that each grounding's truth equals, so a gradient is a signed count of
groundings per input; under the others :func:`backward` propagates a
weighted truth back onto the input slots.  Either way a penalty and its
gradient cost one forward pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

OP_LOAD = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_IMPL = 4

MINIMUM = "minimum"
PRODUCT = "product"
LUKASIEWICZ = "lukasiewicz"

TNORMS = (MINIMUM, PRODUCT, LUKASIEWICZ)

TN_MINIMUM = 0
TN_PRODUCT = 1
TN_LUKASIEWICZ = 2

TN_CODE = {MINIMUM: TN_MINIMUM, PRODUCT: TN_PRODUCT, LUKASIEWICZ: TN_LUKASIEWICZ}

# Below this value the antecedent of a product residuum counts as satisfied,
# keeping the quotient bounded.
PRODUCT_GUARD = 1e-12

# perfbench/setup_probe.py reads these two for its environment fingerprint.
HAS_NUMBA = False


def resolve_engine() -> str:
    return "numpy"


class Program(NamedTuple):
    """Postorder instruction list for one rule body, as tuples of ints.

    ``lhs`` holds the atom slot for OP_LOAD nodes and the left child index
    otherwise; ``rhs`` holds the right child index or -1.
    """

    opcodes: tuple[int, ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    tnorm_code: int
    n_slots: int

    @property
    def n_nodes(self) -> int:
        return len(self.opcodes)


def node_values(program: Program, values: np.ndarray) -> list[np.ndarray]:
    """Forward pass over slot-major ``values``, shape (n_slots, n_groundings),
    keeping every node's values, a LOAD node's as a view of its slot's row."""
    tn = program.tnorm_code
    vals: list[np.ndarray] = []
    for op, i, j in zip(program.opcodes, program.lhs, program.rhs):
        if op == OP_LOAD:
            vals.append(values[i])
        elif op == OP_NOT:
            vals.append(1.0 - vals[i])
        elif op == OP_AND:
            vals.append(_tnorm(tn, vals[i], vals[j]))
        elif op == OP_OR:
            vals.append(1.0 - _tnorm(tn, 1.0 - vals[i], 1.0 - vals[j]))
        else:  # OP_IMPL
            vals.append(_residuum(tn, vals[i], vals[j]))
    return vals


def signed_positions(program: Program, vals: list[np.ndarray], positions: np.ndarray) -> np.ndarray:
    """Under the minimum t-norm, per grounding, ``p`` where the truth is the
    input at position ``p``, ``-p`` where it is one minus it, 0 where it is
    constant.  ``vals`` is :func:`node_values` over the inputs at the
    slot-major ``positions``, where 0 holds a constant.  Each node takes its
    child's position by the test that a reverse pass routes the adjoint by."""
    codes: list[np.ndarray] = []
    for op, i, j in zip(program.opcodes, program.lhs, program.rhs):
        if op == OP_LOAD:
            codes.append(positions[i])
        elif op == OP_NOT:
            codes.append(-codes[i])
        elif op == OP_AND:
            codes.append(np.where(vals[i] <= vals[j], codes[i], codes[j]))
        elif op == OP_OR:
            codes.append(np.where(vals[i] >= vals[j], codes[i], codes[j]))
        else:  # OP_IMPL
            codes.append(np.where(vals[i] > vals[j], codes[j], 0))
    return codes[-1]


def _tnorm(tn: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if tn == TN_MINIMUM:
        return np.minimum(a, b)
    if tn == TN_PRODUCT:
        return a * b
    return np.maximum(a + b - 1.0, 0.0)


def _residuum(tn: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sat = a <= b
    if tn == TN_MINIMUM:
        res = b
    elif tn == TN_PRODUCT:
        small = a < PRODUCT_GUARD
        res = np.where(small, 1.0, b / np.where(small, 1.0, a))
    else:
        res = 1.0 - a + b
    return np.where(sat, 1.0, res)


def backward(program: Program, vals: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """d(sum_g weights[g] * t[g]) / d(slot values), shape (n_groundings, n_slots),
    under the product or Lukasiewicz t-norm.

    ``vals`` is the forward pass of :func:`node_values` and ``t`` its
    last row, the body's truth per grounding.
    """
    opcodes, lhs, rhs = program.opcodes, program.lhs, program.rhs
    product = program.tnorm_code == TN_PRODUCT
    n_nodes = program.n_nodes
    n_g = len(weights)
    adj = np.zeros((n_nodes, n_g), dtype=np.float64)
    adj[n_nodes - 1] = weights
    dvalues = np.zeros((n_g, program.n_slots), dtype=np.float64)
    for i in range(n_nodes - 1, -1, -1):
        op = opcodes[i]
        w = adj[i]
        if op == OP_LOAD:
            dvalues[:, lhs[i]] += w
            continue
        if op == OP_NOT:
            adj[lhs[i]] -= w
            continue
        a = vals[lhs[i]]
        b = vals[rhs[i]]
        if op == OP_AND:
            da, db = (b, a) if product else (np.where(a + b - 1.0 > 0.0, 1.0, 0.0),) * 2
        elif op == OP_OR:
            da, db = (1.0 - b, 1.0 - a) if product else (np.where(a + b < 1.0, 1.0, 0.0),) * 2
        elif product:  # OP_IMPL
            live = (a > b) & (a >= PRODUCT_GUARD)
            safe = np.where(live, a, 1.0)
            da = np.where(live, -b / (safe * safe), 0.0)
            db = np.where(live, 1.0 / safe, 0.0)
        else:  # OP_IMPL, Lukasiewicz
            act = a > b
            da = np.where(act, -1.0, 0.0)
            db = np.where(act, 1.0, 0.0)
        adj[lhs[i]] += w * da
        adj[rhs[i]] += w * db
    return dvalues
