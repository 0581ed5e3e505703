"""Fuzzy semantics and execution of compiled rule bodies.

Three t-norm families are supported; negation is the strong negation
``1 - x``, disjunction the dual co-norm ``1 - T(1 - a, 1 - b)``, and
implication the residuum of the chosen t-norm, or the material
``1 - T(a, 1 - b)`` (``1 + a*b - a`` under the product t-norm).

A rule body is lowered to a flat postorder instruction program.
:func:`node_values` is the forward pass over a batch of groundings and
keeps every node's value; :func:`backward` reuses those values to
propagate a weighted truth back onto the input slots, so a penalty and
its gradient cost one forward pass.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

OP_LOAD = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_IMPL = 4
OP_IMPL_MAT = 5

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
    """Postorder instruction list for one rule body.

    ``lhs`` holds the atom slot for OP_LOAD nodes and the left child index
    otherwise; ``rhs`` holds the right child index or -1.
    """

    opcodes: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tnorm_code: int
    n_slots: int

    @property
    def n_nodes(self) -> int:
        return int(self.opcodes.shape[0])


def node_values(program: Program, values: np.ndarray) -> np.ndarray:
    """Forward pass keeping every node's value; shape (n_nodes, n_groundings)."""
    opcodes, lhs, rhs = program.opcodes, program.lhs, program.rhs
    tn = program.tnorm_code
    n_g = values.shape[0]
    vals = np.empty((program.n_nodes, n_g), dtype=np.float64)
    for i in range(program.n_nodes):
        op = opcodes[i]
        if op == OP_LOAD:
            vals[i] = values[:, lhs[i]]
        elif op == OP_NOT:
            vals[i] = 1.0 - vals[lhs[i]]
        else:
            a = vals[lhs[i]]
            b = vals[rhs[i]]
            if op == OP_AND:
                vals[i] = _tnorm(tn, a, b)
            elif op == OP_OR:
                vals[i] = 1.0 - _tnorm(tn, 1.0 - a, 1.0 - b)
            elif op == OP_IMPL:
                vals[i] = _residuum(tn, a, b)
            else:
                vals[i] = 1.0 - _tnorm(tn, a, 1.0 - b)
    return vals


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


def backward(program: Program, vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """d(sum_g weights[g] * t[g]) / d(slot values), shape (n_groundings, n_slots).

    ``vals`` is the forward pass of :func:`node_values` and ``t`` its
    last row, the body's truth per grounding.
    """
    opcodes, lhs, rhs = program.opcodes, program.lhs, program.rhs
    tn = program.tnorm_code
    n_nodes = program.n_nodes
    n_g = vals.shape[1]
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
            if tn == TN_MINIMUM:
                da = np.where(a <= b, 1.0, 0.0)
                db = 1.0 - da
            elif tn == TN_PRODUCT:
                da = b
                db = a
            else:
                da = db = np.where(a + b - 1.0 > 0.0, 1.0, 0.0)
        elif op == OP_OR:
            if tn == TN_MINIMUM:
                da = np.where(a >= b, 1.0, 0.0)
                db = 1.0 - da
            elif tn == TN_PRODUCT:
                da = 1.0 - b
                db = 1.0 - a
            else:
                da = db = np.where(a + b < 1.0, 1.0, 0.0)
        elif op == OP_IMPL:
            unsat = a > b
            if tn == TN_MINIMUM:
                da = np.zeros(n_g)
                db = np.where(unsat, 1.0, 0.0)
            elif tn == TN_PRODUCT:
                live = unsat & (a >= PRODUCT_GUARD)
                safe = np.where(live, a, 1.0)
                da = np.where(live, -b / (safe * safe), 0.0)
                db = np.where(live, 1.0 / safe, 0.0)
            else:
                da = np.where(unsat, -1.0, 0.0)
                db = np.where(unsat, 1.0, 0.0)
        else:  # OP_IMPL_MAT
            if tn == TN_MINIMUM:
                left = a + b <= 1.0
                da = np.where(left, -1.0, 0.0)
                db = np.where(left, 0.0, 1.0)
            elif tn == TN_PRODUCT:
                da = b - 1.0
                db = a
            else:
                act = a > b
                da = np.where(act, -1.0, 0.0)
                db = np.where(act, 1.0, 0.0)
        adj[lhs[i]] += w * da
        adj[rhs[i]] += w * db
    return dvalues
