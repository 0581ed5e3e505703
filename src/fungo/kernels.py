"""Protein similarity kernels and Gram matrix plumbing.

Four data views are supported: k-mer spectra of sequences, shared
functional domains, co-membership in complexes (heat diffusion over the
interaction graph), and expression-profile covariance.  Every builder
returns a :class:`GramMatrix` whose rows follow the requested example
order, so kernels can be mixed per experiment behind one interface.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

DEFAULT_PSD_TOL = 1e-8


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix over an ordered example set."""

    ids: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        n = len(self.ids)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} ids")
        if len(set(self.ids)) != n:
            raise ValueError("duplicate example ids")
        if not np.isfinite(m).all():
            raise ValueError("non-finite kernel value")
        if not np.array_equal(m, m.T):
            raise ValueError("kernel matrix is not symmetric")

    @property
    def size(self) -> int:
        return len(self.ids)

    def position(self, example: str) -> int:
        try:
            return self.ids.index(example)
        except ValueError:
            raise KeyError(f"unknown example {example!r}") from None

    def psd_check(self, tol: float = DEFAULT_PSD_TOL) -> tuple[bool, float]:
        return psd_check(self.matrix, tol)

    def normalized(self) -> "GramMatrix":
        """Unit-diagonal variant k(i,j)/sqrt(k(i,i)k(j,j)).

        Examples with zero self-similarity carry no information: their
        off-diagonal entries become 0 and the diagonal 1, with a warning.
        """
        diag = np.diag(self.matrix).copy()
        dead = diag <= 0.0
        for i in np.flatnonzero(dead):
            log.warning(
                "zero self-similarity for %s; normalized row zeroed", self.ids[i]
            )
        scale = np.sqrt(np.where(dead, 1.0, diag))
        out = self.matrix / np.outer(scale, scale)
        out[dead, :] = 0.0
        out[:, dead] = 0.0
        np.fill_diagonal(out, 1.0)
        return GramMatrix(self.ids, out)


def psd_check(matrix: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> tuple[bool, float]:
    """Positive semi-definiteness within tolerance.

    Passes when the smallest eigenvalue is >= -tol * trace / n, the
    scale-aware bound used throughout.
    """
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    if n == 0:
        return True, 0.0
    smallest = float(np.linalg.eigvalsh(m)[0])
    bound = -tol * float(np.trace(m)) / n
    return smallest >= bound, smallest


# ---------------------------------------------------------------------------
# string spectrum

def kmer_counts(sequence: str, k: int) -> dict[str, int]:
    if k < 1:
        raise ValueError(f"k-mer length must be positive, got {k}")
    counts: dict[str, int] = {}
    for i in range(len(sequence) - k + 1):
        mer = sequence[i : i + k]
        counts[mer] = counts.get(mer, 0) + 1
    return counts


def spectrum_kernel(s1: str, s2: str, k: int) -> float:
    """Dot product of k-mer count vectors; 0 when either string is shorter
    than k."""
    c1 = kmer_counts(s1, k)
    c2 = kmer_counts(s2, k)
    if len(c2) < len(c1):
        c1, c2 = c2, c1
    return float(sum(count * c2.get(mer, 0) for mer, count in c1.items()))


def normalize_kernel(raw: float, self1: float, self2: float) -> float:
    """Cosine normalization; zero self-similarity yields 0."""
    if self1 <= 0.0 or self2 <= 0.0:
        return 0.0
    return raw / float(np.sqrt(self1 * self2))


def spectrum_gram(
    sequences: Mapping[str, str],
    ids: Sequence[str] | None = None,
    *,
    k: int,
    normalized: bool = True,
) -> GramMatrix:
    order = tuple(ids) if ids is not None else tuple(sequences)
    counts = []
    for name in order:
        if name not in sequences:
            raise ValueError(f"no sequence for protein {name!r}")
        counts.append(kmer_counts(sequences[name], k))
    n = len(order)
    m = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        ci = counts[i]
        for j in range(i, n):
            cj = counts[j]
            small, big = (ci, cj) if len(ci) <= len(cj) else (cj, ci)
            v = float(sum(c * big.get(mer, 0) for mer, c in small.items()))
            m[i, j] = v
            m[j, i] = v
    gram = GramMatrix(order, m)
    return gram.normalized() if normalized else gram


# ---------------------------------------------------------------------------
# functional domains

def domain_kernel(domains1: Iterable[str], domains2: Iterable[str]) -> float:
    """Shared-domain similarity |A & B| / (|A| * |B|); empty sets give 0.

    The diagonal is 1/|A|, not 1: the raw formula is kept as is.
    """
    a = set(domains1)
    b = set(domains2)
    if not a or not b:
        return 0.0
    return len(a & b) / (len(a) * len(b))


def domain_gram(
    annotations: Mapping[str, Iterable[str]], ids: Sequence[str] | None = None
) -> GramMatrix:
    order = tuple(ids) if ids is not None else tuple(annotations)
    sets = []
    for name in order:
        if name not in annotations:
            raise ValueError(f"no domain annotations for protein {name!r}")
        sets.append(set(annotations[name]))
    n = len(order)
    m = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            a, b = sets[i], sets[j]
            v = len(a & b) / (len(a) * len(b)) if a and b else 0.0
            m[i, j] = v
            m[j, i] = v
    return GramMatrix(order, m)


# ---------------------------------------------------------------------------
# interaction graph diffusion

@dataclass(frozen=True)
class InteractionGraph:
    """Undirected weighted graph without self-loops."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("duplicate vertices")
        seen = set()
        for a, b, w in self.edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a not in known or b not in known:
                missing = a if a not in known else b
                raise ValueError(f"edge endpoint {missing!r} is not a vertex")
            if not np.isfinite(w) or w <= 0:
                raise ValueError(f"edge ({a!r}, {b!r}) has non-positive weight {w}")
            key = (a, b) if a <= b else (b, a)
            if key in seen:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            seen.add(key)

    def adjacency(self) -> np.ndarray:
        pos = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        adj = np.zeros((n, n), dtype=np.float64)
        for a, b, w in self.edges:
            adj[pos[a], pos[b]] = w
            adj[pos[b], pos[a]] = w
        return adj


def diffusion_kernel(graph: InteractionGraph, beta: float = 1.0) -> GramMatrix:
    """Heat diffusion exp(beta * (A - D)) over the interaction graph.

    Computed by symmetric eigendecomposition; beta = 0 is the identity.
    """
    if beta < 0:
        raise ValueError(f"diffusion time must be non-negative, got {beta}")
    n = len(graph.vertices)
    if beta == 0.0:
        return GramMatrix(graph.vertices, np.eye(n))
    adj = graph.adjacency()
    generator = adj - np.diag(adj.sum(axis=1))
    eigvals, eigvecs = np.linalg.eigh(generator)
    kernel = (eigvecs * np.exp(beta * eigvals)) @ eigvecs.T
    kernel = (kernel + kernel.T) / 2.0
    return GramMatrix(graph.vertices, kernel)


# ---------------------------------------------------------------------------
# expression profiles

def correlation_kernel(x: Sequence[float], y: Sequence[float]) -> float:
    """Covariance of two expression profiles over the measured conditions."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or xv.shape != yv.shape:
        raise ValueError(f"profile shapes differ: {xv.shape} vs {yv.shape}")
    if xv.size == 0:
        raise ValueError("empty expression profile")
    cx = xv - xv.mean()
    cy = yv - yv.mean()
    return float(np.dot(cx, cy) / xv.size)


def expression_gram(
    profiles: Mapping[str, Sequence[float]], ids: Sequence[str] | None = None
) -> GramMatrix:
    order = tuple(ids) if ids is not None else tuple(profiles)
    if not order:
        return GramMatrix(order, np.zeros((0, 0)))
    rows = []
    width = None
    for name in order:
        if name not in profiles:
            raise ValueError(f"no expression profile for protein {name!r}")
        row = np.asarray(profiles[name], dtype=np.float64)
        if width is None:
            width = row.size
        elif row.size != width:
            raise ValueError(
                f"profile for {name!r} has {row.size} conditions, expected {width}"
            )
        rows.append(row)
    data = np.vstack(rows)
    centered = data - data.mean(axis=1, keepdims=True)
    m = centered @ centered.T / data.shape[1]
    m = (m + m.T) / 2.0
    return GramMatrix(order, m)
