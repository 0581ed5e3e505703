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

PSD_TOL = 1e-8
SPECTRUM_BLOCK = 512  # k-mer columns per dense count block


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

    def psd_check(self) -> tuple[bool, float]:
        """:func:`psd_check` of the matrix, computed once per Gram."""
        if "_psd" not in self.__dict__:
            self.__dict__["_psd"] = psd_check(self.matrix)
        return self.__dict__["_psd"]

    def take(self, positions: Sequence[int]) -> "GramMatrix":
        """The Gram over the examples at ``positions``, in that order."""
        index = np.asarray(positions, dtype=np.intp)
        return GramMatrix(tuple(self.ids[i] for i in positions),
                          self.matrix[np.ix_(index, index)])

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


def psd_check(matrix: np.ndarray) -> tuple[bool, float]:
    """Positive semi-definiteness within tolerance, and the smallest
    eigenvalue.

    Passes when the smallest eigenvalue is >= -PSD_TOL * trace / n, the
    scale-aware bound used throughout.
    """
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    if n == 0:
        return True, 0.0
    smallest = float(np.linalg.eigvalsh(m)[0])
    bound = -PSD_TOL * float(np.trace(m)) / n
    return smallest >= bound, smallest


# ---------------------------------------------------------------------------
# string spectrum

def spectrum_gram(sequences: Mapping[str, str], ids: Sequence[str], *, k: int) -> GramMatrix:
    """Dot products of k-mer count vectors over every pair, as sums of
    ``B @ B.T`` over column blocks B of the protein x k-mer count matrix,
    then normalized to a unit diagonal.  The counts are integers, so every
    partial sum is exact."""
    order = tuple(ids)
    for name in order:
        if name not in sequences:
            raise ValueError(f"no sequence for protein {name!r}")
    if k < 1:
        raise ValueError(f"k-mer length must be positive, got {k}")
    seqs = [sequences[name] for name in order]
    rows, cols, distinct = _kmer_codes(seqs, k)
    by_col = np.argsort(cols, kind="stable")
    rows, cols = rows[by_col], cols[by_col]
    n = len(order)
    m = np.zeros((n, n), dtype=np.float64)
    for start in range(0, distinct, SPECTRUM_BLOCK):
        width = min(SPECTRUM_BLOCK, distinct - start)
        lo, hi = np.searchsorted(cols, (start, start + width))
        flat = rows[lo:hi] * width + (cols[lo:hi] - start)
        block = np.bincount(flat, minlength=n * width).reshape(n, width).astype(np.float64)
        m += block @ block.T
    return GramMatrix(order, m).normalized()


def _kmer_codes(seqs: Sequence[str], k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The sequence and the k-mer number of every k-mer occurrence, and the
    count of distinct k-mers.

    Every letter gets a code, and a k-mer's number grows by one letter at a
    time: ``number * alphabet + code``, renumbered to ``0..distinct - 1`` after
    each letter, so no number exceeds the occurrence count times the alphabet
    size, whatever k is.
    """
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    counts = np.maximum(lengths - k + 1, 0)
    # UTF-32 gives every character, ASCII or not, one fixed-width code point.
    points = np.frombuffer("".join(seqs).encode("utf-32-le"), dtype=np.uint32)
    _, letters = np.unique(points, return_inverse=True)
    alphabet = int(letters.max()) + 1 if letters.size else 0
    # Where each occurrence starts in the joined text.
    firsts = np.cumsum(lengths) - lengths
    total = int(counts.sum())
    starts = np.repeat(firsts - (np.cumsum(counts) - counts), counts) + np.arange(total)
    numbers = letters[starts]
    for offset in range(1, k):
        _, numbers = np.unique(numbers * alphabet + letters[starts + offset],
                               return_inverse=True)
    distinct = int(numbers.max()) + 1 if total else 0
    return np.repeat(np.arange(len(seqs)), counts), numbers, distinct


# ---------------------------------------------------------------------------
# functional domains

def domain_gram(annotations: Mapping[str, Iterable[str]], ids: Sequence[str]) -> GramMatrix:
    """Shared-domain similarity |A & B| / (|A| * |B|); empty sets give 0.

    A protein missing from ``annotations`` has no domains: its row,
    diagonal included, is 0.  The diagonal is 1/|A|, not 1: the raw
    formula is kept as is.  Shared counts come from one product of the
    protein x domain 0/1 matrix with its transpose; every count and
    set-size product is an exact integer, so each entry is the correctly
    rounded quotient that the formula gives.
    """
    order = tuple(ids)
    sets = [set(annotations.get(name, ())) for name in order]
    column = {d: k for k, d in enumerate(sorted(set().union(*sets)))}
    member = np.zeros((len(order), len(column)), dtype=np.float64)
    for i, domains in enumerate(sets):
        member[i, [column[d] for d in domains]] = 1.0
    sizes = member.sum(axis=1)
    pairs = np.outer(sizes, sizes)
    m = np.divide(member @ member.T, pairs, out=np.zeros_like(pairs), where=pairs > 0)
    return GramMatrix(order, m)


# ---------------------------------------------------------------------------
# interaction graph diffusion

def diffusion_kernel(vertices: Sequence[str], edges: Iterable[tuple[str, str, float]],
                     beta: float) -> GramMatrix:
    """Heat diffusion exp(beta * (A - D)) over the undirected graph whose
    weighted edges ``(a, b, weight)`` join distinct ``vertices``.

    Computed by symmetric eigendecomposition; beta = 0 is the identity.
    """
    if beta < 0:
        raise ValueError(f"diffusion time must be non-negative, got {beta}")
    order = tuple(vertices)
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(order):
        raise ValueError("duplicate vertices")
    n = len(order)
    adj = np.zeros((n, n), dtype=np.float64)
    seen = set()
    for a, b, w in edges:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        if a not in pos or b not in pos:
            missing = a if a not in pos else b
            raise ValueError(f"edge endpoint {missing!r} is not a vertex")
        if not np.isfinite(w) or w <= 0:
            raise ValueError(f"edge ({a!r}, {b!r}) has non-positive weight {w}")
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            raise ValueError(f"duplicate edge ({a!r}, {b!r})")
        seen.add(key)
        adj[pos[a], pos[b]] = adj[pos[b], pos[a]] = w
    if beta == 0.0:
        return GramMatrix(order, np.eye(n))
    generator = adj - np.diag(adj.sum(axis=1))
    eigvals, eigvecs = np.linalg.eigh(generator)
    kernel = (eigvecs * np.exp(beta * eigvals)) @ eigvecs.T
    kernel = (kernel + kernel.T) / 2.0
    return GramMatrix(order, kernel)


# ---------------------------------------------------------------------------
# expression profiles

def expression_gram(names: Sequence[str], profiles: np.ndarray,
                    ids: Sequence[str]) -> GramMatrix:
    """Covariance of the expression profiles over the measured conditions;
    row i of the 2-D ``profiles`` is the profile of ``names[i]``."""
    order = tuple(ids)
    row = {name: i for i, name in enumerate(names)}
    for name in order:
        if name not in row:
            raise ValueError(f"no expression profile for protein {name!r}")
    data = np.asarray(profiles, dtype=np.float64)[[row[name] for name in order]]
    centered = data - data.mean(axis=1, keepdims=True)
    m = centered @ centered.T / data.shape[1]
    m = (m + m.T) / 2.0
    return GramMatrix(order, m)
