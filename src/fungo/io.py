"""Plain-text file formats for experiment inputs and outputs.

Readers validate eagerly and report failures as ``path:line: message``;
every line reader takes its non-blank lines from ``_records``, which
numbers them as lines of the whole file.  Writers are atomic (temp file +
rename), emit ``\\n`` newlines, and format reals with ``%.17g`` where the
value must survive a round trip.  Formats:

* FASTA sequences; TSV pair lists (interactions, graph edges); TSV
  annotation lists (``protein<TAB>id``); headerless CSV expression matrix
  (``protein,v1,v2,...``);
* Gram CSV: a header of ids, then one row of reals per id, read row by row;
* flat ``key = value`` config files;
* written only: rule files in the rule syntax, one rule per line; folds
  TSV, prediction TSV, curve CSV, a sorted ``key = value`` metrics report
  and model files.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .kernels import GramMatrix
from .logic import Formula

__all__ = [
    "DataFileError",
    "parse_real",
    "read_lines",
    "read_fasta",
    "read_pairs",
    "read_annotations",
    "read_expression",
    "read_gram",
    "write_gram",
    "write_rule_file",
    "read_config",
    "write_config",
    "write_folds",
    "write_predictions",
    "write_metrics_report",
    "write_curve_file",
    "write_model",
    "atomic_write_text",
]


class DataFileError(ValueError):
    """An input file failed to parse; carries the path and 1-based line."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = str(path)
        self.line = line
        location = self.path if line is None else f"{self.path}:{line}"
        super().__init__(f"{location}: {message}")


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory.

    The temp file is created with mode 0o666 less the process umask, as
    ``open(path, "w")`` would create ``path`` itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp = os.path.join(directory, f".tmp-io-{os.urandom(8).hex()}")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


_CHUNK_CHARS = 1 << 16
# The characters at which str.splitlines breaks; a universal-newline read
# has already turned "\r" and "\r\n" into "\n".
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def read_lines(path: str) -> Iterator[str]:
    """Stream the lines of a UTF-8 text file without their line breaks.

    The file is read in chunks of ``_CHUNK_CHARS`` characters, so only one
    chunk's lines are held at a time, and the lines are exactly those of
    ``str.splitlines`` on the whole text.  The file stays open until the
    iterator is exhausted or closed.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            tail = ""
            while chunk := handle.read(_CHUNK_CHARS):
                text = tail + chunk
                lines = text.splitlines()
                # A last line without its break may go on in the next chunk.
                tail = "" if text[-1] in _LINE_BREAKS else lines.pop()
                yield from lines
            if tail:
                yield tail
    except OSError as exc:
        raise DataFileError(path, None, f"cannot read file ({exc.strerror})") from exc


def _records(path: str) -> Iterator[tuple[int, str]]:
    """Stream the non-blank lines of ``path`` with their 1-based file line."""
    for number, line in enumerate(read_lines(path), start=1):
        if line.strip():
            yield number, line


def read_fasta(path: str) -> dict[str, str]:
    """Read sequences keyed by the first token of each ``>`` header."""
    sequences: dict[str, list[str]] = {}
    current: str | None = None
    for number, line in _records(path):
        stripped = line.strip()
        if stripped.startswith(">"):
            name = stripped[1:].split()[0] if stripped[1:].split() else ""
            if not name:
                raise DataFileError(path, number, "empty sequence header")
            if name in sequences:
                raise DataFileError(path, number, f"duplicate sequence id {name!r}")
            sequences[name] = []
            current = name
        elif current is None:
            raise DataFileError(path, number, "sequence data before any header")
        else:
            sequences[current].append(stripped)
    result = {name: "".join(parts) for name, parts in sequences.items()}
    for name, seq in result.items():
        if not seq:
            raise DataFileError(path, None, f"sequence {name!r} is empty")
    return result


def _split_columns(path: str, number: int, line: str, count: int) -> list[str]:
    fields = [f.strip() for f in line.split("\t")]
    if len(fields) != count or "" in fields:
        raise DataFileError(
            path, number, f"expected {count} tab-separated fields, got {line!r}"
        )
    return fields


def read_pairs(path: str) -> tuple[tuple[str, str], ...]:
    """Read a two-column TSV of id pairs (interactions or graph edges)."""
    pairs = []
    for number, line in _records(path):
        a, b = _split_columns(path, number, line, 2)
        pairs.append((a, b))
    return tuple(pairs)


def read_annotations(path: str) -> dict[str, set[str]]:
    """Read ``protein<TAB>id`` rows into a protein-keyed mapping.

    Ids are interned, so each id is one string shared with the ontology's.
    """
    annotations: dict[str, set[str]] = {}
    for number, line in _records(path):
        protein, item = _split_columns(path, number, line, 2)
        annotations.setdefault(protein, set()).add(sys.intern(item))
    return annotations


def parse_real(path: str, number: int, token: str) -> float:
    """``token`` as a finite real; anything else fails as ``path:number``."""
    try:
        value = float(token)
    except ValueError:
        raise DataFileError(path, number, f"not a real number: {token!r}") from None
    if not math.isfinite(value):
        raise DataFileError(path, number, f"non-finite value: {token!r}")
    return value


def read_expression(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a headerless CSV matrix: ``protein,v1,v2,...`` per row."""
    rows: dict[str, list[float]] = {}
    width: int | None = None
    for number, line in _records(path):
        fields = line.split(",")
        if len(fields) < 2:
            raise DataFileError(path, number, "expected an id and at least one value")
        name = fields[0].strip()
        if not name:
            raise DataFileError(path, number, "empty protein id")
        if name in rows:
            raise DataFileError(path, number, f"duplicate protein id {name!r}")
        values = [parse_real(path, number, token) for token in fields[1:]]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataFileError(
                path, number, f"expected {width} values, got {len(values)}"
            )
        rows[name] = values
    if not rows:
        raise DataFileError(path, None, "no expression rows")
    return tuple(rows), np.asarray(list(rows.values()), dtype=float)


def read_gram(path: str) -> GramMatrix:
    """Read a Gram CSV: header row of ids, then one row of reals per id."""
    records = _records(path)
    number, header = next(records, (None, None))
    if header is None:
        raise DataFileError(path, None, "empty Gram file")
    ids = tuple(token.strip() for token in header.split(","))
    if any(not name for name in ids):
        raise DataFileError(path, number, "empty id in header")
    n = len(ids)
    try:  # a header alone can ask for more reals than memory holds
        matrix = np.empty((n, n), dtype=float)
    except MemoryError:
        raise DataFileError(path, number, f"no memory for {n} x {n} reals") from None
    rows = 0
    for rows, (number, line) in enumerate(records, start=1):
        if rows <= n:  # surplus rows are only counted, for the error below
            tokens = line.split(",")
            if len(tokens) != n:
                raise DataFileError(path, number, f"expected {n} values, got {len(tokens)}")
            matrix[rows - 1] = [parse_real(path, number, token) for token in tokens]
    if rows != n:
        raise DataFileError(path, None, f"expected {n} data rows for {n} ids, got {rows}")
    try:
        return GramMatrix(ids, matrix)
    except ValueError as exc:
        raise DataFileError(path, None, str(exc)) from exc


def write_gram(path: str, gram: GramMatrix) -> None:
    lines = [",".join(gram.ids)]
    for row in gram.matrix:
        lines.append(",".join(format(v, ".17g") for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_rule_file(path: str, rules: Iterable[Formula]) -> None:
    atomic_write_text(path, "".join(rule.to_text() + "\n" for rule in rules))


def read_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; blank lines and ``#`` comments skipped."""
    config: dict[str, str] = {}
    for number, line in _records(path):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataFileError(path, number, f"expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataFileError(path, number, "empty key")
        if key in config:
            raise DataFileError(path, number, f"duplicate key {key!r}")
        config[key] = value
    return config


def write_config(path: str, config: Mapping[str, str]) -> None:
    lines = [f"{key} = {config[key]}" for key in sorted(config)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_folds(path: str, folds: Sequence[Iterable[str]]) -> None:
    assignment = {
        protein: index for index, fold in enumerate(folds) for protein in fold
    }
    lines = [f"{protein}\t{assignment[protein]}" for protein in sorted(assignment)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_predictions(path: str, examples: Sequence[str], predicates: Sequence[str],
                      truths: np.ndarray, positive: np.ndarray,
                      undecided: np.ndarray) -> None:
    """Write one ``example predicate truth label undecided`` row per cell of
    the examples × predicates matrices, sorted by example, then predicate."""
    rows = sorted(range(len(examples)), key=examples.__getitem__)
    columns = sorted(range(len(predicates)), key=predicates.__getitem__)
    cells = np.ix_(rows, columns)
    truths, positive, undecided = (
        np.asarray(m)[cells].tolist() for m in (truths, positive, undecided)
    )
    lines = []
    for i, truth_row, positive_row, undecided_row in zip(rows, truths, positive, undecided):
        for j, truth, chosen, blurred in zip(columns, truth_row, positive_row, undecided_row):
            lines.append("\t".join((examples[i], predicates[j], format(truth, ".17g"),
                                    "pos" if chosen else "neg", "1" if blurred else "0")))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_metrics_report(path: str, metrics: Mapping[str, float]) -> None:
    """Write scalar metrics as sorted ``key = value`` lines (6 decimals)."""
    lines = [f"{key} = {metrics[key]:.6f}" for key in sorted(metrics)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_curve_file(path: str, recalls: Sequence[float], precisions: Sequence[float]) -> None:
    lines = ["recall,precision"]
    for recall, precision in zip(recalls, precisions):
        lines.append(f"{recall:.17g},{precision:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_model(path: str, predicates: Sequence[Sequence[str]], weights: Sequence[np.ndarray],
                config: Mapping[str, str], trace_lines: Iterable[str]) -> None:
    """Write weight matrices with a config echo and the training trace.

    ``weights[b]`` holds one row per name in ``predicates[b]``; the rows are
    written under their names, sorted by name.
    """
    rows = {name: row for names, matrix in zip(predicates, weights, strict=True)
            for name, row in zip(names, matrix, strict=True)}
    lines = ["[config]"]
    lines.extend(f"{key} = {config[key]}" for key in sorted(config))
    lines.append("")
    lines.append("[coefficients]")
    for name in sorted(rows):
        lines.append(f"{name}: " + " ".join(map("{:.17g}".format, rows[name].tolist())))
    lines.append("")
    lines.append("[trace]")
    lines.extend(trace_lines)
    atomic_write_text(path, "\n".join(lines) + "\n")
