"""Plain-text file formats for experiment inputs and outputs.

Readers validate eagerly and report failures as ``path:line: message``;
writers are atomic (temp file + rename), emit ``\\n`` newlines, and format
reals with ``%.17g`` where the value must survive a round trip.  Formats:

* FASTA sequences; TSV pair lists (interactions, graph edges); TSV
  annotation lists (``protein<TAB>id``); headerless CSV expression matrix
  (``protein,v1,v2,...``);
* Gram CSV: a header row of example ids, then one row of reals per example;
* rule files in the logic grammar, one rule per line;
* flat ``key = value`` config files;
* folds TSV, prediction TSV, curve CSV, and a sorted ``key = value``
  metrics report.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .kernels import GramMatrix
from .logic import Formula, ParseError, parse_rules

__all__ = [
    "DataFileError",
    "read_lines",
    "read_fasta",
    "read_pairs",
    "read_annotations",
    "read_expression",
    "read_gram",
    "write_gram",
    "read_rule_file",
    "write_rule_file",
    "read_config",
    "write_config",
    "read_folds",
    "write_folds",
    "read_predictions",
    "write_predictions",
    "write_metrics_report",
    "read_curve_file",
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
    """Write ``text`` to ``path`` via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=directory, prefix=".tmp-io-")
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


def read_fasta(path: str) -> dict[str, str]:
    """Read sequences keyed by the first token of each ``>`` header."""
    sequences: dict[str, list[str]] = {}
    current: str | None = None
    for number, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            continue
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
    for number, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        a, b = _split_columns(path, number, line, 2)
        pairs.append((a, b))
    return tuple(pairs)


def read_annotations(path: str) -> dict[str, set[str]]:
    """Read ``protein<TAB>id`` rows into a protein-keyed mapping.

    Ids are interned, so each id is one string shared with the ontology's.
    """
    annotations: dict[str, set[str]] = {}
    for number, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        protein, item = _split_columns(path, number, line, 2)
        annotations.setdefault(protein, set()).add(sys.intern(item))
    return annotations


def _parse_real(path: str, number: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataFileError(path, number, f"not a real number: {token!r}") from None
    if not math.isfinite(value):
        raise DataFileError(path, number, f"non-finite value: {token!r}")
    return value


def read_expression(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a headerless CSV matrix: ``protein,v1,v2,...`` per row."""
    ids: list[str] = []
    seen: set[str] = set()
    rows: list[list[float]] = []
    width: int | None = None
    for number, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) < 2:
            raise DataFileError(path, number, "expected an id and at least one value")
        name = fields[0].strip()
        if not name:
            raise DataFileError(path, number, "empty protein id")
        if name in seen:
            raise DataFileError(path, number, f"duplicate protein id {name!r}")
        seen.add(name)
        values = [_parse_real(path, number, token) for token in fields[1:]]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DataFileError(
                path, number, f"expected {width} values, got {len(values)}"
            )
        ids.append(name)
        rows.append(values)
    if not ids:
        raise DataFileError(path, None, "no expression rows")
    return tuple(ids), np.asarray(rows, dtype=float)


def read_gram(path: str) -> GramMatrix:
    """Read a Gram CSV: header row of ids, then one row of reals per id."""
    lines = [line for line in read_lines(path) if line.strip()]
    if not lines:
        raise DataFileError(path, None, "empty Gram file")
    ids = tuple(token.strip() for token in lines[0].split(","))
    if any(not name for name in ids):
        raise DataFileError(path, 1, "empty id in header")
    n = len(ids)
    if len(lines) - 1 != n:
        raise DataFileError(
            path, None, f"expected {n} data rows for {n} ids, got {len(lines) - 1}"
        )
    matrix = np.empty((n, n), dtype=float)
    for index, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != n:
            raise DataFileError(path, index, f"expected {n} values, got {len(tokens)}")
        matrix[index - 2] = [_parse_real(path, index, token) for token in tokens]
    try:
        return GramMatrix(ids, matrix)
    except ValueError as exc:
        raise DataFileError(path, None, str(exc)) from exc


def write_gram(path: str, gram: GramMatrix) -> None:
    lines = [",".join(gram.ids)]
    for row in gram.matrix:
        lines.append(",".join(format(v, ".17g") for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_rule_file(path: str) -> list[Formula]:
    """Parse a rule file: one rule per line, ``#`` comments allowed."""
    try:
        return parse_rules("\n".join(read_lines(path)))
    except ParseError as exc:
        raise DataFileError(path, None, str(exc)) from exc


def write_rule_file(path: str, rules: Iterable[Formula]) -> None:
    atomic_write_text(path, "".join(rule.to_text() + "\n" for rule in rules))


def read_config(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; blank lines and ``#`` comments skipped."""
    config: dict[str, str] = {}
    for number, line in enumerate(read_lines(path), start=1):
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


def read_folds(path: str) -> dict[str, int]:
    """Read ``protein<TAB>fold_index`` rows."""
    assignment: dict[str, int] = {}
    for number, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        protein, index = _split_columns(path, number, line, 2)
        if protein in assignment:
            raise DataFileError(path, number, f"duplicate protein {protein!r}")
        try:
            assignment[protein] = int(index)
        except ValueError:
            raise DataFileError(
                path, number, f"not a fold index: {index!r}"
            ) from None
        if assignment[protein] < 0:
            raise DataFileError(path, number, f"negative fold index: {index!r}")
    return assignment


def write_folds(path: str, folds: Sequence[Iterable[str]]) -> None:
    assignment = {
        protein: index for index, fold in enumerate(folds) for protein in fold
    }
    lines = [f"{protein}\t{assignment[protein]}" for protein in sorted(assignment)]
    atomic_write_text(path, "\n".join(lines) + "\n")


PredictionRow = tuple[str, str, float, bool, bool]


def write_predictions(path: str, rows: Iterable[PredictionRow]) -> None:
    """Write ``protein predicate truth label undecided`` rows, sorted."""
    lines = []
    for protein, predicate, truth, positive, undecided in sorted(rows):
        lines.append(
            "\t".join(
                (
                    protein,
                    predicate,
                    format(truth, ".17g"),
                    "pos" if positive else "neg",
                    "1" if undecided else "0",
                )
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_predictions(path: str) -> list[PredictionRow]:
    rows: list[PredictionRow] = []
    for number, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        protein, predicate, truth, label, undecided = _split_columns(
            path, number, line, 5
        )
        if label not in ("pos", "neg"):
            raise DataFileError(path, number, f"unknown label {label!r}")
        if undecided not in ("0", "1"):
            raise DataFileError(path, number, f"unknown undecided flag {undecided!r}")
        rows.append(
            (
                protein,
                predicate,
                _parse_real(path, number, truth),
                label == "pos",
                undecided == "1",
            )
        )
    return rows


def write_metrics_report(path: str, metrics: Mapping[str, float]) -> None:
    """Write scalar metrics as sorted ``key = value`` lines (6 decimals)."""
    lines = [f"{key} = {metrics[key]:.6f}" for key in sorted(metrics)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_curve_file(path: str, recalls: Sequence[float], precisions: Sequence[float]) -> None:
    lines = ["recall,precision"]
    for recall, precision in zip(recalls, precisions):
        lines.append(f"{recall:.17g},{precision:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_curve_file(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    lines = [line for line in read_lines(path) if line.strip()]
    if not lines or lines[0] != "recall,precision":
        raise DataFileError(path, 1, "missing 'recall,precision' header")
    recalls: list[float] = []
    precisions: list[float] = []
    for number, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != 2:
            raise DataFileError(path, number, f"expected 2 values, got {line!r}")
        recalls.append(_parse_real(path, number, tokens[0]))
        precisions.append(_parse_real(path, number, tokens[1]))
    return tuple(recalls), tuple(precisions)


def write_model(path: str, alphas: Mapping[str, np.ndarray],
                config: Mapping[str, str], trace_lines: Iterable[str]) -> None:
    """Write coefficient vectors with a config echo and the training trace."""
    lines = ["[config]"]
    lines.extend(f"{key} = {config[key]}" for key in sorted(config))
    lines.append("")
    lines.append("[coefficients]")
    for task in sorted(alphas):
        vector = " ".join(map("{:.17g}".format, np.asarray(alphas[task]).tolist()))
        lines.append(f"{task}: {vector}")
    lines.append("")
    lines.append("[trace]")
    lines.extend(trace_lines)
    atomic_write_text(path, "\n".join(lines) + "\n")
