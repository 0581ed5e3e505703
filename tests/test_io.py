"""Round-trip and validation tests for the file-format helpers."""

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungo import io as fungo_io
from fungo.io import (
    DataFileError,
    atomic_write_text,
    read_annotations,
    read_config,
    read_curve_file,
    read_expression,
    read_fasta,
    read_folds,
    read_gram,
    read_lines,
    read_pairs,
    read_predictions,
    read_rule_file,
    write_config,
    write_curve_file,
    write_folds,
    write_gram,
    write_metrics_report,
    write_model,
    write_predictions,
    write_rule_file,
)
from fungo.kernels import GramMatrix
from fungo.logic import parse_rules
from support import LINE_BREAKS, reference_read_lines, write_raw


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFasta:
    def test_multiline_sequences(self, tmp_path):
        path = put(tmp_path, "seqs.fasta", ">p1 description\nMKV\nLLA\n\n>p2\nGG\n")
        assert read_fasta(path) == {"p1": "MKVLLA", "p2": "GG"}

    def test_errors(self, tmp_path):
        with pytest.raises(DataFileError, match="before any header"):
            read_fasta(put(tmp_path, "a.fasta", "MKV\n"))
        with pytest.raises(DataFileError, match="duplicate sequence"):
            read_fasta(put(tmp_path, "b.fasta", ">p1\nAA\n>p1\nCC\n"))
        with pytest.raises(DataFileError, match="empty sequence header"):
            read_fasta(put(tmp_path, "c.fasta", ">\nAA\n"))
        with pytest.raises(DataFileError, match="is empty"):
            read_fasta(put(tmp_path, "d.fasta", ">p1\n>p2\nAA\n"))

    def test_error_carries_location(self, tmp_path):
        path = put(tmp_path, "e.fasta", ">p1\nAA\n>p1\n")
        with pytest.raises(DataFileError) as err:
            read_fasta(path)
        assert f"{path}:3" in str(err.value)


class TestTabular:
    def test_pairs(self, tmp_path):
        path = put(tmp_path, "ppi.tsv", "p1\tp2\n\np2\tp3\n")
        assert read_pairs(path) == (("p1", "p2"), ("p2", "p3"))

    def test_pairs_reject_bad_rows(self, tmp_path):
        with pytest.raises(DataFileError, match="2 tab-separated"):
            read_pairs(put(tmp_path, "a.tsv", "p1\tp2\tp3\n"))
        with pytest.raises(DataFileError, match="2 tab-separated"):
            read_pairs(put(tmp_path, "b.tsv", "p1\t\n"))

    def test_annotations_group_by_protein(self, tmp_path):
        path = put(tmp_path, "ann.tsv", "p1\tGO:1\np2\tGO:2\np1\tGO:3\n")
        assert read_annotations(path) == {"p1": {"GO:1", "GO:3"}, "p2": {"GO:2"}}

    def test_folds_round_trip(self, tmp_path):
        path = str(tmp_path / "folds.tsv")
        write_folds(path, (("b", "a"), ("c",)))
        assert (tmp_path / "folds.tsv").read_text() == "a\t0\nb\t0\nc\t1\n"
        assert read_folds(path) == {"a": 0, "b": 0, "c": 1}

    def test_folds_errors(self, tmp_path):
        with pytest.raises(DataFileError, match="duplicate protein"):
            read_folds(put(tmp_path, "a.tsv", "p\t0\np\t1\n"))
        with pytest.raises(DataFileError, match="not a fold index"):
            read_folds(put(tmp_path, "b.tsv", "p\tzero\n"))
        with pytest.raises(DataFileError, match="negative"):
            read_folds(put(tmp_path, "c.tsv", "p\t-1\n"))


class TestExpression:
    def test_reads_matrix(self, tmp_path):
        path = put(tmp_path, "expr.csv", "p1,1.0,2.0\np2,0.5,-1.5\n")
        ids, matrix = read_expression(path)
        assert ids == ("p1", "p2")
        assert np.array_equal(matrix, [[1.0, 2.0], [0.5, -1.5]])

    def test_errors(self, tmp_path):
        with pytest.raises(DataFileError, match="expected 2 values"):
            read_expression(put(tmp_path, "a.csv", "p1,1.0,2.0\np2,0.5\n"))
        with pytest.raises(DataFileError, match="not a real"):
            read_expression(put(tmp_path, "b.csv", "p1,x\n"))
        with pytest.raises(DataFileError, match="duplicate"):
            read_expression(put(tmp_path, "c.csv", "p1,1\np1,2\n"))
        with pytest.raises(DataFileError, match="no expression rows"):
            read_expression(put(tmp_path, "d.csv", "\n"))
        with pytest.raises(DataFileError, match="non-finite"):
            read_expression(put(tmp_path, "e.csv", "p1,inf\n"))

    def test_duplicate_id_names_its_line(self, tmp_path):
        path = put(tmp_path, "dup.csv", "p1,1\np2,2\n\np3,3\np2,4\n")
        with pytest.raises(DataFileError, match="duplicate protein id 'p2'") as caught:
            read_expression(path)
        assert caught.value.line == 5


class TestGram:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 4))
        gram = GramMatrix(("a", "b", "c", "d"), (raw + raw.T) / 2.0)
        path = str(tmp_path / "gram.csv")
        write_gram(path, gram)
        loaded = read_gram(path)
        assert loaded.ids == gram.ids
        assert np.array_equal(loaded.matrix, gram.matrix)

    def test_errors(self, tmp_path):
        with pytest.raises(DataFileError, match="empty Gram"):
            read_gram(put(tmp_path, "a.csv", "\n"))
        with pytest.raises(DataFileError, match="expected 2 data rows"):
            read_gram(put(tmp_path, "b.csv", "a,b\n1,0\n"))
        with pytest.raises(DataFileError, match="expected 2 values"):
            read_gram(put(tmp_path, "c.csv", "a,b\n1,0\n0\n"))
        with pytest.raises(DataFileError, match="empty id"):
            read_gram(put(tmp_path, "d.csv", "a,\n1,0\n0,1\n"))


NON_FINITE = ("nan", "inf", "-inf", "1e999")


@pytest.mark.parametrize("token", NON_FINITE)
def test_readers_reject_non_finite_reals(tmp_path, token):
    expression = put(tmp_path, "e.csv", f"p1,1.0\np2,{token}\n")
    with pytest.raises(DataFileError, match="non-finite") as caught:
        read_expression(expression)
    assert caught.value.line == 2
    gram = put(tmp_path, "g.csv", f"a,b\n1,0\n0,{token}\n")
    with pytest.raises(DataFileError, match="non-finite") as caught:
        read_gram(gram)
    assert caught.value.line == 3
    predictions = put(tmp_path, "p.tsv", f"p1\tA\t0.5\tpos\t0\np2\tA\t{token}\tneg\t0\n")
    with pytest.raises(DataFileError, match="non-finite") as caught:
        read_predictions(predictions)
    assert caught.value.line == 2


class TestRules:
    def test_round_trip(self, tmp_path):
        rules = parse_rules(
            "forall x:Prot. Q(x) => P(x)\n"
            "forall x:Prot. forall y:Prot. BOUND(x,y) => (P(x) <=> P(y))\n"
        )
        path = str(tmp_path / "rules.txt")
        write_rule_file(path, rules)
        loaded = read_rule_file(path)
        assert [r.to_text() for r in loaded] == [r.to_text() for r in rules]

    def test_parse_error_is_wrapped(self, tmp_path):
        with pytest.raises(DataFileError):
            read_rule_file(put(tmp_path, "bad.txt", "forall x:Prot Q(x)\n"))


class TestConfig:
    def test_round_trip_sorted(self, tmp_path):
        path = str(tmp_path / "run.cfg")
        write_config(path, {"beta": "2.0", "alpha": "1"})
        assert (tmp_path / "run.cfg").read_text() == "alpha = 1\nbeta = 2.0\n"
        assert read_config(path) == {"alpha": "1", "beta": "2.0"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = put(tmp_path, "a.cfg", "# header\n\nkey = value  # trailing\n")
        assert read_config(path) == {"key": "value"}

    def test_errors(self, tmp_path):
        with pytest.raises(DataFileError, match="key = value"):
            read_config(put(tmp_path, "a.cfg", "just words\n"))
        with pytest.raises(DataFileError, match="duplicate key"):
            read_config(put(tmp_path, "b.cfg", "k = 1\nk = 2\n"))
        with pytest.raises(DataFileError, match="empty key"):
            read_config(put(tmp_path, "c.cfg", "= 1\n"))


class TestPredictions:
    def test_round_trip_sorted(self, tmp_path):
        rows = [
            ("p2", "A", 0.25, False, True),
            ("p1", "B", 1.0 / 3.0, True, False),
            ("p1", "A", 0.875, True, False),
        ]
        path = str(tmp_path / "preds.tsv")
        write_predictions(path, rows)
        loaded = read_predictions(path)
        assert loaded == sorted(rows)
        assert loaded[0][2] == 0.875

    def test_errors(self, tmp_path):
        with pytest.raises(DataFileError, match="unknown label"):
            read_predictions(put(tmp_path, "a.tsv", "p\tA\t0.5\tmaybe\t0\n"))
        with pytest.raises(DataFileError, match="undecided flag"):
            read_predictions(put(tmp_path, "b.tsv", "p\tA\t0.5\tpos\t2\n"))
        with pytest.raises(DataFileError, match="5 tab-separated"):
            read_predictions(put(tmp_path, "c.tsv", "p\tA\t0.5\tpos\n"))


class TestReportsAndCurves:
    def test_metrics_report_bytes(self, tmp_path):
        path = str(tmp_path / "metrics.txt")
        write_metrics_report(path, {"b_f1": 1.0, "a_precision": 0.5})
        expected = "a_precision = 0.500000\nb_f1 = 1.000000\n"
        assert (tmp_path / "metrics.txt").read_text() == expected

    def test_curve_round_trip(self, tmp_path):
        path = str(tmp_path / "curve.csv")
        write_curve_file(path, (0.0, 0.5, 1.0), (1.0, 2.0 / 3.0, 0.25))
        recalls, precisions = read_curve_file(path)
        assert recalls == (0.0, 0.5, 1.0)
        assert precisions == (1.0, 2.0 / 3.0, 0.25)

    def test_curve_header_required(self, tmp_path):
        with pytest.raises(DataFileError, match="header"):
            read_curve_file(put(tmp_path, "a.csv", "0.0,1.0\n"))

    def test_model_file_structure(self, tmp_path):
        path = str(tmp_path / "model.txt")
        write_model(
            path,
            {"B": np.array([0.5, -0.25]), "A": np.array([1.0])},
            {"lambda_r": "1.0"},
            ["stage=1 iteration=0 objective=2.0"],
        )
        text = (tmp_path / "model.txt").read_text()
        assert text.index("[config]") < text.index("[coefficients]") < text.index("[trace]")
        assert text.index("A: 1") < text.index("B: 0.5 -0.25")
        assert "lambda_r = 1.0" in text

    def test_model_coefficients_print_as_numpy_scalars_do(self, tmp_path):
        rng = np.random.default_rng(5)
        vector = np.concatenate([
            rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, size=50),
            [0.0, -0.0, 5e-324, -1.5, 1e16, 0.1, np.inf, -np.inf, np.nan],
        ])
        path = str(tmp_path / "model.txt")
        write_model(path, {"A": vector}, {}, [])
        line = (tmp_path / "model.txt").read_text().splitlines()[3]
        assert line == "A: " + " ".join(format(v, ".17g") for v in vector)


class TestAtomicWrite:
    def test_creates_directories_and_overwrites(self, tmp_path):
        target = tmp_path / "nested" / "out.txt"
        atomic_write_text(str(target), "first\n")
        atomic_write_text(str(target), "second\n")
        assert target.read_text() == "second\n"
        leftovers = [p for p in target.parent.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []


def _result(reader, path):
    """What ``reader(path)`` returns, made comparable, or its error and line."""
    try:
        found = reader(path)
    except DataFileError as exc:
        return "error", str(exc), exc.line
    if isinstance(found, GramMatrix):
        return found.ids, found.matrix.tolist()
    if reader is read_expression:
        return found[0], found[1].tolist()
    return found


# Per reader, blocks of lines to draw from: well-formed ones, blank ones
# and malformed ones, so both good files and every kind of error turn up.
BLANK = (("",), ("  ",))
READER_BLOCKS = {
    read_annotations: (("p1\tGO:1",), ("p2\tGO:2",), (" p1 \t GO:2 ",), ("p1",),
                       ("p1\tGO:1\tx",), ("\tGO:1",)),
    read_pairs: (("p1\tp2",), ("p2\tp3",), ("p1",), ("p1\t",)),
    read_fasta: ((">s1 desc", "ACGT", "MK"), (">s2", "GG"), ("ACGT",), (">",), (">s1",)),
    read_expression: (("p1,1,0.5",), ("p2,-2e3,1",), ("p3, 0 ,0",), ("p4,nan,1",),
                      ("p5,1",), ("p1,2,2",), ("p6",)),
    read_gram: (("a,b", "1,0.5", "0.5,1"), ("c", "2"), ("1,0.5",), ("x,",)),
    read_config: (("k = v",), ("seed = 1 # note",), ("# only",), ("novalue",), ("= v",),
                  ("k = w",)),
}


@st.composite
def stream_cases(draw):
    reader = draw(st.sampled_from(list(READER_BLOCKS)))
    blocks = draw(st.lists(st.sampled_from(READER_BLOCKS[reader] + BLANK), max_size=6))
    lines = [line for block in blocks for line in block]
    breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    if lines and draw(st.booleans()):
        text = text[:-len(breaks[-1])]  # no final line break
    return reader, text, draw(st.sampled_from((1, 2, 3, 5, 8, 64, 1 << 16)))


@settings(max_examples=300, deadline=None)
@given(stream_cases())
def test_streamed_readers_match_whole_file_reading(case):
    reader, text, chunk = case
    with tempfile.TemporaryDirectory() as directory:
        path = write_raw(f"{directory}/data.txt", text)
        assert list(read_lines(path)) == reference_read_lines(path)
        with mock.patch.object(fungo_io, "read_lines", reference_read_lines):
            expected = _result(reader, path)
        with mock.patch.object(fungo_io, "_CHUNK_CHARS", chunk):
            assert list(read_lines(path)) == reference_read_lines(path)
            assert _result(reader, path) == expected


def test_lines_longer_than_a_chunk(tmp_path):
    long_id = "P" * (3 << 16)
    text = f"{long_id}\tQ\r\n\x85{long_id}\u2028R\tS"
    path = put(tmp_path, "pairs.tsv", text)
    assert len(long_id) > fungo_io._CHUNK_CHARS
    assert list(read_lines(path)) == [f"{long_id}\tQ", "", long_id, "R\tS"]
    with pytest.raises(DataFileError, match=r"pairs\.tsv:3: expected 2"):
        read_pairs(path)


def test_missing_file_is_reported_on_first_read(tmp_path):
    lines = read_lines(str(tmp_path / "absent.tsv"))
    with pytest.raises(DataFileError, match="absent.tsv: cannot read file"):
        next(lines)


def test_annotation_ids_are_interned(tmp_path):
    path = put(tmp_path, "a.tsv", "p1\tGO:0000001\np2\tGO:0000001\n")
    annotations = read_annotations(path)
    (first,), (second,) = annotations["p1"], annotations["p2"]
    assert first is second
