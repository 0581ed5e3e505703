"""Kernels: frozen values, closed forms, PSD behaviour, builder plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    correlation_kernel,
    domain_kernel,
    kmer_counts,
    normalize_kernel,
    spectrum_kernel,
)

from fungo import kernels
from fungo.kernels import (
    GramMatrix,
    diffusion_kernel,
    domain_gram,
    expression_gram,
    psd_check,
    spectrum_gram,
)


def test_spectrum_frozen_values():
    assert spectrum_kernel("AAB", "ABA", k=2) == 1.0
    assert spectrum_kernel("AAB", "AAB", k=2) == 2.0
    assert spectrum_kernel("A", "A", k=2) == 0.0


def test_spectrum_counts_multiplicity():
    # "AAAA" has the 2-mer AA three times.
    assert spectrum_kernel("AAAA", "AAAA", k=2) == 9.0
    assert spectrum_kernel("AAAA", "AA", k=2) == 3.0


def test_spectrum_rejects_zero_k():
    with pytest.raises(ValueError):
        spectrum_kernel("AB", "AB", k=0)
    with pytest.raises(ValueError):
        kmer_counts("AB", -1)
    with pytest.raises(ValueError, match="positive"):
        spectrum_gram({"a": "AB"}, ("a",), k=0)


def test_normalize_frozen_value():
    assert normalize_kernel(1.0, 2.0, 2.0) == 0.5
    assert normalize_kernel(3.0, 0.0, 2.0) == 0.0
    # GramMatrix.normalized follows the pairwise rule, a dead row included.
    matrix = np.array([[2.0, 1.0, 3.0], [1.0, 2.0, 0.0], [3.0, 0.0, 0.0]])
    norm = GramMatrix(("a", "b", "c"), matrix).normalized().matrix
    assert norm[0, 1] == pytest.approx(normalize_kernel(1.0, 2.0, 2.0), rel=1e-15)
    assert norm[0, 2] == normalize_kernel(3.0, 2.0, 0.0)


def test_spectrum_gram_normalized_diagonal():
    seqs = {"a": "AABAB", "b": "BBAB", "c": "ABAB"}
    gram = spectrum_gram(seqs, tuple(seqs), k=2)
    assert np.allclose(np.diag(gram.matrix), 1.0)
    assert gram.matrix.max() <= 1.0 + 1e-12
    want = normalize_kernel(spectrum_kernel("AABAB", "BBAB", k=2),
                            spectrum_kernel("AABAB", "AABAB", k=2),
                            spectrum_kernel("BBAB", "BBAB", k=2))
    assert gram.matrix[0, 1] == pytest.approx(want, rel=1e-15)


def test_spectrum_gram_zero_row_convention(caplog):
    # "X" is shorter than k, so its raw self-similarity is 0.
    with caplog.at_level("WARNING"):
        gram = spectrum_gram({"a": "ABAB", "dead": "X"}, ("a", "dead"), k=2)
    assert gram.matrix[1, 1] == 1.0
    assert gram.matrix[0, 1] == 0.0
    assert any("dead" in r.message for r in caplog.records)


def _normalized_spectrum(seqs, k):
    """The pairwise spectrum kernel, cosine-normalized entry by entry (to
    within rounding of the square roots); a sequence without k-mers gets a
    zero row and column and a unit diagonal."""
    raw = {(a, b): spectrum_kernel(seqs[a], seqs[b], k=k) for a in seqs for b in seqs}
    return np.array([[1.0 if a == b and raw[a, a] == 0 else
                      normalize_kernel(raw[a, b], raw[a, a], raw[b, b]) for b in seqs]
                     for a in seqs])


@pytest.mark.parametrize("block", (3, None))
@pytest.mark.parametrize("k", (1, 2, 3, 5))
def test_spectrum_gram_matches_the_pairwise_kernel(k, block, monkeypatch):
    # Column blocks of 3 make every vocabulary span many blocks.
    if block is not None:
        monkeypatch.setattr(kernels, "SPECTRUM_BLOCK", block)
    rng = np.random.default_rng(k)
    letters = list("ACDEFGHIKLMNPQRSTVWY") + list("XBZ*-uj7é")
    seqs = {f"p{i}": "".join(rng.choice(letters, size=rng.integers(0, 40))) for i in range(30)}
    seqs.update({"empty": "", "short": "AC"[: max(k - 1, 0)], "repeat": "A" * 60})
    gram = spectrum_gram(seqs, tuple(seqs), k=k)
    assert np.allclose(gram.matrix, _normalized_spectrum(seqs, k), rtol=1e-15, atol=0.0)
    assert spectrum_gram({}, (), k=k).matrix.shape == (0, 0)


@pytest.mark.parametrize("k", (1, 4, 20, 70))
def test_spectrum_gram_numbers_any_letters_and_any_k(k):
    # Letters outside Latin-1 and outside the BMP; 34 letters to the power
    # k = 20 overflows 64 bits, and k = 70 exceeds every sequence.
    rng = np.random.default_rng(100 + k)
    letters = list("ACDEFGHIKLMNPQRSTVWY") + list("αβγδ") + list("蛋白质") + ["\U0001F9EC", "\u00e9"]
    letters += list("XBZ*-uj")
    seqs = {f"p{i}": "".join(rng.choice(letters[:4], size=rng.integers(0, 8)))
            + "".join(rng.choice(letters, size=rng.integers(0, 60))) for i in range(12)}
    seqs.update({"twin": seqs["p0"], "repeat": "\U0001F9EC" * 64, "repeat2": "\U0001F9EC" * 30})
    gram = spectrum_gram(seqs, tuple(seqs), k=k)
    assert np.allclose(gram.matrix, _normalized_spectrum(seqs, k), rtol=1e-15, atol=0.0)
    # The twins' rows agree off the twins' own two columns, which hold the
    # unit diagonal and their normalized self-similarity.
    twin = gram.ids.index("twin")
    assert (np.delete(gram.matrix[0], [0, twin]) == np.delete(gram.matrix[twin], [0, twin])).all()


def test_domain_frozen_values():
    assert domain_kernel({"d1", "d2"}, {"d2", "d3"}) == 0.25
    for m in (1, 2, 5):
        ann = {f"d{i}" for i in range(m)}
        assert domain_kernel(ann, ann) == pytest.approx(1.0 / m)
    assert domain_kernel(set(), {"d1"}) == 0.0


def test_domain_gram_matches_scalar():
    ann = {"a": {"d1", "d2"}, "b": {"d2"}, "c": set()}
    gram = domain_gram(ann, tuple(ann))
    for i, p in enumerate(gram.ids):
        for j, q in enumerate(gram.ids):
            assert gram.matrix[i, j] == domain_kernel(ann[p], ann[q])


def test_domain_gram_is_bit_equal_to_the_set_formula_on_random_sets():
    rng = np.random.default_rng(17)
    ann = {f"p{i}": {f"d{j}" for j in rng.choice(40, size=rng.integers(0, 12))}
           for i in range(60)}
    order = list(rng.permutation(sorted(ann)))
    gram = domain_gram(ann, ids=order)
    assert gram.ids == tuple(order)
    want = [[domain_kernel(ann[p], ann[q]) for q in order] for p in order]
    assert gram.matrix.tobytes() == np.array(want).tobytes()


def test_diffusion_two_vertex_closed_form():
    beta = math.log(2.0) / 2.0
    gram = diffusion_kernel(("u", "v"), (("u", "v", 1.0),), beta)
    want = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert np.allclose(gram.matrix, want, atol=1e-10)


def test_diffusion_beta_zero_is_identity():
    gram = diffusion_kernel(("u", "v", "w"), (("u", "v", 2.0),), 0.0)
    assert np.array_equal(gram.matrix, np.eye(3))


def test_diffusion_rows_approach_component_uniform():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        # Dense-ish random connected graph.
        while True:
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        edges.append((f"v{i}", f"v{j}", 1.0))
            adj = np.zeros((n, n))
            for a, b, _ in edges:
                ia, ib = int(a[1:]), int(b[1:])
                adj[ia, ib] = adj[ib, ia] = 1
            reach = np.linalg.matrix_power(adj + np.eye(n), n)
            if (reach > 0).all():
                break
        gram = diffusion_kernel(tuple(f"v{i}" for i in range(n)), edges, beta=50.0)
        assert np.allclose(gram.matrix, 1.0 / n, atol=1e-6)


def test_diffusion_isolated_vertex_stays_unit():
    gram = diffusion_kernel(("a", "b", "c"), (("a", "b", 1.0),), beta=3.0)
    assert gram.matrix[2, 2] == pytest.approx(1.0, abs=1e-12)
    assert gram.matrix[2, 0] == pytest.approx(0.0, abs=1e-12)


def test_graph_validation():
    with pytest.raises(ValueError, match="duplicate vertices"):
        diffusion_kernel(("a", "a"), (), 1.0)
    with pytest.raises(ValueError, match="self-loop"):
        diffusion_kernel(("a",), (("a", "a", 1.0),), 1.0)
    with pytest.raises(ValueError, match="not a vertex"):
        diffusion_kernel(("a",), (("a", "b", 1.0),), 1.0)
    with pytest.raises(ValueError, match="duplicate edge"):
        diffusion_kernel(("a", "b"), (("a", "b", 1.0), ("b", "a", 1.0)), 1.0)
    with pytest.raises(ValueError, match="weight"):
        diffusion_kernel(("a", "b"), (("a", "b", 0.0),), 1.0)
    # The graph is checked at beta = 0 too, where the kernel is the identity.
    with pytest.raises(ValueError, match="self-loop"):
        diffusion_kernel(("a",), (("a", "a", 1.0),), 0.0)


def test_correlation_frozen_value():
    assert correlation_kernel((1, 2, 3), (2, 4, 6)) == pytest.approx(4.0 / 3.0)


def test_correlation_validation():
    with pytest.raises(ValueError):
        correlation_kernel((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        correlation_kernel((), ())


def test_expression_gram_matches_scalar_and_is_psd():
    rng = np.random.default_rng(2)
    names = tuple(f"p{i}" for i in range(6))
    matrix = rng.normal(size=(6, 7))
    profiles = dict(zip(names, matrix))
    gram = expression_gram(names, matrix, names[::-1])
    assert gram.ids == names[::-1]
    for i, a in enumerate(gram.ids):
        for j, b in enumerate(gram.ids):
            assert gram.matrix[i, j] == pytest.approx(
                correlation_kernel(profiles[a], profiles[b]), abs=1e-10
            )
    ok, smallest = gram.psd_check()
    assert ok, smallest


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_built_grams_are_psd(n, seed):
    rng = np.random.default_rng(seed)
    letters = "ABC"
    seqs = {
        f"p{i}": "".join(rng.choice(list(letters), size=rng.integers(2, 12)))
        for i in range(n)
    }
    ok, smallest = spectrum_gram(seqs, tuple(seqs), k=2).psd_check()
    assert ok, smallest
    ann = {
        f"p{i}": {f"d{j}" for j in range(5) if rng.random() < 0.5} for i in range(n)
    }
    ok, smallest = domain_gram(ann, tuple(ann)).psd_check()
    assert ok, smallest


def test_psd_check_flags_indefinite():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok, smallest = psd_check(m)
    assert not ok
    assert smallest == pytest.approx(-1.0)


def test_gram_psd_check_is_computed_once_per_gram(monkeypatch):
    calls = []
    real = kernels.psd_check

    def counted(matrix):
        calls.append(1)
        return real(matrix)

    monkeypatch.setattr(kernels, "psd_check", counted)
    gram = GramMatrix(("a", "b"), np.array([[2.0, 1.0], [1.0, 2.0]]))
    results = [gram.psd_check() for _ in range(3)]
    assert results == [(True, pytest.approx(1.0))] * 3
    assert len(calls) == 1
    # An equal matrix in another Gram is checked again.
    assert GramMatrix(gram.ids, gram.matrix.copy()).psd_check() == results[0]
    assert len(calls) == 2


def test_psd_check_bounds_the_smallest_eigenvalue_by_the_trace():
    # Smallest eigenvalue -eps, trace 2 - eps, so the bound is about -PSD_TOL * 1.
    for eps, ok in ((0.5 * kernels.PSD_TOL, True), (2.0 * kernels.PSD_TOL, False)):
        assert psd_check(np.diag([2.0, -eps]))[0] is ok


def test_take_gathers_ids_and_rows_in_the_given_order():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(7, 7))
    gram = GramMatrix(tuple(f"p{i}" for i in range(7)), a + a.T)
    for p in ([3, 0, 6], [5], list(range(7))[::-1], []):
        taken = gram.take(p)
        assert taken.ids == tuple(gram.ids[i] for i in p)
        assert taken.matrix.tobytes() == gram.matrix[np.ix_(p, p)].tobytes()
        assert taken.matrix.shape == (len(p), len(p))


def test_domain_gram_gives_a_protein_missing_from_its_table_a_zero_row():
    ann = {"a": {"d1", "d2"}, "b": {"d2"}}
    gram = domain_gram(ann, ("a", "x", "b"))
    assert gram.ids == ("a", "x", "b")
    # Its row and column, diagonal included, are 0.
    assert not gram.matrix[1].any() and not gram.matrix[:, 1].any()
    # The others read as they do without the missing protein.
    rest = domain_gram(ann, ("a", "b")).matrix
    assert gram.matrix[np.ix_([0, 2], [0, 2])].tobytes() == rest.tobytes()


def test_gram_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GramMatrix(("a", "b"), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        GramMatrix(("a",), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="duplicate"):
        GramMatrix(("a", "a"), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        GramMatrix(("a", "b"), np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_builders_name_missing_proteins():
    with pytest.raises(ValueError, match="p9"):
        spectrum_gram({"p0": "AB"}, ids=["p0", "p9"], k=2)
    with pytest.raises(ValueError, match="p9"):
        expression_gram(("p0",), np.array([[1.0, 2.0]]), ids=["p9"])
