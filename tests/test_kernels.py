"""Kernels: frozen values, closed forms, PSD behaviour, builder plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fungo.kernels import (
    GramMatrix,
    InteractionGraph,
    correlation_kernel,
    diffusion_kernel,
    domain_gram,
    domain_kernel,
    expression_gram,
    kmer_counts,
    normalize_kernel,
    psd_check,
    spectrum_gram,
    spectrum_kernel,
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


def test_normalize_frozen_value():
    assert normalize_kernel(1.0, 2.0, 2.0) == 0.5
    assert normalize_kernel(3.0, 0.0, 2.0) == 0.0


def test_spectrum_gram_normalized_diagonal():
    seqs = {"a": "AABAB", "b": "BBAB", "c": "ABAB"}
    gram = spectrum_gram(seqs, k=2)
    assert np.allclose(np.diag(gram.matrix), 1.0)
    assert gram.matrix.max() <= 1.0 + 1e-12
    raw = spectrum_gram(seqs, k=2, normalized=False)
    want = spectrum_kernel("AABAB", "BBAB", k=2)
    assert raw.matrix[0, 1] == want


def test_spectrum_gram_zero_row_convention(caplog):
    # "X" is shorter than k, so its raw self-similarity is 0.
    with caplog.at_level("WARNING"):
        gram = spectrum_gram({"a": "ABAB", "dead": "X"}, k=2)
    assert gram.matrix[1, 1] == 1.0
    assert gram.matrix[0, 1] == 0.0
    assert any("dead" in r.message for r in caplog.records)


def test_domain_frozen_values():
    assert domain_kernel({"d1", "d2"}, {"d2", "d3"}) == 0.25
    for m in (1, 2, 5):
        ann = {f"d{i}" for i in range(m)}
        assert domain_kernel(ann, ann) == pytest.approx(1.0 / m)
    assert domain_kernel(set(), {"d1"}) == 0.0


def test_domain_gram_matches_scalar():
    ann = {"a": {"d1", "d2"}, "b": {"d2"}, "c": set()}
    gram = domain_gram(ann)
    for i, p in enumerate(gram.ids):
        for j, q in enumerate(gram.ids):
            assert gram.matrix[i, j] == domain_kernel(ann[p], ann[q])


def test_diffusion_two_vertex_closed_form():
    g = InteractionGraph(("u", "v"), (("u", "v", 1.0),))
    beta = math.log(2.0) / 2.0
    gram = diffusion_kernel(g, beta)
    want = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert np.allclose(gram.matrix, want, atol=1e-10)


def test_diffusion_beta_zero_is_identity():
    g = InteractionGraph(("u", "v", "w"), (("u", "v", 2.0),))
    gram = diffusion_kernel(g, 0.0)
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
        g = InteractionGraph(tuple(f"v{i}" for i in range(n)), tuple(edges))
        gram = diffusion_kernel(g, beta=50.0)
        assert np.allclose(gram.matrix, 1.0 / n, atol=1e-6)


def test_diffusion_isolated_vertex_stays_unit():
    g = InteractionGraph(("a", "b", "c"), (("a", "b", 1.0),))
    gram = diffusion_kernel(g, beta=3.0)
    assert gram.matrix[2, 2] == pytest.approx(1.0, abs=1e-12)
    assert gram.matrix[2, 0] == pytest.approx(0.0, abs=1e-12)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        InteractionGraph(("a",), (("a", "a", 1.0),))
    with pytest.raises(ValueError, match="not a vertex"):
        InteractionGraph(("a",), (("a", "b", 1.0),))
    with pytest.raises(ValueError, match="duplicate edge"):
        InteractionGraph(("a", "b"), (("a", "b", 1.0), ("b", "a", 1.0)))
    with pytest.raises(ValueError, match="weight"):
        InteractionGraph(("a", "b"), (("a", "b", 0.0),))


def test_correlation_frozen_value():
    assert correlation_kernel((1, 2, 3), (2, 4, 6)) == pytest.approx(4.0 / 3.0)


def test_correlation_validation():
    with pytest.raises(ValueError):
        correlation_kernel((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        correlation_kernel((), ())


def test_expression_gram_matches_scalar_and_is_psd():
    rng = np.random.default_rng(2)
    profiles = {f"p{i}": rng.normal(size=7) for i in range(6)}
    gram = expression_gram(profiles)
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
    ok, smallest = spectrum_gram(seqs, k=2).psd_check()
    assert ok, smallest
    ann = {
        f"p{i}": {f"d{j}" for j in range(5) if rng.random() < 0.5} for i in range(n)
    }
    ok, smallest = domain_gram(ann).psd_check()
    assert ok, smallest


def test_psd_check_flags_indefinite():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok, smallest = psd_check(m)
    assert not ok
    assert smallest == pytest.approx(-1.0)


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
        domain_gram({"p0": {"d"}}, ids=["p9"])
    with pytest.raises(ValueError, match="p9"):
        expression_gram({"p0": (1.0, 2.0)}, ids=["p9"])
