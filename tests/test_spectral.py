import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from signedlap import (
    NumericsError,
    PremiseError,
    SignedDigraph,
    block_spectrum,
    condensation,
    helmert_basis,
    laplacian,
    matrix_scale,
    null_basis,
    reach_decomposition,
    reduced_laplacian,
    spectrum_condition,
    zero_multiplicity,
)

from conftest import random_multi_reach_graph, random_premise_graph, random_signed_digraph
from helpers import (eigenvalues, householder_basis, match_predictions, reference_helmert_basis,
                     reference_null_basis)


def multiset_close(a, b, tol):
    assert a.shape == b.shape
    return match_predictions(a, b) <= tol


def test_helmert_small_cases():
    assert_allclose(helmert_basis(2), [[1 / np.sqrt(2), -1 / np.sqrt(2)]])
    assert_allclose(
        helmert_basis(3),
        [
            [1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
            [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)],
        ],
    )
    with pytest.raises(ValueError):
        helmert_basis(1)


def test_helmert_basis_is_the_row_by_row_construction_bit_for_bit():
    for n in range(2, 301):
        assert np.array_equal(helmert_basis(n), reference_helmert_basis(n)), n


@pytest.mark.parametrize("builder", [helmert_basis, householder_basis])
@pytest.mark.parametrize("n", [2, 3, 7, 24, 40])
def test_projection_invariants(builder, n):
    Q = builder(n)
    assert Q.shape == (n - 1, n)
    assert_allclose(Q @ Q.T, np.eye(n - 1), atol=1e-10)
    assert_allclose(Q @ np.ones(n), 0.0, atol=1e-12)


def test_reduced_laplacian_two_node():
    g = SignedDigraph(2, {(1, 2): 3.0, (2, 1): 3.0})
    lbar = reduced_laplacian(laplacian(g), helmert_basis(2))
    assert_allclose(lbar, [[6.0]])


def test_reduced_laplacian_edgeless():
    lbar = reduced_laplacian(np.zeros((4, 4)), helmert_basis(4))
    assert_allclose(lbar, np.zeros((3, 3)))


def test_reduced_laplacian_shape_mismatch():
    with pytest.raises(ValueError):
        reduced_laplacian(np.zeros((3, 3)), helmert_basis(4))


def test_eigenvalues_identity_and_companion():
    assert_allclose(eigenvalues(np.eye(4)), np.ones(4))
    companion = np.array([[0.0, -5.0], [1.0, 2.0]])  # z^2 - 2z + 5
    vals = eigenvalues(companion)
    assert_allclose(vals, [1 - 2j, 1 + 2j], atol=1e-12)


def test_eigenvalues_reference_graph(reach12):
    # closed forms from the block-triangular structure:
    # {0,3} u {0, 6 +- 2 sqrt(6)} u {0,7} u {4} u {8} u {22, 21 +- sqrt(351)}
    expected = np.sort(
        [0.0, 0.0, 0.0, 3.0, 6 - 2 * np.sqrt(6), 6 + 2 * np.sqrt(6), 7.0,
         4.0, 8.0, 22.0, 21 - np.sqrt(351), 21 + np.sqrt(351)]
    )
    vals = eigenvalues(laplacian(reach12))
    assert_allclose(vals.imag, 0.0, atol=1e-9)
    assert_allclose(np.sort(vals.real), expected, atol=1e-9)


def test_eigenvalues_sorted_and_conjugate():
    rng = np.random.default_rng(9)
    for _ in range(10):
        M = rng.normal(size=(7, 7))
        vals = eigenvalues(M)
        order = np.lexsort((vals.imag, vals.real))
        assert np.all(order == np.arange(7))
        assert multiset_close(vals, vals.conj(), 1e-8 * max(1, np.abs(vals).max()))


def test_zero_multiplicity(reach12):
    L = laplacian(reach12)
    assert zero_multiplicity(eigenvalues(L), matrix_scale(L)) == 3
    g = SignedDigraph(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0})
    L = laplacian(g)
    assert zero_multiplicity(eigenvalues(L), matrix_scale(L)) == 1
    assert zero_multiplicity(eigenvalues(np.zeros((5, 5))), 0.0) == 5


def test_reduced_spectrum_drops_one_zero():
    rng = np.random.default_rng(13)
    for _ in range(15):
        g = random_signed_digraph(rng, int(rng.integers(3, 9)))
        L = laplacian(g)
        Q = helmert_basis(g.n)
        full = eigenvalues(L)
        reduced = np.concatenate([eigenvalues(reduced_laplacian(L, Q)), [0.0]])
        assert multiset_close(full, reduced, 1e-8 * max(matrix_scale(L), 1.0))


def test_reduced_spectrum_basis_invariance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_signed_digraph(rng, 7)
        L = laplacian(g)
        ev_h = eigenvalues(reduced_laplacian(L, helmert_basis(7)))
        ev_r = eigenvalues(reduced_laplacian(L, householder_basis(7)))
        assert multiset_close(ev_h, ev_r, 1e-9 * max(matrix_scale(L), 1.0))


def test_connected_nonnegative_reduced_is_stable():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = random_premise_graph(rng, int(rng.integers(3, 9)))
        lbar = reduced_laplacian(laplacian(g), helmert_basis(g.n))
        vals = eigenvalues(lbar)
        assert np.abs(vals).min() > 1e-9
        assert vals.real.min() > 0
    # disconnected: two separate cycles
    g = SignedDigraph(4, {(1, 2): 1.0, (2, 1): 1.0, (3, 4): 1.0, (4, 3): 1.0})
    lbar = reduced_laplacian(laplacian(g), helmert_basis(4))
    assert np.abs(eigenvalues(lbar)).min() < 1e-12


def test_null_vectors_reference(reach12):
    decomp = reach_decomposition(reach12)
    basis = null_basis(laplacian(reach12), decomp)
    assert_allclose(
        basis.gammas[0], [1, 1, 0, 0, 0, 0, 0, 0.25, 0.25, 0.25, 0.25, 0.25], atol=1e-12
    )
    assert_allclose(
        basis.gammas[1], [0, 0, 1, 1, 1, 0, 0, 0.75, 0.75, 0.75, 0.75, 0.75], atol=1e-12
    )
    assert_allclose(basis.gammas[2], [0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0], atol=1e-12)
    mu1 = np.zeros(12)
    mu1[0], mu1[1] = 1 / 3, 2 / 3
    assert_allclose(basis.mus[0], mu1, atol=1e-12)
    e3 = np.zeros(12); e3[2] = 1.0
    e7 = np.zeros(12); e7[6] = 1.0
    assert_allclose(basis.mus[1], e3, atol=1e-12)
    assert_allclose(basis.mus[2], e7, atol=1e-12)


def test_null_vectors_single_reach():
    rng = np.random.default_rng(23)
    g = random_premise_graph(rng, 6)
    decomp = reach_decomposition(g)
    basis = null_basis(laplacian(g), decomp)
    assert_allclose(basis.gammas[0], np.ones(6), atol=1e-12)
    assert basis.mus[0].min() >= 0
    assert basis.mus[0].sum() == pytest.approx(1.0)


def test_null_vector_invariants_random():
    rng = np.random.default_rng(29)
    for _ in range(12):
        g = random_multi_reach_graph(
            rng, blocks=int(rng.integers(2, 4)), block_size=int(rng.integers(1, 4))
        )
        L = laplacian(g)
        scale = max(matrix_scale(L), 1.0)
        decomp = reach_decomposition(g)
        basis = null_basis(L, decomp)
        for k in range(decomp.d):
            gamma, mu = basis.gammas[k], basis.mus[k]
            assert np.abs(L @ gamma).max() < 1e-9 * scale
            assert np.abs(mu @ L).max() < 1e-9 * scale
            for i in decomp.exclusive[k]:
                assert gamma[i - 1] == 1.0
            for i in set(range(1, g.n + 1)) - decomp.reaches[k]:
                assert gamma[i - 1] == 0.0
            for i in decomp.common[k]:
                assert -1e-9 < gamma[i - 1] < 1 + 1e-9
            for i in decomp.reaching[k]:
                assert 0 < mu[i - 1] <= 1 + 1e-9
            off = [i - 1 for i in set(range(1, g.n + 1)) - decomp.reaching[k]]
            assert_allclose(mu[off], 0.0, atol=0.0)
            assert mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert_allclose(basis.gammas.sum(axis=0), np.ones(g.n), atol=1e-9)
        assert_allclose(basis.mus @ basis.gammas.T, np.eye(decomp.d), atol=1e-9)


@st.composite
def wide_multi_reach_graphs(draw):
    """``random_multi_reach_graph`` with each weight scaled by 10^U(-3, 3)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_multi_reach_graph(rng, blocks=draw(st.integers(2, 4)),
                                 block_size=draw(st.integers(1, 4)),
                                 commons=draw(st.integers(1, 8)))
    return SignedDigraph(g.n, {k: w * 10.0 ** rng.uniform(-3, 3) for k, w in g.edges.items()})


@settings(max_examples=150, deadline=None)
@given(g=wide_multi_reach_graphs())
def test_null_basis_matches_the_dense_per_reach_solve(g):
    L = laplacian(g)
    decomp = reach_decomposition(g)
    basis = null_basis(L, decomp)
    for got, want in zip(basis.gammas, reference_null_basis(L, decomp)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    # on a nonnegative graph the gammas are absorption probabilities
    assert basis.gammas.min() >= 0.0 and basis.gammas.max() <= 1.0
    assert_allclose(basis.mus @ basis.gammas.T, np.eye(decomp.d), rtol=0, atol=1e-10)


def test_null_basis_refuses_a_singular_common_block(reach12_uniform):
    decomp = reach_decomposition(reach12_uniform)
    L = laplacian(reach12_uniform)
    # cut the common nodes off the reaches: L_CC becomes a Laplacian, singular
    common = np.array(sorted(frozenset().union(*decomp.common))) - 1
    L[np.ix_(common, np.setdiff1d(np.arange(L.shape[0]), common))] = 0.0
    L[common, common] -= L[common].sum(axis=1)
    with pytest.raises(NumericsError, match="common block is singular"):
        null_basis(L, decomp)


def test_null_vectors_reject_negative_weights(mixed5):
    decomp = reach_decomposition(mixed5)
    with pytest.raises(PremiseError):
        null_basis(laplacian(mixed5), decomp)


@st.composite
def continuous_signed_digraphs(draw):
    """Random signed digraphs, weights of either sign drawn from a continuous range.

    Generic weights leave every non-sink SCC block nonsingular, so no zero
    is defective and the whole-matrix solve is an accurate reference.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 15))
    edges = {}
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = (int(x) for x in rng.integers(1, n + 1, size=2))
        if i != j:
            edges[(i, j)] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.5))
    return SignedDigraph(n, edges)


@settings(max_examples=300, deadline=None)
@given(continuous_signed_digraphs())
def test_block_spectrum_matches_full_eigensolve(g):
    L = laplacian(g)
    got = block_spectrum(L, condensation(g))
    assert got.shape == (g.n,)
    assert np.all(np.diff(got.real) >= 0)
    assert match_predictions(got, np.linalg.eigvals(L)) <= 1e-9 * max(matrix_scale(L), 1.0)


def test_block_spectrum_counts_singular_blocks():
    # sinks {1, 2} and {3}; the 4-5 cycle's block is singular too, as its one edge
    # out (4, 1) is cancelled by (4, 3); node 6's block is 1 x 1 and stable
    g = SignedDigraph(6, {(1, 2): 1.0, (2, 1): 2.0, (4, 5): 1.5, (5, 4): 0.5,
                          (4, 1): 2.0, (4, 3): -2.0, (6, 4): 1.0})
    L = laplacian(g)
    values = block_spectrum(L, condensation(g))
    assert zero_multiplicity(values, matrix_scale(L)) == 3
    assert not spectrum_condition(values, matrix_scale(L))
    assert_allclose(np.sort(values.real), [0.0, 0.0, 0.0, 1.0, 2.0, 3.0], atol=1e-12)


def test_spectrum_condition():
    assert spectrum_condition(np.array([0.0, 1.0, 2 + 1j, 2 - 1j]), 1.0)
    assert not spectrum_condition(np.array([0.0, 0.0, 1.0]), 1.0)  # two zeros
    assert not spectrum_condition(np.array([0.0, -1.0, 1.0]), 1.0)  # Re < 0
    assert not spectrum_condition(np.array([0.0, 1e-3j, -1e-3j]), 1.0)  # Re = 0, off zero
    assert not spectrum_condition(np.array([1.0, 2.0]), 1.0)  # no zero
    assert spectrum_condition(np.array([5e-9, 1.0]), 10.0)  # within 1e-9 * scale
