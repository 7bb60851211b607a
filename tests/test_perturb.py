import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from signedlap import (
    PremiseError,
    SignedDigraph,
    laplacian,
    matrix_scale,
    null_basis,
    reach_decomposition,
    sensitive_pairs,
    superpose,
    verify_sensitive_pairs,
)
from signedlap import perturb
from signedlap.graph import CANCEL_TOL
from signedlap.perturb import (
    CLASS_COND1,
    CLASS_COND2,
    SIGN_NEGATIVE,
)
from signedlap.spectral import ZERO_TOL

from conftest import DEFECTIVE_ZERO, load_graph, random_multi_reach_graph
from helpers import (
    CLASS_OTHER,
    CLASS_REMARK4A,
    CLASS_REMARK4B,
    SIGN_ZERO,
    PairClassification,
    classify_pair,
    eigenvalues,
    first_order_zero_eigenvalues,
    match_predictions,
    theta_matrix,
    zero_group,
)


@pytest.fixture(scope="module")
def uniform_decomp(reach12_uniform):
    return reach_decomposition(reach12_uniform)


@pytest.fixture(scope="module")
def uniform_basis(reach12_uniform, uniform_decomp):
    return null_basis(laplacian(reach12_uniform), uniform_decomp)


def test_classify_reference_pairs(uniform_decomp):
    cases = {
        (1, 4): (CLASS_COND1, SIGN_NEGATIVE),
        (7, 9): (CLASS_COND2, SIGN_NEGATIVE),
        (3, 4): (CLASS_REMARK4A, SIGN_ZERO),
        (7, 6): (CLASS_REMARK4A, SIGN_ZERO),
        (6, 5): (CLASS_REMARK4B, SIGN_ZERO),
        (4, 8): (CLASS_REMARK4B, SIGN_ZERO),
        (8, 9): (CLASS_REMARK4B, SIGN_ZERO),  # common-to-common straddles reaches
        (6, 7): (CLASS_OTHER, SIGN_ZERO),  # non-reaching source, own reach only
    }
    for (u, v), (kind, sign) in cases.items():
        got = classify_pair(uniform_decomp, u, v)
        assert (got.kind, got.theta_sign) == (kind, sign), (u, v)
    with pytest.raises(ValueError):
        classify_pair(uniform_decomp, 3, 3)


def test_theta_reference_signs(reach12_uniform, uniform_decomp, uniform_basis):
    # reaching -> other exclusive: strictly negative diagonal entry
    g2 = SignedDigraph(12, {(7, 4): -1.0})
    theta = theta_matrix(reach12_uniform, uniform_decomp, uniform_basis, g2)
    assert theta[2, 2] < -1e-12
    # reaching -> own exclusive: exact zero
    g2 = SignedDigraph(12, {(3, 4): -1.0})
    theta = theta_matrix(reach12_uniform, uniform_decomp, uniform_basis, g2)
    assert theta[1, 1] == pytest.approx(0.0, abs=1e-12)
    # source off every reaching set: whole diagonal vanishes
    g2 = SignedDigraph(12, {(4, 8): -1.0, (6, 5): -1.0})
    theta = theta_matrix(reach12_uniform, uniform_decomp, uniform_basis, g2)
    assert_allclose(np.diag(theta), 0.0, atol=1e-12)


def test_theta_premise_checks(reach12_uniform, uniform_decomp, uniform_basis, mixed5):
    with pytest.raises(PremiseError):
        theta_matrix(reach12_uniform, uniform_decomp, uniform_basis,
                     SignedDigraph(12, {(1, 2): -1.0}))  # existing edge
    with pytest.raises(PremiseError):
        theta_matrix(reach12_uniform, uniform_decomp, uniform_basis,
                     SignedDigraph(12, {(1, 4): 1.0}))  # positive weight
    d5 = reach_decomposition(mixed5)
    with pytest.raises(PremiseError):
        theta_matrix(mixed5, d5, uniform_basis, SignedDigraph(5, {(1, 3): -1.0}))


def test_theta_basis_biorthogonal(uniform_basis):
    assert_allclose(
        uniform_basis.mus @ uniform_basis.gammas.T, np.eye(3), atol=1e-9
    )


def test_theta_sign_table_random():
    """Single-edge perturbations across random graphs follow the sign table."""
    rng = np.random.default_rng(37)
    done = 0
    while done < 30:
        g1 = random_multi_reach_graph(
            rng, blocks=int(rng.integers(2, 4)), block_size=int(rng.integers(1, 4))
        )
        decomp = reach_decomposition(g1)
        basis = null_basis(laplacian(g1), decomp)
        u, v = rng.integers(1, g1.n + 1, size=2)
        u, v = int(u), int(v)
        if u == v or (u, v) in g1.edges:
            continue
        g2 = SignedDigraph(g1.n, {(u, v): -float(rng.uniform(0.1, 2.0))})
        theta = theta_matrix(g1, decomp, basis, g2)
        for i in range(decomp.d):
            if u not in decomp.reaching[i]:
                assert theta[i, i] == pytest.approx(0.0, abs=1e-12)
            elif v in decomp.exclusive[i]:
                assert theta[i, i] == pytest.approx(0.0, abs=1e-12)
            else:
                assert theta[i, i] < -1e-12
        done += 1


def test_theta_trace_nonpositive_strict_iff_sensitive():
    rng = np.random.default_rng(41)
    done = 0
    while done < 20:
        g1 = random_multi_reach_graph(rng, blocks=2, block_size=int(rng.integers(1, 4)))
        decomp = reach_decomposition(g1)
        basis = null_basis(laplacian(g1), decomp)
        edges = {}
        for _ in range(int(rng.integers(1, 4))):
            u, v = rng.integers(1, g1.n + 1, size=2)
            u, v = int(u), int(v)
            if u != v and (u, v) not in g1.edges:
                edges[(u, v)] = -float(rng.uniform(0.1, 1.0))
        if not edges:
            continue
        g2 = SignedDigraph(g1.n, edges)
        theta = theta_matrix(g1, decomp, basis, g2)
        trace = float(np.trace(theta))
        assert trace <= 1e-12
        sensitive = any(
            classify_pair(decomp, u, v).kind in (CLASS_COND1, CLASS_COND2)
            for (u, v) in edges
        )
        if sensitive:
            assert trace < -1e-12
        else:
            assert trace == pytest.approx(0.0, abs=1e-12)
        done += 1


def test_first_order_prediction_reference(reach12_uniform, uniform_decomp, uniform_basis):
    g2 = SignedDigraph(12, {(7, 9): -1.0, (1, 4): -1.0})
    theta = theta_matrix(reach12_uniform, uniform_decomp, uniform_basis, g2)
    assert first_order_zero_eigenvalues(theta, 0.0) == pytest.approx([0.0, 0.0, 0.0])
    eps = 1e-4
    predicted = first_order_zero_eigenvalues(theta, eps)
    scaled = SignedDigraph(12, {k: eps * w for k, w in g2.edges.items()})
    exact = eigenvalues(laplacian(superpose(reach12_uniform, scaled)))
    err = match_predictions(predicted, zero_group(exact, 3))
    assert err < 1e-9 + 100 * eps**2
    assert np.sum(predicted.real < -1e-12) == 2


def test_first_order_error_shrinks_linearly():
    rng = np.random.default_rng(43)
    done = 0
    while done < 6:
        g1 = random_multi_reach_graph(rng, blocks=2, block_size=int(rng.integers(2, 4)))
        decomp = reach_decomposition(g1)
        basis = null_basis(laplacian(g1), decomp)
        u, v = rng.integers(1, g1.n + 1, size=2)
        u, v = int(u), int(v)
        if u == v or (u, v) in g1.edges:
            continue
        g2 = SignedDigraph(g1.n, {(u, v): -1.0})
        theta = theta_matrix(g1, decomp, basis, g2)
        errors = []
        for eps in (1e-4, 1e-5, 1e-6):
            predicted = first_order_zero_eigenvalues(theta, eps)
            scaled = SignedDigraph(g1.n, {k: eps * w for k, w in g2.edges.items()})
            exact = eigenvalues(laplacian(superpose(g1, scaled)))
            errors.append(match_predictions(predicted, zero_group(exact, decomp.d)))
        for bigger, smaller in zip(errors, errors[1:]):
            if bigger > 1e-12:
                assert smaller <= bigger / 5.0
        done += 1


def listed_classes(uv, cond1):
    """``sensitive_pairs``' arrays as one ``PairClassification`` per listed pair."""
    return [PairClassification(u, v, CLASS_COND1 if c1 else CLASS_COND2, SIGN_NEGATIVE)
            for (u, v), c1 in zip(uv.tolist(), cond1.tolist())]


def test_sensitive_pairs_reference(reach12_uniform):
    pairs = {(p.u, p.v): p.kind for p in listed_classes(*sensitive_pairs(reach12_uniform))}
    assert pairs[(1, 4)] == CLASS_COND1
    assert pairs[(7, 9)] == CLASS_COND2
    for absent in ((3, 4), (7, 6), (6, 5), (4, 8)):
        assert absent not in pairs
    for existing in reach12_uniform.edges:
        assert existing not in pairs


def test_sensitive_pairs_two_cycles():
    g = SignedDigraph(4, {(1, 2): 1.0, (2, 1): 1.0, (3, 4): 1.0, (4, 3): 1.0})
    pairs = listed_classes(*sensitive_pairs(g))
    got = {(p.u, p.v) for p in pairs}
    expected = {(u, v) for u in (1, 2) for v in (3, 4)} | {
        (u, v) for u in (3, 4) for v in (1, 2)
    }
    assert got == expected
    for p in pairs:
        assert p.kind == CLASS_COND1
        assert verify_sensitive_pairs(g, [(p.u, p.v)], eps=1e-6) == [True]


@st.composite
def chained_multi_reach_graphs(draw):
    """Nonnegative multi-reach graph with commons, plus a few random edges.

    An extra edge out of a reaching cycle chains its component to another
    one, which can move nodes between the reaching, exclusive and common sets
    or leave a single reach.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_multi_reach_graph(
        rng,
        blocks=draw(st.integers(2, 5)),
        block_size=draw(st.integers(1, 5)),
        commons=draw(st.integers(1, 6)),
    )
    edges = dict(g.edges)
    nodes = st.integers(1, g.n)
    for u, v in draw(st.lists(st.tuples(nodes, nodes), max_size=4)):
        if u != v:
            edges[(u, v)] = float(rng.uniform(0.5, 2.5))
    return SignedDigraph(g.n, edges)


@settings(max_examples=100, deadline=None)
@given(chained_multi_reach_graphs())
def test_sensitive_pairs_match_classify_pair(g):
    decomp = reach_decomposition(g)
    if decomp.d < 2:
        with pytest.raises(PremiseError):
            sensitive_pairs(g)
        return
    want = [
        cls
        for u in range(1, g.n + 1)
        for v in range(1, g.n + 1)
        if u != v and (u, v) not in g.edges
        for cls in [classify_pair(decomp, u, v)]
        if cls.kind in (CLASS_COND1, CLASS_COND2)
    ]
    uv, cond1 = sensitive_pairs(g)
    assert uv.dtype.kind == "i" and uv.shape == (len(want), 2) and cond1.dtype == bool
    assert listed_classes(uv, cond1) == want


def test_sensitive_pairs_single_reach_errors():
    g = SignedDigraph(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0})
    with pytest.raises(PremiseError):
        sensitive_pairs(g)


def test_verify_sensitivity_reference(reach12_uniform):
    for pair in ((1, 4), (7, 9)):
        assert verify_sensitive_pairs(reach12_uniform, [pair], eps=1e-4) == [True]
    for pair in ((3, 4), (7, 6), (6, 5), (4, 8)):
        assert verify_sensitive_pairs(reach12_uniform, [pair], eps=1e-4) == [False]


def test_large_negative_weights_flip_insensitive_pairs(reach12_uniform):
    """First-order-silent pairs can still destabilize at finite magnitude."""
    edges = {(u, v): -2.0 for (u, v) in ((3, 4), (7, 6), (6, 5), (4, 8))}
    g = superpose(reach12_uniform, SignedDigraph(12, edges))
    values = eigenvalues(laplacian(g))
    thr = ZERO_TOL * max(matrix_scale(laplacian(g)), 1.0)
    assert np.sum(values.real < -thr) == 4


def dense_verified(g1, u, v, eps):
    """Oracle: dense eigensolves of the base Laplacian with -eps added on (u, v).

    The spectrum is read off the diagonal blocks of the perturbed graph's own
    SCCs, found here by boolean squaring of its reachability matrix.  One
    eigensolve of the whole matrix has the same values in exact arithmetic,
    but a zero eigenvalue shared by two coupled blocks is defective, and the
    whole-matrix solve moves it by about sqrt(machine eps) * ||L||, past the
    zero threshold.
    """
    A = g1.adjacency()
    A[u - 1, v - 1] -= eps
    if abs(A[u - 1, v - 1]) < CANCEL_TOL:
        A[u - 1, v - 1] = 0.0
    L = np.diag(A.sum(axis=1)) - A
    reach = (A != 0) | np.eye(g1.n, dtype=bool)
    for _ in range(g1.n.bit_length()):
        reach |= (reach.astype(int) @ reach.astype(int)) > 0
    sccs = np.unique(reach & reach.T, axis=0)  # one membership row per SCC
    values = np.concatenate([np.linalg.eigvals(L[np.ix_(m, m)]) for m in sccs])
    thr = ZERO_TOL * max(np.abs(L).sum(axis=1).max(), 1.0)
    return bool(np.any(values.real < -thr))


@st.composite
def perturbed_bases(draw):
    """Multi-reach base graph, maybe signed, maybe with an edge of weight eps.

    A few extra edges chain components together, so that a test edge can
    merge several SCCs into one block.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_multi_reach_graph(
        rng,
        blocks=draw(st.integers(2, 5)),
        block_size=draw(st.integers(1, 5)),
        commons=draw(st.integers(0, 6)),
    )
    eps = draw(st.sampled_from([1e-6, 1e-4, 0.3, 3.0]))
    edges = dict(g.edges)
    nodes = st.integers(1, g.n)
    for u, v in draw(st.lists(st.tuples(nodes, nodes), max_size=3)):
        if u != v:
            edges[(u, v)] = float(rng.uniform(0.5, 2.5))
    keys = sorted(edges)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else []:
        edges[key] = -edges[key]
    if keys and draw(st.booleans()):
        edges[draw(st.sampled_from(keys))] = eps  # -eps on this pair cancels it exactly
    return SignedDigraph(g.n, edges), eps


@settings(max_examples=100, deadline=None)
@given(perturbed_bases())
@example(DEFECTIVE_ZERO)
def test_verify_sensitive_pairs_matches_dense_eigensolve(case):
    g1, eps = case
    pairs = [(u, v) for u in range(1, g1.n + 1) for v in range(1, g1.n + 1) if u != v]
    got = verify_sensitive_pairs(g1, pairs, eps)
    assert got == [dense_verified(g1, u, v, eps) for u, v in pairs]


def test_verify_sensitive_pairs_rejects_bad_input(reach12_uniform):
    for eps in (0.0, -1e-4, float("nan"), float("inf"), 1e-13):
        with pytest.raises(ValueError, match="eps"):
            verify_sensitive_pairs(reach12_uniform, [(1, 4)], eps)
    for pair in ((3, 3), (0, 4), (1, 13)):
        with pytest.raises(ValueError, match="pair"):
            verify_sensitive_pairs(reach12_uniform, [pair])


def ordered_pairs(g):
    return [(u, v) for u in range(1, g.n + 1) for v in range(1, g.n + 1) if u != v]


# verdicts of both kinds; DEFECTIVE_ZERO's pairs also merge several components
VERIFY_CASES = {"reach12": (load_graph("reach12.txt"), 1e-4), "defective_zero": DEFECTIVE_ZERO}


def test_verify_sensitive_pairs_of_no_pairs(reach12):
    assert verify_sensitive_pairs(reach12, [], 1e-4) == []


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_sensitive_pairs_do_not_depend_on_the_chunk(monkeypatch, name, chunk):
    g, eps = VERIFY_CASES[name]
    pairs = ordered_pairs(g)
    want = verify_sensitive_pairs(g, pairs, eps)
    assert set(want) == {True, False}
    monkeypatch.setattr(perturb, "VERIFY_CHUNK", chunk)
    assert verify_sensitive_pairs(g, pairs, eps) == want


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_sensitive_pairs_do_not_depend_on_order_or_repeats(name):
    g, eps = VERIFY_CASES[name]
    pairs = ordered_pairs(g)
    want = dict(zip(pairs, verify_sensitive_pairs(g, pairs, eps)))
    rng = np.random.default_rng(11)
    drawn = [pairs[k] for k in rng.integers(0, len(pairs), 3 * len(pairs))]
    assert len(set(drawn)) < len(drawn)
    assert verify_sensitive_pairs(g, drawn, eps) == [want[p] for p in drawn]


def test_verify_sensitive_pairs_name_a_bad_pair_after_valid_ones(reach12_uniform):
    valid = [(1, 4), (7, 9), (3, 4)]
    for bad in ((5, 5), (2, 0), (13, 1)):
        with pytest.raises(ValueError, match=re.escape(f"pair {bad}")):
            verify_sensitive_pairs(reach12_uniform, [*valid, bad, (6, 5)])
    with pytest.raises(ValueError, match=re.escape("pair (0, 4)")):
        verify_sensitive_pairs(reach12_uniform, [*valid, (0, 4), (3, 3)])


def test_verify_sensitive_pairs_take_the_listed_array(reach12):
    uv, _ = sensitive_pairs(reach12)
    assert verify_sensitive_pairs(reach12, uv) == verify_sensitive_pairs(reach12, uv.tolist())
    assert verify_sensitive_pairs(reach12, uv[:0]) == []


def test_verify_sensitive_pairs_refuse_an_eps_that_overflows_a_row_sum(reach12):
    # -1e308 on (u, v) moves both |L'[u, u]| and |L'[u, v]| to about 1e308, whose sum is inf
    with pytest.raises(ValueError, match="eps = 1e[+]308 overflows"):
        verify_sensitive_pairs(reach12, [(1, 4), (7, 9)], 1e308)


def test_verify_sensitive_pairs_at_a_huge_finite_eps(reach12):
    uv, _ = sensitive_pairs(reach12)
    assert len(uv) == 39
    assert all(verify_sensitive_pairs(reach12, uv, 1e300))


def test_verify_sensitive_pairs_reject_pairs_that_are_not_integer_node_ids(reach12_uniform):
    for pairs in ([(1.5, 4)], [("1", 4)], [(1, 10**30)], [(1, 4, 5)]):
        with pytest.raises(ValueError, match="pair"):
            verify_sensitive_pairs(reach12_uniform, pairs)
