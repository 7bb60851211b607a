from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from signedlap import (
    NumericsError,
    SignedDigraph,
    laplacian,
    matrix_scale,
    reach_decomposition,
    zero_multiplicity,
)
from signedlap.reach import _validate, condensation

from conftest import random_multi_reach_graph, random_premise_graph
from helpers import eigenvalues, permutation_matrix, reachable_set


def closure_oracle(g):
    """Boolean transitive closure by repeated squaring of the adjacency pattern."""
    A = (g.adjacency() != 0).astype(bool)
    R = A.copy()
    for _ in range(int(np.ceil(np.log2(max(g.n, 2)))) + 1):
        R = R | (R @ R)
    return R


def test_reachable_set_against_closure_oracle(reach12):
    # R(i) = {i} plus every j with a stored-orientation path j -> ... -> i
    R = closure_oracle(reach12)
    for i in range(1, 13):
        expected = {i} | {j + 1 for j in range(12) if R[j, i - 1]}
        assert reachable_set(reach12, i) == expected


def test_reachable_set_values(reach12):
    assert reachable_set(reach12, 1) == {1, 2, 8, 9, 10, 11, 12}
    assert reachable_set(reach12, 3) == {3, 4, 5, 8, 9, 10, 11, 12}
    assert reachable_set(reach12, 4) == {4, 5}
    assert reachable_set(reach12, 7) == {6, 7}
    assert reachable_set(reach12, 10) == {10, 11, 12}


def test_reachable_set_edgeless():
    g = SignedDigraph(4, {})
    assert reachable_set(g, 2) == {2}
    with pytest.raises(ValueError):
        reachable_set(g, 5)


def test_decomposition_reference(reach12):
    d = reach_decomposition(reach12)
    assert d.d == 3
    assert [sorted(r) for r in d.reaches] == [
        [1, 2, 8, 9, 10, 11, 12],
        [3, 4, 5, 8, 9, 10, 11, 12],
        [6, 7],
    ]
    assert [sorted(r) for r in d.reaching] == [[1, 2], [3], [7]]
    assert [sorted(r) for r in d.exclusive] == [[1, 2], [3, 4, 5], [6, 7]]
    assert [sorted(r) for r in d.common] == [[8, 9, 10, 11, 12], [8, 9, 10, 11, 12], []]


def test_decomposition_strongly_connected():
    g = SignedDigraph(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0})
    assert condensation(g).k == 1
    d = reach_decomposition(g)
    assert d.d == 1
    assert d.reaches[0] == d.exclusive[0] == d.reaching[0] == frozenset({1, 2, 3})
    assert d.common[0] == frozenset()


def test_decomposition_two_components():
    # a_12 means node 2 influences node 1, so node 2 is the reaching node.
    g = SignedDigraph(4, {(1, 2): 1.0, (3, 4): 1.0})
    d = reach_decomposition(g)
    assert d.d == 2
    assert [sorted(r) for r in d.reaches] == [[1, 2], [3, 4]]
    assert [sorted(r) for r in d.reaching] == [[2], [4]]
    # reaching sets carry the left kernel of L: the defining cross-check
    L = laplacian(g)
    for k, u_k in enumerate(d.reaching):
        mu = np.zeros(4)
        for i in u_k:
            mu[i - 1] = 1.0
        assert_allclose(mu @ L, 0.0, atol=1e-14)


def test_positive_only_mode():
    g = SignedDigraph(3, {(1, 2): 1.0, (2, 3): -1.0})
    assert reachable_set(g, 3) == {1, 2, 3}
    assert reachable_set(g, 3, positive_only=True) == {3}
    d_all = reach_decomposition(g)
    d_pos = reach_decomposition(g, positive_only=True)
    assert d_all.d == 1
    assert d_pos.d == 2


def test_canonical_order_block_pattern(reach12):
    d = reach_decomposition(reach12)
    # reaching nodes come first inside their exclusive block
    assert d.order == (1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 12)
    P = permutation_matrix(d)
    A = P @ reach12.adjacency() @ P.T
    _assert_block_pattern(A, d)


def _assert_block_pattern(A, d):
    """Zero pattern of the permuted adjacency: X blocks on the diagonal with
    the reaching sub-block leading, common rows last."""
    pos = {node: k for k, node in enumerate(d.order)}
    spans = []
    cursor = 0
    for k in range(d.d):
        size = len(d.exclusive[k])
        spans.append((cursor, cursor + size))
        cursor += size
    n = A.shape[0]
    for k, (lo, hi) in enumerate(spans):
        assert_allclose(A[lo:hi, :lo], 0.0, atol=0.0)
        assert_allclose(A[lo:hi, hi:], 0.0, atol=0.0)
        u = len(d.reaching[k])
        assert_allclose(A[lo:lo + u, lo + u:hi], 0.0, atol=0.0)
    assert cursor <= n  # common rows occupy the tail and may be dense


def test_block_pattern_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(15):
        g = random_multi_reach_graph(
            rng,
            blocks=int(rng.integers(2, 4)),
            block_size=int(rng.integers(1, 4)),
            commons=int(rng.integers(1, 4)),
        )
        d = reach_decomposition(g)
        P = permutation_matrix(d)
        _assert_block_pattern(P @ g.adjacency() @ P.T, d)


def test_structure_properties_random_graphs():
    rng = np.random.default_rng(34)
    for _ in range(15):
        g = random_multi_reach_graph(rng, blocks=2, block_size=int(rng.integers(1, 4)))
        d = reach_decomposition(g)
        for k in range(d.d):
            assert d.reaching[k] <= d.exclusive[k]
            assert not d.exclusive[k] & d.common[k]
            assert d.exclusive[k] == d.reaches[k] - frozenset().union(
                *(d.reaches[l] for l in range(d.d) if l != k)
            )
            if not d.common[k]:
                for (i, j) in g.edges:
                    assert (i in d.reaches[k]) == (j in d.reaches[k])


def test_reach_count_matches_kernel_dimension():
    rng = np.random.default_rng(55)
    for _ in range(10):
        g = random_multi_reach_graph(rng, blocks=int(rng.integers(2, 4)))
        L = laplacian(g)
        d = reach_decomposition(g)
        assert zero_multiplicity(eigenvalues(L), matrix_scale(L)) == d.d
    for _ in range(10):
        g = random_premise_graph(rng, int(rng.integers(3, 9)))
        L = laplacian(g)
        assert zero_multiplicity(eigenvalues(L), matrix_scale(L)) == 1
        assert reach_decomposition(g).d == 1


def test_validation_catches_inconsistency(reach12):
    d = reach_decomposition(reach12)
    labels = condensation(reach12).labels
    rows, cols = np.nonzero(reach12.adjacency())
    _validate(d, labels, rows, cols)
    fs = frozenset
    for match, bad in (
        ("escapes", replace(d, reaching=(fs({1, 2, 8}), fs({3}), fs({7})))),
        ("overlaps", replace(d, exclusive=(fs({1, 2, 8}), fs({3, 4, 5}), fs({6, 7})))),
        ("cover", replace(d, common=(fs(), fs(), fs()))),
        ("cover", replace(d, order=d.order[:-1])),
        ("reaching set 1 is not one strong component",
         replace(d, reaching=(fs({1}), fs({3}), fs({7})))),
        ("reaching set 3 is not one strong component",
         replace(d, reaching=(fs({1, 2}), fs({3}), fs()))),
    ):
        with pytest.raises(NumericsError, match=match):
            _validate(bad, labels, rows, cols)
    # an edge out of U_2 = {3} into X_2, and one from X_2 into the common set
    for i, j in ((3, 4), (4, 8)):
        with pytest.raises(NumericsError, match="zero pattern"):
            _validate(d, labels, np.append(rows, i - 1), np.append(cols, j - 1))


def test_condensation_rejects_labels_out_of_topological_order(reach12, monkeypatch):
    import signedlap.reach as reach_mod

    found = reach_mod.connected_components

    def reversed_labels(*args, **kwargs):
        k, labels = found(*args, **kwargs)
        return k, k - 1 - labels

    monkeypatch.setattr(reach_mod, "connected_components", reversed_labels)
    with pytest.raises(NumericsError, match="scipy .* topological order"):
        condensation(reach12)


def bfs_reachable_sets(g, positive_only):
    """Oracle: reachable set of every node by BFS over the reversed stored edges."""
    rev = {i: [] for i in range(1, g.n + 1)}
    for (i, j), w in g.edges.items():
        if w > 0 or not positive_only:
            rev[j].append(i)

    def closure(i):
        seen, queue = {i}, deque([i])
        while queue:
            for p in rev[queue.popleft()]:
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return frozenset(seen)

    return {i: closure(i) for i in range(1, g.n + 1)}


def bfs_decomposition(sets):
    """Oracle: reaches as the maximal reachable sets, then U/X/C and the order."""
    distinct = set(sets.values())
    maximal = [r for r in distinct if not any(r < other for other in distinct)]
    ranked = sorted(
        ((r, frozenset(i for i in sets if sets[i] == r)) for r in maximal),
        key=lambda t: (min(t[0]), min(t[1])),
    )
    reaches = tuple(r for r, _ in ranked)
    reaching = tuple(u for _, u in ranked)
    exclusive = tuple(
        r - frozenset().union(*(o for o in reaches if o is not r)) for r in reaches
    )
    common = tuple(r - x for r, x in zip(reaches, exclusive))
    order = []
    for u, x in zip(reaching, exclusive):
        order += sorted(u) + sorted(x - u)
    order += sorted(frozenset().union(*common))
    return len(reaches), reaches, reaching, exclusive, common, tuple(order)


@st.composite
def random_digraphs(draw):
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    weights = st.sampled_from([-1.5, -0.5, 0.5, 2.0])
    edges = draw(st.dictionaries(pairs, weights, max_size=3 * n)) if n > 1 else {}
    return SignedDigraph(n, edges)


@settings(max_examples=200, deadline=None)
@given(random_digraphs(), st.booleans())
def test_decomposition_matches_bfs_oracle(g, positive_only):
    sets = bfs_reachable_sets(g, positive_only)
    for i in range(1, g.n + 1):
        assert reachable_set(g, i, positive_only) == sets[i]
    d = reach_decomposition(g, positive_only=positive_only)
    assert (d.d, d.reaches, d.reaching, d.exclusive, d.common, d.order) == bfs_decomposition(sets)
