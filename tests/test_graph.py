import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from signedlap import (
    EdgePerturbation,
    GraphFormatError,
    PremiseError,
    SignedDigraph,
    laplacian,
    matrix_scale,
    parse_edge_list,
    superpose,
)

from conftest import random_signed_digraph
from helpers import split_signs


def test_parse_reference_graph(reach12):
    assert reach12.n == 12
    assert len(reach12.edges) == 15
    assert reach12.weight(1, 2) == 2
    assert reach12.weight(2, 1) == 1
    assert reach12.weight(10, 12) == 12
    assert reach12.weight(12, 10) == 10
    assert reach12.weight(2, 3) == 0.0


def test_parse_edgeless():
    g = parse_edge_list("2\n")
    assert g.n == 2
    assert not g.edges


def test_parse_comments_and_crlf():
    g = parse_edge_list("# header\r\n3 # count\r\n1 2 5 # edge\r\n\r\n2 3 -1\r\n")
    assert g.n == 3
    assert g.weight(1, 2) == 5
    assert g.weight(2, 3) == -1


@pytest.mark.parametrize(
    "text, expected",  # expected: the message's "line N: " prefix and a fragment of the rest
    [
        pytest.param(text, expected, id=text)
        for text, expected in [
            ("3\n1 1 5\n", ("line 2: ", "self-loop on node 1")),
            ("3\n1 2 5\n1 2 3\n", ("line 3: ", "duplicate edge (1, 2)")),
            ("3\n1 4 5\n", ("line 2: ", "edge (1, 4) out of range 1..3")),
            ("3\n1 2 0\n", ("line 2: ", "zero or non-finite weight 0.0")),
            ("3\n1 2\n", ("line 2: ", "expected 'i j w'")),  # malformed
            ("3\nx 2 1\n", ("line 2: ", "expected 'i j w'")),  # malformed ids
            ("", ("", "missing node count")),
            ("0\n", ("line 1: ", "node count must be >= 1")),
            ("3\n1 2 1e400\n", ("line 2: ", "non-finite weight inf")),
            ("3\n1 2 nan\n", ("line 2: ", "non-finite weight nan")),
            (f"3\n1 {10**25} 1\n", ("line 2: ", f"edge (1, {10**25}) out of range 1..3")),
            # comments and blank lines count: the bad weight sits on line 6
            ("# graph\n\n3 # nodes\n1 2 1\n\n2 3 0\n3 1 1\n", ("line 6: ", "edge (2, 3)")),
            ("\n# no count yet\n0\n1 2 1\n", ("line 3: ", "node count must be >= 1")),
        ]
    ],
)
def test_parse_rejects(text, expected):
    prefix, fragment = expected
    with pytest.raises(GraphFormatError) as info:
        parse_edge_list(text)
    message = str(info.value)
    assert message.startswith(prefix) and not message[len(prefix):].startswith("line ")
    assert fragment in message


def test_laplacian_single_edge():
    g = SignedDigraph(2, {(1, 2): 3.0})
    assert_allclose(laplacian(g), [[3.0, -3.0], [0.0, 0.0]])


def test_laplacian_edgeless():
    assert_allclose(laplacian(SignedDigraph(3, {})), np.zeros((3, 3)))


@pytest.mark.parametrize("edges, node", [
    ({(1, 2): 1.7e308, (1, 3): 1.7e308}, 1),
    ({(1, 2): 1.0, (3, 1): -1.7e308, (3, 2): -1.7e308}, 3),
])
def test_laplacian_refuses_an_overflowing_degree(edges, node):
    # pytest turns a RuntimeWarning into an error, so this also checks that the sum warns nothing
    with pytest.raises(GraphFormatError, match=f"out-degree of node {node} overflows float64"):
        laplacian(SignedDigraph(3, edges))


def test_laplacian_at_the_largest_finite_degree():
    L = laplacian(SignedDigraph(2, {(1, 2): 1.7e308, (2, 1): -1.7e308}))
    assert np.isfinite(L).all() and (L @ np.ones(2) == 0.0).all()


def test_matrix_scale_refuses_an_overflowing_row_sum():
    # finite entries, but |d_1| + |a_12| = 3.4e308: no threshold can scale with the norm
    L = laplacian(SignedDigraph(2, {(1, 2): 1.7e308, (2, 1): -1.7e308}))
    with pytest.raises(GraphFormatError, match="absolute sum of row 1 overflows float64"):
        matrix_scale(L)


def test_laplacian_rows_sum_to_zero():
    # the diagonal is recomputed from the weights, so row sums vanish to
    # within a few ulp of the row magnitude (bitwise zero is not attainable
    # once an independent summation order re-adds the entries)
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_signed_digraph(rng, int(rng.integers(2, 9)))
        L = laplacian(g)
        scale = max(1.0, np.abs(L).sum(axis=1).max())
        assert_allclose(L @ np.ones(g.n), 0.0, atol=1e-13 * scale)


def test_superpose_cancellation():
    a = SignedDigraph(2, {(1, 2): 2.0})
    b = SignedDigraph(2, {(1, 2): -2.0})
    assert not superpose(a, b).edges


def test_superpose_disjoint():
    a = SignedDigraph(2, {(1, 2): 2.0})
    b = SignedDigraph(2, {(2, 1): -1.0})
    c = superpose(a, b)
    assert c.weight(1, 2) == 2.0
    assert c.weight(2, 1) == -1.0


def test_superpose_mismatch():
    with pytest.raises(ValueError):
        superpose(SignedDigraph(2, {}), SignedDigraph(3, {}))


def test_superpose_matches_matrix_addition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g1 = random_signed_digraph(rng, 6)
        g2 = random_signed_digraph(rng, 6)
        assert_allclose(
            laplacian(superpose(g1, g2)), laplacian(g1) + laplacian(g2), atol=1e-12
        )


def test_superpose_commutative_associative():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g1, g2, g3 = (random_signed_digraph(rng, 5) for _ in range(3))
        ab = superpose(g1, g2)
        ba = superpose(g2, g1)
        assert dict(ab.edges) == pytest.approx(dict(ba.edges))
        left = superpose(superpose(g1, g2), g3)
        right = superpose(g1, superpose(g2, g3))
        assert set(left.edges) == set(right.edges)
        for k in left.edges:
            assert left.edges[k] == pytest.approx(right.edges[k], abs=1e-12)


def test_split_signs_basic():
    g = SignedDigraph(2, {(1, 2): 2.0, (2, 1): -1.0})
    pos, neg = split_signs(g)
    assert dict(pos.edges) == {(1, 2): 2.0}
    assert dict(neg.edges) == {(2, 1): -1.0}


def test_split_signs_all_positive(reach12):
    pos, neg = split_signs(reach12)
    assert dict(pos.edges) == dict(reach12.edges)
    assert not neg.edges


def test_split_signs_mixed5(mixed5):
    _, neg = split_signs(mixed5)
    assert dict(neg.edges) == {(3, 1): -1.0, (3, 5): -0.8, (4, 2): -0.3, (4, 5): -2.0}


def test_split_then_superpose_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_signed_digraph(rng, 6)
        pos, neg = split_signs(g)
        back = superpose(pos, neg)
        assert dict(back.edges) == dict(g.edges)


def test_parse_refuses_oversized_node_count():
    assert parse_edge_list("11585\n").n == 11585  # an 8 * 11585^2-byte Laplacian fits
    for n in (11586, 10**9):
        with pytest.raises(PremiseError, match="MAX_LAPLACIAN_BYTES"):
            parse_edge_list(f"{n}\n1 2 1\n")


def test_graph_refuses_oversized_node_count():
    assert SignedDigraph(11585, {}).n == 11585
    for n in (11586, 10**5):  # 10**5 nodes would need a 74.5 GiB Laplacian
        with pytest.raises(PremiseError, match="MAX_LAPLACIAN_BYTES"):
            SignedDigraph(n, {})


def test_graph_validation():
    with pytest.raises(GraphFormatError):
        SignedDigraph(2, {(1, 1): 1.0})
    with pytest.raises(GraphFormatError):
        SignedDigraph(2, {(1, 3): 1.0})
    with pytest.raises(GraphFormatError):
        SignedDigraph(2, {(1, 2): 0.0})


def test_graph_refuses_non_integer_node_count_and_ids():
    for n in (2.5, "3", np.float64(3.0)):
        with pytest.raises(GraphFormatError, match=re.escape(f"got {n!r}")):
            SignedDigraph(n, {})
    for key, bad in ((("1", 2), "'1'"), ((1, 2.0), "2.0"), ((1.5, 2), "1.5")):
        message = f"node id must be an integer, got {re.escape(bad)}$"
        with pytest.raises(GraphFormatError, match=message) as info:
            SignedDigraph(3, {key: 1.0})
        assert info.value.edge == key
    g = SignedDigraph(np.int64(3), {(np.int64(1), np.int32(2)): 1.0, (np.uint8(3), 1): 2.0})
    assert (g.n, dict(g.edges)) == (3, {(1, 2): 1.0, (3, 1): 2.0})
    assert all(type(i) is int for key in g.edges for i in (g.n, *key))


def test_edge_perturbation():
    with pytest.raises(ValueError):
        EdgePerturbation(1, 1)
    with pytest.raises(ValueError):
        EdgePerturbation(1, 2, q_uv=0.0, q_vu=0.0)
    with pytest.raises(ValueError):
        EdgePerturbation(1, 2, q_uv=-1.0)
    for field in ("q_uv", "q_vu", "delta"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=field):
                EdgePerturbation(1, 2, **{field: bad})
    pert = EdgePerturbation(1, 2, q_uv=1.0, q_vu=0.5, delta=2.0)
    g = pert.graph(3)
    assert dict(g.edges) == {(1, 2): -2.0, (2, 1): -1.0}
    assert not EdgePerturbation(1, 2, delta=0.0).graph(3).edges
