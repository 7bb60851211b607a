"""Shared fixtures: canonical graphs, random generators, and the bisection oracle."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from signedlap import (
    EdgePerturbation,
    SignedDigraph,
    helmert_basis,
    laplacian,
    parse_edge_list,
    reduced_laplacian,
    superpose,
)

from helpers import check_spectrum_condition

DATA = Path(__file__).parent / "data"


def load_graph(name: str) -> SignedDigraph:
    return parse_edge_list((DATA / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def reach12() -> SignedDigraph:
    """12-node graph with three reaches and a five-node common cluster."""
    return load_graph("reach12.txt")


@pytest.fixture(scope="session")
def reach12_uniform(reach12: SignedDigraph) -> SignedDigraph:
    """Same topology with every weight set to 2."""
    return SignedDigraph(reach12.n, {k: 2.0 for k in reach12.edges})


@pytest.fixture(scope="session")
def mixed5() -> SignedDigraph:
    """Dense 5-node signed graph satisfying the one-zero spectrum condition."""
    return load_graph("mixed5.txt")


@pytest.fixture(scope="session")
def spoked8() -> SignedDigraph:
    """8-node connected digraph with an antagonistic pair; delta* fixture."""
    return load_graph("spoked8.txt")


@pytest.fixture(scope="session")
def triangle() -> SignedDigraph:
    return load_graph("triangle.txt")


def random_premise_graph(rng: np.random.Generator, n: int) -> SignedDigraph:
    """Random connected nonnegative digraph: one zero eigenvalue, rest in Re > 0.

    A spanning in-tree toward a random root guarantees a globally reachable
    node; extra random edges densify the graph.
    """
    order = list(rng.permutation(np.arange(1, n + 1)))
    edges: dict[tuple[int, int], float] = {}
    for pos in range(1, n):
        child = int(order[pos])
        parent = int(order[rng.integers(0, pos)])
        edges[(child, parent)] = float(rng.uniform(0.5, 2.5))
    extra = rng.integers(0, 2 * n)
    for _ in range(int(extra)):
        i, j = rng.integers(1, n + 1, size=2)
        if i != j:
            edges[(int(i), int(j))] = float(rng.uniform(0.5, 2.5))
    g = SignedDigraph(n, edges)
    assert check_spectrum_condition(g), "generator must produce premise graphs"
    return g


def random_multi_reach_graph(rng: np.random.Generator,
                             blocks: int = 2,
                             block_size: int = 3,
                             commons: int = 2) -> SignedDigraph:
    """Nonnegative graph with `blocks` reaches and a shared common cluster.

    Each block is a directed cycle (strongly connected reaching set) with an
    optional tail node; common nodes sense at least two different blocks.
    """
    edges: dict[tuple[int, int], float] = {}
    next_id = 1
    block_nodes: list[list[int]] = []
    for _ in range(blocks):
        nodes = list(range(next_id, next_id + block_size))
        next_id += block_size
        block_nodes.append(nodes)
        if len(nodes) > 1:
            for a, b in zip(nodes, nodes[1:] + nodes[:1]):
                edges[(a, b)] = float(rng.uniform(0.5, 2.5))
    common_ids = list(range(next_id, next_id + commons))
    next_id += commons
    for c in common_ids:
        picked = rng.choice(blocks, size=2, replace=False)
        for b in picked:
            src = int(rng.choice(block_nodes[int(b)]))
            edges[(c, src)] = float(rng.uniform(0.5, 2.5))
    for i, c in enumerate(common_ids[1:], start=1):
        if rng.uniform() < 0.5:
            edges[(c, common_ids[i - 1])] = float(rng.uniform(0.5, 2.5))
    n = next_id - 1
    return SignedDigraph(n, edges)


def random_undirected_connected(rng: np.random.Generator, n: int) -> SignedDigraph:
    """Random connected graph with symmetric positive weights."""
    edges: dict[tuple[int, int], float] = {}
    order = list(rng.permutation(np.arange(1, n + 1)))
    for pos in range(1, n):
        a = int(order[pos])
        b = int(order[rng.integers(0, pos)])
        w = float(rng.uniform(0.5, 2.5))
        edges[(a, b)] = w
        edges[(b, a)] = w
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(1, n + 1, size=2)
        if i != j and (int(i), int(j)) not in edges:
            w = float(rng.uniform(0.5, 2.5))
            edges[(int(i), int(j))] = w
            edges[(int(j), int(i))] = w
    return SignedDigraph(n, edges)


def random_signed_digraph(rng: np.random.Generator, n: int) -> SignedDigraph:
    edges: dict[tuple[int, int], float] = {}
    m = int(rng.integers(n, 3 * n))
    for _ in range(m):
        i, j = rng.integers(1, n + 1, size=2)
        if i != j:
            w = float(rng.uniform(-2.0, 2.5))
            if abs(w) > 1e-6:
                edges[(int(i), int(j))] = w
    return SignedDigraph(n, edges)


# u = 13 has one edge out of its cycle, of weight eps: every new edge (13, v) with v
# downstream leaves the cycle's block singular, a zero coupled to the sinks' zeros
DEFECTIVE_ZERO = (
    SignedDigraph(16, {
        (1, 2): 1.7739233746429086, (2, 3): 1.0395734275277406, (3, 4): 0.5819470478723894,
        (4, 1): 0.5330552710570582, (5, 6): 2.126540478400545, (6, 7): 2.3255111545554437,
        (7, 8): 1.7132715515343597, (8, 5): 1.9589931219679968, (9, 10): 1.5872499829308457,
        (10, 11): 2.3701448475755367, (11, 12): 2.1317071082430643, (12, 9): 0.5054770003402962,
        (13, 14): 2.2148085531751387, (14, 15): 0.5671711506109287, (15, 16): 1.9593108928598881,
        (16, 13): 0.851311241205118, (13, 1): 3.0,
    }),
    3.0,
)


# weights over nine decades: the binding crossing sits at omega* ~ 4.22e-4, where Re G ~ 175.46
WIDE_WEIGHTS = """8
1 6 10440.2
2 1 8.19644
2 3 3416.39
3 5 4.74123e-05
3 7 0.00486034
4 8 17.9778
5 3 0.00436575
5 6 75928.9
6 3 0.000127354
7 5 0.000664041
8 1 8.3714
"""


def bisection_delta_star(g1: SignedDigraph, pert: EdgePerturbation, iters: int = 60) -> float:
    """Independent oracle: bisect delta on the perturbed spectrum condition.

    Bracket [0, trace(L1) + 1]; valid whenever q_uv + q_vu >= 1, since the
    Laplacian trace turns negative before the bracket top.

    The test is that the reduced Laplacian Q L Q^T (the spectrum of L less its
    structural zero) has every eigenvalue in Re > 0, with no threshold: a zero
    threshold would flip early by ZERO_TOL * scale / |d lambda / d delta|,
    which is large when the critical eigenvalue moves slowly.
    """
    hi = float(np.trace(laplacian(g1))) + 1.0
    lo = 0.0
    Q = helmert_basis(g1.n)

    def cond(delta: float) -> bool:
        moved = EdgePerturbation(pert.u, pert.v, pert.q_uv, pert.q_vu, delta)
        g = superpose(g1, moved.graph(g1.n))
        return bool(np.linalg.eigvals(reduced_laplacian(laplacian(g), Q)).real.min() > 0)

    assert cond(0.0) and not cond(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cond(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
