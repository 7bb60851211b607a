"""Reach sets, reaching/exclusive/common sets, and the canonical block order.

The reachable set of node ``i`` collects every node ``j`` that has a directed
path ``j -> ... -> i`` along the stored (sensing) orientation, plus ``i``
itself.  Equivalently, it is the set of nodes that node ``i`` influences,
directly or through intermediaries.  Both it and the reach sets below are
read off one structure, the condensation of the graph into its strongly
connected components (SCCs) with the component-reachability table.

A reach set is a maximal reachable set.  For each reach ``R_k``:

* reaching nodes ``U_k``: nodes whose reachable set is exactly ``R_k``;
* exclusive set ``X_k``: nodes of ``R_k`` that lie in no other reach;
* common set ``C_k``: the remainder ``R_k \\ X_k``.

These sets drive the block-triangular form of the adjacency (and Laplacian):
ordering nodes as ``U_1, X_1\\U_1, U_2, ..., X_d\\U_d, C`` places all
``X``-block couplings on the block diagonal with the common rows last.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import TopologicalSorter

import numpy as np

from .errors import NumericsError
from .graph import SignedDigraph, induced_subgraph


@dataclass(frozen=True)
class ReachDecomposition:
    """Reach/reaching/exclusive/common sets plus the canonical node order."""

    d: int
    reaches: tuple[frozenset[int], ...]
    reaching: tuple[frozenset[int], ...]
    exclusive: tuple[frozenset[int], ...]
    common: tuple[frozenset[int], ...]
    order: tuple[int, ...]  # node placed at block position k+1, 1-indexed ids


@dataclass(frozen=True)
class Condensation:
    """Strongly connected components and which component reaches which.

    ``labels[i - 1]`` is the component of node ``i``; ``closure[a, b]`` is
    True when a path of stored edges leads from component ``a`` to component
    ``b`` (so ``b`` influences ``a``), and every component reaches itself.
    Ordered by the components, the Laplacian is block triangular with the
    components' diagonal blocks.
    """

    labels: np.ndarray  # shape (n,)
    closure: np.ndarray  # shape (k, k), bool

    @property
    def k(self) -> int:
        return self.closure.shape[0]


def _strong_components(
    g: SignedDigraph, positive_only: bool
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """SCC count and labels, plus the kept edges as 0-based endpoint arrays."""
    # imported here so the subcommands that never walk the graph skip scipy.sparse.csgraph
    import scipy.sparse
    from scipy.sparse.csgraph import connected_components

    keys = [key for key, w in g.edges.items() if w > 0 or not positive_only]
    rows = np.array([i for i, _ in keys], dtype=np.intp) - 1
    cols = np.array([j for _, j in keys], dtype=np.intp) - 1
    adjacency = scipy.sparse.csr_matrix((np.ones(len(keys)), (rows, cols)), shape=(g.n, g.n))
    k, labels = connected_components(adjacency, directed=True, connection="strong")
    return k, labels, rows, cols


def condensation(g: SignedDigraph, positive_only: bool = False) -> Condensation:
    """SCCs of the stored edges (Tarjan's condensation) and their reachability.

    Edge existence is sign-agnostic by default; ``positive_only=True`` keeps
    positive edges only.  The closure is built in one pass over the
    components in reverse topological order, each row the union of its
    successors' rows.
    """
    k, labels, rows, cols = _strong_components(g, positive_only)
    succ: list[set[int]] = [set() for _ in range(k)]
    for a, b in zip(labels[rows].tolist(), labels[cols].tolist()):
        if a != b:
            succ[a].add(b)
    closure = np.eye(k, dtype=bool)
    # successors are listed as predecessors, so every component comes after its successors
    for c in TopologicalSorter(dict(enumerate(succ))).static_order():
        for b in succ[c]:
            closure[c] |= closure[b]
    return Condensation(labels=labels, closure=closure)


def _nodes(mask: np.ndarray) -> frozenset[int]:
    return frozenset((np.flatnonzero(mask) + 1).tolist())


def reachable_set(g: SignedDigraph, i: int, positive_only: bool = False) -> frozenset[int]:
    """Nodes with a stored-orientation path into ``i`` (the nodes ``i`` influences).

    Edge existence is sign-agnostic by default; ``positive_only=True`` walks
    positive edges only.
    """
    if not (1 <= i <= g.n):
        raise ValueError(f"node {i} out of range 1..{g.n}")
    cond = condensation(g, positive_only)
    return _nodes(cond.closure[cond.labels, cond.labels[i - 1]])


def reach_decomposition(g: SignedDigraph, positive_only: bool = False) -> ReachDecomposition:
    """Compute all reach sets and the derived U/X/C partition.

    Each sink component of the condensation (no stored edge leaves it) is a
    reaching set U_k, and its reach R_k holds every node whose component
    reaches that sink.  Reaches are ordered by their smallest member, ties
    broken by the smallest reaching node; the canonical order lists each
    exclusive block with its reaching nodes first, then the union of the
    common sets, ascending ids inside every group.
    """
    cond = condensation(g, positive_only)
    sinks = np.flatnonzero(cond.closure.sum(axis=1) == 1)
    hits = cond.closure[np.ix_(cond.labels, sinks)]  # hits[i, k]: node i + 1 lies in R_k
    shared = hits.sum(axis=1) > 1
    sets = sorted(
        (
            (_nodes(hits[:, k]), _nodes(cond.labels == s),
             _nodes(hits[:, k] & ~shared), _nodes(hits[:, k] & shared))
            for k, s in enumerate(sinks)
        ),
        key=lambda t: (min(t[0]), min(t[1])),
    )
    reaches, reaching, exclusive, common = zip(*sets)
    d = len(reaches)

    order: list[int] = []
    for k in range(d):
        order.extend(sorted(reaching[k]))
        order.extend(sorted(exclusive[k] - reaching[k]))
    all_common: set[int] = set()
    for c in common:
        all_common |= c
    order.extend(sorted(all_common))

    decomp = ReachDecomposition(
        d=d,
        reaches=reaches,
        reaching=reaching,
        exclusive=exclusive,
        common=common,
        order=tuple(order),
    )
    _validate(g, decomp, positive_only)
    return decomp


def permutation_matrix(decomp: ReachDecomposition) -> np.ndarray:
    """P such that P A P^T is the block form (position k reads node order[k])."""
    n = len(decomp.order)
    P = np.zeros((n, n))
    for pos, node in enumerate(decomp.order):
        P[pos, node - 1] = 1.0
    return P


def is_strongly_connected(g: SignedDigraph) -> bool:
    """Every node reachable from every other along stored edges (sign-agnostic)."""
    return _strong_components(g, positive_only=False)[0] == 1


def _validate(g: SignedDigraph, decomp: ReachDecomposition, positive_only: bool) -> None:
    """Structural sanity checks applied to every computed decomposition."""
    n = g.n
    edges = (
        {k for k, w in g.edges.items() if w > 0} if positive_only else set(g.edges)
    )
    covered: set[int] = set()
    for k in range(decomp.d):
        u_k, x_k, c_k = decomp.reaching[k], decomp.exclusive[k], decomp.common[k]
        if not u_k <= x_k:
            raise NumericsError(f"reach {k + 1}: reaching nodes escape the exclusive set")
        if x_k & c_k:
            raise NumericsError(f"reach {k + 1}: exclusive and common sets overlap")
        for i in u_k:
            for j in x_k - u_k:
                if (i, j) in edges:
                    raise NumericsError(f"edge ({i}, {j}) violates the reaching-block zero pattern")
        for p in x_k:
            for m in c_k:
                if (p, m) in edges:
                    raise NumericsError(f"edge ({p}, {m}) violates the exclusive/common zero pattern")
        sub = induced_subgraph(g, sorted(u_k))
        if positive_only:
            pos = {kk: w for kk, w in sub.edges.items() if w > 0}
            sub = SignedDigraph(sub.n, pos)
        if not is_strongly_connected(sub):
            raise NumericsError(f"reaching set {k + 1} is not strongly connected")
        covered |= x_k | c_k
    if covered != set(range(1, n + 1)) or len(decomp.order) != n:
        raise NumericsError("decomposition does not cover the node set")
