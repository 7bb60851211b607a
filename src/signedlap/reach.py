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

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from .errors import NumericsError
from .graph import SignedDigraph


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


def _edges(g: SignedDigraph, positive_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """The kept stored edges as 0-based endpoint arrays."""
    keys = [key for key, w in g.edges.items() if w > 0 or not positive_only]
    rows, cols = np.array(keys, dtype=np.intp).reshape(-1, 2).T - 1
    return rows, cols


def _condense(n: int, rows: np.ndarray, cols: np.ndarray) -> Condensation:
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    adjacency = scipy.sparse.csr_array((np.ones(len(rows)), cols[order], indptr), shape=(n, n))
    k, labels = connected_components(adjacency, directed=True, connection="strong")
    # scipy labels the components in reverse topological order (an edge between two leads
    # to the lower label), so in ascending label order each row's successors come first
    a, b = labels[rows], labels[cols]
    if np.any(a < b):
        raise NumericsError(
            f"scipy {scipy.__version__} numbered the strong components out of topological order"
        )
    pairs = np.unique((a * k + b)[a != b])  # one per linked pair of components, ascending a
    closure = np.eye(k, dtype=bool)
    for c, s in zip((pairs // k).tolist(), (pairs % k).tolist()):
        closure[c] |= closure[s]
    return Condensation(labels=labels, closure=closure)


def condensation(g: SignedDigraph, positive_only: bool = False) -> Condensation:
    """SCCs of the stored edges (Tarjan's condensation) and their reachability.

    Edge existence is sign-agnostic by default; ``positive_only=True`` keeps
    positive edges only.
    """
    return _condense(g.n, *_edges(g, positive_only))


def _nodes(mask: np.ndarray) -> frozenset[int]:
    return frozenset((np.flatnonzero(mask) + 1).tolist())


def reach_decomposition(g: SignedDigraph, positive_only: bool = False,
                        cond: Condensation | None = None) -> ReachDecomposition:
    """Compute all reach sets and the derived U/X/C partition.

    Each sink component of the condensation (no stored edge leaves it) is a
    reaching set U_k, and its reach R_k holds every node whose component
    reaches that sink.  Reaches are ordered by their smallest member, ties
    broken by the smallest reaching node; the canonical order lists each
    exclusive block with its reaching nodes first, then the union of the
    common sets, ascending ids inside every group.

    ``cond``, when given, must be ``condensation(g, positive_only)``; a caller
    that needs the condensation as well saves the second SCC run.
    """
    rows, cols = _edges(g, positive_only)
    if cond is None:
        cond = _condense(g.n, rows, cols)
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
    order = [i for u, x in zip(reaching, exclusive) for i in sorted(u) + sorted(x - u)]
    decomp = ReachDecomposition(
        d=len(reaches), reaches=reaches, reaching=reaching, exclusive=exclusive,
        common=common, order=(*order, *sorted(frozenset().union(*common))),
    )
    _validate(decomp, cond.labels, rows, cols)
    return decomp


def _membership(decomp: ReachDecomposition, n: int) -> np.ndarray:
    """Shape (3, d, n) bool: ``[0, k, i - 1]`` when node i lies in U_k, ``[1]`` X_k, ``[2]`` C_k."""
    member = np.zeros((3, decomp.d, n), dtype=bool)
    for m, sets in zip(member, (decomp.reaching, decomp.exclusive, decomp.common)):
        for k, nodes in enumerate(sets):
            m[k, np.fromiter(nodes, dtype=np.intp) - 1] = True
    return member


def _validate(decomp: ReachDecomposition, labels: np.ndarray,
              rows: np.ndarray, cols: np.ndarray) -> None:
    """Structural checks of a decomposition against the SCC labels and the kept edges."""
    U, X, C = _membership(decomp, labels.size)
    if (U & ~X).any():
        raise NumericsError("a reaching set escapes its exclusive set")
    if (X & C).any():
        raise NumericsError("an exclusive set overlaps a common set")
    if not (X | C).any(axis=0).all() or len(decomp.order) != labels.size:
        raise NumericsError("decomposition does not cover the node set")
    for k in range(decomp.d):  # a whole strong component is strongly connected
        if not (U[k].any() and np.array_equal(labels == labels[U[k]][0], U[k])):
            raise NumericsError(f"reaching set {k + 1} is not one strong component")
    # no stored edge from U_k to the rest of X_k, nor from X_k to C_k
    if (U[:, rows] & (X & ~U)[:, cols]).any() or (X[:, rows] & C[:, cols]).any():
        raise NumericsError("an edge violates the block-triangular zero pattern")
