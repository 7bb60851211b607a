"""Directed signed weighted graphs and their basic constructions.

A graph stores a node count ``n`` (nodes are ``1..n``) and a map from ordered
pairs ``(i, j)`` to nonzero real weights ``a_ij``.  The stored orientation is
the sensing one: an edge ``(i, j)`` means node ``i`` senses (receives
information from) node ``j``, i.e. node ``j`` influences node ``i``.

The Laplacian is ``L = D - A`` with ``D`` the diagonal of signed out-degrees
``d_i = sum_j a_ij``, so every row of ``L`` sums to zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import GraphFormatError, PremiseError

Edge = tuple[int, int]

#: weights whose magnitude falls below this are treated as absent edges
CANCEL_TOL = 1e-12

#: largest dense n x n float64 Laplacian a graph may need, in bytes (n <= 11585)
MAX_LAPLACIAN_BYTES = 2**30


def _integer(x: object, what: str, edge: Edge | None = None) -> int:
    """``x`` as a Python int; an integer-valued float or a string is refused, not converted."""
    try:
        return operator.index(x)
    except TypeError:
        raise GraphFormatError(f"{what} must be an integer, got {x!r}", edge) from None


@dataclass(frozen=True)
class SignedDigraph:
    """Immutable directed signed weighted graph on nodes ``1..n``."""

    n: int
    edges: Mapping[Edge, float]

    def __post_init__(self) -> None:
        """The one check of node count, node ids and weights; an error names its edge."""
        n = _integer(self.n, "node count")
        if n < 1:
            raise GraphFormatError(f"node count must be >= 1, got {n}")
        if 8 * n * n > MAX_LAPLACIAN_BYTES:
            raise PremiseError(
                f"{n} nodes need a {8 * n * n / 2**30:.3g} GiB Laplacian, "
                f"above the {MAX_LAPLACIAN_BYTES / 2**30:g} GiB limit (MAX_LAPLACIAN_BYTES)"
            )
        clean: dict[Edge, float] = {}
        for key, w in self.edges.items():
            i, j = _integer(key[0], "node id", key), _integer(key[1], "node id", key)
            if i == j:
                raise GraphFormatError(f"self-loop on node {i}", key)
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphFormatError(f"edge ({i}, {j}) out of range 1..{n}", key)
            w = float(w)
            if not math.isfinite(w) or abs(w) < CANCEL_TOL:
                raise GraphFormatError(f"edge ({i}, {j}) has zero or non-finite weight {w}", key)
            clean[(i, j)] = w
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", MappingProxyType(clean))

    def weight(self, i: int, j: int) -> float:
        """Weight of edge (i, j); 0.0 when absent."""
        return self.edges.get((i, j), 0.0)

    @property
    def nonnegative(self) -> bool:
        return all(w > 0 for w in self.edges.values())

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for (i, j), w in self.edges.items():
            A[i - 1, j - 1] = w
        return A


@dataclass(frozen=True)
class EdgePerturbation:
    """Negative perturbation of the node pair (u, v).

    Adds weights ``-delta * q_uv`` on edge (u, v) and ``-delta * q_vu`` on
    (v, u); all three are finite, direction gains are nonnegative and at least
    one must be positive.
    """

    u: int
    v: int
    q_uv: float = 1.0
    q_vu: float = 1.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError("perturbation endpoints must differ")
        for name in ("q_uv", "q_vu", "delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.q_uv < 0 or self.q_vu < 0:
            raise ValueError("direction gains must be nonnegative")
        if self.q_uv == 0 and self.q_vu == 0:
            raise ValueError("at least one direction gain must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")

    def graph(self, n: int) -> SignedDigraph:
        """The perturbation as a graph on ``n`` nodes (empty when delta = 0)."""
        edges: dict[Edge, float] = {}
        if self.delta * self.q_uv >= CANCEL_TOL:
            edges[(self.u, self.v)] = -self.delta * self.q_uv
        if self.delta * self.q_vu >= CANCEL_TOL:
            edges[(self.v, self.u)] = -self.delta * self.q_vu
        return SignedDigraph(n, edges)


def parse_edge_list(text: str) -> SignedDigraph:
    """Parse the plain-text edge-list format.

    The first non-comment line is the node count, each following line is
    ``i j w`` (1-indexed ids, decimal weight).  ``#`` starts a comment that
    runs to the end of the line; blank lines are ignored.  The parser checks
    the syntax and refuses duplicate edges; ``SignedDigraph`` judges the
    count, ids and weights, and its verdict is reported at the line at fault.
    """
    n: int | None = None
    lines: dict[Edge, int] = {}  # the line of each edge
    edges: dict[Edge, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: expected node count, got {line!r}")
            count_line = lineno
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j w', got {line!r}")
        try:
            key = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected 'i j w', got {line!r}")
        if key in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {key}")
        edges[key] = w
        lines[key] = lineno
    if n is None:
        raise GraphFormatError("empty input: missing node count")
    try:
        return SignedDigraph(n, edges)
    except (GraphFormatError, PremiseError) as exc:  # an error of no one edge is the count's
        line = lines.get(getattr(exc, "edge", None), count_line)
        raise type(exc)(f"line {line}: {exc}") from None


def laplacian(g: SignedDigraph) -> np.ndarray:
    """Laplacian L = D - A; rows sum to zero by construction.

    A weighted out-degree that overflows float64 is a ``GraphFormatError`` naming its node.
    """
    A = g.adjacency()
    with np.errstate(over="ignore"):
        degrees = A.sum(axis=1)
    if not np.isfinite(degrees).all():
        node = int(np.isfinite(degrees).argmin()) + 1
        raise GraphFormatError(f"the weighted out-degree of node {node} overflows float64")
    L = np.subtract(0.0, A, out=A)  # in place; 0 - A, as -A would make each absent entry -0.0
    L[np.diag_indices_from(L)] = degrees
    return L


def matrix_scale(L: np.ndarray) -> float:
    """Infinity norm (max absolute row sum), the scale used for zero thresholds.

    A row sum that overflows float64 leaves no threshold: ``GraphFormatError`` naming the row.
    """
    if L.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        sums = np.abs(L).sum(axis=1)
    if not np.isfinite(sums).all():
        row = int(np.isfinite(sums).argmin()) + 1
        raise GraphFormatError(f"the absolute sum of row {row} overflows float64")
    return float(sums.max())


def superpose(g1: SignedDigraph, g2: SignedDigraph) -> SignedDigraph:
    """Weight-wise sum of two graphs on the same node set.

    Pairs whose summed weight cancels below ``CANCEL_TOL`` are dropped.
    """
    if g1.n != g2.n:
        raise ValueError(f"node count mismatch: {g1.n} vs {g2.n}")
    out: dict[Edge, float] = dict(g1.edges)
    for key, w in g2.edges.items():
        s = out.get(key, 0.0) + w
        if abs(s) < CANCEL_TOL:
            out.pop(key, None)
        else:
            out[key] = s
    return SignedDigraph(g1.n, out)
