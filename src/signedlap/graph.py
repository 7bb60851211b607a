"""Directed signed weighted graphs and their basic constructions.

A graph stores a node count ``n`` (nodes are ``1..n``) and a map from ordered
pairs ``(i, j)`` to nonzero real weights ``a_ij``.  The stored orientation is
the sensing one: an edge ``(i, j)`` means node ``i`` senses (receives
information from) node ``j``, i.e. node ``j`` influences node ``i``.

The Laplacian is ``L = D - A`` with ``D`` the diagonal of signed out-degrees
``d_i = sum_j a_ij``, so every row of ``L`` sums to zero.
"""

from __future__ import annotations

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


def _refuse_large(n: int, where: str = "") -> None:
    """Refuse a node count whose dense Laplacian would exceed ``MAX_LAPLACIAN_BYTES``."""
    if 8 * n * n > MAX_LAPLACIAN_BYTES:
        raise PremiseError(
            f"{where}{n} nodes need a {8 * n * n / 2**30:.3g} GiB Laplacian, "
            f"above the {MAX_LAPLACIAN_BYTES / 2**30:g} GiB limit (MAX_LAPLACIAN_BYTES)"
        )


@dataclass(frozen=True)
class SignedDigraph:
    """Immutable directed signed weighted graph on nodes ``1..n``."""

    n: int
    edges: Mapping[Edge, float]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphFormatError(f"node count must be >= 1, got {self.n}")
        _refuse_large(self.n)
        clean: dict[Edge, float] = {}
        for (i, j), w in self.edges.items():
            if i == j:
                raise GraphFormatError(f"self-loop on node {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise GraphFormatError(f"edge ({i}, {j}) out of range 1..{self.n}")
            w = float(w)
            if not np.isfinite(w) or abs(w) < CANCEL_TOL:
                raise GraphFormatError(f"edge ({i}, {j}) has zero or non-finite weight {w}")
            clean[(int(i), int(j))] = w
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
    runs to the end of the line; blank lines are ignored.
    """
    n: int | None = None
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
            if n < 1:
                raise GraphFormatError(f"line {lineno}: node count must be >= 1")
            _refuse_large(n, f"line {lineno}: ")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j w', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected 'i j w', got {line!r}")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop on node {i}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"line {lineno}: node id out of range 1..{n}")
        if (i, j) in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({i}, {j})")
        if not np.isfinite(w) or abs(w) < CANCEL_TOL:
            raise GraphFormatError(f"line {lineno}: zero weight on edge ({i}, {j})")
        edges[(i, j)] = w
    if n is None:
        raise GraphFormatError("empty input: missing node count")
    return SignedDigraph(n, edges)


def laplacian(g: SignedDigraph) -> np.ndarray:
    """Laplacian L = D - A; rows sum to zero by construction."""
    A = g.adjacency()
    return np.diag(A.sum(axis=1)) - A


def matrix_scale(L: np.ndarray) -> float:
    """Infinity norm (max absolute row sum), the scale used for zero thresholds."""
    if L.size == 0:
        return 0.0
    return float(np.abs(L).sum(axis=1).max())


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
