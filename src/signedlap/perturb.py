"""First-order behavior of the zero eigenvalue group under negative coupling.

For a nonnegative base graph with ``d >= 2`` reaches, adding edges with
infinitesimal negative weights moves the ``d`` zero eigenvalues of the
Laplacian along the eigenvalues of the small matrix ``Theta = M L2 G`` built
from the left/right zero-eigenvector bases and the perturbation Laplacian.
The sign of the diagonal of Theta is decided purely by set membership of the
perturbed pair, which is what makes "sensitive pairs" a combinatorial notion.

The bases use the sum-normalized vectors (mus sum to 1 over their reaching
set, gammas as constructed), for which ``M G = I_d`` holds exactly; diagonal
signs are invariant under any positive rescaling of the bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import PremiseError
from .graph import CANCEL_TOL, SignedDigraph, laplacian
from .reach import (Condensation, ReachDecomposition, _edges, _membership, condensation,
                    reach_decomposition)
from .spectral import ZERO_TOL, NullBasis, _diagonal_blocks, eigenvalues

CLASS_COND1 = "Cond1"
CLASS_COND2 = "Cond2"
CLASS_REMARK4A = "Remark4a"
CLASS_REMARK4B = "Remark4b"
CLASS_OTHER = "Other"

SIGN_NEGATIVE = "Negative"
SIGN_ZERO = "Zero"

#: pairs whose rows of L' are patched together, and the floats (VERIFY_CHUNK * m) of
#: one stacked eigensolve of m x m merged blocks: the workspace stays near
#: VERIFY_CHUNK * n floats at any pair count, and on the multi-reach benchmark
#: graphs (n = 30-54) 512 runs as fast as one unbounded stack
VERIFY_CHUNK = 512


@dataclass(frozen=True)
class ThetaMatrix:
    """d x d first-order coupling matrix with the bases that produced it."""

    d: int
    theta: np.ndarray  # shape (d, d)
    upsilon_rows: np.ndarray  # shape (d, n): left vectors
    gamma_cols: np.ndarray  # shape (n, d): right vectors


@dataclass(frozen=True)
class PairClassification:
    """Membership class of an ordered node pair and the implied Theta sign."""

    u: int
    v: int
    kind: str
    theta_sign: str


def theta_matrix(g1: SignedDigraph, decomp: ReachDecomposition,
                 basis: NullBasis, g2: SignedDigraph) -> ThetaMatrix:
    """Theta[i, j] = mu_i^T L2 gamma_j for the perturbation graph g2.

    g1 must be nonnegative with d >= 2 reaches; g2 must consist of new edges
    (disjoint from g1's) with strictly negative weights.
    """
    if not g1.nonnegative:
        raise PremiseError("base graph must have nonnegative weights")
    if decomp.d < 2:
        raise PremiseError(f"need at least two reaches, got d={decomp.d}")
    if g2.n != g1.n:
        raise PremiseError("perturbation graph must share the node set")
    for key, w in g2.edges.items():
        if key in g1.edges:
            raise PremiseError(f"perturbation edge {key} already exists in the base graph")
        if w >= 0:
            raise PremiseError(f"perturbation edge {key} must have negative weight")
    L2 = laplacian(g2)
    theta = basis.mus @ L2 @ basis.gammas.T
    return ThetaMatrix(
        d=decomp.d,
        theta=theta,
        upsilon_rows=basis.mus,
        gamma_cols=basis.gammas.T,
    )


def first_order_zero_eigenvalues(theta: ThetaMatrix, eps: float) -> np.ndarray:
    """Predicted zero-group eigenvalues of L1 + eps * L2, i.e. eps * eig(Theta)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return eigenvalues(theta.theta) * eps


def classify_pair(decomp: ReachDecomposition, u: int, v: int) -> PairClassification:
    """Deterministic membership class, checked in a fixed order.

    Cond1 (u reaching in some reach, v exclusive elsewhere) and Cond2
    (u reaching, v common anywhere) force a negative Theta diagonal entry;
    the Remark4 classes and every pair with a non-reaching source leave the
    diagonal at zero, so first-order analysis is inconclusive for them.
    """
    if u == v:
        raise ValueError("pair endpoints must differ")
    u_home = [k for k in range(decomp.d) if u in decomp.reaching[k]]
    if u_home:
        i = u_home[0]
        for j in range(decomp.d):
            if v in decomp.exclusive[j]:
                if j != i:
                    return PairClassification(u, v, CLASS_COND1, SIGN_NEGATIVE)
                return PairClassification(u, v, CLASS_REMARK4A, SIGN_ZERO)
        if any(v in decomp.common[j] for j in range(decomp.d)):
            return PairClassification(u, v, CLASS_COND2, SIGN_NEGATIVE)
        return PairClassification(u, v, CLASS_OTHER, SIGN_ZERO)
    for i in range(decomp.d):
        if u in decomp.reaches[i] and u not in decomp.reaching[i]:
            for j in range(decomp.d):
                if j != i and v in decomp.reaches[j]:
                    return PairClassification(u, v, CLASS_REMARK4B, SIGN_ZERO)
    return PairClassification(u, v, CLASS_OTHER, SIGN_ZERO)


def sensitive_pairs(g1: SignedDigraph,
                    cond: Condensation | None = None) -> list[PairClassification]:
    """All ordered non-edges whose class forces an eigenvalue into Re <= 0.

    Only pairs outside the base edge set qualify (the first-order statement
    perturbs new edges).  Raises when the graph has a single reach.  ``cond``,
    when given, must be ``condensation(g1)``.

    The classes are those of ``classify_pair``, for every pair at once: each
    node is reaching in at most one reach (its home) and exclusive in at most
    one.  A reaching u is exclusive at home, so no pair (u, u) is listed.
    """
    if not g1.nonnegative:
        raise PremiseError("sensitive pairs are defined for nonnegative base graphs")
    decomp = reach_decomposition(g1, cond=cond)
    if decomp.d < 2:
        raise PremiseError("sensitivity analysis needs at least two reaches")
    U, X, C = _membership(decomp, g1.n)
    home = np.where(U.any(axis=0), U.argmax(axis=0), -1)[:, None]  # reach where u is reaching
    excl = np.where(X.any(axis=0), X.argmax(axis=0), -1)  # reach where v is exclusive
    cond1 = (home >= 0) & (excl >= 0) & (excl != home)
    listed = cond1 | ((home >= 0) & C.any(axis=0))
    listed[_edges(g1, positive_only=False)] = False
    us, vs = np.nonzero(listed)
    return [
        PairClassification(u, v, CLASS_COND1 if c1 else CLASS_COND2, SIGN_NEGATIVE)
        for u, v, c1 in zip((us + 1).tolist(), (vs + 1).tolist(), cond1[us, vs].tolist())
    ]


def verify_sensitive_pairs(g1: SignedDigraph, pairs: Iterable[tuple[int, int]],
                           eps: float = 1e-4, cond: Condensation | None = None) -> list[bool]:
    """Empirical check per pair: does weight -eps on (u, v) produce Re(lambda) < 0?

    The answer is that of an eigensolve of the full perturbed Laplacian L'
    (the base graph superposed with the edge, a cancelled edge dropped), with
    real parts within ``ZERO_TOL * max(||L'||_inf, 1)`` of zero not counted,
    so a borderline outcome reports False.  ``cond``, when given, must be
    ``condensation(g1)``.

    Ordered by the SCCs of g1, L' stays block triangular: the new edge
    (u, v) merges comp(u) with every component on a path comp(v) ~> comp(u)
    and leaves the other diagonal blocks of L1 as they were.  So L1's blocks
    are solved once, each distinct merged block (with row u patched) once,
    and merged blocks of one size share a stacked eigensolve.  Pairs share a
    merged block when comp(v) does not reach comp(u): the block is then
    comp(u) alone with only its (u, u) entry moved, the same for every such v.
    """
    if not (math.isfinite(eps) and eps >= CANCEL_TOL):
        raise ValueError(f"eps must be finite and at least {CANCEL_TOL:g}, got {eps}")
    uv = np.array(list(pairs) or np.empty((0, 2), dtype=np.intp))
    if uv.ndim != 2 or uv.shape[1] != 2 or uv.dtype.kind not in "iu":
        raise ValueError(f"pairs must be (u, v) integer node ids, got {uv.dtype} {uv.shape}")
    bad = (uv[:, 0] == uv[:, 1]) | (uv < 1).any(axis=1) | (uv > g1.n).any(axis=1)
    if bad.any():
        u, v = uv[bad.argmax()]
        raise ValueError(f"pair ({u}, {v}) is not two distinct nodes of 1..{g1.n}")
    L = laplacian(g1)
    if cond is None:
        cond = condensation(g1)
    block_low = np.empty(cond.k)
    for comps, values in _diagonal_blocks(L, cond.labels):
        block_low[comps] = values.real.min(axis=1)
    row_scale = np.abs(L).sum(axis=1)
    i, j = uv.T - 1
    w = -L[i, j]  # the weight of (u, v), 0 when absent
    s = w - eps
    s[np.abs(s) < CANCEL_TOL] = 0.0  # superpose drops a cancelled edge
    # only row u of the Laplacian changes: its diagonal and its (u, v) entry
    diag = L[i, i] + (s - w)
    cu, cv = cond.labels[i], cond.labels[j]
    joined = cond.closure[cv, cu]  # comp(v) reaches comp(u), so the block holds v too
    # the merged block is fixed by u and its (u, u) entry, and if joined by v and its (u, v) entry
    keys = np.column_stack([i, np.where(joined, j, -1), diag, np.where(joined, -s, 0.0)])
    order = np.lexsort(keys.T)  # pairs that share a merged block side by side
    out = np.empty(i.size, dtype=bool)
    for start in range(0, i.size, VERIFY_CHUNK):
        p = order[start:start + VERIFY_CHUNK]
        at = np.arange(p.size)
        rows = L[i[p]]  # row u of each pair's L'
        rows[at, i[p]] = diag[p]
        rows[at, j[p]] = -s[p]
        scales = np.tile(row_scale, (p.size, 1))
        scales[at, i[p]] = np.abs(rows).sum(axis=1)
        # one merged block per distinct key, solved for its first pair q
        _, r, block_of = np.unique(keys[p], axis=0, return_index=True, return_inverse=True)
        q = p[r]
        merged = cond.closure[cv[q]] & cond.closure[:, cu[q]].T  # on a path comp(v) ~> comp(u)
        merged[np.arange(q.size), cu[q]] = True
        low = np.where(merged, np.inf, block_low).min(axis=1)  # the blocks L' keeps from L1
        member = merged[:, cond.labels]
        size = member.sum(axis=1)
        for m in np.unique(size):
            group = np.flatnonzero(size == m)
            # stacks of about VERIFY_CHUNK // m blocks
            for sel in np.array_split(group, -(-group.size * m // VERIFY_CHUNK)):
                nodes = np.nonzero(member[sel])[1].reshape(sel.size, m)
                blocks = L[nodes[:, :, None], nodes[:, None, :]]
                at_u = (nodes < i[q[sel], None]).sum(axis=1)
                blocks[np.arange(sel.size), at_u] = np.take_along_axis(rows[r[sel]], nodes, axis=1)
                low[sel] = np.minimum(low[sel], np.linalg.eigvals(blocks).real.min(axis=1))
        out[p] = low[block_of] < -ZERO_TOL * np.maximum(scales.max(axis=1), 1.0)
    return out.tolist()
