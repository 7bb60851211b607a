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
from .reach import ReachDecomposition, condensation, reach_decomposition
from .spectral import ZERO_TOL, NullBasis, _diagonal_blocks, eigenvalues

CLASS_COND1 = "Cond1"
CLASS_COND2 = "Cond2"
CLASS_REMARK4A = "Remark4a"
CLASS_REMARK4B = "Remark4b"
CLASS_OTHER = "Other"

SIGN_NEGATIVE = "Negative"
SIGN_ZERO = "Zero"


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
                    decomp: ReachDecomposition | None = None) -> list[PairClassification]:
    """All ordered non-edges whose class forces an eigenvalue into Re <= 0.

    Only pairs outside the base edge set qualify (the first-order statement
    perturbs new edges).  Raises when the graph has a single reach.
    """
    if not g1.nonnegative:
        raise PremiseError("sensitive pairs are defined for nonnegative base graphs")
    if decomp is None:
        decomp = reach_decomposition(g1)
    if decomp.d < 2:
        raise PremiseError("sensitivity analysis needs at least two reaches")
    out = []
    for u in range(1, g1.n + 1):
        for v in range(1, g1.n + 1):
            if u == v or (u, v) in g1.edges:
                continue
            cls = classify_pair(decomp, u, v)
            if cls.kind in (CLASS_COND1, CLASS_COND2):
                out.append(cls)
    return out


def verify_sensitive_pairs(g1: SignedDigraph, pairs: Iterable[tuple[int, int]],
                           eps: float = 1e-4) -> list[bool]:
    """Empirical check per pair: does weight -eps on (u, v) produce Re(lambda) < 0?

    The answer is that of an eigensolve of the full perturbed Laplacian L'
    (the base graph superposed with the edge, a cancelled edge dropped), with
    real parts within ``ZERO_TOL * max(||L'||_inf, 1)`` of zero not counted,
    so a borderline outcome reports False.

    Ordered by the SCCs of g1, L' stays block triangular: the new edge
    (u, v) merges comp(u) with every component on a path comp(v) ~> comp(u)
    and leaves the other diagonal blocks of L1 as they were.  So L1's blocks
    are solved once, each pair solves only its merged block, and pairs whose
    merged block matrix is the same share that solve.  That happens when
    comp(v) does not reach comp(u): the block is then comp(u) alone with only
    its (u, u) entry moved, the same for every such v.
    """
    if not (math.isfinite(eps) and eps >= CANCEL_TOL):
        raise ValueError(f"eps must be finite and at least {CANCEL_TOL:g}, got {eps}")
    L = laplacian(g1)
    cond = condensation(g1)
    block_low = np.empty(cond.k)
    for comps, values in _diagonal_blocks(L, cond.labels):
        block_low[comps] = values.real.min(axis=1)
    row_scale = np.abs(L).sum(axis=1)
    memo: dict[tuple, float] = {}
    out = []
    for u, v in pairs:
        if u == v or not (1 <= u <= g1.n and 1 <= v <= g1.n):
            raise ValueError(f"pair ({u}, {v}) is not two distinct nodes of 1..{g1.n}")
        i, j = u - 1, v - 1
        w = g1.weight(u, v)
        s = w - eps
        if abs(s) < CANCEL_TOL:  # superpose drops a cancelled edge
            s = 0.0
        # only row u of the Laplacian changes: its diagonal and its (u, v) entry
        row = L[i].copy()
        row[i] += s - w
        row[j] = -s
        scales = row_scale.copy()
        scales[i] = np.abs(row).sum()
        thr = ZERO_TOL * max(scales.max(), 1.0)

        cu, cv = cond.labels[i], cond.labels[j]
        merged = cond.closure[cv] & cond.closure[:, cu]  # on a path comp(v) ~> comp(u)
        merged[cu] = True
        key = (i, merged.tobytes(), row[i], (j, row[j]) if merged[cv] else None)
        low = memo.get(key)
        if low is None:
            nodes = np.flatnonzero(merged[cond.labels])
            block = L[np.ix_(nodes, nodes)]
            block[np.searchsorted(nodes, i)] = row[nodes]
            low = memo[key] = eigenvalues(block).real.min()
        rest = block_low[~merged].min(initial=np.inf)
        out.append(bool(min(low, rest) < -thr))
    return out
