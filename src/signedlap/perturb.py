"""First-order behavior of the zero eigenvalue group under negative coupling.

For a nonnegative base graph with ``d >= 2`` reaches, a new edge (u, v) of
weight -eps adds ``eps L2``, ``L2 = -e_u (e_u - e_v)^T``, to the Laplacian.
To first order its ``d`` zero eigenvalues move to eps times the eigenvalues
of the d x d matrix ``Theta = M L2 G``, the rows of M the mus and the
columns of G the gammas of ``spectral.null_basis`` (``M G = I_d``).  So
``Theta_kk = -mu_k[u] (gamma_k[u] - gamma_k[v])``.  mu_k[u] is nonzero only
in the reach i where u is reaching, if any, and there gamma_i[u] = 1: the
trace of Theta is ``-mu_i[u] (1 - gamma_i[v])``, negative when v is
exclusive to another reach (Cond1, gamma_i[v] = 0) or common (Cond2,
gamma_i[v] < 1).  Then an eigenvalue of Theta, and for small eps one of the
perturbed Laplacian, has negative real part.  Set membership alone decides
the class, which makes "sensitive pairs" a combinatorial notion.
``tests/helpers.py`` keeps ``theta_matrix`` and the one-pair
``classify_pair`` as the references the tests hold this module to.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import PremiseError
from .graph import CANCEL_TOL, SignedDigraph, laplacian
from .reach import Condensation, _edges, _membership, condensation, reach_decomposition
from .spectral import _diagonal_blocks, zero_threshold

CLASS_COND1 = "Cond1"
CLASS_COND2 = "Cond2"

SIGN_NEGATIVE = "Negative"

#: pairs whose rows of L' are patched together, and the floats (VERIFY_CHUNK * m) of
#: one stacked eigensolve of m x m merged blocks: the workspace stays near
#: VERIFY_CHUNK * n floats at any pair count, and on the multi-reach benchmark
#: graphs (n = 30-54) 512 runs as fast as one unbounded stack
VERIFY_CHUNK = 512


def sensitive_pairs(g1: SignedDigraph,
                    cond: Condensation | None = None) -> tuple[np.ndarray, np.ndarray]:
    """All ordered non-edges whose class forces an eigenvalue into Re <= 0.

    Returns the (m, 2) integer array of the 1-based pairs (u, v) in row-major
    order and a bool array, True for Cond1 and False for Cond2.  Only pairs
    outside the base edge set qualify (the first-order statement perturbs new
    edges).  Raises when the graph has a single reach.  ``cond``, when given,
    must be ``condensation(g1)``.

    The classes are decided for every pair at once: each node is reaching in
    at most one reach (its home) and exclusive in at most one.  A reaching u
    is exclusive at home, so no pair (u, u) is listed.
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
    return np.column_stack([us + 1, vs + 1]), cond1[us, vs]


def verify_sensitive_pairs(g1: SignedDigraph, pairs: np.ndarray | Sequence[tuple[int, int]],
                           eps: float = 1e-4, cond: Condensation | None = None) -> list[bool]:
    """Empirical check per pair: does weight -eps on (u, v) produce Re(lambda) < 0?

    The answer is that of an eigensolve of the full perturbed Laplacian L'
    (the base graph superposed with the edge, a cancelled edge dropped), with
    real parts within ``zero_threshold(||L'||_inf)`` of zero not counted,
    so a borderline outcome reports False; an eps that overflows a row sum of
    L' raises ``ValueError``.  ``cond``, when given, must be ``condensation(g1)``.

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
    uv = np.asarray(pairs if len(pairs) else np.empty((0, 2), dtype=np.intp))
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
        with np.errstate(over="ignore"):  # an infinite row sum is refused below
            scales[at, i[p]] = np.abs(rows).sum(axis=1)
        scale = scales.max(axis=1)
        if not np.isfinite(scale).all():
            raise ValueError(f"eps = {eps:g} overflows a row sum of the perturbed Laplacian")
        # one merged block per distinct key, solved for its first pair q
        _, r, block_of = np.unique(keys[p], axis=0, return_index=True, return_inverse=True)
        q = p[r]
        merged = cond.between(cv[q], cu[q])
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
        out[p] = low[block_of] < -zero_threshold(scale)
    return out.tolist()
