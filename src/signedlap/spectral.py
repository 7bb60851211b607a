"""Projection bases, reduced Laplacians, spectra, and zero-eigenvalue bases.

The reduced Laplacian ``Lbar = Q L Q^T`` acts on the subspace orthogonal to
the all-ones vector; its spectrum equals the spectrum of ``L`` with one zero
removed.  ``Q`` is fixed to the Helmert construction for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, PremiseError
from .graph import matrix_scale
from .reach import Condensation, ReachDecomposition, _membership

#: an eigenvalue at most this times ||L||_inf counts as zero: an SCC block's eigenvalues err
#: by about eps ||L|| (eps = 2.2e-16) times their condition number, here allowed up to 1e6
ZERO_TOL = 1e-9


def zero_threshold(scale: float | np.ndarray) -> float | np.ndarray:
    """``ZERO_TOL * scale``, elementwise for an array of scales: a value at most this
    counts as zero next to a matrix of infinity norm ``scale`` (exactly 0 at scale 0)."""
    return ZERO_TOL * scale


def helmert_basis(n: int) -> np.ndarray:
    """(n-1) x n matrix with orthonormal rows spanning the complement of 1.

    Row i (1-indexed) is ``(e_1 + ... + e_i - i e_{i+1}) / sqrt(i (i+1))``.
    """
    if n < 2:
        raise ValueError(f"projection basis needs n >= 2, got {n}")
    i = np.arange(1, n)
    Q = np.tri(n - 1, n)
    Q[i - 1, i] = -i
    return Q / np.sqrt(i * (i + 1))[:, None]


def reduced_laplacian(L: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Lbar = Q L Q^T; ``matrix_scale`` refuses an L whose absolute row sums overflow."""
    if L.shape[0] != L.shape[1]:
        raise ValueError(f"L must be square, got {L.shape}")
    if Q.shape != (L.shape[0] - 1, L.shape[0]):
        raise ValueError(f"Q shape {Q.shape} incompatible with L shape {L.shape}")
    matrix_scale(L)  # else Lbar may be all roundoff: Q L Q^T is 0 for L = [[a, -a], [a, -a]]
    return Q @ L @ Q.T


def _diagonal_blocks(M: np.ndarray, labels: np.ndarray):
    """Per block size, the labels c of the diagonal blocks ``M[b, b]``, ``b = labels == c``,
    and their eigenvalues, one row per block: 1 x 1 blocks read off the diagonal (LAPACK's
    geev may round an entry outside about [1e-138, 1e138]) and the blocks of each other
    size in one stacked eigensolve.
    """
    sizes = np.bincount(labels)
    nodes = np.lexsort((labels, sizes[labels]))  # grouped by block size, then by block
    start = 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        idx = nodes[start:start + size * count].reshape(count, size)
        start += size * count
        blocks = M[idx[:, :, None], idx[:, None, :]]
        yield labels[idx[:, 0]], blocks[:, :, 0] if size == 1 else np.linalg.eigvals(blocks)


def block_spectrum(L: np.ndarray, cond: Condensation) -> np.ndarray:
    """Spectrum of a Laplacian from its SCC diagonal blocks, sorted by real then imaginary part.

    ``cond`` is the sign-agnostic ``condensation`` of L's graph: off the diagonal
    ``L[i, j] != 0`` iff edge (i, j) exists, so ordered by the SCCs L is block triangular,
    with the spectrum of its diagonal blocks.  Solved apart, an eigenvalue that coupled
    blocks share keeps its accuracy: one whole-matrix solve sees a zero of two singular
    blocks as defective and splits it by about sqrt(machine eps) * ||L||.  The 1 x 1
    blocks' eigenvalues are exact.  Nothing checks ``cond``: one finer than L's off-diagonal
    pattern (of positive edges only, or from before a ``superpose``) gives a wrong spectrum.
    """
    vals = np.concatenate([v.ravel() for _, v in _diagonal_blocks(L, cond.labels)])
    return vals[np.lexsort((vals.imag, vals.real))]


def zero_multiplicity(values: np.ndarray, scale: float) -> int:
    """Number of eigenvalues within ``zero_threshold(scale)`` of zero."""
    return int(np.sum(np.abs(values) <= zero_threshold(scale)))


def spectrum_condition(values: np.ndarray, scale: float) -> bool:
    """One eigenvalue within ``zero_threshold(scale)`` of zero, the rest with Re above that."""
    thr = zero_threshold(scale)
    near_zero = np.abs(values) <= thr
    return int(near_zero.sum()) == 1 and bool(np.all(near_zero | (values.real > thr)))


@dataclass(frozen=True)
class NullBasis:
    """Right vectors (gammas) and left vectors (mus) of the zero eigenvalue.

    Row k of each array is the vector attached to reach k.  Gammas are 1 on
    the exclusive set, 0 outside the reach, and solve the grounded system on
    the common nodes; mus are supported on the reaching nodes and sum to 1.
    With this normalization ``mus @ gammas.T == I_d``.
    """

    d: int
    gammas: np.ndarray  # shape (d, n)
    mus: np.ndarray  # shape (d, n)


def null_basis(L: np.ndarray, decomp: ReachDecomposition) -> NullBasis:
    """Right and left zero-eigenvectors of a nonnegative-weight Laplacian, one per reach.

    Right vectors are 1 on the exclusive entries and 0 outside the reach; on the union C
    of the common sets, all d solve ``L_CC x = -L_{C,X_k} 1`` by one sparse LU of L_CC.
    Left vectors sum to 1 on U_k: the U_k diagonal block of L is the Laplacian of a
    strongly connected subgraph, so its left kernel is one-dimensional, found by LU on
    the transposed block with the last row replaced by the normalization row.
    """
    rows, cols = np.divmod(np.flatnonzero(L != 0), L.shape[0])
    vals = L[rows, cols]
    if (vals[rows != cols] > 0).any():
        raise PremiseError("null vectors require nonnegative weights")
    tol = zero_threshold(matrix_scale(L))
    _, X, C = _membership(decomp, L.shape[0])
    gammas, mus = X.astype(float), np.zeros(X.shape)
    c_idx = np.flatnonzero(C.any(axis=0))
    if c_idx.size:  # a common node outside R_k has no edge into R_k, so x_k is 0 there
        import scipy.sparse.linalg  # imported here: loading scipy outlasts most commands

        common = scipy.sparse.csr_array((vals, (rows, cols)), shape=L.shape)[c_idx]
        try:  # L_CC is a nonsingular M-matrix, so its diagonal pivots need no row exchange
            lu = scipy.sparse.linalg.splu(common[:, c_idx].tocsc(), diag_pivot_thresh=0.0)
        except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
            raise NumericsError(f"common block is singular: {exc}") from exc
        gammas[:, c_idx] = np.where(C[:, c_idx], lu.solve(-(common @ gammas.T)).T, 0.0)
    for k in range(decomp.d):
        u_idx = [i - 1 for i in sorted(decomp.reaching[k])]
        block = L[np.ix_(u_idx, u_idx)]
        system = block.T.copy()
        system[-1, :] = 1.0
        rhs = np.zeros(len(u_idx))
        rhs[-1] = 1.0
        try:
            nu = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(
                f"reaching block of reach {k + 1} has a degenerate kernel"
            ) from exc
        residual = np.abs(nu @ block).max()
        if residual > tol:
            raise NumericsError(
                f"reaching block of reach {k + 1} has kernel dimension != 1 "
                f"(residual {residual:.3e})"
            )
        mus[k, u_idx] = nu
    return NullBasis(d=decomp.d, gammas=gammas, mus=mus)
