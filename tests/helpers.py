"""Test-only constructions and checks: alternative bases, block permutations, matchings,
and the per-step simulation and per-value trace CSV that the fast paths must reproduce."""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize

from signedlap import (
    EdgePerturbation,
    NumericsError,
    PremiseError,
    ReachDecomposition,
    SignedDigraph,
    eigenvalues,
    r_value,
)
from signedlap.report import _fmt
from signedlap.simulate import OVERFLOW_LIMIT, SimulationTrace


def split_signs(g: SignedDigraph) -> tuple[SignedDigraph, SignedDigraph]:
    """Split into the positive-edge subgraph and the negative-edge subgraph."""
    pos = {k: w for k, w in g.edges.items() if w > 0}
    neg = {k: w for k, w in g.edges.items() if w < 0}
    return SignedDigraph(g.n, pos), SignedDigraph(g.n, neg)


def householder_basis(n: int) -> np.ndarray:
    """Orthonormal basis of span{1}^perp via a Householder reflector.

    An alternative to ``helmert_basis`` for checking that reduced-spectrum
    results do not depend on the particular choice of Q.
    """
    if n < 2:
        raise ValueError(f"projection basis needs n >= 2, got {n}")
    w = np.ones(n) / np.sqrt(n)
    w[0] -= 1.0
    H = np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    return H[1:, :]


def permutation_matrix(decomp: ReachDecomposition) -> np.ndarray:
    """P such that P A P^T is the block form (position k reads node order[k])."""
    n = len(decomp.order)
    P = np.zeros((n, n))
    for pos, node in enumerate(decomp.order):
        P[pos, node - 1] = 1.0
    return P


def rank_one_spectrum_check(lbar1: np.ndarray, lbar: np.ndarray, Q: np.ndarray,
                            u: int, v: int, pert: EdgePerturbation,
                            tol: float = 1e-8) -> float:
    """Consistency check: the spectrum of Lbar1^-1 Lbar must be {1 x (N-2), 1 - r}.

    Also exercises the rank-one determinant identity.  Returns ``1 - r`` with
    ``r`` the static response to the perturbation gains scaled by its delta.
    A failure indicates a construction or numerical bug, not a property of
    the input graph.
    """
    d_uv = pert.delta * pert.q_uv
    d_vu = pert.delta * pert.q_vu
    r = r_value(lbar1, Q, u, v, d_uv, d_vu, 0.0).real
    try:
        M = np.linalg.solve(lbar1, lbar)
    except np.linalg.LinAlgError as exc:
        raise PremiseError("reduced base Laplacian is singular") from exc
    values = eigenvalues(M)
    expected = 1.0 - r
    dist_one = np.abs(values - 1.0)
    keep = np.argsort(dist_one)[:-1] if values.size > 1 else np.array([], dtype=int)
    outlier = np.argsort(dist_one)[-1]
    if values.size > 1 and dist_one[keep].max() > tol:
        raise NumericsError("rank-one spectrum check failed: repeated eigenvalue is not 1")
    if abs(values[outlier] - expected) > tol * max(1.0, abs(expected)):
        raise NumericsError(
            f"rank-one spectrum check failed: {values[outlier]:.12g} != {expected:.12g}"
        )
    sign1, logdet1 = np.linalg.slogdet(lbar1)
    sign2, logdet2 = np.linalg.slogdet(lbar)
    if abs(expected) > 1e-10:
        lhs = sign2, logdet2
        rhs = sign1 * math.copysign(1.0, expected), logdet1 + math.log(abs(expected))
        if lhs[0] != rhs[0] or abs(lhs[1] - rhs[1]) > 1e-6 * max(1.0, abs(rhs[1])):
            raise NumericsError("rank-one determinant identity violated")
    return expected


def match_predictions(predicted: np.ndarray, exact: np.ndarray) -> float:
    """Max pairing distance between two eigenvalue groups (min-weight matching)."""
    cost = np.abs(predicted[:, None] - exact[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def zero_group(values: np.ndarray, d: int) -> np.ndarray:
    """The d eigenvalues of smallest modulus (the perturbed zero group)."""
    idx = np.argsort(np.abs(values))[:d]
    return values[idx]


def reference_rk4(L: np.ndarray, x0: np.ndarray, dt: float, horizon: float) -> SimulationTrace:
    """``simulate`` without its guards, one step and one divergence check at a time."""
    x0 = np.asarray(x0, dtype=float)
    n = L.shape[0]
    steps = int(round(horizon / dt))
    hL = dt * L
    step = np.eye(n) - hL + hL @ hL / 2.0 - hL @ hL @ hL / 6.0 + hL @ hL @ hL @ hL / 24.0
    states = np.empty((steps + 1, n))
    states[0] = x0
    x = x0.copy()
    diverged = False
    last = steps
    for k in range(1, steps + 1):
        x = step @ x
        if not np.all(np.isfinite(x)) or np.abs(x).max() > OVERFLOW_LIMIT:
            diverged = True
            last = k - 1
            break
        states[k] = x
    states = states[: last + 1]
    times = dt * np.arange(last + 1)
    return SimulationTrace(times=times, states=states, dt=dt, diverged=diverged)


def reference_trace_csv(trace: SimulationTrace) -> str:
    """The trace CSV built one ``_fmt`` call per value."""
    n = trace.states.shape[1]
    lines = ["t," + ",".join(f"x{i}" for i in range(1, n + 1))]
    for t, row in zip(trace.times, trace.states):
        lines.append(_fmt(t) + "," + ",".join(_fmt(x) for x in row))
    if trace.diverged:
        lines.append("# diverged")
    return "\n".join(lines) + "\n"
