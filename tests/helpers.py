"""Test-only constructions and checks: alternative bases, block permutations, matchings,
the paper's first-order Theta matrix and one-pair classes, one-node reachable sets, and
the per-step simulation (also in long double), per-value CSVs, per-object JSON, per-reach
dense null basis and row-by-row Helmert basis that the fast paths must reproduce."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from signedlap import (
    EdgePerturbation,
    NullBasis,
    NumericsError,
    PremiseError,
    ReachDecomposition,
    SignedDigraph,
    block_spectrum,
    condensation,
    laplacian,
    matrix_scale,
    null_basis,
    reach_decomposition,
    spectrum_condition,
    verify_sensitive_pairs,
    zero_multiplicity,
)
from signedlap.perturb import CLASS_COND1, CLASS_COND2, SIGN_NEGATIVE
from signedlap.report import sig15
from signedlap.robustness import _input_vectors
from signedlap.simulate import OVERFLOW_LIMIT, Simulation


CLASS_REMARK4A = "Remark4a"
CLASS_REMARK4B = "Remark4b"
CLASS_OTHER = "Other"

SIGN_ZERO = "Zero"


@dataclass(frozen=True)
class PairClassification:
    """Membership class of an ordered node pair and the implied Theta sign."""

    u: int
    v: int
    kind: str
    theta_sign: str


def theta_matrix(g1: SignedDigraph, decomp: ReachDecomposition,
                 basis: NullBasis, g2: SignedDigraph) -> np.ndarray:
    """The d x d matrix Theta[i, j] = mu_i^T L2 gamma_j for the perturbation graph g2.

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
    return basis.mus @ laplacian(g2) @ basis.gammas.T


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """Full complex spectrum from one dense solve, sorted by real part then imaginary part:
    the reference that ``block_spectrum``'s SCC block solves are held to."""
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape}")
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigenvalue iteration failed: {exc}") from exc
    return vals[np.lexsort((vals.imag, vals.real))]


def first_order_zero_eigenvalues(theta: np.ndarray, eps: float) -> np.ndarray:
    """Predicted zero-group eigenvalues of L1 + eps * L2, i.e. eps * eig(Theta)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return eigenvalues(theta) * eps


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


def reachable_set(g: SignedDigraph, i: int, positive_only: bool = False) -> frozenset[int]:
    """Nodes with a stored-orientation path into ``i`` (the nodes ``i`` influences).

    Edge existence is sign-agnostic by default; ``positive_only=True`` walks
    positive edges only.
    """
    if not (1 <= i <= g.n):
        raise ValueError(f"node {i} out of range 1..{g.n}")
    cond = condensation(g, positive_only)
    return frozenset((np.flatnonzero(cond.closure[cond.labels, cond.labels[i - 1]]) + 1).tolist())


def check_spectrum_condition(g: SignedDigraph) -> bool:
    """True iff L has exactly one zero eigenvalue and the rest lie in Re > 0."""
    L = laplacian(g)
    return spectrum_condition(block_spectrum(L, condensation(g)), matrix_scale(L))


def split_signs(g: SignedDigraph) -> tuple[SignedDigraph, SignedDigraph]:
    """Split into the positive-edge subgraph and the negative-edge subgraph."""
    pos = {k: w for k, w in g.edges.items() if w > 0}
    neg = {k: w for k, w in g.edges.items() if w < 0}
    return SignedDigraph(g.n, pos), SignedDigraph(g.n, neg)


def reference_helmert_basis(n: int) -> np.ndarray:
    """``helmert_basis`` one row at a time: row i holds i ones, then -i, over sqrt(i (i+1))."""
    Q = np.zeros((n - 1, n))
    for i in range(1, n):
        Q[i - 1, :i] = 1.0
        Q[i - 1, i] = -float(i)
        Q[i - 1] /= np.sqrt(i * (i + 1))
    return Q


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


def r_value(lbar1: np.ndarray, Q: np.ndarray, u: int, v: int,
            q_uv: float, q_vu: float, omega: float) -> complex:
    """(e_u - e_v)^T Q^T (Lbar1 - j w I)^(-1) Q (q_uv e_u - q_vu e_v), on the whole Lbar1.

    Evaluated through one linear solve.  At w = 0 the result is real and is
    returned with zero imaginary part.
    """
    b, c = (Q @ x for x in _input_vectors(Q.shape[1], u, v, q_uv, q_vu))
    try:
        if omega == 0.0:
            return complex(c @ np.linalg.solve(lbar1, b))
        x = np.linalg.solve(lbar1 - 1j * omega * np.eye(lbar1.shape[0]), b)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"system singular at omega={omega}") from exc
    return complex(c @ x)


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


@dataclass(frozen=True)
class SimulationTrace:
    """A whole trace, as ``reference_trace_csv`` writes it."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    dt: float
    diverged: bool = False


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


def reference_rk4_longdouble(L: np.ndarray, x0: np.ndarray, dt: float,
                             horizon: float) -> SimulationTrace:
    """``reference_rk4`` in long double: the one-step matrix built from L in ``np.longdouble``
    and every step taken in it; the states stay long double."""
    x = np.asarray(x0, dtype=np.longdouble)
    hL = np.longdouble(dt) * np.asarray(L, dtype=np.longdouble)
    hL2 = hL @ hL
    step = np.eye(len(x), dtype=np.longdouble) - hL + hL2 / 2 - hL2 @ hL / 6 + hL2 @ hL2 / 24
    states, diverged = [x], False
    for _ in range(int(round(horizon / dt))):
        x = step @ x
        if not np.all(np.isfinite(x)) or np.abs(x).max() > OVERFLOW_LIMIT:
            diverged = True
            break
        states.append(x)
    return SimulationTrace(times=dt * np.arange(len(states)), states=np.array(states), dt=dt,
                           diverged=diverged)


#: largest move of a state from ``reference_rk4``'s, relative to the largest |state| that the
#: reference has reached by its row: ``Simulation`` steps b rows per product with the powers
#: S, S^2, ..., S^b, which round differently than b single steps (4.9e-13 at worst over 300
#: draws with n <= 40 and up to 2 500 steps)
STEP_RTOL = 1e-11


def trace_error(states: np.ndarray, ref: np.ndarray) -> float:
    """The largest |states - ref| of a row over the largest |ref| up to that row, over all rows."""
    running = np.maximum.accumulate(np.abs(ref).max(axis=1))
    moved = np.abs(states - ref).max(axis=1)
    return float((moved / np.maximum(running, np.finfo(float).tiny)).max())


def assert_close_trace(trace: SimulationTrace, ref: SimulationTrace) -> None:
    """``trace`` against the per-step ``ref``: the same shape (so the same first bad row),
    diverged flag, times and row 0, bitwise (nan included); every row within ``STEP_RTOL``."""
    assert trace.states.shape == ref.states.shape
    assert trace.diverged == ref.diverged
    assert trace.times.tobytes() == ref.times.tobytes()
    assert trace.states[:1].tobytes() == ref.states[:1].tobytes()
    if len(ref.states) > 1:  # so row 0 is finite
        assert trace_error(trace.states, ref.states) <= STEP_RTOL


def assert_close_trace_csv(text: str, ref: SimulationTrace) -> None:
    """A trace CSV against ``reference_trace_csv(ref)``: the same header, row count, ``t``
    column, row 0 and ``# diverged`` trailer, text for text; the states of every other row
    within ``STEP_RTOL`` of ref's."""
    got, want = text.splitlines(), reference_trace_csv(ref).splitlines()
    assert len(got) == len(want) and text.endswith("\n")
    assert got[:2] == want[:2]  # the header and row 0
    if ref.diverged:
        assert got.pop() == want.pop() == "# diverged"
    rows = [line.split(",") for line in got[1:]]
    assert [row[0] for row in rows] == [line.split(",")[0] for line in want[1:]]
    if len(rows) > 1:  # so row 0 is finite
        states = np.array([[float(x) for x in row[1:]] for row in rows])
        assert trace_error(states, ref.states) <= STEP_RTOL


def simulate(L: np.ndarray, x0: np.ndarray, dt: float, horizon: float) -> SimulationTrace:
    """The whole trace of ``Simulation``'s stepping loop, each block copied out as it arrives."""
    sim = Simulation(L, x0, dt, horizon)
    states = np.concatenate([rows.copy() for _, rows in sim])
    return SimulationTrace(times=dt * np.arange(len(states)), states=states, dt=dt,
                           diverged=sim.diverged)


def spread(states: np.ndarray) -> np.ndarray:
    """Max pairwise disagreement per sample."""
    return states.max(axis=1) - states.min(axis=1)


def consensus_reached(trace: SimulationTrace, rel_tol: float = 1e-6) -> bool:
    """True iff the last 5% of samples dissolve the initial disagreement, judged on the whole
    trace: the reference for ``Simulation.consensus``.

    The final-window spread is compared against rel_tol times the initial
    spread; a trace that starts in exact agreement compares against rel_tol
    itself.  A diverged trace never reaches consensus.
    """
    if not 0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if trace.states.size == 0:
        raise ValueError("empty trace")
    if trace.diverged:
        return False
    window = max(1, int(np.ceil(0.05 * trace.states.shape[0])))
    final = spread(trace.states[-window:]).max()
    initial = float(spread(trace.states[:1])[0])
    reference = initial if initial > 0.0 else 1.0
    return bool(final < rel_tol * reference)


def fmt15(x: float) -> str:
    """One float at 15 significant digits, with ``inf``, ``-inf`` and ``nan`` spelled out."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.15g}"


def reference_trace_csv(trace: SimulationTrace) -> str:
    """The trace CSV built one ``fmt15`` call per value."""
    n = trace.states.shape[1]
    lines = ["t," + ",".join(f"x{i}" for i in range(1, n + 1))]
    for t, row in zip(trace.times, trace.states):
        lines.append(fmt15(t) + "," + ",".join(fmt15(x) for x in row))
    if trace.diverged:
        lines.append("# diverged")
    return "\n".join(lines) + "\n"


def reference_sweep_csv(omegas: np.ndarray, values: np.ndarray) -> str:
    """The sweep CSV built one ``fmt15`` call per value."""
    lines = ["omega,re,im"]
    for w, z in zip(omegas, values):
        lines.append(f"{fmt15(w)},{fmt15(z.real)},{fmt15(z.imag)}")
    return "\n".join(lines) + "\n"


def reference_sensitive_json(g: SignedDigraph, eps: float) -> str:
    """``signedlap sensitive``'s JSON from one ``classify_pair`` and one dict per pair."""
    decomp = reach_decomposition(g)
    pairs = [
        cls
        for u in range(1, g.n + 1)
        for v in range(1, g.n + 1)
        if u != v and (u, v) not in g.edges
        for cls in [classify_pair(decomp, u, v)]
        if cls.kind in (CLASS_COND1, CLASS_COND2)
    ]
    verified = verify_sensitive_pairs(g, [(p.u, p.v) for p in pairs], eps)
    payload = [
        {"u": p.u, "v": p.v, "class": p.kind, "theta_diag_sign": p.theta_sign, "verified": ok}
        for p, ok in zip(pairs, verified)
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def spectrum_json(values: np.ndarray) -> list[dict]:
    return [{"re": sig15(z.real), "im": sig15(z.imag)} for z in np.asarray(values)]


def decomposition_json(decomp: ReachDecomposition) -> dict:
    return {
        "d": decomp.d,
        "reaches": [sorted(r) for r in decomp.reaches],
        "reaching": [sorted(r) for r in decomp.reaching],
        "exclusive": [sorted(r) for r in decomp.exclusive],
        "common": [sorted(r) for r in decomp.common],
        "order": list(decomp.order),
    }


def null_basis_json(basis: NullBasis) -> dict:
    return {
        "d": basis.d,
        "gammas": [[sig15(x) for x in row] for row in basis.gammas],
        "mus": [[sig15(x) for x in row] for row in basis.mus],
    }


def analyze_json(n: int, values: np.ndarray, zero_mult: int, condition: bool,
                 decomp: ReachDecomposition, basis: NullBasis | None) -> str:
    """``report.dumps_analyze``'s arguments as one dict per object, through ``json.dumps``."""
    payload = {
        "n": n,
        "spectrum": spectrum_json(values),
        "zero_multiplicity": zero_mult,
        "spectrum_condition": condition,
        "decomposition": decomposition_json(decomp),
        "null_basis": None if basis is None else null_basis_json(basis),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_analyze_json(g: SignedDigraph, positive_only: bool = False) -> str:
    """``signedlap analyze``'s JSON, built one dict per object."""
    L = laplacian(g)
    values, scale = block_spectrum(L, condensation(g)), matrix_scale(L)
    decomp = reach_decomposition(g, positive_only=positive_only)
    return analyze_json(g.n, values, zero_multiplicity(values, scale),
                        spectrum_condition(values, scale), decomp,
                        null_basis(L, decomp) if g.nonnegative else None)


def reference_null_basis(L: np.ndarray, decomp: ReachDecomposition) -> np.ndarray:
    """The gammas from one dense LU per reach, ``L_{C_k C_k} x = -L_{C_k X_k} 1``.

    One step of iterative refinement, the residual taken in ``np.longdouble``, brings the
    error down to about eps for weights spread over many decades, where the bare partially
    pivoted LU errs by up to ~1e-12.
    """
    gammas = np.zeros((decomp.d, L.shape[0]))
    for k in range(decomp.d):
        gamma = gammas[k]
        gamma[[i - 1 for i in decomp.exclusive[k]]] = 1.0
        c_idx = [i - 1 for i in sorted(decomp.common[k])]
        if c_idx:
            x_idx = [i - 1 for i in sorted(decomp.exclusive[k])]
            rhs = -L[np.ix_(c_idx, x_idx)] @ np.ones(len(x_idx))
            block = L[np.ix_(c_idx, c_idx)]
            x = np.linalg.solve(block, rhs)
            residual = rhs - block.astype(np.longdouble) @ x.astype(np.longdouble)
            gamma[c_idx] = x + np.linalg.solve(block, residual.astype(float))
    return gammas
