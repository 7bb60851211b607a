"""Critical negative-weight bounds via frequency-domain crossings.

For a base graph whose Laplacian has a single zero eigenvalue and all other
eigenvalues in the open right half plane, perturbing the pair (u, v) with
weights ``-delta q_uv`` and ``-delta q_vu`` keeps that property for all
``delta`` below a critical magnitude ``delta*``.  The bound is read off the
transfer map, in node coordinates on the pair's slice S of the condensation,

    G(j w) = (e_u - e_v)^T (L1[S, S] - j w I)^(-1) (q_uv e_u - q_vu e_v):

S is comp(u), comp(v) and the components on a path between them, either way; L1 is block
triangular along its components, so no other one enters G (Kalman 1963).  S that holds the
sink, the one singular block, is closed downward: L1[S, S] is then a Laplacian, and e_u - e_v
is orthogonal to 1, so G at w = 0 is solved in L1[S, S]'s own Helmert basis.
``delta* = 1 / max{Re G(j w_i)}`` over the frequencies ``w_i`` where the
curve crosses the real axis.  When the maximizing crossing sits at w = 0 the
bound is necessary and sufficient; otherwise it is sufficient only, and
``1 / Re G(0)`` (when positive) is a separate necessary bound.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, PremiseError
from .graph import EdgePerturbation, SignedDigraph, laplacian, matrix_scale
from .reach import condensation
from .spectral import (block_spectrum, helmert_basis, reduced_laplacian, spectrum_condition,
                       zero_threshold)

logger = logging.getLogger(__name__)

#: a crossing's Re G at most this over ||L1||_inf is 0: 1 / Re G would put delta* past
#: 1e12 ||L1||_inf, where the perturbed Laplacian holds L1 to eps * 1e12 = 2.2e-4 at best
CROSSING_RE_TOL = 1e-12
#: |Re s| / |s| under which a zero s of the cascade counts as imaginary: a double zero (a
#: tangency) splits under rounding by about sqrt(eps) |s|, and admitting it only lowers delta*
REAL_ZERO_RTOL = 1e-6
#: crossings whose Re G is within this of the largest attain it, omega* the least of them:
#: each Re G errs by about eps cond(L1[S, S] - j w I), a condition allowed up to 1e6 as in ZERO_TOL
ACHIEVER_RTOL = 1e-9
#: largest relative difference |w_ij - w_ji| / w_ij of an undirected graph's two directions:
#: a weight written to 12 or more significant digits reads back within 5e-13 of its value
SYMMETRY_RTOL = 1e-12
#: a Schur pivot at most this times ||L||_inf, some 500 times the Schur form's backward
#: error eps ||Q L Q^T||, is roundoff of a zero: a sweep sample with |T_ii - j w| that small
#: sits on an eigenvalue and is skipped, and a Lyapunov sum lambda_i + conj(lambda_j) is 0
SCHUR_PIVOT_RTOL = 1e-13
#: Lyapunov residual allowed, times ||L||_inf max|Sigma|: Bartels-Stewart leaves about
#: m eps ||Lbar|| ||Sigma||, m the order (Higham 2002, ch. 16), some 1e4 times less
LYAPUNOV_RESIDUAL_RTOL = 1e-8
#: sweep frequencies back-substituted together, bounding the workspace
SWEEP_CHUNK = 256
#: the sweep samples w = 0 and this many log-spaced frequencies between
#: SWEEP_LO and SWEEP_HI times the spectral radius of L1
SWEEP_POINTS = 2000
SWEEP_LO = 1e-6
SWEEP_HI = 1e4

REGIME_NECESSARY_AND_SUFFICIENT = "NecessaryAndSufficient"
REGIME_SUFFICIENT_ONLY = "SufficientOnly"


@dataclass(frozen=True)
class DeltaStarResult:
    """Critical perturbation magnitude and its supporting crossings."""

    delta_star: float
    crossings: tuple[tuple[float, float], ...]  # (omega, Re G) pairs, finite only
    omega_star: float
    regime: str
    necessary_bound: float


def _input_vectors(n: int, u: int, v: int, q_uv: float, q_vu: float) -> np.ndarray:
    """Rows b = q_uv e_u - q_vu e_v and c = e_u - e_v, in node coordinates."""
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"pair ({u}, {v}) out of range 1..{n}")
    if u == v:
        raise ValueError("pair endpoints must differ")
    bc = np.zeros((2, n))
    bc[:, u - 1] = q_uv, 1.0
    bc[:, v - 1] = -q_vu, -1.0
    return bc


def _sweep_omegas(radius: float) -> np.ndarray:
    """w = 0, then ``SWEEP_POINTS`` log-spaced frequencies from SWEEP_LO to SWEEP_HI x radius."""
    return np.concatenate([[0.0], np.logspace(math.log10(SWEEP_LO * radius),
                                              math.log10(SWEEP_HI * radius), SWEEP_POINTS)])


def nyquist_sweep(g1: SignedDigraph, pert: EdgePerturbation) -> tuple[np.ndarray, np.ndarray]:
    """G(j w) over ``_sweep_omegas`` as arrays (w, G), ending with the w -> inf limit 0.

    G is ``delta_star``'s, on the pair's slice.  Back-substitutes ``T - j w I`` of one complex
    Schur form ``Z T Z^H`` of the slice matrix for a chunk of frequencies at once (Laub 1981);
    the grid scales with the spectral radius of L1, and samples within
    ``SCHUR_PIVOT_RTOL * ||L1||_inf`` of an eigenvalue are skipped with a warning.
    """
    import scipy.linalg  # imported here, as in solve_lyapunov, so delta_star runs without it

    _, (a, b, c), scale, radius = _pair_slice(g1, pert)
    omegas, tol = _sweep_omegas(radius), SCHUR_PIVOT_RTOL * scale
    T, Z = scipy.linalg.schur(a, output="complex")
    bt, ct = Z.conj().T @ b, Z.T @ c
    kept, parts = [], []  # per chunk: the frequencies not skipped, and G there
    for start in range(0, omegas.size, SWEEP_CHUNK):
        chunk = omegas[start:start + SWEEP_CHUNK]
        shifted = np.diag(T)[:, None] - 1j * chunk
        singular = (np.abs(shifted) <= tol).any(axis=0)
        for omega in chunk[singular]:
            logger.warning("skipping singular sample at omega=%g", omega)
        shifted = shifted[:, ~singular]
        X = np.empty(shifted.shape, dtype=complex)
        for i in range(T.shape[0] - 1, -1, -1):
            X[i] = (bt[i] - T[i, i + 1:] @ X[i + 1:]) / shifted[i]
        kept.append(chunk[~singular])
        parts.append(ct @ X)
    omegas = np.append(np.concatenate(kept), math.inf)
    values = np.append(np.concatenate(parts), 0j)
    values.imag[omegas == 0.0] = 0.0  # G(j0) is real; drop the complex Schur rounding
    return omegas, values


def _crossing_frequencies(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          scale: float) -> np.ndarray:
    """Ascending w > 0 with Im G(j w) = w c^T (a^2 + w^2 I)^(-1) b = 0, G = c^T (a - s I)^(-1) b.

    These are sigma Im s for the zeros s = j w / sigma of ``c^T (s I - A)^(-1) (s I + A)^(-1) b``,
    A = a / sigma, sigma the power of two just above ``scale``: the cascade M = [[A, I], [0, -A]],
    B = [0; b], C = [c^T, 0] has CB = 0 and CMB = c^T b = q_uv + q_vu > 0, so its 2m - 2 zeros
    are the eigenvalues of M - B (CMB)^(-1) [c^T A^2, 0] on ker C and ker CM, one ``eig`` with
    no infinite zero (Emami-Naeini & Van Dooren 1982).  s = 0 is left to the w = 0 solve.
    """
    sigma = math.ldexp(1.0, math.frexp(scale)[1])
    A, m = a / sigma, a.shape[0]
    if m == 1:  # a two-node sink slice, projected: one pole and no finite zero
        return np.empty(0)
    cA = c @ A  # C^T = [c; 0] and (CM)^T = [A^T c; c] span the complement of the kernel
    kernel = np.linalg.qr(np.column_stack([np.append(c, np.zeros(m)), np.append(cA, c)]),
                          mode="complete")[0][:, 2:]
    F = np.block([[A, np.eye(m)], [np.outer(b, cA @ A) / -(c @ b), -A]])
    s = np.linalg.eigvals(kernel.T @ F @ kernel)
    crossing = (np.abs(s.real) <= REAL_ZERO_RTOL * np.abs(s)) & (s.imag > 0)
    return sigma * np.sort(s.imag[crossing])


def _pair_slice(g1: SignedDigraph, pert: EdgePerturbation) -> tuple:
    """Once the premise holds: (L1[S, S], b, c) on the pair's slice S, the (a, b, c) G is solved
    in (those, in S's Helmert basis if S holds the sink), ||L1||_inf and max |lambda| of L1."""
    L1 = laplacian(g1)
    bc = _input_vectors(g1.n, pert.u, pert.v, pert.q_uv, pert.q_vu)
    scale, cond = matrix_scale(L1), condensation(g1)
    if not spectrum_condition(values := block_spectrum(L1, cond), scale):
        raise PremiseError("base Laplacian must have one zero eigenvalue and all other "
                           "eigenvalues with positive real part")
    cu, cv = cond.labels[[pert.u - 1, pert.v - 1]]
    comps = cond.between(cu, cv) | cond.between(cv, cu)
    comps[[cu, cv]] = True
    below = cond.closure[comps]
    sink = (below.sum(axis=1) == 1).any()  # then close S downward, and L1[S, S] is a Laplacian
    nodes = np.flatnonzero((below.any(axis=0) if sink else comps)[cond.labels])
    ls, (bs, cs) = L1[np.ix_(nodes, nodes)], bc[:, nodes]
    Q = helmert_basis(nodes.size) if sink else None
    a, b, c = (reduced_laplacian(ls, Q), Q @ bs, Q @ cs) if sink else (ls, bs, cs)
    return (ls, bs, cs), (a, b, c), scale, float(np.abs(values).max())


def delta_star(g1: SignedDigraph, pert: EdgePerturbation) -> DeltaStarResult:
    """Critical magnitude for the perturbation of pair (u, v) on base graph g1.

    Requires the base Laplacian to satisfy the one-zero/right-half-plane spectrum condition.
    A premise graph always has a crossing with positive real part: the perturbed trace falls
    as delta grows, so the condition fails at some finite delta_c, where G(j w) = 1 / delta_c.
    Finding none raises ``NumericsError``.
    """
    (ls, bs, cs), (a, b, c), scale, _ = _pair_slice(g1, pert)

    def newton(omega: float) -> tuple[complex, float]:  # G(j w) and the step to Im G(j w) = 0
        shifted = ls - 1j * omega * np.eye(len(ls))
        x = np.linalg.solve(shifted, bs)  # dG/dw = j c^T (L1[S, S] - j w I)^-2 b
        return cs @ x, (cs @ x).imag / (cs @ np.linalg.solve(shifted, x)).real

    crossings = [(0.0, float(c @ np.linalg.solve(a, b)))]
    for omega in _crossing_frequencies(a, b, c, matrix_scale(a)).tolist():
        # a zero s near 0 errs by about eps / |s|, as +-s pair up: Newton steps in node
        # coordinates polish w while each moves it by under w / 2 and brings Im G closer to 0
        g, step = newton(omega)
        while abs(step) < omega / 2 and abs((near := newton(omega - step))[0].imag) < abs(g.imag):
            omega, (g, step) = omega - step, near
        crossings.append((omega, float(g.real)))

    re_tol, g0 = CROSSING_RE_TOL / scale, crossings[0][1]
    necessary = 1.0 / g0 if g0 > re_tol else math.inf
    positive = [(w, re) for w, re in crossings if re > re_tol]
    if not positive:
        raise NumericsError(
            f"no real-axis crossing with positive real part among {len(crossings)}; "
            "a premise graph always has one, so the crossing computation failed"
        )

    re_max = max(re for _, re in positive)
    omega_star = min(w for w, re in positive if re >= re_max * (1.0 - ACHIEVER_RTOL))
    return DeltaStarResult(
        delta_star=1.0 / re_max,
        crossings=tuple(crossings),
        omega_star=omega_star,
        regime=REGIME_NECESSARY_AND_SUFFICIENT if omega_star == 0.0 else REGIME_SUFFICIENT_ONLY,
        necessary_bound=necessary,
    )


@dataclass(frozen=True)
class EffectiveResistance:
    """Pairwise resistance value with the method that produced it."""

    value: float
    method: str

    UNDIRECTED = "UndirectedClosedForm"
    DIRECTED = "DirectedLyapunov"


def effective_resistance_undirected(g_plus: SignedDigraph, u: int, v: int) -> EffectiveResistance:
    """(e_u - e_v)^T Q^T (Lbar+)^(-1) Q (e_u - e_v) for a connected undirected graph."""
    for (i, j), w in g_plus.edges.items():
        if w <= 0:
            raise PremiseError("undirected resistance requires positive weights")
        if abs(w - g_plus.weight(j, i)) > SYMMETRY_RTOL * w:
            raise PremiseError(f"asymmetric weights on pair ({i}, {j})")
    if condensation(g_plus).k != 1:
        raise PremiseError("graph is disconnected")
    Q = helmert_basis(g_plus.n)
    lbar = reduced_laplacian(laplacian(g_plus), Q)
    c = Q @ _input_vectors(g_plus.n, u, v, 1.0, 1.0)[1]
    value = float(c @ np.linalg.solve(lbar, c))
    return EffectiveResistance(value=value, method=EffectiveResistance.UNDIRECTED)


def _schur_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real Schur form: a 2 x 2 block [[a, b], [c, a]] holds a +- i sqrt(-bc).

    b and c have opposite signs; sqrt(|b|) sqrt(|c|) does not overflow where bc would, past
    weights of about 2^507."""
    w = np.sqrt(np.abs(np.diag(T, 1))) * np.sqrt(np.abs(np.diag(T, -1)))  # 0 where c is 0
    return np.diag(T) + 1j * (np.append(w, 0.0) - np.append(0.0, w))


def solve_lyapunov(lbar: np.ndarray, scale: float) -> np.ndarray:
    """Solve Lbar S + S Lbar^T = I by the dense Schur (Bartels-Stewart) method.

    One real Schur form ``Z T Z^T`` of Lbar gives the eigenvalues and feeds LAPACK ``trsyl``
    as scipy's ``solve_continuous_lyapunov`` does.  Solvable iff no two eigenvalues sum to 0,
    judged at ``scale``, ||L||_inf of the L that ``Lbar = Q L Q^T`` reduces.
    """
    import scipy.linalg

    if not np.isfinite(lbar).all():
        raise NumericsError("Lyapunov equation with a non-finite Lbar")
    T, Z = scipy.linalg.schur(lbar, output="real")
    values = _schur_eigenvalues(T)
    # each sum lambda_i + conj(lambda_j) at the scale of its two terms, or of a zero's roundoff
    sums = np.abs(values[:, None] + values[None, :].conj())
    terms = np.abs(values)[:, None] + np.abs(values)[None, :]
    if (sums <= np.maximum(zero_threshold(terms), SCHUR_PIVOT_RTOL * scale)).any():
        raise PremiseError("Lyapunov equation unsolvable: eigenvalues sum to zero")
    eye = np.eye(lbar.shape[0])
    y, s, info = scipy.linalg.lapack.dtrsyl(T, T, Z.T.dot(eye.dot(Z)), tranb="T")
    if info != 0:
        raise NumericsError(f"Lyapunov Schur solve failed (trsyl info {info})")
    sigma = Z.dot(y * s).dot(Z.T)
    residual = np.abs(lbar @ sigma + sigma @ lbar.T - eye).max()
    if not residual <= LYAPUNOV_RESIDUAL_RTOL * scale * np.abs(sigma).max():
        raise NumericsError(f"Lyapunov residual too large: {residual:.3e}")
    return sigma


def effective_resistance_directed(g: SignedDigraph, u: int, v: int) -> EffectiveResistance:
    """2 (e_u - e_v)^T Q^T Sigma Q (e_u - e_v) with Sigma the Lyapunov solution."""
    L, Q = laplacian(g), helmert_basis(g.n)
    sigma = solve_lyapunov(reduced_laplacian(L, Q), matrix_scale(L))
    c = Q @ _input_vectors(g.n, u, v, 1.0, 1.0)[1]
    return EffectiveResistance(value=float(2.0 * c @ sigma @ c), method=EffectiveResistance.DIRECTED)
