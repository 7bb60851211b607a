"""Critical negative-weight bounds via frequency-domain crossings.

For a base graph whose Laplacian has a single zero eigenvalue and all other
eigenvalues in the open right half plane, perturbing the pair (u, v) with
weights ``-delta q_uv`` and ``-delta q_vu`` keeps that property for all
``delta`` below a critical magnitude ``delta*``.  The bound is read off the
transfer map

    G(j w) = (e_u - e_v)^T Q^T (Lbar1 - j w I)^(-1) Q (q_uv e_u - q_vu e_v):

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
import scipy.linalg

from .errors import NumericsError, PremiseError
from .graph import EdgePerturbation, SignedDigraph, laplacian, matrix_scale
from .reach import condensation
from .spectral import (block_spectrum, helmert_basis, reduced_laplacian, spectrum_condition,
                       zero_threshold)

logger = logging.getLogger(__name__)

#: real-axis crossings need Re G above this to yield a finite positive delta
CROSSING_RE_TOL = 1e-12
#: |Im s| / |s| under which a zero s counts as real: a double real zero (a tangency)
#: splits under rounding by about sqrt(eps) |s|, and admitting it only lowers delta*
REAL_ZERO_RTOL = 1e-6
#: relative slack when collecting the crossings that attain the maximum
ACHIEVER_RTOL = 1e-9
#: largest relative difference |w_ij - w_ji| / w_ij of an undirected graph's two directions
SYMMETRY_RTOL = 1e-12
#: crossings at w up to 1e-8 * max(scale, 1) are the w = 0 crossing itself
OMEGA_ZERO_FACTOR = 1e-8
#: a Schur pivot under this times ||Lbar||, a few hundred times the Schur form's backward
#: error, is roundoff of a zero: a sweep sample with |T_ii - j w| under it sits on an
#: eigenvalue and is skipped, and a Lyapunov sum lambda_i + conj(lambda_j) under it is 0
SCHUR_PIVOT_RTOL = 1e-13
#: sweep frequencies back-substituted together, bounding the workspace
SWEEP_CHUNK = 256
#: the sweep samples w = 0 and this many log-spaced frequencies between
#: SWEEP_LO and SWEEP_HI times the spectral radius of Lbar1
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


def _input_vectors(Q: np.ndarray, u: int, v: int,
                   q_uv: float, q_vu: float) -> tuple[np.ndarray, np.ndarray]:
    n = Q.shape[1]
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"pair ({u}, {v}) out of range 1..{n}")
    if u == v:
        raise ValueError("pair endpoints must differ")
    eu = np.zeros(n)
    ev = np.zeros(n)
    eu[u - 1] = 1.0
    ev[v - 1] = 1.0
    return Q @ (q_uv * eu - q_vu * ev), Q @ (eu - ev)


def r_value(lbar1: np.ndarray, Q: np.ndarray, u: int, v: int,
            q_uv: float, q_vu: float, omega: float) -> complex:
    """(e_u - e_v)^T Q^T (Lbar1 - j w I)^(-1) Q (q_uv e_u - q_vu e_v).

    Evaluated through one linear solve.  At w = 0 the result is real and is
    returned with zero imaginary part.
    """
    b, c = _input_vectors(Q, u, v, q_uv, q_vu)
    m = lbar1.shape[0]
    try:
        if omega == 0.0:
            return complex(c @ np.linalg.solve(lbar1, b))
        x = np.linalg.solve(lbar1 - 1j * omega * np.eye(m), b)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"system singular at omega={omega}") from exc
    return complex(c @ x)


def _sweep_omegas(radius: float) -> np.ndarray:
    """w = 0, then ``SWEEP_POINTS`` log-spaced frequencies from SWEEP_LO to SWEEP_HI x radius."""
    radius = max(radius, 1e-30)
    return np.concatenate([[0.0], np.logspace(math.log10(SWEEP_LO * radius),
                                              math.log10(SWEEP_HI * radius), SWEEP_POINTS)])


def nyquist_sweep(lbar1: np.ndarray, Q: np.ndarray, u: int, v: int,
                  q_uv: float, q_vu: float) -> tuple[np.ndarray, np.ndarray]:
    """G(j w) over ``_sweep_omegas`` as arrays (w, G), ending with the w -> inf limit 0.

    Back-substitutes ``T - j w I`` of one complex Schur form ``Z T Z^H`` of
    Lbar1 for a chunk of frequencies at once (Laub 1981); the grid scales with
    the spectral radius max |T_ii|, and samples on an eigenvalue are skipped
    with a warning.
    """
    b, c = _input_vectors(Q, u, v, q_uv, q_vu)
    T, Z = scipy.linalg.schur(lbar1, output="complex")
    omegas = _sweep_omegas(float(np.abs(np.diag(T)).max()))
    bt, ct = Z.conj().T @ b, Z.T @ c
    tol = SCHUR_PIVOT_RTOL * max(matrix_scale(lbar1), 1.0)
    kept: list[np.ndarray] = []
    parts: list[np.ndarray] = []
    for start in range(0, omegas.size, SWEEP_CHUNK):
        chunk = omegas[start:start + SWEEP_CHUNK]
        shifted = np.diag(T)[:, None] - 1j * chunk
        singular = (np.abs(shifted) < tol).any(axis=0)
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


def _crossing_frequencies(lbar1: np.ndarray, b: np.ndarray, c: np.ndarray,
                          omega_zero: float) -> np.ndarray:
    """Ascending w > omega_zero with Im G(j w) = w c^T (A^2 + w^2 I)^(-1) b = 0, A = Lbar1.

    These are sqrt(s) for the real zeros s > 0 of ``(-A^2, b, c^T)``, found by
    one QZ call on its pencil ``[[-A^2, b], [c^T, 0]] - s diag(I, 0)``
    (Emami-Naeini & Van Dooren 1982).  It is regular as ``c^T b = q_uv + q_vu
    > 0``; no pole cancels a zero s > 0 as A has no imaginary-axis eigenvalue.
    Zeros up to ``omega_zero^2`` are the w = 0 crossing itself.
    """
    m = lbar1.shape[0]
    pencil = np.zeros((m + 1, m + 1))
    pencil[:m, :m] = -lbar1 @ lbar1
    pencil[:m, m] = b
    pencil[m, :m] = c
    mass = np.diag(np.append(np.ones(m), 0.0))
    alpha, beta = scipy.linalg.eigvals(pencil, mass, homogeneous_eigvals=True)
    # A zero s is an eigenvalue of -A^2 after the oblique projection I - b c^T / c^T b,
    # so |s| <= bound (doubled for rounding); QZ may return an infinite zero as alpha
    # over a beta at rounding level, far beyond it.
    bound = np.linalg.norm(b) * np.linalg.norm(c) / (c @ b) * np.linalg.norm(pencil[:m, :m])
    finite = np.abs(alpha) <= 2.0 * bound * np.abs(beta)
    zeros = alpha[finite] / beta[finite]
    real = np.abs(zeros.imag) <= REAL_ZERO_RTOL * np.abs(zeros)
    return np.sort(np.sqrt(zeros.real[real & (zeros.real > omega_zero**2)]))


def delta_star(g1: SignedDigraph, pert: EdgePerturbation) -> DeltaStarResult:
    """Critical magnitude for the perturbation of pair (u, v) on base graph g1.

    Requires the base Laplacian to satisfy the one-zero/right-half-plane
    spectrum condition.  G is evaluated by one solve at w = 0 and at each
    crossing from ``_crossing_frequencies``.  A premise graph always has a
    crossing with positive real part: the perturbed trace falls as delta
    grows, so the condition fails at some finite delta_c, where
    ``G(j w) = 1 / delta_c``.  Finding none raises ``NumericsError``.
    """
    Q = helmert_basis(g1.n)
    u, v, q_uv, q_vu = pert.u, pert.v, pert.q_uv, pert.q_vu
    b, c = _input_vectors(Q, u, v, q_uv, q_vu)
    L1 = laplacian(g1)
    values = block_spectrum(L1, condensation(g1))
    if not spectrum_condition(values, matrix_scale(L1)):
        raise PremiseError(
            "base Laplacian must have one zero eigenvalue and all other "
            "eigenvalues with positive real part"
        )
    # Lbar1 has the spectrum of L1 less one zero, so the same magnitude
    omega_zero = OMEGA_ZERO_FACTOR * max(float(np.abs(values).max()), 1.0)
    lbar1 = reduced_laplacian(L1, Q)

    crossings = [(omega, r_value(lbar1, Q, u, v, q_uv, q_vu, omega).real)
                 for omega in (0.0, *_crossing_frequencies(lbar1, b, c, omega_zero).tolist())]
    g0 = crossings[0][1]
    necessary = 1.0 / g0 if g0 > CROSSING_RE_TOL else math.inf
    positive = [(w, re) for w, re in crossings if re > CROSSING_RE_TOL]
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
    _, c = _input_vectors(Q, u, v, 1.0, 1.0)
    value = float(c @ np.linalg.solve(lbar, c))
    return EffectiveResistance(value=value, method=EffectiveResistance.UNDIRECTED)


def _schur_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real Schur form: a 2 x 2 block [[a, b], [c, a]] holds a +- i sqrt(-bc)."""
    w = np.sqrt(-np.diag(T, 1) * np.diag(T, -1))  # 0 where the subdiagonal c is 0
    return np.diag(T) + 1j * (np.append(w, 0.0) - np.append(0.0, w))


def solve_lyapunov(lbar: np.ndarray) -> np.ndarray:
    """Solve Lbar S + S Lbar^T = I by the dense Schur (Bartels-Stewart) method.

    One real Schur form ``Z T Z^T`` of Lbar gives the eigenvalues and feeds LAPACK ``trsyl``
    as scipy's ``solve_continuous_lyapunov`` does.  Solvable iff no two eigenvalues sum to 0.
    """
    if not np.isfinite(lbar).all():
        raise NumericsError("Lyapunov equation with a non-finite Lbar")
    T, Z = scipy.linalg.schur(lbar, output="real")
    values = _schur_eigenvalues(T)
    scale = max(matrix_scale(lbar), 1.0)
    # each sum lambda_i + conj(lambda_j) at the scale of its two terms, or of a zero's roundoff
    sums = np.abs(values[:, None] + values[None, :].conj())
    terms = np.abs(values)[:, None] + np.abs(values)[None, :]
    if (sums < np.maximum(zero_threshold(terms), SCHUR_PIVOT_RTOL * scale)).any():
        raise PremiseError("Lyapunov equation unsolvable: eigenvalues sum to zero")
    eye = np.eye(lbar.shape[0])
    y, s, info = scipy.linalg.lapack.dtrsyl(T, T, Z.T.dot(eye.dot(Z)), tranb="T")
    if info != 0:
        raise NumericsError(f"Lyapunov Schur solve failed (trsyl info {info})")
    sigma = Z.dot(y * s).dot(Z.T)
    residual = np.abs(lbar @ sigma + sigma @ lbar.T - eye).max()
    if residual > 1e-8 * scale:
        raise NumericsError(f"Lyapunov residual too large: {residual:.3e}")
    return sigma


def effective_resistance_directed(g: SignedDigraph, u: int, v: int) -> EffectiveResistance:
    """2 (e_u - e_v)^T Q^T Sigma Q (e_u - e_v) with Sigma the Lyapunov solution."""
    L = laplacian(g)
    Q = helmert_basis(g.n)
    lbar = reduced_laplacian(L, Q)
    sigma = solve_lyapunov(lbar)
    _, c = _input_vectors(Q, u, v, 1.0, 1.0)
    return EffectiveResistance(value=float(2.0 * c @ sigma @ c), method=EffectiveResistance.DIRECTED)
