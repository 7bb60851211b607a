"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines and timings on stdout.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from signedlap import (
    EdgePerturbation,
    SignedDigraph,
    Simulation,
    condensation,
    delta_star,
    helmert_basis,
    laplacian,
    matrix_scale,
    null_basis,
    reach_decomposition,
    reduced_laplacian,
    solve_lyapunov,
    superpose,
)
from signedlap.robustness import REGIME_NECESSARY_AND_SUFFICIENT
from signedlap.simulate import default_dt, default_horizon
from signedlap.spectral import ZERO_TOL

from conftest import (
    bisection_delta_star,
    load_graph,
    random_multi_reach_graph,
    random_premise_graph,
    random_undirected_connected,
)
from helpers import (
    eigenvalues,
    first_order_zero_eigenvalues,
    householder_basis,
    match_predictions,
    r_value,
    rank_one_spectrum_check,
    theta_matrix,
    zero_group,
)


@contextmanager
def criterion(number: int, label: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number} {label}: {verdict} ({elapsed:.2f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s


def test_criterion_1_reference_graph_reproduction():
    with criterion(1, "12-node reference reproduction", 1.0):
        g = load_graph("reach12.txt")
        assert g.n == 12 and len(g.edges) == 15
        d = reach_decomposition(g)
        assert d.d == 3
        assert [sorted(r) for r in d.reaches] == [
            [1, 2, 8, 9, 10, 11, 12],
            [3, 4, 5, 8, 9, 10, 11, 12],
            [6, 7],
        ]
        assert [sorted(r) for r in d.reaching] == [[1, 2], [3], [7]]
        assert [sorted(r) for r in d.exclusive] == [[1, 2], [3, 4, 5], [6, 7]]
        assert [sorted(r) for r in d.common] == [
            [8, 9, 10, 11, 12],
            [8, 9, 10, 11, 12],
            [],
        ]
        values = eigenvalues(laplacian(g))
        # All eigenvalues are real: nodes 8 and 9 sit in singleton diagonal
        # blocks of the block-triangular form, contributing 4 and 8 exactly.
        expected = [0.0, 0.0, 0.0, 1.101, 2.265, 3.0, 4.0, 7.0, 8.0, 10.899, 22.0, 39.735]
        assert_allclose(values.imag, 0.0, atol=1e-3)
        assert_allclose(np.sort(values.real), expected, atol=1e-3)
        basis = null_basis(laplacian(g), d)
        common = [i - 1 for i in range(8, 13)]
        assert_allclose(basis.gammas[0][common], 0.25, atol=1e-9)
        assert_allclose(basis.gammas[1][common], 0.75, atol=1e-9)
        mu1 = np.zeros(12)
        mu1[0], mu1[1] = 1 / 3, 2 / 3
        assert_allclose(basis.mus[0], mu1, atol=1e-9)


def test_criterion_2_delta_star_golden_values():
    with criterion(2, "critical-magnitude golden values", 15.0):
        start = time.perf_counter()
        spoked8 = load_graph("spoked8.txt")
        res = delta_star(spoked8, EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0))
        assert abs(res.delta_star - 1.94285) <= 1e-3
        assert res.regime == REGIME_NECESSARY_AND_SUFFICIENT
        assert time.perf_counter() - start < 5.0

        start = time.perf_counter()
        mixed5 = load_graph("mixed5.txt")
        res12 = delta_star(mixed5, EdgePerturbation(1, 2, q_uv=1.0, q_vu=1.0))
        assert abs(res12.delta_star - 0.52) <= 0.01
        assert res12.omega_star == pytest.approx(0.6, abs=0.05)
        assert abs(res12.necessary_bound - 1.8) <= 0.05
        assert time.perf_counter() - start < 5.0

        start = time.perf_counter()
        res25 = delta_star(mixed5, EdgePerturbation(2, 5, q_uv=1.0, q_vu=1.0))
        assert abs(res25.delta_star - 2.3239) <= 1e-3
        assert res25.regime == REGIME_NECESSARY_AND_SUFFICIENT
        assert time.perf_counter() - start < 5.0


def test_criterion_3_bisection_oracle_consistency():
    with criterion(3, "frequency bound vs spectral bisection on 50 random graphs", 60.0):
        rng = np.random.default_rng(20250810)
        gain_options = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        done = 0
        while done < 50:
            n = int(rng.integers(3, 11))
            g = random_premise_graph(rng, n)
            u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            q_uv, q_vu = gain_options[int(rng.integers(0, 3))]
            if q_uv == 0.0 and rng.uniform() < 0.5:
                q_uv, q_vu = 1.0, float(rng.uniform(0.2, 1.0))
            pert = EdgePerturbation(int(u), int(v), q_uv, q_vu)
            result = delta_star(g, pert)
            assert np.isfinite(result.delta_star)
            oracle = bisection_delta_star(g, pert)
            if result.regime == REGIME_NECESSARY_AND_SUFFICIENT:
                assert abs(result.delta_star - oracle) < 1e-6 * max(result.delta_star, 1.0)
            else:
                assert result.delta_star <= oracle + 1e-6
            done += 1


def test_criterion_4_infinitesimal_coupling_reproduction():
    with criterion(4, "infinitesimal negative coupling eigenvalue counts", 1.0):
        g = load_graph("reach12.txt")
        uniform = SignedDigraph(12, {k: 2.0 for k in g.edges})
        eps = 1e-4
        sensitive = SignedDigraph(12, {(7, 9): -eps, (1, 4): -eps})
        L = laplacian(superpose(uniform, sensitive))
        values = eigenvalues(L)
        thr = ZERO_TOL * max(matrix_scale(L), 1.0)
        assert np.sum(values.real < -thr) == 2
        silent = SignedDigraph(
            12, {(3, 4): -eps, (7, 6): -eps, (6, 5): -eps, (4, 8): -eps}
        )
        L = laplacian(superpose(uniform, silent))
        values = eigenvalues(L)
        thr = ZERO_TOL * max(matrix_scale(L), 1.0)
        assert np.sum(values.real < -thr) == 0


def test_criterion_5_property_suites():
    with criterion(5, "property suites", 120.0):
        rng = np.random.default_rng(998877)

        # rank-one spectrum identity on 100 random instances
        for _ in range(100):
            n = int(rng.integers(3, 9))
            g = random_premise_graph(rng, n)
            u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            pert = EdgePerturbation(int(u), int(v), 1.0, 1.0,
                                    delta=float(rng.uniform(0.0, 1.0)))
            Q = helmert_basis(n)
            lbar1 = reduced_laplacian(laplacian(g), Q)
            lbar = reduced_laplacian(laplacian(superpose(g, pert.graph(n))), Q)
            rank_one_spectrum_check(lbar1, lbar, Q, int(u), int(v), pert, tol=1e-8)

        # diagonal sign table on 100 random single-edge perturbations
        done = 0
        while done < 100:
            g1 = random_multi_reach_graph(
                rng, blocks=int(rng.integers(2, 4)), block_size=int(rng.integers(1, 4))
            )
            decomp = reach_decomposition(g1)
            basis = null_basis(laplacian(g1), decomp)
            u, v = rng.integers(1, g1.n + 1, size=2)
            u, v = int(u), int(v)
            if u == v or (u, v) in g1.edges:
                continue
            g2 = SignedDigraph(g1.n, {(u, v): -float(rng.uniform(0.1, 2.0))})
            theta = theta_matrix(g1, decomp, basis, g2)
            for i in range(decomp.d):
                if u not in decomp.reaching[i] or v in decomp.exclusive[i]:
                    assert abs(theta[i, i]) <= 1e-12
                else:
                    assert theta[i, i] < -1e-12
            done += 1

        # first-order prediction error shrinks at least linearly in eps
        done = 0
        while done < 8:
            g1 = random_multi_reach_graph(rng, blocks=2, block_size=int(rng.integers(2, 4)))
            decomp = reach_decomposition(g1)
            basis = null_basis(laplacian(g1), decomp)
            u, v = rng.integers(1, g1.n + 1, size=2)
            u, v = int(u), int(v)
            if u == v or (u, v) in g1.edges:
                continue
            g2 = SignedDigraph(g1.n, {(u, v): -1.0})
            theta = theta_matrix(g1, decomp, basis, g2)
            errors = []
            for eps in (1e-4, 1e-5, 1e-6):
                predicted = first_order_zero_eigenvalues(theta, eps)
                scaled = SignedDigraph(g1.n, {k: eps * w for k, w in g2.edges.items()})
                exact = eigenvalues(laplacian(superpose(g1, scaled)))
                errors.append(match_predictions(predicted, zero_group(exact, decomp.d)))
            for bigger, smaller in zip(errors, errors[1:]):
                if bigger > 1e-12:
                    assert smaller <= bigger / 5.0
            done += 1

        # Lyapunov residual and the undirected closed form
        for _ in range(10):
            g = random_undirected_connected(rng, int(rng.integers(3, 9)))
            Q = helmert_basis(g.n)
            L = laplacian(g)
            lbar = reduced_laplacian(L, Q)
            sigma = solve_lyapunov(lbar, matrix_scale(L))
            m = g.n - 1
            assert np.abs(lbar @ sigma + sigma @ lbar.T - np.eye(m)).max() < 1e-8
            assert_allclose(sigma, 0.5 * np.linalg.inv(lbar), atol=1e-8)
            assert np.abs(sigma - sigma.T).max() < 1e-10

        # basis invariance of spectra and static responses
        for _ in range(20):
            n = int(rng.integers(3, 9))
            g = random_premise_graph(rng, n)
            L = laplacian(g)
            qh, qr = helmert_basis(n), householder_basis(n)
            ev_h = eigenvalues(reduced_laplacian(L, qh))
            ev_r = eigenvalues(reduced_laplacian(L, qr))
            assert match_predictions(ev_h, ev_r) <= 1e-9 * max(matrix_scale(L), 1.0)
            u, v = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            a = r_value(reduced_laplacian(L, qh), qh, int(u), int(v), 1.0, 1.0, 0.0)
            b = r_value(reduced_laplacian(L, qr), qr, int(u), int(v), 1.0, 1.0, 0.0)
            assert abs(a - b) < 1e-9


def test_criterion_6_consensus_demonstration():
    with criterion(6, "consensus flips across the critical magnitude", 5.0):
        g = load_graph("spoked8.txt")
        rng = np.random.default_rng(42)
        x0 = rng.uniform(-1.0, 1.0, 8)
        outcomes = {}
        for delta in (1.5, 1.95):
            pert = EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0, delta=delta)
            gp = superpose(g, pert.graph(8))
            L = laplacian(gp)
            sim = Simulation(L, x0, dt=default_dt(L), horizon=default_horizon(L, condensation(gp)))
            for _ in sim:
                pass
            outcomes[delta] = sim.consensus(1e-6)
        assert outcomes[1.5] is True
        assert outcomes[1.95] is False
