import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from signedlap import (
    EdgePerturbation,
    NumericsError,
    PremiseError,
    SignedDigraph,
    delta_star,
    effective_resistance_directed,
    effective_resistance_undirected,
    helmert_basis,
    laplacian,
    nyquist_sweep,
    r_value,
    reduced_laplacian,
    solve_lyapunov,
    superpose,
)
import signedlap.robustness as robustness
from signedlap.robustness import (
    REGIME_NECESSARY_AND_SUFFICIENT,
    REGIME_SUFFICIENT_ONLY,
    _sweep_omegas,
)

from conftest import bisection_delta_star, random_premise_graph, random_undirected_connected
from helpers import (check_spectrum_condition, eigenvalues, householder_basis, match_predictions,
                     rank_one_spectrum_check)


def lbar_of(g):
    Q = helmert_basis(g.n)
    return reduced_laplacian(laplacian(g), Q), Q


def test_r_value_unit_path():
    g = SignedDigraph(2, {(1, 2): 1.0, (2, 1): 1.0})
    lbar, Q = lbar_of(g)
    assert r_value(lbar, Q, 1, 2, 1.0, 1.0, 0.0) == pytest.approx(1.0)


def test_r_value_zero_gains():
    g = SignedDigraph(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0})
    lbar, Q = lbar_of(g)
    assert r_value(lbar, Q, 1, 2, 0.0, 0.0, 0.7) == 0.0


def test_r_value_mixed5_static(mixed5):
    lbar, Q = lbar_of(mixed5)
    val = r_value(lbar, Q, 2, 5, 1.0, 1.0, 0.0)
    assert val.imag == 0.0
    assert val.real == pytest.approx(71.0 / 165.0, abs=1e-12)
    assert val.real == pytest.approx(1.0 / 2.3239, abs=1e-3)


def test_r_value_basis_invariance():
    rng = np.random.default_rng(101)
    for _ in range(8):
        g = random_premise_graph(rng, 6)
        L = laplacian(g)
        qh, qr = helmert_basis(6), householder_basis(6)
        for omega in (0.0, 0.3, 2.5):
            a = r_value(reduced_laplacian(L, qh), qh, 1, 4, 1.0, 0.5, omega)
            b = r_value(reduced_laplacian(L, qr), qr, 1, 4, 1.0, 0.5, omega)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_r_value_rejects_equal_nodes():
    g = SignedDigraph(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0})
    lbar, Q = lbar_of(g)
    with pytest.raises(ValueError):
        r_value(lbar, Q, 2, 2, 1.0, 1.0, 0.0)


def test_nyquist_sweep_ends_with_asymptote(spoked8):
    lbar, Q = lbar_of(spoked8)
    omegas, values = nyquist_sweep(lbar, Q, 3, 8, 1.0, 0.0)
    assert math.isinf(omegas[-1])
    assert values[-1] == 0
    assert omegas[0] == 0.0
    assert values[0].imag == 0.0
    # this fixture's curve never re-crosses the real axis at finite frequency
    ims = values[1:-1].imag
    assert np.all(ims[:-1] * ims[1:] >= 0)


def test_delta_star_fixture(spoked8):
    result = delta_star(spoked8, EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0))
    assert result.delta_star == pytest.approx(68.0 / 35.0, abs=1e-9)
    assert result.regime == REGIME_NECESSARY_AND_SUFFICIENT
    assert result.omega_star == 0.0
    assert result.necessary_bound == pytest.approx(result.delta_star, rel=1e-12)


def test_delta_star_mixed5_symmetric_pair(mixed5):
    result = delta_star(mixed5, EdgePerturbation(1, 2, q_uv=1.0, q_vu=1.0))
    assert result.delta_star == pytest.approx(0.5258868, abs=1e-4)
    assert result.regime == REGIME_SUFFICIENT_ONLY
    assert result.omega_star == pytest.approx(0.6034, abs=1e-2)
    assert result.necessary_bound == pytest.approx(1.8, abs=1e-6)


def test_delta_star_mixed5_zero_crossing_pair(mixed5):
    result = delta_star(mixed5, EdgePerturbation(2, 5, q_uv=1.0, q_vu=1.0))
    assert result.delta_star == pytest.approx(165.0 / 71.0, abs=1e-9)
    assert result.regime == REGIME_NECESSARY_AND_SUFFICIENT
    assert result.omega_star == 0.0


def test_delta_star_premise_violation(reach12):
    with pytest.raises(PremiseError):
        delta_star(reach12, EdgePerturbation(3, 8))


def test_spectrum_condition(spoked8, reach12):
    assert check_spectrum_condition(spoked8)
    assert not check_spectrum_condition(reach12)
    assert not check_spectrum_condition(SignedDigraph(3, {}))
    for delta, expected in ((1.5, True), (1.95, False)):
        pert = EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0, delta=delta)
        assert check_spectrum_condition(superpose(spoked8, pert.graph(8))) is expected


def test_delta_star_matches_bisection_oracle(spoked8, mixed5):
    for g, pert in (
        (spoked8, EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0)),
        (mixed5, EdgePerturbation(2, 5, q_uv=1.0, q_vu=1.0)),
    ):
        result = delta_star(g, pert)
        assert result.necessary_bound >= result.delta_star * (1 - 1e-12)
        oracle = bisection_delta_star(g, pert)
        assert abs(result.delta_star - oracle) < 1e-6 * max(result.delta_star, 1.0)
    # sufficient-only: the frequency bound must not exceed the spectral flip
    result = delta_star(mixed5, EdgePerturbation(1, 2, q_uv=1.0, q_vu=1.0))
    oracle = bisection_delta_star(mixed5, EdgePerturbation(1, 2, q_uv=1.0, q_vu=1.0))
    assert result.delta_star <= oracle + 1e-6


def test_delta_star_safety_margins(spoked8, mixed5):
    for g, pert in (
        (spoked8, EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0)),
        (mixed5, EdgePerturbation(1, 2, q_uv=1.0, q_vu=1.0)),
        (mixed5, EdgePerturbation(2, 5, q_uv=1.0, q_vu=1.0)),
    ):
        result = delta_star(g, pert)
        below = EdgePerturbation(pert.u, pert.v, pert.q_uv, pert.q_vu, 0.99 * result.delta_star)
        assert check_spectrum_condition(superpose(g, below.graph(g.n)))
        if result.regime == REGIME_NECESSARY_AND_SUFFICIENT:
            above = EdgePerturbation(pert.u, pert.v, pert.q_uv, pert.q_vu, 1.01 * result.delta_star)
            assert not check_spectrum_condition(superpose(g, above.graph(g.n)))


def test_necessity_property_random():
    rng = np.random.default_rng(131)
    checked = 0
    for _ in range(40):
        g = random_premise_graph(rng, int(rng.integers(3, 8)))
        u, v = rng.choice(np.arange(1, g.n + 1), size=2, replace=False)
        d_uv, d_vu = rng.uniform(0.0, 3.0, size=2)
        if d_uv + d_vu < 1e-3:
            continue
        pert_graph = SignedDigraph(
            g.n,
            {
                k: w
                for k, w in (((int(u), int(v)), -d_uv), ((int(v), int(u)), -d_vu))
                if abs(w) > 1e-12
            },
        )
        if check_spectrum_condition(superpose(g, pert_graph)):
            lbar, Q = lbar_of(g)
            r = r_value(lbar, Q, int(u), int(v), d_uv, d_vu, 0.0).real
            assert r < 1.0
            checked += 1
    assert checked > 5


def test_static_response_positive_when_zero_crossing_binds(spoked8, mixed5):
    for g, pert in (
        (spoked8, EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0)),
        (mixed5, EdgePerturbation(2, 5, q_uv=1.0, q_vu=1.0)),
    ):
        result = delta_star(g, pert)
        assert result.regime == REGIME_NECESSARY_AND_SUFFICIENT
        lbar, Q = lbar_of(g)
        assert r_value(lbar, Q, pert.u, pert.v, pert.q_uv, pert.q_vu, 0.0).real > 0


def test_rank_one_spectrum_check_identity():
    rng = np.random.default_rng(211)
    g = random_premise_graph(rng, 6)
    lbar, Q = lbar_of(g)
    pert0 = EdgePerturbation(1, 4, q_uv=1.0, q_vu=1.0, delta=0.0)
    assert rank_one_spectrum_check(lbar, lbar, Q, 1, 4, pert0) == pytest.approx(1.0)


def test_rank_one_spectrum_check_random():
    rng = np.random.default_rng(223)
    for _ in range(10):
        g = random_premise_graph(rng, 6)
        u, v = rng.choice(np.arange(1, 7), size=2, replace=False)
        pert = EdgePerturbation(int(u), int(v), q_uv=1.0, q_vu=1.0, delta=0.1)
        lbar1, Q = lbar_of(g)
        lbar = reduced_laplacian(laplacian(superpose(g, pert.graph(6))), Q)
        got = rank_one_spectrum_check(lbar1, lbar, Q, int(u), int(v), pert)
        r = r_value(lbar1, Q, int(u), int(v), pert.delta, pert.delta, 0.0).real
        assert got == pytest.approx(1.0 - r, abs=1e-10)


def test_rank_one_spectrum_check_critical(spoked8):
    pert = EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0, delta=68.0 / 35.0)
    lbar1, Q = lbar_of(spoked8)
    lbar = reduced_laplacian(laplacian(superpose(spoked8, pert.graph(8))), Q)
    got = rank_one_spectrum_check(lbar1, lbar, Q, 3, 8, pert)
    assert got == pytest.approx(0.0, abs=1e-8)


def test_rank_one_spectrum_check_detects_mismatch():
    rng = np.random.default_rng(227)
    g = random_premise_graph(rng, 5)
    lbar1, Q = lbar_of(g)
    wrong = lbar1 + np.diag([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(NumericsError):
        rank_one_spectrum_check(lbar1, wrong, Q, 1, 3, EdgePerturbation(1, 3, delta=0.1))


def test_effective_resistance_undirected(triangle):
    unit = SignedDigraph(2, {(1, 2): 1.0, (2, 1): 1.0})
    assert effective_resistance_undirected(unit, 1, 2).value == pytest.approx(1.0)
    chain = SignedDigraph(
        3, {(1, 2): 1.0, (2, 1): 1.0, (2, 3): 1.0, (3, 2): 1.0}
    )
    assert effective_resistance_undirected(chain, 1, 3).value == pytest.approx(2.0)
    res = effective_resistance_undirected(triangle, 1, 2)
    assert res.value == pytest.approx(2.0 / 3.0)
    assert res.method == "UndirectedClosedForm"


def test_effective_resistance_undirected_rejects():
    for asym in (SignedDigraph(2, {(1, 2): 1.0, (2, 1): 2.0}),
                 SignedDigraph(2, {(1, 2): 1e-12, (2, 1): 1.9e-12})):  # 90 % apart
        with pytest.raises(PremiseError, match="asymmetric"):
            effective_resistance_undirected(asym, 1, 2)
    disconnected = SignedDigraph(4, {(1, 2): 1.0, (2, 1): 1.0, (3, 4): 1.0, (4, 3): 1.0})
    with pytest.raises(PremiseError):
        effective_resistance_undirected(disconnected, 1, 3)


def test_solve_lyapunov_scalar():
    assert_allclose(solve_lyapunov(np.array([[2.0]])), [[0.25]])


def test_solve_lyapunov_undirected_closed_form(triangle):
    lbar, _ = lbar_of(triangle)
    sigma = solve_lyapunov(lbar)
    assert_allclose(sigma, 0.5 * np.linalg.inv(lbar), atol=1e-8)
    assert np.abs(sigma - sigma.T).max() < 1e-10


def test_solve_lyapunov_random_residual():
    rng = np.random.default_rng(307)
    for _ in range(8):
        g = random_premise_graph(rng, 7)
        lbar, _ = lbar_of(g)
        sigma = solve_lyapunov(lbar)
        recon = lbar @ sigma + sigma @ lbar.T - np.eye(6)
        assert np.abs(recon).max() < 1e-8
        assert np.abs(sigma - sigma.T).max() < 1e-10


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 24))
def test_solve_lyapunov_is_scipys_solve_from_one_schur_form(seed, m):
    rng = np.random.default_rng(seed)
    # a random matrix shifted into the open right half plane keeps its complex pairs
    lbar = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-2, 2)
    lbar += (rng.uniform(0.1, 1.0) - eigenvalues(lbar).real.min()) * np.eye(m)
    assert np.array_equal(solve_lyapunov(lbar),
                          scipy.linalg.solve_continuous_lyapunov(lbar, np.eye(m)))
    T = scipy.linalg.schur(lbar, output="real")[0]
    scale = max(np.abs(lbar).sum(axis=1).max(), 1.0)
    assert match_predictions(robustness._schur_eigenvalues(T), eigenvalues(lbar)) <= 1e-10 * scale


def test_schur_eigenvalues_read_the_two_by_two_blocks():
    rotation = np.array([[2.0, -3.0], [0.75, 2.0]])  # 2 +- i sqrt(2.25)
    T = scipy.linalg.block_diag(rotation, [[5.0]])
    assert_allclose(robustness._schur_eigenvalues(T), [2 + 1.5j, 2 - 1.5j, 5.0])


def test_solve_lyapunov_unsolvable():
    with pytest.raises(PremiseError):
        solve_lyapunov(np.diag([1.0, -1.0]))


def test_effective_resistance_directed(triangle):
    two = SignedDigraph(2, {(1, 2): 1.0})
    res = effective_resistance_directed(two, 1, 2)
    assert res.value == pytest.approx(2.0)
    assert res.method == "DirectedLyapunov"
    # undirected graphs: both routes agree
    undirected = effective_resistance_undirected(triangle, 2, 3).value
    directed = effective_resistance_directed(triangle, 2, 3).value
    assert directed == pytest.approx(undirected, abs=1e-8)


@st.composite
def wide_undirected_cases(draw, max_n=10):
    """A connected undirected graph with weights 10^U(-3, 3) and two distinct nodes."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {}
    for i, j in random_undirected_connected(rng, n).edges:
        if i < j:
            edges[(i, j)] = edges[(j, i)] = float(10.0 ** rng.uniform(-3, 3))
    u, v = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    return SignedDigraph(n, edges), u, v


@settings(max_examples=100, deadline=None)
@given(wide_undirected_cases())
def test_delta_star_is_the_inverse_effective_resistance(case):
    # Zelazo & Buerger: on a connected undirected graph the negative weight that the pair
    # (u, v) bears before L gains a second zero eigenvalue is 1 / R_uv
    g, u, v = case
    result = delta_star(g, EdgePerturbation(u, v, 1.0, 1.0))
    r_uv = effective_resistance_undirected(g, u, v).value
    assert result.delta_star * r_uv == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert result.regime == REGIME_NECESSARY_AND_SUFFICIENT
    assert effective_resistance_directed(g, u, v).value == pytest.approx(r_uv, rel=1e-8)


def test_directed_resistance_differs_from_inverse_form():
    rng = np.random.default_rng(7)
    n = 5
    edges = {}
    nodes = list(range(1, n + 1))
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        edges[(a, b)] = float(rng.uniform(0.5, 2))
    for _ in range(4):
        i, j = rng.integers(1, n + 1, 2)
        if i != j and (int(i), int(j)) not in edges:
            edges[(int(i), int(j))] = float(rng.uniform(0.5, 2))
    g = SignedDigraph(n, edges)
    lbar, Q = lbar_of(g)
    directed = effective_resistance_directed(g, 1, 2).value
    c = Q @ (np.eye(n)[0] - np.eye(n)[1])
    inverse_form = float(c @ np.linalg.solve(lbar, c))
    assert abs(directed - inverse_form) > 1e-6


def test_frequency_grid_contract():
    for radius in (1e-3, 1.0, 250.0):
        om = _sweep_omegas(radius)
        assert om[0] == 0.0
        assert len(om) == 2001
        assert om[1] == pytest.approx(1e-6 * radius, rel=1e-12)
        assert om[-1] == pytest.approx(1e4 * radius, rel=1e-12)
        assert np.all(np.diff(om) > 0)


GAIN_PATTERNS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


@st.composite
def premise_cases(draw, max_n=12):
    """A premise graph, signed or not, with a random pair and gain pattern."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_premise_graph(rng, n)
    if draw(st.booleans()):
        free = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j and (i, j) not in g.edges]
        assume(free)
        for _ in range(20):
            picks = rng.choice(len(free), size=min(len(free), int(rng.integers(1, 4))),
                               replace=False)
            edges = dict(g.edges)
            edges.update({free[k]: -float(rng.uniform(0.1, 1.5)) for k in picks})
            signed = SignedDigraph(n, edges)
            if check_spectrum_condition(signed):
                break
        else:
            assume(False)
        g = signed
    u, v = draw(st.permutations(range(1, n + 1)))[:2]
    q_uv, q_vu = draw(st.sampled_from(GAIN_PATTERNS))
    return g, EdgePerturbation(u, v, q_uv=q_uv, q_vu=q_vu)


#: the critical eigenvalue of this pair moves at 2.2e-3 per unit delta, so the
#: thresholded spectrum condition flips 5.3e-6 below the exact delta* = 1 / G(0)
FLAT_CROSSING = (SignedDigraph(12, {
    (1, 3): 1.252543894854783, (1, 4): 0.797094753390376, (1, 6): 2.089182017914354,
    (1, 10): 1.4477970663842308, (2, 3): 0.6256164744991617, (3, 2): 1.7929023177221233,
    (3, 7): 1.1497181366916451, (3, 9): 0.7503351279848904, (3, 12): 1.2691256756941725,
    (4, 2): 1.9157139437561272, (4, 8): 2.0393465802441497, (5, 2): 1.773070626519004,
    (5, 8): 2.1472275587794583, (6, 4): 2.023071502080917, (6, 7): 1.5027695333459967,
    (6, 8): 2.2168502688413976, (7, 4): 1.9148356288150594, (7, 9): 2.027571121480691,
    (7, 10): 1.6659601964479611, (8, 2): -1.1204219320845896, (8, 6): 0.9146460676576411,
    (8, 10): 0.7000272918947712, (9, 10): 1.8220509911545064, (9, 12): -0.4315202148067081,
    (10, 2): 0.8765858386333483, (10, 3): 2.176891948348416, (10, 5): -0.35689022812211746,
    (11, 3): 2.1420655933716857, (11, 5): 1.1796669333043515, (11, 7): 2.3081706826319857,
    (12, 2): 1.8228717840301325, (12, 3): 2.107844906128692
}), EdgePerturbation(5, 6, q_uv=1.0, q_vu=0.0))


@settings(max_examples=150, deadline=None)
@given(premise_cases())
@example(FLAT_CROSSING)
def test_delta_star_matches_bisection_oracle_property(case):
    g, pert = case
    result = delta_star(g, pert)
    oracle = bisection_delta_star(g, pert)
    if result.regime == REGIME_NECESSARY_AND_SUFFICIENT:
        assert abs(result.delta_star - oracle) < 1e-6 * max(result.delta_star, 1.0)
    else:
        assert result.regime == REGIME_SUFFICIENT_ONLY
        assert result.delta_star <= oracle + 1e-6


def relabeled(g, perm):
    """g with node i renamed perm[i - 1]."""
    return SignedDigraph(g.n, {(perm[i - 1], perm[j - 1]): w for (i, j), w in g.edges.items()})


@settings(max_examples=100, deadline=None)
@given(premise_cases(), st.floats(0.2, 5.0), st.randoms(use_true_random=False))
def test_delta_star_metamorphic(case, alpha, random):
    g, pert = case
    base = delta_star(g, pert)
    # scaling every weight by alpha scales G(j w) to G(j w / alpha) / alpha
    scaled = delta_star(SignedDigraph(g.n, {k: alpha * w for k, w in g.edges.items()}), pert)
    assert scaled.regime == base.regime
    assert scaled.delta_star == pytest.approx(alpha * base.delta_star, rel=1e-8)
    assert scaled.omega_star == pytest.approx(alpha * base.omega_star, rel=1e-8)
    assert len(scaled.crossings) == len(base.crossings)
    assert_allclose([w for w, _ in scaled.crossings], [alpha * w for w, _ in base.crossings],
                    rtol=1e-8)
    # relabeling the nodes is an orthogonal similarity of Lbar1: nothing moves
    perm = list(range(1, g.n + 1))
    random.shuffle(perm)
    moved = delta_star(relabeled(g, perm), EdgePerturbation(
        perm[pert.u - 1], perm[pert.v - 1], q_uv=pert.q_uv, q_vu=pert.q_vu))
    assert moved.regime == base.regime
    assert moved.delta_star == pytest.approx(base.delta_star, rel=1e-8)
    assert moved.omega_star == pytest.approx(base.omega_star, rel=1e-8)
    assert_allclose(moved.crossings, base.crossings, rtol=1e-8, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(premise_cases(max_n=30))
def test_nyquist_sweep_matches_r_value(case):
    g, pert = case
    lbar, Q = lbar_of(g)
    omegas, values = nyquist_sweep(lbar, Q, pert.u, pert.v, pert.q_uv, pert.q_vu)
    radius = np.abs(np.diag(scipy.linalg.schur(lbar, output="complex")[0])).max()
    assert omegas[:-1].tolist() == list(_sweep_omegas(radius))
    assert values[0].imag == 0.0
    got = values[:-1]
    want = np.array([r_value(lbar, Q, pert.u, pert.v, pert.q_uv, pert.q_vu, w)
                     for w in omegas[:-1].tolist()])
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_delta_star_without_positive_crossing_raises(spoked8, monkeypatch):
    # Re G(0) < 0 for this pair; its only positive crossing lies at w > 0
    pert = EdgePerturbation(1, 2, q_uv=0.0, q_vu=1.0)
    assert delta_star(spoked8, pert).regime == REGIME_SUFFICIENT_ONLY
    monkeypatch.setattr(robustness, "_crossing_frequencies", lambda *args: np.array([]))
    with pytest.raises(NumericsError, match="no real-axis crossing"):
        delta_star(spoked8, pert)


def test_crossings_skip_infinite_pencil_eigenvalues():
    # QZ returned one of the pencil's two infinite eigenvalues as 3.6e16 here,
    # which read as a crossing at w = 1.9e8 before the a-priori bound on zeros
    edges = {(6, 1): 1.1003325698224509, (7, 1): 0.5105306091311494,
             (3, 7): 2.1424568367655326, (5, 1): 1.4358699056874416,
             (2, 3): 1.106064853638627, (4, 7): 1.0097391753082492,
             (7, 4): 1.5090965179159066, (5, 4): 2.4910005668687853}
    perm = [3, 4, 7, 5, 1, 2, 6]
    base = delta_star(SignedDigraph(7, edges), EdgePerturbation(7, 3, q_uv=1.0, q_vu=0.0))
    moved = delta_star(relabeled(SignedDigraph(7, edges), perm),
                       EdgePerturbation(perm[6], perm[2], q_uv=1.0, q_vu=0.0))
    assert len(base.crossings) == len(moved.crossings) == 2
    assert moved.crossings[1][0] == pytest.approx(1.5079814239421971, rel=1e-9)
