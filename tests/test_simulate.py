import numpy as np
import pytest
from numpy.testing import assert_allclose

from signedlap import (
    EdgePerturbation,
    SignedDigraph,
    check_spectrum_condition,
    consensus_reached,
    delta_star,
    laplacian,
    null_basis,
    reach_decomposition,
    simulate,
    superpose,
)
from signedlap.errors import PremiseError
from signedlap.simulate import default_dt, default_horizon, spread

from conftest import random_premise_graph


def test_zero_field_is_equilibrium():
    trace = simulate(np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]), dt=0.5, horizon=5.0)
    assert_allclose(trace.states, np.tile([1.0, 2.0, 3.0], (11, 1)))
    assert_allclose(np.diff(trace.times), 0.5)
    assert not trace.diverged


def test_two_node_closed_form():
    g = SignedDigraph(2, {(1, 2): 1.0, (2, 1): 1.0})
    L = laplacian(g)
    dt = default_dt(L)
    trace = simulate(L, np.array([1.0, -1.0]), dt=dt, horizon=1.0)
    disagreement = trace.states[-1, 0] - trace.states[-1, 1]
    assert disagreement == pytest.approx(2.0 * np.exp(-2.0 * trace.times[-1]), abs=1e-6)


def test_guards():
    g = SignedDigraph(2, {(1, 2): 1.0, (2, 1): 1.0})
    L = laplacian(g)
    with pytest.raises(ValueError):
        simulate(L, np.zeros(2), dt=1.0, horizon=5.0)  # dt > 0.1/||L||
    with pytest.raises(ValueError):
        simulate(L, np.zeros(2), dt=-0.1, horizon=5.0)
    with pytest.raises(ValueError):
        simulate(L, np.zeros(2), dt=0.01, horizon=0.001)
    with pytest.raises(ValueError):
        simulate(L, np.zeros(3), dt=0.01, horizon=1.0)
    for dt, horizon in ((np.nan, 5.0), (0.01, np.inf), (0.01, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            simulate(L, np.zeros(2), dt=dt, horizon=horizon)
    # a subnormal dt passes the stability guard, but horizon / dt overflows to inf
    with pytest.raises(PremiseError, match="MAX_TRACE_BYTES"):
        simulate(L, np.zeros(2), dt=1e-310, horizon=50.0)


def test_divergence_truncates():
    g = SignedDigraph(2, {(1, 2): -5.0})
    L = laplacian(g)
    trace = simulate(L, np.array([1.0, -1.0]), dt=0.01, horizon=200.0)
    assert trace.diverged
    assert trace.states.shape[0] < 20001
    assert np.all(np.isfinite(trace.states))
    assert not consensus_reached(trace)


def test_consensus_from_agreement():
    trace = simulate(np.zeros((3, 3)), np.full(3, 4.2), dt=0.1, horizon=2.0)
    assert consensus_reached(trace)
    for rel_tol in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="rel_tol"):
            consensus_reached(trace, rel_tol)


def test_left_null_functional_conserved(reach12):
    L = laplacian(reach12)
    basis = null_basis(L, reach_decomposition(reach12))
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, 12)
    trace = simulate(L, x0, dt=default_dt(L), horizon=5.0)
    for mu in basis.mus:
        values = trace.states @ mu
        assert np.abs(values - values[0]).max() < 1e-8


def test_consensus_matches_spectrum_condition(spoked8):
    result = delta_star(spoked8, EdgePerturbation(3, 8, q_uv=1.0, q_vu=0.0))
    rng = np.random.default_rng(8)
    x0 = rng.uniform(-1, 1, 8)
    for factor, expected in ((0.8, True), (1.2, False)):
        pert = EdgePerturbation(3, 8, 1.0, 0.0, factor * result.delta_star)
        g = superpose(spoked8, pert.graph(8))
        L = laplacian(g)
        assert check_spectrum_condition(g) is expected
        trace = simulate(L, x0, dt=default_dt(L), horizon=default_horizon(L))
        assert consensus_reached(trace) is expected


def test_consensus_agreement_random():
    rng = np.random.default_rng(14)
    done = 0
    while done < 4:
        g = random_premise_graph(rng, int(rng.integers(3, 7)))
        u, v = rng.choice(np.arange(1, g.n + 1), size=2, replace=False)
        pert = EdgePerturbation(int(u), int(v), 1.0, 1.0)
        result = delta_star(g, pert)
        if result.regime != "NecessaryAndSufficient" or not np.isfinite(result.delta_star):
            continue
        x0 = rng.uniform(-1, 1, g.n)
        for factor in (0.9, 1.1):
            moved = EdgePerturbation(int(u), int(v), 1.0, 1.0, factor * result.delta_star)
            gp = superpose(g, moved.graph(g.n))
            L = laplacian(gp)
            trace = simulate(L, x0, dt=default_dt(L), horizon=default_horizon(L))
            assert consensus_reached(trace) is check_spectrum_condition(gp)
        done += 1


def test_spread_shape():
    states = np.array([[0.0, 1.0, -1.0], [0.5, 0.5, 0.5]])
    assert_allclose(spread(states), [2.0, 0.0])
