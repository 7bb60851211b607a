import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from signedlap import (
    EdgePerturbation,
    SignedDigraph,
    condensation,
    consensus_reached,
    delta_star,
    laplacian,
    matrix_scale,
    null_basis,
    reach_decomposition,
    simulate,
    superpose,
)
from signedlap.errors import PremiseError
from signedlap.simulate import OVERFLOW_LIMIT, default_dt, default_horizon, spread

from conftest import random_premise_graph
from helpers import check_spectrum_condition, reference_rk4


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
        trace = simulate(L, x0, dt=default_dt(L), horizon=default_horizon(L, condensation(g)))
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
            trace = simulate(L, x0, dt=default_dt(L), horizon=default_horizon(L, condensation(gp)))
            assert consensus_reached(trace) is check_spectrum_condition(gp)
        done += 1


def test_spread_shape():
    states = np.array([[0.0, 1.0, -1.0], [0.5, 0.5, 0.5]])
    assert_allclose(spread(states), [2.0, 0.0])


def assert_same_trace(trace, ref):
    """Bitwise equal states and times (nan included), and the same diverged flag."""
    for got, want in ((trace.states, ref.states), (trace.times, ref.times)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert trace.diverged == ref.diverged


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), steps=st.sampled_from((1, 1023, 1024, 1025, 2049)),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_per_step_reference(n, steps, seed):
    rng = np.random.default_rng(seed)
    L = rng.normal(size=(n, n))
    dt = 0.1 / matrix_scale(L)
    x0 = rng.uniform(-1.0, 1.0, n)
    trace = simulate(L, x0, dt, steps * dt)
    assert trace.states.shape == (steps + 1, n) and not trace.diverged
    assert_same_trace(trace, reference_rk4(L, x0, dt, steps * dt))


# rows 1-1024 are the first block, 1025-2048 the second, 2049-2500 the final partial one;
# the first bad row falls at the start, inside or on the last row of each
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), bad_row=st.sampled_from((1, 2, 1024, 1025, 1500, 2048, 2049, 2400, 2500)),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_divergence_matches_per_step_reference(n, bad_row, seed):
    rng = np.random.default_rng(seed)
    dt = 0.1
    L = -np.eye(n)  # every step scales the state by the RK4 growth factor
    growth = 1.0 + dt + dt**2 / 2.0 + dt**3 / 6.0 + dt**4 / 24.0
    x0 = rng.uniform(-1.0, 1.0, n)
    x0 *= OVERFLOW_LIMIT / growth ** (bad_row - 0.5) / np.abs(x0).max()
    ref = reference_rk4(L, x0, dt, 2500 * dt)
    assert ref.diverged and ref.states.shape[0] == bad_row
    assert_same_trace(simulate(L, x0, dt, 2500 * dt), ref)


def test_non_finite_state_diverges_at_the_first_step():
    x0 = np.array([np.nan, 1.0, -1.0])
    L = laplacian(SignedDigraph(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0}))
    trace = simulate(L, x0, dt=0.01, horizon=30.0)
    assert trace.diverged and trace.states.shape[0] == 1
    assert_same_trace(trace, reference_rk4(L, x0, 0.01, 30.0))


def test_stepping_past_divergence_warns_nothing():
    # the rows after the first bad one overflow to inf inside its block
    L = np.array([[-5.0, 5.0], [0.0, 0.0]])
    x0 = np.array([1e300, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = simulate(L, x0, dt=0.01, horizon=10.0)
    assert trace.diverged and trace.states.shape[0] == 1
    assert_same_trace(trace, reference_rk4(L, x0, 0.01, 10.0))
