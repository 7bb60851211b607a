import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from signedlap import (
    EdgePerturbation,
    SignedDigraph,
    Simulation,
    condensation,
    delta_star,
    laplacian,
    matrix_scale,
    null_basis,
    reach_decomposition,
    superpose,
)
from signedlap.errors import PremiseError
from signedlap.simulate import _BLOCK, OVERFLOW_LIMIT, default_dt, default_horizon

from conftest import random_premise_graph
from helpers import (
    SimulationTrace,
    assert_close_trace,
    check_spectrum_condition,
    consensus_reached,
    reference_rk4,
    reference_rk4_longdouble,
    simulate,
    spread,
    trace_error,
)


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


def test_empty_system_is_refused_up_front():
    with pytest.raises(ValueError, match=r"at least one node, got shape \(0, 0\)"):
        Simulation(np.zeros((0, 0)), np.zeros(0), 0.1, 1.0)


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
    assert_close_trace(trace, reference_rk4(L, x0, dt, steps * dt))


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
    assert_close_trace(simulate(L, x0, dt, 2500 * dt), ref)


# the bench runs n = 8-40, where BLAS may block the product differently than at n <= 12
@pytest.mark.parametrize("n", [16, 40])
@pytest.mark.parametrize("steps", [1025, 2049])
def test_simulate_matches_per_step_reference_at_bench_sizes(n, steps):
    rng = np.random.default_rng(1000 * n + steps)
    L = rng.normal(size=(n, n))
    dt = 0.1 / matrix_scale(L)
    x0 = rng.uniform(-1.0, 1.0, n)
    trace = simulate(L, x0, dt, steps * dt)
    assert trace.states.shape == (steps + 1, n) and not trace.diverged
    assert_close_trace(trace, reference_rk4(L, x0, dt, steps * dt))


def test_simulate_divergence_matches_per_step_reference_at_a_bench_size():
    n, dt = 40, 0.05
    rng = np.random.default_rng(40)
    L = -np.eye(n) + 0.01 * rng.normal(size=(n, n))  # growth that mixes the states
    x0 = rng.uniform(-1.0, 1.0, n)
    x0 *= OVERFLOW_LIMIT / np.exp(90.0) / np.abs(x0).max()
    ref = reference_rk4(L, x0, dt, 2500 * dt)
    # the first bad row, 1707, falls inside the second block (rows 1025-2048)
    assert ref.diverged and ref.states.shape[0] == 1707
    assert_close_trace(simulate(L, x0, dt, 2500 * dt), ref)


def test_non_finite_state_diverges_at_the_first_step():
    x0 = np.array([np.nan, 1.0, -1.0])
    L = laplacian(SignedDigraph(3, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0}))
    trace = simulate(L, x0, dt=0.01, horizon=30.0)
    assert trace.diverged and trace.states.shape[0] == 1
    assert_close_trace(trace, reference_rk4(L, x0, 0.01, 30.0))


def test_stepping_past_divergence_warns_nothing():
    # the rows after the first bad one overflow to inf inside its block
    L = np.array([[-5.0, 5.0], [0.0, 0.0]])
    x0 = np.array([1e300, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = simulate(L, x0, dt=0.01, horizon=10.0)
    assert trace.diverged and trace.states.shape[0] == 1
    assert_close_trace(trace, reference_rk4(L, x0, 0.01, 10.0))


def _verdict_run(n, steps, bad_row, seed):
    """A stable ring, whose spread decays, so the window's largest spread is at its first row,
    or growth that diverges at bad_row: L, x0, dt and the step count."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, n)
    if bad_row is None:
        L = laplacian(SignedDigraph(n, {(i, i % n + 1): float(rng.uniform(0.5, 2.0))
                                        for i in range(1, n + 1) if n > 1}))
        return L, x0, 0.1 / (matrix_scale(L) or 1.0), steps
    dt = 0.1
    growth = 1.0 + dt + dt**2 / 2.0 + dt**3 / 6.0 + dt**4 / 24.0
    x0 *= OVERFLOW_LIMIT / growth ** (bad_row - 0.5) / np.abs(x0).max()
    return -np.eye(n), x0, dt, 2500


VERDICT_RUNS = dict(
    n=st.integers(1, 12), steps=st.sampled_from((1, 19, 20, 21, 1023, 1024, 1025, 2049, 2500)),
    bad_row=st.sampled_from((None, 1, 2, 1024, 1025, 2049, 2400)), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(**VERDICT_RUNS)
def test_simulation_keeps_the_verdict_of_its_whole_trace(n, steps, bad_row, seed):
    # the streaming bookkeeping, exactly, against the trace of the rows the run yielded
    L, x0, dt, steps = _verdict_run(n, steps, bad_row, seed)
    sim = Simulation(L, x0, dt, steps * dt)
    blocks = [(start, rows.copy()) for start, rows in sim]
    states = np.concatenate([rows for _, rows in blocks])
    own = SimulationTrace(dt * np.arange(len(states)), states, dt, sim.diverged)
    assert [start for start, _ in blocks] == list(np.cumsum([0] + [len(r) for _, r in blocks[:-1]]))
    assert sim.diverged == (bad_row is not None)
    assert len(states) == (steps + 1 if bad_row is None else bad_row)
    assert sim.initial_spread == spread(states[:1])[0]
    assert sim.final_spread == spread(states[-1:])[0]
    window = max(1, int(np.ceil(0.05 * len(states))))
    final, initial = spread(states[-window:]).max(), spread(states[:1])[0]
    reference = initial if initial > 0.0 else 1.0
    for rel_tol in (1e-6, 0.5, final / reference * (1 + 1e-9), final / reference * (1 - 1e-9)):
        if 0 < rel_tol < np.inf:
            assert sim.consensus(rel_tol) is consensus_reached(own, rel_tol)


@settings(max_examples=60, deadline=None)
@given(**VERDICT_RUNS)
def test_simulation_rows_match_per_step_reference(n, steps, bad_row, seed):
    L, x0, dt, steps = _verdict_run(n, steps, bad_row, seed)
    assert_close_trace(simulate(L, x0, dt, steps * dt), reference_rk4(L, x0, dt, steps * dt))


def test_divergence_at_the_start_of_a_final_block_inside_the_window():
    # 2060 steps: the final 5 % starts at row 1957 and the last block at row 2049, the first
    # bad one, so that block keeps no row; its window spread used to be a max over no rows
    L, x0, dt, _ = _verdict_run(3, 2060, 2049, 7)
    sim = Simulation(L, x0, dt, 2060 * dt)
    assert sum(len(rows) for _, rows in sim) == 2049 and sim.diverged
    assert not sim.consensus(1e-6)


def test_one_row_per_product_past_512_nodes_is_the_per_step_loop():
    # b n <= _BLOCK leaves b = 1 for n > 512: each product is one step, bitwise reference_rk4;
    # 1025 steps cross from the first block to the second
    n, rng = 600, np.random.default_rng(600)
    assert 2 * n > _BLOCK
    L = rng.normal(size=(n, n))
    dt = 0.1 / matrix_scale(L)
    x0 = rng.uniform(-1.0, 1.0, n)
    trace, ref = simulate(L, x0, dt, 1025 * dt), reference_rk4(L, x0, dt, 1025 * dt)
    assert trace.states.shape == (1026, n)
    assert trace.states.tobytes() == ref.states.tobytes()
    assert trace.times.tobytes() == ref.times.tobytes() and not trace.diverged


#: streamed error over per-step error, each against long-double RK4; at most 1.6 measured
LONGDOUBLE_ERROR_FACTOR = 3.0


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("unstable", [False, True], ids=["stable", "unstable"])
@pytest.mark.parametrize("n", [8, 16, 40])
def test_streamed_error_stays_near_the_per_step_error(n, unstable):
    # 20 000 steps of a ring with chords; a strong repelling edge makes it grow by 1e28-1e38
    rng = np.random.default_rng(n + 1000 * unstable)
    edges = {(i, i % n + 1): 1.0 for i in range(1, n + 1)}
    edges.update({(int(u), int(v)): float(rng.uniform(0.5, 2.0))
                  for u, v in rng.integers(1, n + 1, (2 * n, 2)) if u != v})
    if unstable:
        edges[1, 2] = -float(n)
    L = laplacian(SignedDigraph(n, edges))
    assert bool(np.linalg.eigvals(L).real.min() < -1.0) is unstable
    dt = default_dt(L)
    x0 = rng.uniform(-1.0, 1.0, n)
    exact = reference_rk4_longdouble(L, x0, dt, 20_000 * dt).states
    streamed = simulate(L, x0, dt, 20_000 * dt).states
    per_step = reference_rk4(L, x0, dt, 20_000 * dt).states
    assert streamed.shape == per_step.shape == exact.shape == (20_001, n)
    assert trace_error(streamed, exact) <= LONGDOUBLE_ERROR_FACTOR * trace_error(per_step, exact)


def test_simulation_consensus_from_agreement():
    sim = Simulation(np.zeros((3, 3)), np.full(3, 4.2), dt=0.1, horizon=2.0)
    for _ in sim:
        pass
    assert sim.consensus(1e-6)
    for rel_tol in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="rel_tol"):
            sim.consensus(rel_tol)
