"""Fixed-step integration of the consensus dynamics x' = -L x."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PremiseError
from .graph import matrix_scale
from .reach import Condensation
from .spectral import block_spectrum, zero_threshold

#: states beyond this magnitude terminate the trace as diverged
OVERFLOW_LIMIT = 1e150

#: largest trace (state array plus time axis) a simulation may allocate, in bytes
MAX_TRACE_BYTES = 2**30

#: rows stepped between divergence checks, and CSV rows ``report`` converts to text at once
_BLOCK = 1024


@dataclass(frozen=True)
class SimulationTrace:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    dt: float
    diverged: bool = False


def default_dt(L: np.ndarray) -> float:
    return 0.01 / max(1.0, matrix_scale(L))


def default_horizon(L: np.ndarray, cond: Condensation) -> float:
    """50 time constants of the slowest stable mode, else 100; ``cond`` as in ``block_spectrum``."""
    values = block_spectrum(L, cond)
    positive = values.real[values.real > zero_threshold(matrix_scale(L))]
    if positive.size:
        return float(50.0 / positive.min())
    return 100.0


def simulate(L: np.ndarray, x0: np.ndarray, dt: float, horizon: float) -> SimulationTrace:
    """Classical fixed-step RK4 for x' = -L x starting from x0.

    The field is linear, so the four stage evaluations collapse into the
    one-step matrix I - hL + (hL)^2/2 - (hL)^3/6 + (hL)^4/24 applied per
    step.  dt must respect the stability guard dt <= 0.1 / ||L||; a state
    overflow truncates the trace and sets the diverged flag.  A trace larger
    than ``MAX_TRACE_BYTES`` is refused before anything is allocated.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    scale = matrix_scale(L)
    if scale > 0 and dt > 0.1 / scale:
        raise ValueError(f"dt={dt} violates the stability guard 0.1/||L|| = {0.1 / scale}")
    if not dt <= horizon < np.inf:
        raise ValueError(f"horizon must be finite and at least one step, got {horizon}")
    x0 = np.asarray(x0, dtype=float)
    n = L.shape[0]
    if x0.shape != (n,):
        raise ValueError(f"x0 shape {x0.shape} does not match L ({n} nodes)")

    # sized in floating point: horizon / dt may overflow to inf for a tiny dt
    size = (horizon / dt + 1.0) * (n + 1) * np.dtype(float).itemsize
    if size > MAX_TRACE_BYTES:
        raise PremiseError(
            f"{horizon / dt:.3g} steps of {n} states need {size / 2**30:.3g} GiB, above the "
            f"{MAX_TRACE_BYTES / 2**30:g} GiB trace limit (MAX_TRACE_BYTES); "
            f"raise dt or shorten the horizon"
        )
    steps = int(round(horizon / dt))

    hL = dt * L
    step = np.eye(n) - hL + hL @ hL / 2.0 - hL @ hL @ hL / 6.0 + hL @ hL @ hL @ hL / 24.0
    states = np.empty((steps + 1, n))
    states[0] = x0
    diverged = False
    last = steps
    # step a block of rows, then check them at once; the trace ends before
    # the first bad row, as a per-step check would end it
    for start in range(1, steps + 1, _BLOCK):
        stop = min(start + _BLOCK, steps + 1)
        # rows past a bad one are stepped to the block's end and dropped
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(start, stop):
                np.matmul(step, states[k - 1], out=states[k])
            block = states[start:stop]
            bad = ~np.isfinite(block).all(axis=1) | (np.abs(block).max(axis=1) > OVERFLOW_LIMIT)
        if bad.any():
            diverged = True
            last = start + int(bad.argmax()) - 1
            break
    states = states[: last + 1]
    times = dt * np.arange(last + 1)
    return SimulationTrace(times=times, states=states, dt=dt, diverged=diverged)


def spread(states: np.ndarray) -> np.ndarray:
    """Max pairwise disagreement per sample."""
    return states.max(axis=1) - states.min(axis=1)


def consensus_reached(trace: SimulationTrace, rel_tol: float = 1e-6) -> bool:
    """True iff the last 5% of samples dissolve the initial disagreement.

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
