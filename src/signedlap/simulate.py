"""Fixed-step integration of the consensus dynamics x' = -L x."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import PremiseError
from .graph import matrix_scale
from .reach import Condensation
from .spectral import block_spectrum, zero_threshold

#: states beyond this magnitude terminate the trace as diverged
OVERFLOW_LIMIT = 1e150

#: largest trace (state array plus time axis) a simulation may describe, in bytes
MAX_TRACE_BYTES = 2**30

#: default step over 1 / ||L||_inf: |dt lambda| <= 0.01, ten times inside the stability guard
DT_FACTOR = 0.01

#: rows stepped into the reused buffer between divergence checks
_BLOCK = 1024


def default_dt(L: np.ndarray) -> float:
    """``DT_FACTOR / ||L||_inf``; an L of norm 0 has no time scale and steps DT_FACTOR."""
    return DT_FACTOR / (matrix_scale(L) or 1.0)


def default_horizon(L: np.ndarray, cond: Condensation) -> float:
    """50 time constants of the slowest stable mode, else 100, an absolute time that is not
    scale-free; ``cond`` as in ``block_spectrum``."""
    values = block_spectrum(L, cond)
    positive = values.real[values.real > zero_threshold(matrix_scale(L))]
    if positive.size:
        return float(50.0 / positive.min())
    return 100.0


class Simulation:
    """Classical fixed-step RK4 for x' = -L x starting from x0, stepped as it is iterated.

    The field is linear, so the four stage evaluations collapse into the one-step matrix
    I - hL + (hL)^2/2 - (hL)^3/6 + (hL)^4/24 applied per step.  The constructor checks the
    guards: dt must respect dt <= 0.1 / ||L||, and a run whose whole trace would be larger
    than ``MAX_TRACE_BYTES`` is refused before anything is stepped or allocated.

    Iterating steps the run into one buffer of ``_BLOCK`` + 1 rows and yields, per block,
    the index of its first row and the rows, views of that buffer that the next block
    overwrites; row 0, x0, leads the first block.  A state that is non-finite or beyond
    ``OVERFLOW_LIMIT`` ends the run before its row and sets ``diverged``.  On the way the
    run keeps the spread (max minus min) of its first and last row and the largest spread
    of its final 5 % of rows, which ``consensus`` judges once the iteration has ended.
    Memory is O(n^2 + _BLOCK * n), whatever the step count.
    """

    def __init__(self, L: np.ndarray, x0: np.ndarray, dt: float, horizon: float) -> None:
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
        hL = dt * L
        self.n, self.dt, self.steps = n, dt, int(round(horizon / dt))
        self._step = np.eye(n) - hL + hL @ hL / 2.0 - hL @ hL @ hL / 6.0 + hL @ hL @ hL @ hL / 24.0
        self._x0 = x0
        self.diverged = False
        self.initial_spread = self.final_spread = self._window_spread = np.nan

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        buf = np.empty((_BLOCK + 1, self.n))
        buf[0] = self._x0
        rows = list(buf)  # views of the buffer's rows, made once
        advance = self._step.dot  # the dgemv of ``step @ x``, without matmul's dispatch
        # the first row of the final 5 %, row 1 at the earliest
        window = self.steps + 1 - max(1, int(np.ceil(0.05 * (self.steps + 1))))
        self.diverged, self._window_spread = False, -np.inf
        for start in range(1, self.steps + 1, _BLOCK):
            m = min(_BLOCK, self.steps + 1 - start)  # rows start .. start + m - 1 go to buf[1:]
            # rows past a bad one are stepped to the block's end and dropped
            with np.errstate(over="ignore", invalid="ignore"):
                for prev, cur in zip(rows, rows[1:m + 1]):
                    advance(prev, cur)
                hi, lo = buf[:m + 1].max(axis=1), buf[:m + 1].min(axis=1)
                good = np.maximum(hi[1:], -lo[1:]) <= OVERFLOW_LIMIT  # False for nan
            if not good.all():
                # the trace ends before the first bad row
                m, self.diverged = int(good.argmin()), True
            spreads = hi[:m + 1] - lo[:m + 1]
            if start == 1:
                self.initial_spread = spreads[0]
            self.final_spread = spreads[m]
            if start + m > window:
                final = spreads[max(window - start + 1, 1):].max()
                self._window_spread = max(self._window_spread, final)
            lead = int(start > 1)  # after the first block, buf[0] is the last row yielded
            if m >= lead:
                yield start - 1 + lead, buf[lead:m + 1]
            if self.diverged:
                return
            buf[0] = buf[m]

    def consensus(self, rel_tol: float) -> bool:
        """True iff the iterated run did not diverge and its final 5 % of rows dissolve the
        initial disagreement: their largest spread lies below rel_tol times the initial spread,
        or rel_tol itself where the run starts in exact agreement."""
        if not 0 < rel_tol < np.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
        reference = self.initial_spread if self.initial_spread > 0.0 else 1.0
        return not self.diverged and bool(self._window_spread < rel_tol * reference)
