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

#: rows stepped into the reused buffer between divergence checks; also bounds the stacked
#: powers of the one-step matrix at _BLOCK * n doubles (the stride b divides it)
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
    overwrites; row 0, x0, leads the first block.  Each product with the stacked powers
    [S; S^2; ...; S^b] of the one-step matrix S fills the next b rows from the row before
    them, b the largest power of two with b n <= ``_BLOCK``; past n = 512, b = 1 and each
    product is one step.  The powers round differently than b single steps, so a state may
    differ from the per-step loop's in its last digits.  A state that is non-finite or
    beyond ``OVERFLOW_LIMIT`` ends the run before its row and sets ``diverged``; one max and
    one min test a whole block, and only a block that fails is searched row by row.  On the
    way the run keeps the spread (max minus min) of its first and last row and the largest
    spread of its final 5 % of rows, which ``consensus`` judges once the iteration has
    ended.  Memory is O(n^2 + _BLOCK * n), whatever the step count.
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
        if n < 1:
            raise ValueError(f"L must have at least one node, got shape {L.shape}")
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
        step = np.eye(n) - hL + hL @ hL / 2.0 - hL @ hL @ hL / 6.0 + hL @ hL @ hL @ hL / 24.0
        # b, the largest power of two with b n <= _BLOCK (1 past n = 512), rows per product
        b = 1
        while 2 * b * n <= _BLOCK:
            b *= 2
        # [S; S^2; ...; S^b], each power S times the one before, as the per-step loop applies S
        self._stride, self._powers = b, np.empty((b * n, n))
        self._powers[:n] = step
        for k in range(1, b):
            np.matmul(step, self._powers[(k - 1) * n:k * n], out=self._powers[k * n:(k + 1) * n])
        self._x0 = x0
        self.diverged = False
        self.initial_spread = self.final_spread = self._window_spread = np.nan

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        n, b = self.n, self._stride
        buf = np.empty((_BLOCK + 1, n))
        buf[0] = self._x0
        # each stride steps from its first row into the flat view of the b rows after it
        sources, targets = list(buf[:_BLOCK:b]), list(buf[1:].reshape(-1, b * n))
        advance = self._powers.dot  # the dgemv of ``powers @ x``, without matmul's dispatch
        # the first row of the final 5 %, row 1 at the earliest
        window = self.steps + 1 - max(1, int(np.ceil(0.05 * (self.steps + 1))))
        self.diverged, self._window_spread = False, -np.inf
        for start in range(1, self.steps + 1, _BLOCK):
            m = min(_BLOCK, self.steps + 1 - start)  # rows start .. start + m - 1 go to buf[1:]
            # rows past the m kept ones, or past a bad one, are stepped and dropped
            with np.errstate(over="ignore", invalid="ignore"):
                for source, target in zip(sources, targets[:-(-m // b)]):
                    advance(source, target)
                block = buf[1:m + 1]
                if not (block.max() <= OVERFLOW_LIMIT and -block.min() <= OVERFLOW_LIMIT):
                    # False for nan: find the first bad row, where the trace ends
                    good = np.maximum(block.max(axis=1), -block.min(axis=1)) <= OVERFLOW_LIMIT
                    m, self.diverged = int(good.argmin()), True
            if start == 1:
                self.initial_spread = buf[0].max() - buf[0].min()
            self.final_spread = buf[m].max() - buf[m].min()
            first = max(window - start + 1, 1)  # the window's first row in buf
            if first <= m:
                final = buf[first:m + 1]
                self._window_spread = max(self._window_spread,
                                          (final.max(axis=1) - final.min(axis=1)).max())
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
