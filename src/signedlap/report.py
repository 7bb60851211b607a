"""Deterministic JSON/CSV serialization for analysis results.

Floats are rendered at 15 significant digits; infinities and NaNs become the
strings "inf", "-inf", "nan" so that emitted JSON stays strict.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .reach import ReachDecomposition
from .robustness import DeltaStarResult, TransferSample
from .simulate import _BLOCK, SimulationTrace
from .spectral import NullBasis


def _fmt(x: float) -> str:
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.15g}"


def sig15(x: float) -> float | str:
    text = _fmt(x)
    return float(text) if math.isfinite(float(x)) else text


def spectrum_json(values: np.ndarray) -> list[dict[str, Any]]:
    return [{"re": sig15(z.real), "im": sig15(z.imag)} for z in np.asarray(values)]


def decomposition_json(decomp: ReachDecomposition) -> dict[str, Any]:
    return {
        "d": decomp.d,
        "reaches": [sorted(r) for r in decomp.reaches],
        "reaching": [sorted(r) for r in decomp.reaching],
        "exclusive": [sorted(r) for r in decomp.exclusive],
        "common": [sorted(r) for r in decomp.common],
        "order": list(decomp.order),
    }


def null_basis_json(basis: NullBasis) -> dict[str, Any]:
    return {
        "d": basis.d,
        "gammas": [[sig15(x) for x in row] for row in basis.gammas],
        "mus": [[sig15(x) for x in row] for row in basis.mus],
    }


def delta_star_json(result: DeltaStarResult) -> dict[str, Any]:
    return {
        "delta_star": sig15(result.delta_star),
        "crossings": [
            {"omega": sig15(w), "re": sig15(re)} for w, re in result.crossings
        ],
        "omega_star": None if result.omega_star is None else sig15(result.omega_star),
        "regime": result.regime,
        "necessary_bound": sig15(result.necessary_bound),
        "diagnostic": result.diagnostic,
    }


def sweep_csv(samples: list[TransferSample]) -> str:
    lines = ["omega,re,im"]
    for s in samples:
        lines.append(f"{_fmt(s.omega)},{_fmt(s.value.real)},{_fmt(s.value.imag)}")
    return "\n".join(lines) + "\n"


def trace_csv(trace: SimulationTrace) -> str:
    """The trace as CSV text, one ``%`` format per row.

    ``"%.15g" % x`` prints every float as ``_fmt`` does, ``-0``, ``inf`` and
    ``nan`` included.  Rows are converted to Python floats a block at a time.
    """
    n = trace.states.shape[1]
    lines = ["t," + ",".join(f"x{i}" for i in range(1, n + 1))]
    row_fmt = "%.15g," + ",".join(["%.15g"] * n)
    for start in range(0, trace.states.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        values = np.column_stack((trace.times[block], trace.states[block]))
        lines += [row_fmt % tuple(row) for row in values.tolist()]
    if trace.diverged:
        lines.append("# diverged")
    return "\n".join(lines) + "\n"


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
