"""Deterministic JSON/CSV serialization for analysis results.

Floats are rendered at 15 significant digits; infinities and NaNs become the
strings "inf", "-inf", "nan" so that emitted JSON stays strict.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .perturb import CLASS_COND1, CLASS_COND2, SIGN_NEGATIVE
from .reach import ReachDecomposition
from .robustness import DeltaStarResult
from .simulate import _BLOCK, SimulationTrace
from .spectral import NullBasis


def sig15(x: float) -> float | str:
    text = "%.15g" % x
    return float(text) if math.isfinite(x) else text


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


def _csv(header: list[str], columns: tuple[np.ndarray, ...], trailer: str | None = None) -> str:
    """CSV text: the header, one ``%.15g`` row per row of the columns, then the trailer.

    A 2-D column array gives one CSV column per array column.  ``"%.15g" % x``
    prints ``-0``, ``inf``, ``-inf`` and ``nan`` as such.  Rows are converted
    to Python floats ``_BLOCK`` at a time, then joined once with the closing
    newline (joined block strings made the process's peak RSS vary by input).
    """
    lines = [",".join(header)]
    row_fmt = ",".join(["%.15g"] * len(header))
    for start in range(0, len(columns[0]), _BLOCK):
        values = np.column_stack([c[start:start + _BLOCK] for c in columns])
        lines += [row_fmt % tuple(row) for row in values.tolist()]
    if trailer is not None:
        lines.append(trailer)
    lines.append("")
    return "\n".join(lines)


def sweep_csv(omegas: np.ndarray, values: np.ndarray) -> str:
    return _csv(["omega", "re", "im"], (omegas, values.real, values.imag))


def trace_csv(trace: SimulationTrace) -> str:
    header = ["t", *(f"x{i}" for i in range(1, trace.states.shape[1] + 1))]
    return _csv(header, (trace.times, trace.states), "# diverged" if trace.diverged else None)


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dumps_sensitive(uv: np.ndarray, cond1: np.ndarray, verified: list[bool]) -> str:
    """``dumps`` of the ``sensitive`` objects, one ``%`` format per pair and one join."""
    if not len(uv):
        return "[]\n"
    row = ('  {\n    "class": "%s",\n    "theta_diag_sign": "%s",\n    "u": %d,\n    "v": %d,\n'
           '    "verified": %s\n  }')
    rows = [row % ((CLASS_COND2, CLASS_COND1)[c], SIGN_NEGATIVE, u, v, ("false", "true")[ok])
            for (u, v), c, ok in zip(uv.tolist(), cond1.tolist(), verified)]
    return "[\n%s\n]\n" % ",\n".join(rows)
