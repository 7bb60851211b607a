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
    value = float("%.15g" % x)  # rounding up may overflow a finite x near the largest float
    return value if math.isfinite(value) else repr(value)


def delta_star_json(result: DeltaStarResult) -> dict[str, Any]:
    return {
        "delta_star": sig15(result.delta_star),
        "crossings": [
            {"omega": sig15(w), "re": sig15(re)} for w, re in result.crossings
        ],
        "omega_star": sig15(result.omega_star),
        "regime": result.regime,
        "necessary_bound": sig15(result.necessary_bound),
        "diagnostic": None,
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


def _floats(values: np.ndarray) -> list[str]:
    """``json.dumps`` of ``sig15(x)`` for each x, in one batch; only inf and nan end in no digit."""
    text = ("%.15g " * values.size) % tuple(values.ravel().tolist())
    return [r if r[-1].isdigit() else '"%s"' % r for r in map(repr, map(float, text.split()))]


def _array(items: list, indent: int = 4) -> str:
    """The JSON array of formatted items, or of such arrays, as ``dumps`` lays it out."""
    if items and isinstance(items[0], list):
        items = [_array(row, indent + 2) for row in items]
    pad = "\n" + " " * (indent + 2)
    return "[%s%s\n%s]" % (pad, ("," + pad).join(items), " " * indent) if items else "[]"


def dumps_analyze(n: int, values: np.ndarray, zero_multiplicity: int, condition: bool,
                  decomp: ReachDecomposition, basis: NullBasis | None) -> str:
    """``dumps`` of the ``analyze`` object: one ``%`` template, each float array in one batch."""
    template = ('{\n  "decomposition": {\n    "common": %s,\n    "d": %d,\n    "exclusive": %s,\n'
                '    "order": %s,\n    "reaches": %s,\n    "reaching": %s\n  },\n  "n": %d,\n'
                '  "null_basis": %s,\n  "spectrum": %s,\n  "spectrum_condition": %s,\n'
                '  "zero_multiplicity": %d\n}\n')
    spectrum = _array(['{\n      "im": %s,\n      "re": %s\n    }'] * len(values), 2) % tuple(
        _floats(np.column_stack([values.imag, values.real])))
    common, exclusive, reaches, reaching = (_array([[str(i) for i in sorted(s)] for s in sets])
                                            for sets in (decomp.common, decomp.exclusive,
                                                         decomp.reaches, decomp.reaching))
    null = "null" if basis is None else '{\n    "d": %d,\n    "gammas": %s,\n    "mus": %s\n  }' % (
        basis.d, _array(list(map(_floats, basis.gammas))), _array(list(map(_floats, basis.mus))))
    return template % (common, decomp.d, exclusive, _array(list(map(str, decomp.order))), reaches,
                       reaching, n, null, spectrum, ("false", "true")[condition], zero_multiplicity)
