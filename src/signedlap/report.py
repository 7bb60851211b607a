"""Deterministic JSON/CSV serialization for analysis results.

Floats are rendered at 15 significant digits; infinities and NaNs become the
strings "inf", "-inf", "nan" so that emitted JSON stays strict.

The CSVs print every number exactly as ``"%.15g" % x`` does, but from one
array kernel (``_csv``) rather than one ``%`` per value; ``"%.14e" % x`` is
left only as the exact fallback for values the kernel cannot round.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .perturb import CLASS_COND1, CLASS_COND2, SIGN_NEGATIVE
from .reach import ReachDecomposition
from .robustness import DeltaStarResult
from .simulate import SimulationTrace
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


#: 10**k is exact in long double for k <= _EXACT_POW: 27 for x87 extended, 22 where it is a double
_LONG = np.finfo(np.longdouble)
_EXACT_POW = int((_LONG.nmant + 1) / math.log2(5))
_POW10 = np.cumprod(np.full(_EXACT_POW + 1, 10, dtype=np.longdouble)) / 10
#: twice the error bound of one rounded long double below 1e15, eps / 2 * 1e15 (about 5.4e-5)
_TIE_MARGIN = float(_LONG.eps) * 1e15
#: values formatted per chunk: its temporaries, about 300 bytes a value, stay small next to the text
_CHUNK = 8192


def _bytes8(rows) -> np.ndarray:
    """Rows of 8 ASCII codes as one little-endian word each."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8")[:, 0]


_EXP_MIN = -324
_e = np.arange(_EXP_MIN, 309)
#: ``e+05``, ``e-100`` and so on for every exponent of a float, then a blank word
_EXPONENT = np.full((_e.size + 1, 8), 32)
_EXPONENT[:-1, :5] = np.column_stack([
    np.full(_e.size, ord("e")), np.where(_e < 0, ord("-"), ord("+")),
    np.where(abs(_e) >= 100, abs(_e) // 100 + 48, 32), abs(_e) // 10 % 10 + 48, abs(_e) % 10 + 48])
_EXPONENT = _bytes8(_EXPONENT)
#: the four digits of each group 0..9999, each followed by a blank point slot
_DIGITS = np.full((10_000, 8), 32, np.uint8)
#: the trailing zeros of each group, 4 for 0
_TRAILING_ZEROS = np.zeros(10_000, np.intp)
for _j in range(4):
    _DIGITS[:, 2 * _j] = np.tile(np.repeat(np.arange(48, 58), 10 ** (3 - _j)), 10**_j)
    _TRAILING_ZEROS[:: 10 ** (_j + 1)] += 1
_DIGITS = _bytes8(_DIGITS)
#: for 16 * shown + point + 1: XOR of the 32-byte digit region (a pad zero and the 15 digits of
#: M, each followed by a point slot) that blanks the pad and every digit from ``shown`` on, and
#: puts a point after digit ``point`` (-1 for none)
_k = np.arange(-1, 15)
_MASKS = np.zeros((16, 16, 16, 2), np.uint8)
_MASKS[..., 0] = np.where((_k < 0) | (_k >= np.arange(16)[:, None, None]), ord("0") ^ 32, 0)
_MASKS[..., 1] = np.where((_k >= 0) & (_k == _k[:, None]), ord(".") ^ 32, 0)
_MASKS = _MASKS.reshape(256, 32).view("<u8")
#: sign and lead: none, ``0.``, ``0.0``, ``0.00``, ``0.000``, ``inf``, ``nan``; then with ``-``
_LEAD = _bytes8([list((sign + lead).ljust(8)) for sign in (b" ", b"-")
                 for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000", b"inf", b"nan")])


def _scaled(a: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(14 - X)`` in long double, and whether its power of ten is exact."""
    s = 14 - X
    power = _POW10.take(np.minimum(np.abs(s), _EXACT_POW))
    y = a * power
    np.divide(a, power, out=y, where=s < 0)
    return y, np.abs(s) <= _EXACT_POW


def _decimal(x: np.ndarray, regular: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M and X with ``"%.14e" % x`` = the digits of M, then ``e``X, for the regular x; 0 elsewhere.

    The scaled ``y = |x| * 10**(14 - X)`` lies in [1e14, 1e15) once X is right; M = rint(y)
    unless y is within ``_TIE_MARGIN`` of a tie or its power of ten is not exact.
    """
    a = np.where(regular, np.abs(x), 1.0)
    X = np.floor(np.log10(a)).astype(np.int64)
    y, exact = _scaled(a, X)
    off = np.flatnonzero((y >= 1e15) | (y < 1e14))  # log10 is one off next to a power of ten
    if off.size:
        X[off] += np.where(y[off] >= 1e15, 1, -1)
        y[off], exact[off] = _scaled(a[off], X[off])
    y = np.where(exact, y, 1e14)
    rounded = np.rint(y)
    trusted = exact & (np.abs((y - rounded).astype(float)) < 0.5 - _TIE_MARGIN)
    fallback = np.flatnonzero(regular & ~trusted)
    M = rounded.astype(np.int64)
    carry = M == 10**15  # y rounds up into the next decade
    M, X = np.where(carry, 10**14, M), X + carry
    for i, text in zip(fallback.tolist(), ["%.14e" % v for v in a[fallback].tolist()]):
        digits, _, exponent = text.partition("e")
        M[i], X[i] = int(digits.replace(".", "")), int(exponent)
    return np.where(regular, M, 0), X


def _rows(values: np.ndarray, seps: np.ndarray) -> str:
    """The CSV rows of a 2-D float array, each value as ``"%.15g" % x``.

    Each value gets six words: sign and lead, four of digits and point slots, and the exponent
    with the separator in its last byte; the blanks between are deleted.
    """
    x = values.ravel()
    finite = np.isfinite(x)
    regular = finite & (x != 0)
    M, X = _decimal(x, regular)
    G = np.empty((x.size, 4), np.int64)  # a pad zero and the 15 digits, four at a time
    high, low = np.divmod(M, 10**8)
    np.divmod(high, 10**4, out=(G[:, 0], G[:, 1]))
    np.divmod(low, 10**4, out=(G[:, 2], G[:, 3]))
    zeros = _TRAILING_ZEROS.take(G[:, 3])
    for j in (2, 1, 0):  # a group's zeros count while every later group is all zeros
        zeros += np.where(zeros == 12 - 4 * j, _TRAILING_ZEROS.take(G[:, j]), 0)
    digits = 15 - zeros  # significant digits of M
    fixed = regular & (X >= -4) & (X < 15)  # %g's switch to exponential at 15 digits
    whole = np.where(fixed, np.maximum(X + 1, 0), 0)
    shown = np.where(regular, np.maximum(digits, whole), finite)  # zero shows one 0, inf none
    point = np.where(fixed, np.where((X >= 0) & (digits > whole), X, -1),
                     np.where(regular & (digits > 1), 0, -1))
    nan = np.isnan(x)
    lead = np.where(finite, np.where(fixed & (X < 0), -X, 0), 5 + nan)
    words = np.empty((x.size, 6), "<u8")
    words[:, 0] = _LEAD.take(lead + 7 * (np.signbit(x) & ~nan))
    words[:, 1:5] = _DIGITS.take(G) ^ _MASKS.take(16 * shown + point + 1, axis=0)
    words[:, 5] = _EXPONENT.take(np.where(regular & ~fixed, X - _EXP_MIN, -1))
    words.reshape(*values.shape, 6)[..., 5] ^= seps
    return words.tobytes().translate(None, b" ").decode("ascii")


def _csv(header: list[str], columns: tuple[np.ndarray, ...], trailer: str | None = None) -> str:
    """CSV text: the header, one ``%.15g`` row per row of the columns, then the trailer.

    A 2-D column array gives one CSV column per array column.  Rows are formatted ``_CHUNK``
    values at a time by ``_rows`` and joined once, so the text is built next to about one
    copy of itself.  Each value's 15-digit mantissa M is ``rint`` of one long double product
    ``y = |x| * 10**(14 - X)`` with an exact power of ten.  Rounded once, y errs by at most
    eps / 2 * 1e15; ``_TIE_MARGIN`` is twice that, which also covers the float64 rounding of
    ``y - rint(y)``.  Where y is within the margin of a half-integer, or 10**|14 - X| is past
    the exact table (|x| outside about 1e-13..1e42), M and X come from ``"%.14e" % x``: 0.02 %
    of random values with an x87 long double, about half where long double is a double.
    ``-0``, ``inf``, ``-inf`` and ``nan`` print as ``%`` prints them, without a fallback.
    """
    seps = (np.array([ord(",")] * (len(header) - 1) + [ord("\n")], "<u8") ^ 32) << 56
    rows = max(1, _CHUNK // len(header))
    pieces = [",".join(header) + "\n"]
    for start in range(0, len(columns[0]), rows):
        pieces.append(_rows(np.column_stack([c[start:start + rows] for c in columns]), seps))
    if trailer is not None:
        pieces.append(trailer + "\n")
    return "".join(pieces)


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
