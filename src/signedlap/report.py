"""Deterministic JSON/CSV serialization for analysis results.

Floats are rendered at 15 significant digits; infinities and NaNs become the
strings "inf", "-inf", "nan" so that emitted JSON stays strict.

The CSVs print every number exactly as ``"%.15g" % x`` does, but from one
array kernel (``_rows``) rather than one ``%`` per value; ``"%.14e" % x`` is
left only as the exact fallback for values the kernel cannot round.  Both
CSVs are streamed to their file a chunk at a time by ``_csv_file``.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

import numpy as np

from .perturb import CLASS_COND1, CLASS_COND2, SIGN_NEGATIVE
from .reach import ReachDecomposition
from .robustness import DeltaStarResult
from .simulate import Simulation
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
#: values formatted per chunk, in about 300 bytes of arrays a value: on the simulate bench 4096
#: gave more calls/s than 8192 in 4 of 4 pairs, and 1.5 MB less peak RSS
_CHUNK = 4096


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
_MASKS = np.ascontiguousarray(_MASKS.reshape(256, 32).view("<u8").T)  # a plane per word
#: sign and lead: none, ``0.``, ``0.0``, ``0.00``, ``0.000``, ``inf``, ``nan``; then with ``-``
_LEAD = _bytes8([list((sign + lead).ljust(8)) for sign in (b" ", b"-")
                 for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000", b"inf", b"nan")])


class _CsvWriter:
    """Float rows turned into CSV text ``_CHUNK`` values at a time, each chunk passed to ``write``.

    ``add`` gathers rows into one values buffer and formats each full chunk; ``flush`` formats
    the rest.  Every chunk-sized array of ``_rows`` and ``_decimal`` is allocated once, at its
    first use, and reused by every later chunk: fresh temporaries per chunk fault in new pages
    on every chunk where the process frees nothing larger, as a streamed trace does not.
    """

    def __init__(self, width: int, write: Callable[[bytes], object]) -> None:
        self.width, self.rows, self.write = width, max(1, _CHUNK // width), write
        #: XOR of the blank last byte of each value's exponent word with its separator
        self.seps = (np.array([ord(",")] * (width - 1) + [ord("\n")], "<u8") ^ 32) << 56
        self.size = 0  # values in the chunk being formatted
        self._values = np.empty((self.rows, width))
        self._filled = 0
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, dtype: Any = np.int64, planes: int = 1) -> np.ndarray:
        """The named array: ``size`` entries, or ``planes`` contiguous rows of them."""
        array = self._arrays.get(name)
        if array is None:
            array = self._arrays[name] = np.empty(planes * self._values.size, dtype)
        view = array[: planes * self.size]
        return view if planes == 1 else view.reshape(planes, self.size)

    def add(self, *columns: np.ndarray) -> None:
        """Rows of the columns, 1-D or 2-D arrays of equal length, side by side."""
        done, total = 0, len(columns[0])
        while done < total:
            m = min(self.rows - self._filled, total - done)
            k, rows = 0, self._values[self._filled:self._filled + m]
            for column in columns:
                part = column[done:done + m].reshape(m, -1)
                rows[:, k:k + part.shape[1]] = part
                k += part.shape[1]
            self._filled, done = self._filled + m, done + m
            if self._filled == self.rows:
                self.flush()

    def flush(self) -> None:
        if self._filled:
            self.size = self._filled * self.width
            self.write(_rows(self._values[: self._filled], self))
            self._filled = 0


def _scaled(a: np.ndarray, X: np.ndarray, ws: _CsvWriter) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(14 - X)`` in long double, and whether its power of ten is exact."""
    s, below, exact = ws("s"), ws("below", bool), ws("exact", bool)
    power, y = ws("power", np.longdouble), ws("y", np.longdouble)
    np.subtract(14, X, out=s)
    np.less(s, 0, out=below)
    np.abs(s, out=s)
    np.less_equal(s, _EXACT_POW, out=exact)
    np.minimum(s, _EXACT_POW, out=s)
    _POW10.take(s, out=power, mode="wrap")  # mode "raise" would buffer the result
    np.multiply(a, power, out=y)
    np.divide(a, power, out=y, where=below)
    return y, exact


def _decimal(x: np.ndarray, irregular: np.ndarray,
             ws: _CsvWriter) -> tuple[np.ndarray, np.ndarray]:
    """M and X with ``"%.14e" % x`` = the digits of M, then ``e``X, for the finite nonzero x;
    0 where ``irregular``.

    The scaled ``y = |x| * 10**(14 - X)`` lies in [1e14, 1e15) once X is right.  Each value's
    15-digit mantissa M is ``rint`` of that one long double product, with an exact power of
    ten.  Rounded once, y errs by at most eps / 2 * 1e15; ``_TIE_MARGIN`` is twice that, which
    also covers the float64 rounding of ``y - rint(y)``.  Where y is within the margin of a
    half-integer, or 10**|14 - X| is past the exact table (|x| outside about 1e-13..1e42), M
    and X come from ``"%.14e" % x``: 0.02 % of random values with an x87 long double, about
    half where long double is a double.  ``-0``, ``inf``, ``-inf`` and ``nan`` print as ``%``
    prints them, without a fallback.
    """
    a, log, X = ws("a", float), ws("log", float), ws("X")
    np.abs(x, out=a)
    np.copyto(a, 1.0, where=irregular)
    np.log10(a, out=log)
    np.floor(log, out=log)
    np.copyto(X, log, casting="unsafe")
    y, exact = _scaled(a, X, ws)
    high, low = ws("high", bool), ws("low", bool)
    np.greater_equal(y, 1e15, out=high)
    np.less(y, 1e14, out=low)
    if high.any() or low.any():  # log10 is one off next to a power of ten
        X += high
        X -= low
        y, exact = _scaled(a, X, ws)
    inexact = np.logical_not(exact, out=ws("inexact", bool))
    np.copyto(y, 1e14, where=inexact)
    rounded, gap = np.rint(y, out=ws("rounded", np.longdouble)), ws("gap", float)
    np.subtract(y, rounded, out=gap)  # in long double, then rounded to a double
    np.abs(gap, out=gap)
    untrusted = np.greater_equal(gap, 0.5 - _TIE_MARGIN, out=ws("untrusted", bool))
    np.logical_or(untrusted, inexact, out=untrusted)
    np.greater(untrusted, irregular, out=untrusted)  # and not irregular
    fallback = np.flatnonzero(untrusted)
    M, carry = ws("M"), ws("carry", bool)
    np.copyto(M, rounded, casting="unsafe")
    np.equal(M, 10**15, out=carry)  # y rounds up into the next decade
    np.copyto(M, 10**14, where=carry)
    X += carry
    for i, text in zip(fallback.tolist(), ["%.14e" % v for v in a[fallback].tolist()]):
        digits, _, exponent = text.partition("e")
        M[i], X[i] = int(digits.replace(".", "")), int(exponent)
    np.copyto(M, 0, where=irregular)
    return M, X


def _rows(values: np.ndarray, ws: _CsvWriter) -> bytes:
    """The CSV rows of a contiguous 2-D float array, each value as ``"%.15g" % x``, computed in
    the arrays of ``ws``.

    Each value gets six words: sign and lead, four of digits and point slots, and the exponent
    with the separator in its last byte; the blanks between are deleted.  The words are laid
    out one plane per word, so that every table lookup writes contiguous memory.
    """
    x = values.reshape(-1)
    finite, nan = np.isfinite(x, out=ws("finite", bool)), np.isnan(x, out=ws("nan", bool))
    infinite = np.logical_not(finite, out=ws("infinite", bool))  # inf or nan
    irregular = np.equal(x, 0, out=ws("irregular", bool))
    np.logical_or(irregular, infinite, out=irregular)
    M, X = _decimal(x, irregular, ws)
    G, upper, lower = ws("G", np.int64, 4), ws("upper"), ws("lower")
    np.divmod(M, 10**8, out=(upper, lower))  # G: a pad zero and the 15 digits, four at a time
    np.divmod(upper, 10**4, out=(G[0], G[1]))
    np.divmod(lower, 10**4, out=(G[2], G[3]))
    zeros, more, test, other = ws("zeros"), ws("more"), ws("test", bool), ws("other", bool)
    _TRAILING_ZEROS.take(G[3], out=zeros, mode="wrap")
    for j in (2, 1, 0):  # a group's zeros count while every later group is all zeros
        np.equal(zeros, 12 - 4 * j, out=test)
        _TRAILING_ZEROS.take(G[j], out=more, mode="wrap")
        np.add(zeros, more, out=zeros, where=test)
    digits = np.subtract(15, zeros, out=zeros)  # significant digits of M
    fixed = ws("fixed", bool)  # %g's switch to exponential at 15 digits
    np.greater_equal(X, -4, out=fixed)
    np.logical_and(fixed, np.less(X, 15, out=test), out=fixed)
    np.greater(fixed, irregular, out=fixed)  # and regular
    plain = np.logical_or(irregular, fixed, out=ws("plain", bool))  # no exponent
    whole, lead = np.add(X, 1, out=ws("whole")), np.negative(X, out=ws("lead"))
    np.logical_not(fixed, out=test)
    for count in (whole, lead):  # digits before the point; zeros after it, before the digits
        np.maximum(count, 0, out=count)
        np.copyto(count, 0, where=test)
    shown = np.maximum(digits, whole, out=ws("shown"))
    np.copyto(shown, finite, where=irregular)  # zero shows one 0, inf none
    point = ws("point")  # after digit X of a fixed value with a fraction, after the first of an
    point.fill(-1)  # exponential one with more than one digit; -1 for none
    np.logical_and(np.greater(digits, whole, out=test), np.greater(whole, 0, out=other), out=test)
    np.copyto(point, X, where=test)
    np.greater(np.greater(digits, 1, out=test), plain, out=test)  # and not plain
    np.copyto(point, 0, where=test)
    np.add(nan, 5, out=lead, where=infinite)
    negative = np.greater(np.signbit(x, out=test), nan, out=test)  # and not nan
    np.add(lead, 7, out=lead, where=negative)
    words, mask = ws("words", "<u8", 6), ws("mask", "<u8", 4)
    _LEAD.take(lead, out=words[0], mode="wrap")
    _DIGITS.take(G, out=words[1:5], mode="wrap")
    shown *= 16
    shown += point
    shown += 1
    _MASKS.take(shown, axis=1, out=mask, mode="wrap")
    words[1:5] ^= mask
    np.subtract(X, _EXP_MIN, out=X)
    np.copyto(X, -1, where=plain)  # the blank word; "clip" would take the first instead
    _EXPONENT.take(X, out=words[5], mode="wrap")
    exponent = words[5].reshape(-1, ws.width)
    exponent ^= ws.seps
    return words.T.tobytes().translate(None, b" ")


@contextmanager
def _csv_file(path: str, header: list[str]) -> Iterator[_CsvWriter]:
    """A ``_CsvWriter`` of the header's width that writes to a new file at ``path``, after the
    header line, and is flushed on leaving the block.

    Anything raised in the block, Ctrl-C and ``MemoryError`` included, removes the file and
    leaves none, even where a file was at ``path`` before.
    """
    file = open(path, "wb")
    try:
        with file:
            file.write((",".join(header) + "\n").encode("ascii"))
            writer = _CsvWriter(len(header), file.write)
            yield writer
            writer.flush()
    except BaseException:
        os.remove(path)
        raise


def write_trace(path: str, sim: Simulation) -> None:
    """Iterate ``sim`` to its end, writing its trace CSV to ``path`` as the blocks arrive: the
    time and the states of each row, then ``# diverged`` if the run diverged."""
    with _csv_file(path, ["t", *(f"x{i}" for i in range(1, sim.n + 1))]) as writer:
        for start, states in sim:
            writer.add(sim.dt * np.arange(start, start + len(states)), states)
        writer.flush()
        if sim.diverged:
            writer.write(b"# diverged\n")


def write_sweep(path: str, omegas: np.ndarray, values: np.ndarray) -> None:
    """Write the sweep CSV of G(j omega) to ``path``: omega, re and im of each sample."""
    with _csv_file(path, ["omega", "re", "im"]) as writer:
        writer.add(omegas, values.real, values.imag)


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
