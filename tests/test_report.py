import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signedlap import NullBasis, NumericsError, ReachDecomposition, nyquist_sweep, report
from signedlap.report import (
    _CsvWriter,
    delta_star_json,
    dumps,
    dumps_analyze,
    dumps_sensitive,
    sig15,
    write_sweep,
    write_trace,
)
import signedlap.robustness as robustness
from signedlap.robustness import DeltaStarResult
from signedlap.simulate import _BLOCK, Simulation

from helpers import (
    SimulationTrace,
    analyze_json,
    assert_close_trace_csv,
    r_value,
    reference_rk4,
    reference_sweep_csv,
    reference_trace_csv,
    spectrum_json,
)


def test_sig15():
    assert sig15(0.25) == 0.25
    assert sig15(1 / 3) == 0.333333333333333
    assert sig15(math.inf) == "inf"
    assert sig15(-math.inf) == "-inf"
    assert sig15(math.nan) == "nan"
    assert sig15(1.7976931348623157e308) == "inf"  # rounds to 1.79769313486232e+308
    assert sig15(-1.7976931348623157e308) == "-inf"


def test_spectrum_json_fields():
    payload = spectrum_json(np.array([1 + 2j, -0.5]))
    assert payload == [{"re": 1.0, "im": 2.0}, {"re": -0.5, "im": 0.0}]


def test_delta_star_json_handles_infinity():
    result = DeltaStarResult(
        delta_star=2.0,
        crossings=((0.0, -0.25), (3.0, 0.5)),
        omega_star=3.0,
        regime="SufficientOnly",
        necessary_bound=math.inf,
    )
    payload = delta_star_json(result)
    text = dumps(payload)
    parsed = json.loads(text)  # stays strict JSON
    assert parsed["necessary_bound"] == "inf"
    assert parsed["omega_star"] == 3.0
    assert parsed["diagnostic"] is None


def kernel_csv(header: list[str], *columns: np.ndarray) -> str:
    """The header line, then the rows of the columns as ``_CsvWriter`` formats them."""
    chunks = [(",".join(header) + "\n").encode("ascii")]
    writer = _CsvWriter(len(header), chunks.append)
    writer.add(*columns)
    writer.flush()
    return b"".join(chunks).decode("ascii")


def trace_header(n: int) -> list[str]:
    return ["t", *(f"x{i}" for i in range(1, n + 1))]


class Replay:
    """A whole trace handed to ``write_trace`` as ``Simulation`` hands over its run: blocks of
    at most ``_BLOCK`` rows, then ``diverged``."""

    def __init__(self, trace: SimulationTrace) -> None:
        self.trace, self.n, self.dt = trace, trace.states.shape[1], trace.dt
        self.diverged = False

    def __iter__(self):
        for start in range(0, len(self.trace.states), _BLOCK):
            yield start, self.trace.states[start:start + _BLOCK]
        self.diverged = self.trace.diverged


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep(path, np.array([0.0, math.inf]), np.array([0.5 + 0j, 0j]))
    assert path.read_text().splitlines() == ["omega,re,im", "0,0.5,0", "inf,0,0"]


def test_trace_csv_diverged_marker(tmp_path):
    # x grows by about e**0.1 a step and passes OVERFLOW_LIMIT at step 24
    L, x0, path = np.array([[-1.0]]), np.array([1e149]), tmp_path / "trace.csv"
    sim = Simulation(L, x0, 0.1, 3.0)
    write_trace(path, sim)
    lines = path.read_text().splitlines()
    assert sim.diverged and len(lines) == 1 + 24 + 1
    assert lines[0] == "t,x1"
    assert lines[-1] == "# diverged"
    assert_close_trace_csv(path.read_text(), reference_rk4(L, x0, 0.1, 3.0))


#: -0, subnormals, +-1e+-300, integral values and 17-digit values next to any float
CSV_VALUES = (
    st.floats()
    | st.sampled_from((-0.0, 5e-324, -2e-310, 1e300, -1e300, 1e-300, -1e-300, 0.1 + 0.2,
                       -1.2345678901234567e-5, math.inf, -math.inf, math.nan))
    | st.integers(-(2**60), 2**60).map(float)
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_trace_csv_matches_per_value_format(data):
    rows, n = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 5))
    trace = SimulationTrace(
        times=data.draw(arrays(float, rows, elements=CSV_VALUES)),
        states=data.draw(arrays(float, (rows, n), elements=CSV_VALUES)),
        dt=0.1,
    )
    assert kernel_csv(trace_header(n), trace.times, trace.states) == reference_trace_csv(trace)
    omegas = data.draw(arrays(float, rows, elements=CSV_VALUES))
    # filled part by part: re + 1j * im would turn an infinite im into a nan re
    values = np.empty(rows, dtype=complex)
    values.real = data.draw(arrays(float, rows, elements=CSV_VALUES))
    values.imag = data.draw(arrays(float, rows, elements=CSV_VALUES))
    sweep = kernel_csv(["omega", "re", "im"], omegas, values.real, values.imag)
    assert sweep == reference_sweep_csv(omegas, values)


def wide_normal(rng, shape):
    """Normal values scaled by powers of ten from 1e-300 to 1e299."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


@pytest.mark.parametrize("diverged", [False, True])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
def test_trace_csv_matches_per_value_format_across_chunks(tmp_path, rows, n, diverged):
    rng, path = np.random.default_rng(10 * rows + n), tmp_path / "trace.csv"
    trace = SimulationTrace(0.01 * np.arange(rows), wide_normal(rng, (rows, n)), dt=0.01,
                            diverged=diverged)
    write_trace(path, Replay(trace))
    text = path.read_text()
    assert text == reference_trace_csv(trace)
    assert len(text.splitlines()) == 1 + rows + diverged


@pytest.mark.parametrize("rows", [1365, 1366, 2731])  # 3 * rows on either side of _CHUNK
def test_sweep_csv_matches_per_value_format_across_chunks(tmp_path, rows):
    rng, path = np.random.default_rng(rows), tmp_path / "sweep.csv"
    omegas, values = np.abs(wide_normal(rng, rows)), np.empty(rows, dtype=complex)
    values.real, values.imag = wide_normal(rng, rows), wide_normal(rng, rows)
    write_sweep(path, omegas, values)
    assert path.read_text() == reference_sweep_csv(omegas, values)


def assert_same_lines(text, want):
    """``text == want``, naming the first differing lines rather than diffing megabytes."""
    bad = [(a, b) for a, b in zip(text.splitlines(), want.splitlines()) if a != b][:5]
    assert not bad and len(text) == len(want), bad


def assert_prints_as_percent(values):
    """Both CSVs print each value, and its negation, exactly as ``"%.15g" % x``."""
    values = np.asarray(values, dtype=float)
    assert_same_lines(kernel_csv(trace_header(1), values, -values[:, None]), "t,x1\n" + "".join(
        "%.15g,%.15g\n" % (x, -x) for x in values.tolist()))
    z = np.empty(values.size, dtype=complex)  # filled part by part, as -x + 1j * x mixes in nans
    z.real, z.imag = -values, values
    assert_same_lines(kernel_csv(["omega", "re", "im"], values, z.real, z.imag), "omega,re,im\n"
                      + "".join("%.15g,%.15g,%.15g\n" % (x, -x, x) for x in values.tolist()))


def neighbours(values):
    """The values and the two floats on either side of each."""
    values = np.asarray(values, dtype=float)
    up, down = np.nextafter(values, np.inf), np.nextafter(values, -np.inf)
    return np.concatenate([values, up, down, np.nextafter(up, np.inf),
                           np.nextafter(down, -np.inf)])


def rounding_ties():
    """15 digits and a 5 (exact ties where the float holds them), and their neighbours."""
    rng = np.random.default_rng(5)
    mantissas = rng.integers(10**14, 10**15, 60).tolist() + [10**14, 10**15 - 1]
    return neighbours([float(f"{m}5e{k}") for m in mantissas for k in range(-35, 45)])


def test_csv_prints_rounding_ties_as_percent():
    assert_prints_as_percent(rounding_ties())


def tie_distance(x):
    """The exact distance of ``|x| * 10**(14 - X)`` from its nearest half-integer, X the exponent
    that ``"%.14e" % x`` prints."""
    num, den = abs(x).as_integer_ratio()
    s = 14 - int(("%.14e" % x).partition("e")[2])
    num, den = (num * 10**s, den) if s >= 0 else (num, den * 10**-s)
    return Fraction(abs(2 * (num % den) - den), 2 * den)


def test_csv_prints_values_next_to_a_rounding_tie_as_percent():
    # the scaled mantissa of each is within the margin of a tie but not on it, so the kernel
    # must not take its rounding from the long double product
    rng = np.random.default_rng(8)
    values = [float(f"{m}5e{k}") for m, k in zip(rng.integers(10**14, 10**15, 20_000).tolist(),
                                                  rng.integers(-30, 30, 20_000).tolist())]
    near = [x for x in values if 0 < tie_distance(x) < report._TIE_MARGIN]
    assert len(near) >= 20
    assert_prints_as_percent(near)


def test_csv_prints_powers_of_ten_as_percent():
    # next to a power of ten, log10 of the value can be one off
    assert_prints_as_percent(neighbours([10.0**k for k in range(-323, 309)]))


def test_csv_prints_values_that_round_into_the_next_decade_as_percent():
    assert "%.15g" % 9.9999999999999995e-05 == "0.0001"  # exponential turns fixed
    assert "%.15g" % 999999999999999.5 == "1e+15"  # fixed turns exponential
    values = [float(f"9.99999999999999{d}e{k}") for d in range(4, 10) for k in range(-30, 30)]
    assert_prints_as_percent(neighbours(values + [9.9999999999999995e-05, 999999999999999.5]))


def test_csv_prints_three_digit_exponents_and_subnormals_as_percent():
    rng = np.random.default_rng(6)
    tiny = np.finfo(float).smallest_normal
    values = np.concatenate([
        rng.uniform(1, 10, 300) * 10.0 ** rng.integers(-308, -99, 300),
        rng.uniform(1, 10, 300) * 10.0 ** rng.integers(100, 308, 300),
        5e-324 * rng.integers(1, 2**52, 300).astype(float),  # subnormals
        neighbours([5e-324, tiny]), [np.finfo(float).max, np.nextafter(np.finfo(float).max, 0)]])
    assert_prints_as_percent(values)


def test_csv_prints_the_same_bytes_when_every_value_takes_the_fallback(monkeypatch):
    # a margin so wide that no scaled value is trusted: every value takes ``"%.14e" % x``, as
    # nearly half of them do where long double is a plain double
    rng = np.random.default_rng(7)
    values = np.concatenate([rounding_ties()[:500], rng.standard_normal(500),
                             [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 1e-5]])
    monkeypatch.setattr(report, "_TIE_MARGIN", 0.5)
    assert_prints_as_percent(values)


def sensitive_payload(uv, cond1, verified):
    """The dict per pair that ``signedlap sensitive`` handed to ``dumps``."""
    return [
        {"u": u, "v": v, "class": "Cond1" if c1 else "Cond2", "theta_diag_sign": "Negative",
         "verified": ok}
        for (u, v), c1, ok in zip(uv.tolist(), cond1.tolist(), verified)
    ]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dumps_sensitive_matches_dumps_of_the_dict_payload(data):
    m = data.draw(st.integers(0, 300))
    uv = data.draw(arrays(np.intp, (m, 2), elements=st.integers(1, 11585)))
    cond1 = data.draw(arrays(bool, m))
    verified = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
    text = dumps_sensitive(uv, cond1, verified)
    payload = sensitive_payload(uv, cond1, verified)
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_dumps_sensitive_of_no_pairs():
    assert dumps_sensitive(np.empty((0, 2), dtype=np.intp), np.empty(0, dtype=bool), []) == "[]\n"


#: values whose repr differs from their %.15g text: -0, non-finite, exponent -5, 15 and 16,
#: 17 significant digits, and the largest float, whose 15-digit rounding overflows
JSON_VALUES = st.floats() | st.sampled_from(
    (-0.0, math.inf, -math.inf, math.nan, 1e-5, 1.5e15, 123456789012345.0, 1e16, 0.1 + 0.2,
     1.7976931348623157e308))


@st.composite
def analyze_arguments(draw):
    """``dumps_analyze``'s arguments with arbitrary floats, sets and node lists."""
    n, d = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    values = np.empty(n, dtype=complex)  # filled part by part, as re + 1j * im mixes in nans
    values.real = draw(arrays(float, n, elements=JSON_VALUES))
    values.imag = draw(arrays(float, n, elements=JSON_VALUES))
    if draw(st.booleans()):  # block_spectrum returns a real array when every block's is real
        values = values.real.copy()
    sets = [draw(st.lists(st.frozensets(st.integers(1, 30), max_size=5), min_size=d, max_size=d))
            for _ in range(4)]
    if draw(st.booleans()):
        sets[3] = [frozenset()] * d  # no common nodes
    order = draw(st.lists(st.integers(1, 30), max_size=n))
    decomp = ReachDecomposition(d, *map(tuple, sets), order=tuple(order))
    basis = draw(st.none() | st.builds(
        NullBasis, st.just(d), arrays(float, (d, n), elements=JSON_VALUES),
        arrays(float, (d, n), elements=JSON_VALUES)))
    return n, values, draw(st.integers(0, n)), draw(st.booleans()), decomp, basis


@settings(max_examples=300, deadline=None)
@given(args=analyze_arguments())
def test_dumps_analyze_matches_dumps_of_the_dict_payload(args):
    assert dumps_analyze(*args) == analyze_json(*args)


def test_r_value_singular_system():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +-i
    Q = np.array([[1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
                  [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)]])
    with pytest.raises(NumericsError):
        r_value(rotation, Q, 1, 2, 1.0, 0.0, 1.0)


def test_nyquist_sweep_skips_singular_points(caplog, monkeypatch):
    singular = np.diag([0.0, 1.0])  # its zero pivot vanishes at the w = 0 sample
    Q = np.array([[1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
                  [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)]])
    b, c = robustness._input_vectors(3, 1, 2, 1.0, 0.0) @ Q.T
    # the slice, ||L1||_inf and the spectral radius, as the helper would return them
    monkeypatch.setattr(robustness, "_pair_slice",
                        lambda g1, pert: (None, (singular, b, c), 1.0, 1.0))
    with caplog.at_level("WARNING"):
        omegas, values = nyquist_sweep(None, None)
    assert len(omegas) == len(values) == 2001  # w = 0 dropped from 2001 samples, asymptote appended
    assert 0.0 not in omegas and omegas[-1] == math.inf
    assert "singular" in caplog.text


def test_dumps_sorted_and_newline():
    text = dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
