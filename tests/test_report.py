import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signedlap import NullBasis, NumericsError, ReachDecomposition, nyquist_sweep, r_value
from signedlap.report import (
    delta_star_json,
    dumps,
    dumps_analyze,
    dumps_sensitive,
    sig15,
    sweep_csv,
    trace_csv,
)
from signedlap.robustness import DeltaStarResult
from signedlap.simulate import SimulationTrace

from helpers import analyze_json, reference_sweep_csv, reference_trace_csv, spectrum_json


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


def test_sweep_csv_format():
    text = sweep_csv(np.array([0.0, math.inf]), np.array([0.5 + 0j, 0j]))
    assert text.splitlines() == ["omega,re,im", "0,0.5,0", "inf,0,0"]


def test_trace_csv_diverged_marker():
    trace = SimulationTrace(
        times=np.array([0.0, 0.1]),
        states=np.array([[1.0, -1.0], [2.0, -2.0]]),
        dt=0.1,
        diverged=True,
    )
    lines = trace_csv(trace).splitlines()
    assert lines[0] == "t,x1,x2"
    assert lines[-1] == "# diverged"


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
        diverged=data.draw(st.booleans()),
    )
    assert trace_csv(trace) == reference_trace_csv(trace)
    omegas = data.draw(arrays(float, rows, elements=CSV_VALUES))
    # filled part by part: re + 1j * im would turn an infinite im into a nan re
    values = np.empty(rows, dtype=complex)
    values.real = data.draw(arrays(float, rows, elements=CSV_VALUES))
    values.imag = data.draw(arrays(float, rows, elements=CSV_VALUES))
    assert sweep_csv(omegas, values) == reference_sweep_csv(omegas, values)


@pytest.mark.parametrize("diverged", [False, True])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
def test_trace_csv_matches_per_value_format_across_chunks(rows, n, diverged):
    rng = np.random.default_rng(10 * rows + n)
    states = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-300, 300, (rows, n))
    trace = SimulationTrace(0.01 * np.arange(rows), states, dt=0.01, diverged=diverged)
    text = trace_csv(trace)
    assert text == reference_trace_csv(trace)
    assert len(text.splitlines()) == 1 + rows + diverged


def test_trace_csv_holds_about_two_copies_of_its_text():
    rng = np.random.default_rng(3)
    trace = SimulationTrace(0.01 * np.arange(20 * 1024), rng.standard_normal((20 * 1024, 10)),
                            dt=0.01)
    tracemalloc.start()
    try:
        text = trace_csv(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row strings and the final text
    assert peak < 2.5 * len(text)


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


def test_nyquist_sweep_skips_singular_points(caplog):
    singular = np.diag([0.0, 1.0])  # its zero pivot vanishes at the w = 0 sample
    Q = np.array([[1 / np.sqrt(2), -1 / np.sqrt(2), 0.0],
                  [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)]])
    with caplog.at_level("WARNING"):
        omegas, values = nyquist_sweep(singular, Q, 1, 2, 1.0, 0.0)
    assert len(omegas) == len(values) == 2001  # w = 0 dropped from 2001 samples, asymptote appended
    assert 0.0 not in omegas and omegas[-1] == math.inf
    assert "singular" in caplog.text


def test_dumps_sorted_and_newline():
    text = dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
