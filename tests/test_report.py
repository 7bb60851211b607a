import json
import math

import numpy as np
import pytest

from signedlap import NumericsError, nyquist_sweep, r_value
from signedlap.report import (
    delta_star_json,
    dumps,
    sig15,
    spectrum_json,
    sweep_csv,
    trace_csv,
)
from signedlap.robustness import DeltaStarResult, TransferSample
from signedlap.simulate import SimulationTrace


def test_sig15():
    assert sig15(0.25) == 0.25
    assert sig15(1 / 3) == 0.333333333333333
    assert sig15(math.inf) == "inf"
    assert sig15(-math.inf) == "-inf"
    assert sig15(math.nan) == "nan"


def test_spectrum_json_fields():
    payload = spectrum_json(np.array([1 + 2j, -0.5]))
    assert payload == [{"re": 1.0, "im": 2.0}, {"re": -0.5, "im": 0.0}]


def test_delta_star_json_handles_infinity():
    result = DeltaStarResult(
        delta_star=math.inf,
        crossings=((0.0, -0.25),),
        omega_star=None,
        regime=None,
        necessary_bound=math.inf,
        diagnostic="no positive crossing",
    )
    payload = delta_star_json(result)
    text = dumps(payload)
    parsed = json.loads(text)  # stays strict JSON
    assert parsed["delta_star"] == "inf"
    assert parsed["regime"] is None
    assert parsed["diagnostic"] == "no positive crossing"


def test_sweep_csv_format():
    samples = [TransferSample(0.0, complex(0.5, 0.0)), TransferSample(math.inf, 0j)]
    text = sweep_csv(samples)
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
        samples = nyquist_sweep(singular, Q, 1, 2, 1.0, 0.0)
    omegas = [s.omega for s in samples]
    assert len(samples) == 2001  # w = 0 dropped from 2001 samples, asymptote appended
    assert 0.0 not in omegas and omegas[-1] == math.inf
    assert "singular" in caplog.text


def test_dumps_sorted_and_newline():
    text = dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
