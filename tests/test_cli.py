import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import signedlap
from signedlap import (EdgePerturbation, NumericsError, SignedDigraph, laplacian, matrix_scale,
                       parse_edge_list, reach, report, spectral)
from signedlap.cli import main
from signedlap.simulate import consensus_reached, default_dt, default_horizon, spread
from signedlap.spectral import ZERO_TOL

from conftest import DEFECTIVE_ZERO, bisection_delta_star
from helpers import reference_rk4, reference_trace_csv

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_reference(capsys):
    code, out, _ = run(capsys, "analyze", "--graph", str(DATA / "reach12.txt"))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 12
    assert payload["zero_multiplicity"] == 3
    assert payload["spectrum_condition"] is False
    assert payload["decomposition"]["d"] == 3
    assert payload["decomposition"]["reaching"] == [[1, 2], [3], [7]]
    mus = payload["null_basis"]["mus"]
    assert mus[0][0] == pytest.approx(1 / 3, abs=1e-9)
    assert mus[0][1] == pytest.approx(2 / 3, abs=1e-9)
    assert len(payload["spectrum"]) == 12
    assert all(set(z) == {"re", "im"} for z in payload["spectrum"])


def test_analyze_signed_graph(capsys):
    code, out, _ = run(capsys, "analyze", "--graph", str(DATA / "mixed5.txt"))
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_multiplicity"] == 1
    assert payload["spectrum_condition"] is True
    assert payload["decomposition"]["d"] == 1
    assert payload["null_basis"] is None


def test_analyze_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", "--graph", str(DATA / "reach12.txt"), "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["n"] == 12


def test_delta_star_cli(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "delta-star",
        "--graph", str(DATA / "spoked8.txt"),
        "--pair", "3", "8",
        "--gains", "1", "0",
        "--sweep-out", str(sweep),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_star"] == pytest.approx(68 / 35, abs=1e-6)
    assert payload["regime"] == "NecessaryAndSufficient"
    assert payload["omega_star"] == 0.0
    lines = sweep.read_text().splitlines()
    assert lines[0] == "omega,re,im"
    assert lines[1].startswith("0,")
    assert lines[-1] == "inf,0,0"
    assert len(lines) == 2003  # header + 0 + 2000 grid points + asymptote


def test_delta_star_premise_exit_code(capsys):
    code, _, err = run(
        capsys, "delta-star", "--graph", str(DATA / "reach12.txt"), "--pair", "3", "8"
    )
    assert code == 3
    assert "error" in err


def test_delta_star_checks_the_pair_before_the_premise(tmp_path, capsys):
    path = tmp_path / "two_sinks.txt"
    path.write_text("3\n1 2 1\n")  # two zeros: no premise, but the pair is reported first
    code, out, err = run(capsys, "delta-star", "--graph", str(path), "--pair", "1", "9")
    assert code == 2 and out == ""
    assert "out of range" in err


@pytest.mark.parametrize("argv, field", [
    (("simulate", "--pair", "1", "3", "--delta", "nan"), "delta"),
    (("simulate", "--pair", "1", "3", "--gains", "nan", "1", "--delta", "1"), "q_uv"),
    (("delta-star", "--pair", "1", "3", "--gains", "inf", "1"), "q_uv"),
])
def test_non_finite_perturbation_exit_code(capsys, argv, field):
    code, out, err = run(capsys, argv[0], "--graph", str(DATA / "triangle.txt"), *argv[1:])
    assert code == 2 and out == ""
    assert f"{field} must be finite" in err


@pytest.mark.parametrize("n", [10**5, 10**9])
def test_oversized_node_count_exit_code(tmp_path, capsys, n):
    path = tmp_path / "huge.txt"
    path.write_text(f"{n}\n1 2 1\n")
    for command, *extra in (("analyze",), ("delta-star", "--pair", "1", "2"), ("sensitive",)):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--graph", str(path), *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert "MAX_LAPLACIAN_BYTES" in err


def test_cli_import_leaves_out_scipy_optimize():
    src = str(Path(signedlap.__file__).parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import signedlap.cli; "
             "print('scipy.optimize' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "False"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n1 1 5\n")
    code, _, err = run(capsys, "analyze", "--graph", str(bad))
    assert code == 2
    assert "self-loop" in err


def test_missing_file_exit_code(capsys):
    code, _, _ = run(capsys, "analyze", "--graph", "/nonexistent/graph.txt")
    assert code == 2


def test_numerical_exit_code(capsys, monkeypatch):
    import signedlap.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericsError("synthetic failure")

    monkeypatch.setattr(cli_mod, "delta_star", boom)
    code, _, err = run(
        capsys, "delta-star", "--graph", str(DATA / "spoked8.txt"), "--pair", "3", "8"
    )
    assert code == 4
    assert "synthetic" in err


def test_sensitive_cli(capsys):
    code, out, _ = run(
        capsys, "sensitive", "--graph", str(DATA / "reach12.txt"), "--epsilon", "1e-4"
    )
    assert code == 0
    rows = json.loads(out)
    entries = {(r["u"], r["v"]): r for r in rows}
    assert entries[(1, 4)]["class"] == "Cond1"
    assert entries[(1, 4)]["theta_diag_sign"] == "Negative"
    assert entries[(1, 4)]["verified"] is True
    assert entries[(7, 9)]["class"] == "Cond2"
    assert (3, 4) not in entries


def test_sensitive_condenses_the_graph_once(capsys, monkeypatch):
    strong_components, runs = reach._strong_components, []

    def counted(n, rows, cols):
        runs.append(n)
        return strong_components(n, rows, cols)

    for module in (reach, spectral):
        monkeypatch.setattr(module, "_strong_components", counted)
    code, _, _ = run(capsys, "sensitive", "--graph", str(DATA / "reach12.txt"))
    assert code == 0
    assert runs == [12]


def test_sensitive_single_reach_exit(capsys, tmp_path):
    ring = tmp_path / "ring.txt"
    ring.write_text("3\n1 2 1\n2 3 1\n3 1 1\n")
    code, _, _ = run(capsys, "sensitive", "--graph", str(ring))
    assert code == 3


@pytest.mark.parametrize("eps", ["-1e-4", "0", "nan", "1e-13"])
def test_sensitive_rejects_bad_epsilon(capsys, eps):
    code, out, err = run(capsys, "sensitive", "--graph", str(DATA / "reach12.txt"),
                         f"--epsilon={eps}")
    assert code == 2 and out == ""
    assert "--epsilon" in err
    assert "edge" not in err


def test_simulate_refuses_oversized_trace(capsys, tmp_path):
    # default horizon 50/1e-6 at dt 0.005: 1e10 steps, hundreds of GB of states
    path = tmp_path / "path3.txt"
    path.write_text("3\n2 1 1\n3 2 1e-6\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", "--graph", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 3 and out == ""
    assert "MAX_TRACE_BYTES" in err and "GiB" in err
    code, out, err = run(capsys, "simulate", "--graph", str(path), "--dt", "1e-310", "--horizon", "50")
    assert code == 3 and out == ""
    assert "MAX_TRACE_BYTES" in err


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "-1", "0"])
def test_simulate_rejects_bad_rel_tol(capsys, rel_tol):
    # nan used to pass and report no consensus on a spread of 4e-15
    code, out, err = run(capsys, "simulate", "--graph", str(DATA / "triangle.txt"),
                         f"--rel-tol={rel_tol}")
    assert code == 2 and out == ""
    assert "--rel-tol" in err


def test_simulate_cli_consensus_flip(tmp_path, capsys):
    results = {}
    for delta in ("1.5", "1.95"):
        trace = tmp_path / f"trace{delta}.csv"
        code, out, _ = run(
            capsys,
            "simulate",
            "--graph", str(DATA / "spoked8.txt"),
            "--pair", "3", "8",
            "--gains", "1", "0",
            "--delta", delta,
            "--out", str(trace),
        )
        assert code == 0
        results[delta] = json.loads(out)
        header = trace.read_text().splitlines()[0]
        assert header == "t," + ",".join(f"x{i}" for i in range(1, 9))
    assert results["1.5"]["consensus"] is True
    assert results["1.95"]["consensus"] is False


def test_simulate_deterministic(tmp_path, capsys):
    args = (
        "simulate",
        "--graph", str(DATA / "spoked8.txt"),
        "--pair", "3", "8",
        "--gains", "1", "0",
        "--delta", "1.5",
        "--seed", "7",
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code1, out1, _ = run(capsys, *args, "--out", str(first))
    code2, out2, _ = run(capsys, *args, "--out", str(second))
    assert code1 == code2 == 0
    assert out1 == out2
    assert first.read_bytes() == second.read_bytes()


def test_simulate_diverged_output_matches_per_step_pipeline(tmp_path, capsys):
    graph, trace_path = tmp_path / "grow.txt", tmp_path / "trace.csv"
    graph.write_text("2\n1 2 -5\n")  # node 1 moves away from node 2 at rate 5
    code, out, _ = run(capsys, "simulate", "--graph", str(graph), "--out", str(trace_path))
    assert code == 0
    L = laplacian(SignedDigraph(2, {(1, 2): -5.0}))
    dt, horizon = default_dt(L), default_horizon(L)
    ref = reference_rk4(L, np.random.default_rng(42).uniform(-1.0, 1.0, 2), dt, horizon)
    verdict = {
        "consensus": consensus_reached(ref),
        "diverged": ref.diverged,
        "dt": report.sig15(dt),
        "horizon": report.sig15(horizon),
        "initial_spread": report.sig15(spread(ref.states[:1])[0]),
        "final_spread": report.sig15(spread(ref.states[-1:])[0]),
    }
    assert out == report.dumps(verdict)
    assert json.loads(out)["diverged"] is True
    assert trace_path.read_bytes() == reference_trace_csv(ref).encode()
    assert trace_path.read_bytes().endswith(b"\n# diverged\n")


def test_simulate_delta_requires_pair(capsys):
    code, _, err = run(
        capsys, "simulate", "--graph", str(DATA / "spoked8.txt"), "--delta", "1.0"
    )
    assert code == 2
    assert "--pair" in err


def test_resistance_cli(capsys):
    code, out, _ = run(
        capsys,
        "resistance",
        "--graph", str(DATA / "triangle.txt"),
        "--pair", "1", "2",
        "--mode", "undirected",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["r_uv"] == pytest.approx(2 / 3)
    assert payload["method"] == "UndirectedClosedForm"
    code, out, _ = run(
        capsys,
        "resistance",
        "--graph", str(DATA / "triangle.txt"),
        "--pair", "1", "2",
        "--mode", "directed",
    )
    assert code == 0
    assert json.loads(out)["r_uv"] == pytest.approx(2 / 3, abs=1e-8)


def test_resistance_asymmetric_exit(capsys, tmp_path):
    g = tmp_path / "asym.txt"
    g.write_text("2\n1 2 1\n2 1 2\n")
    code, _, _ = run(capsys, "resistance", "--graph", str(g), "--pair", "1", "2",
                     "--mode", "undirected")
    assert code == 3


def test_analyze_positive_only_flag(tmp_path, capsys):
    g = tmp_path / "neg_bridge.txt"
    g.write_text("3\n1 2 1\n2 3 -1\n")
    code, out, _ = run(capsys, "analyze", "--graph", str(g))
    assert code == 0 and json.loads(out)["decomposition"]["d"] == 1
    code, out, _ = run(capsys, "analyze", "--graph", str(g), "--positive-only")
    assert code == 0 and json.loads(out)["decomposition"]["d"] == 2


def test_analyze_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", "--graph", str(DATA / "mixed5.txt"))
    code2, out2, _ = run(capsys, "analyze", "--graph", str(DATA / "mixed5.txt"))
    assert code1 == code2 == 0
    assert out1 == out2


def defective_zero_file(tmp_path, v):
    """DEFECTIVE_ZERO plus edge (13, v) of weight -3, leaving the 13-16 cycle's block singular.

    The graph's Laplacian has four zeros, one per singular SCC block and no
    eigenvalue with Re < 0; one whole-matrix eigensolve splits the zero that
    the cycle's block shares with a sink's by about 1e-8.
    """
    g, _ = DEFECTIVE_ZERO
    edges = {**g.edges, (13, v): -3.0}
    path = tmp_path / f"defective_13_{v}.txt"
    path.write_text(f"{g.n}\n" + "".join(f"{i} {j} {w!r}\n" for (i, j), w in edges.items()))
    return path, matrix_scale(laplacian(SignedDigraph(g.n, edges)))


@pytest.mark.parametrize("v", [11, 9])
def test_analyze_counts_a_defective_zero(tmp_path, capsys, v):
    path, scale = defective_zero_file(tmp_path, v)
    code, out, _ = run(capsys, "analyze", "--graph", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_multiplicity"] == 4
    assert payload["spectrum_condition"] is False
    assert min(z["re"] for z in payload["spectrum"]) >= -ZERO_TOL * scale


def test_simulate_horizon_ignores_a_defective_zero(tmp_path, capsys):
    # the split zero at +1.45e-8 once read as the slowest mode: 3.6e12 steps, exit 3
    path, _ = defective_zero_file(tmp_path, 11)
    code, out, _ = run(capsys, "simulate", "--graph", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["horizon"] == pytest.approx(52.851, abs=1e-3)
    assert verdict["consensus"] is False


# weights over nine decades: the binding crossing sits at omega* ~ 4.22e-4, where Re G ~ 175.46
WIDE_WEIGHTS = """8
1 6 10440.2
2 1 8.19644
2 3 3416.39
3 5 4.74123e-05
3 7 0.00486034
4 8 17.9778
5 3 0.00436575
5 6 75928.9
6 3 0.000127354
7 5 0.000664041
8 1 8.3714
"""


@pytest.mark.xfail(strict=True, reason=(
    "delta_star finds crossings as zeros of a system in Lbar1^2, whose absolute error "
    "eps * ||Lbar1||^2 swallows the crossing at omega* ~ 4.22e-4: it reports the omega = 0 "
    "bound 0.005967, 4.7 % above the exact 0.0056991, as NecessaryAndSufficient"))
def test_delta_star_wide_weights_match_the_bisection_oracle(capsys, tmp_path):
    path = tmp_path / "wide8.txt"
    path.write_text(WIDE_WEIGHTS)
    code, out, _ = run(capsys, "delta-star", "--graph", str(path), "--pair", "3", "5")
    assert code == 0
    payload = json.loads(out)
    oracle = bisection_delta_star(parse_edge_list(WIDE_WEIGHTS), EdgePerturbation(3, 5, 1.0, 1.0))
    assert payload["delta_star"] == pytest.approx(oracle, rel=1e-6)
    assert payload["regime"] == "SufficientOnly"
