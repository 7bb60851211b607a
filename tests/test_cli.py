import itertools
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import signedlap
from signedlap import (EdgePerturbation, NumericsError, SignedDigraph, cli, delta_star, laplacian,
                       matrix_scale, parse_edge_list, reach, report)
from signedlap.cli import main
from signedlap.simulate import _BLOCK, Simulation, default_dt, default_horizon
from signedlap.spectral import ZERO_TOL

from conftest import DEFECTIVE_ZERO, WIDE_WEIGHTS, bisection_delta_star
from helpers import (STEP_RTOL, assert_close_trace_csv, consensus_reached, reference_analyze_json,
                     reference_rk4, reference_sensitive_json, spread)

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


@pytest.mark.parametrize("positive_only", [False, True])
@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.txt")))
def test_analyze_matches_the_dict_reference_on_every_data_graph(tmp_path, capsys, name,
                                                                positive_only):
    flag = ["--positive-only"] if positive_only else []
    want = reference_analyze_json(parse_edge_list((DATA / name).read_text()), positive_only)
    code, out, _ = run(capsys, "analyze", "--graph", str(DATA / name), *flag)
    assert code == 0 and out == want
    path = tmp_path / "analyze.json"
    code, out, _ = run(capsys, "analyze", "--graph", str(DATA / name), *flag, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text(encoding="utf-8") == want


def test_analyze_singular_common_block_exit_code(tmp_path, capsys):
    # the 1e20 cycle on the common nodes 1, 2 absorbs their unit edges to the sinks 3, 4 in
    # the diagonal, so L_CC = [[1e20, -1e20], [-1e20, 1e20]] is exactly singular
    path = tmp_path / "singular.txt"
    path.write_text("4\n1 2 1e20\n2 1 1e20\n1 3 1\n2 4 1\n")
    code, out, err = run(capsys, "analyze", "--graph", str(path))
    assert code == 4 and out == ""
    assert "common block is singular" in err


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


#: in a fresh process, after ``import signedlap.cli`` and after each call in turn, the exit
#: code (None after the import) and the scipy modules loaded
SCIPY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import signedlap.cli
seen = [[None, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = signedlap.cli.main(argv)
    seen.append([code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")])
print(json.dumps(seen))
"""


def test_only_the_sparse_lu_and_schur_solvers_load_scipy(tmp_path):
    data = {name: str(DATA / f"{name}.txt") for name in ("reach12", "spoked8", "triangle")}
    numpy_only = [
        ["sensitive", "--graph", data["reach12"]],
        ["simulate", "--graph", data["triangle"]],
        ["resistance", "--graph", data["triangle"], "--pair", "1", "2", "--mode", "undirected"],
        ["delta-star", "--graph", data["spoked8"], "--pair", "3", "8"],
        ["analyze", "--graph", data["spoked8"]],  # one reach: no common nodes to solve for
    ]
    with_scipy = [
        ["analyze", "--graph", data["reach12"]],  # common nodes: a sparse LU
        ["resistance", "--graph", data["triangle"], "--pair", "1", "2", "--mode", "directed"],
        ["delta-star", "--graph", data["spoked8"], "--pair", "3", "8",
         "--sweep-out", str(tmp_path / "sweep.csv")],
    ]
    src = str(Path(signedlap.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, src, json.dumps(numpy_only + with_scipy)],
        capture_output=True, text=True, check=True)
    seen = json.loads(result.stdout)
    assert seen[:len(numpy_only) + 1] == [[None, []]] + [[0, []]] * len(numpy_only)
    assert [code for code, _ in seen[len(numpy_only) + 1:]] == [0] * len(with_scipy)
    assert "scipy.linalg" in seen[-1][1]  # the probe sees scipy where it is loaded


def test_cli_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    # the shared parser carries nothing from one call into the next: defaults stay defaults
    pair = ["delta-star", "--graph", str(DATA / "spoked8.txt"), "--pair", "3", "8"]
    sensitive = ["sensitive", "--graph", str(DATA / "reach12.txt")]
    argvs = [pair + ["--gains", "1", "0"], pair, sensitive, pair + ["--gains", "1", "0"], pair]
    fresh = cli.build_parser.__wrapped__()
    for argv in argvs:
        assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
    outs = [run(capsys, *argv) for argv in argvs]
    assert outs[:2] == outs[3:] and outs[0] != outs[1]
    for (code, out, _), gains in ((outs[0], (1.0, 0.0)), (outs[1], (1.0, 1.0))):
        want = delta_star(parse_edge_list((DATA / "spoked8.txt").read_text()),
                          EdgePerturbation(3, 8, q_uv=gains[0], q_vu=gains[1]))
        assert code == 0 and out == report.dumps(report.delta_star_json(want))


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


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 74.5 GiB for an array"),
     "error: out of memory: Unable to allocate 74.5 GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy-message", "no-message"])
def test_out_of_memory_exit_code(capsys, monkeypatch, exc, message):
    def exhaust(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "Simulation", exhaust)
    code, out, err = run(capsys, "simulate", "--graph", str(DATA / "triangle.txt"))
    assert code == 4 and out == "" and err == message


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


@pytest.mark.parametrize("argv, runs", [
    (["analyze", "--graph", "reach12.txt"], 1),
    (["analyze", "--graph", "reach12.txt", "--positive-only"], 2),  # two edge sets
    (["delta-star", "--graph", "spoked8.txt", "--pair", "3", "8"], 1),
    (["sensitive", "--graph", "reach12.txt"], 1),
    (["simulate", "--graph", "triangle.txt"], 1),
    (["simulate", "--graph", "triangle.txt", "--horizon", "1"], 0),
    (["resistance", "--graph", "triangle.txt", "--pair", "1", "2", "--mode", "undirected"], 1),
    (["resistance", "--graph", "triangle.txt", "--pair", "1", "2", "--mode", "directed"], 0),
], ids=["analyze", "analyze-positive-only", "delta-star", "sensitive", "simulate",
        "simulate-horizon", "resistance-undirected", "resistance-directed"])
def test_sensitive_condenses_the_graph_once(capsys, monkeypatch, argv, runs):
    # the SCC search runs only in reach._condense, so this counts the condensations
    search, calls = reach._strong_components, []

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(reach, "_strong_components", counted)
    code, _, _ = run(capsys, *(str(DATA / a) if a.endswith(".txt") else a for a in argv))
    assert code == 0
    assert len(calls) == runs


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


def test_sensitive_refuses_an_overflowing_epsilon(capsys, tmp_path):
    out_file = tmp_path / "pairs.json"
    code, out, err = run(capsys, "sensitive", "--graph", str(DATA / "reach12.txt"),
                         "--epsilon", "1e308", "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    assert "--epsilon" in err and "overflows" in err


MULTI_REACH_DATA = [p for p in sorted(DATA.glob("*.txt"))
                    if reach.reach_decomposition(parse_edge_list(p.read_text())).d >= 2]


@pytest.mark.parametrize("eps", ["1e-4", "1e-6", "0.3", "3"])
def test_sensitive_json_matches_the_per_pair_reference(capsys, tmp_path, eps):
    assert MULTI_REACH_DATA
    for path in MULTI_REACH_DATA:
        want = reference_sensitive_json(parse_edge_list(path.read_text()), float(eps))
        code, out, _ = run(capsys, "sensitive", "--graph", str(path), "--epsilon", eps)
        assert code == 0 and out == want
        out_file = tmp_path / f"{path.stem}.json"
        code, out, _ = run(capsys, "sensitive", "--graph", str(path), "--epsilon", eps,
                           "--out", str(out_file))
        assert code == 0 and out == ""
        assert out_file.read_bytes() == want.encode("utf-8")


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
    g = SignedDigraph(2, {(1, 2): -5.0})
    L = laplacian(g)
    dt, horizon = default_dt(L), default_horizon(L, reach.condensation(g))
    ref = reference_rk4(L, np.random.default_rng(42).uniform(-1.0, 1.0, 2), dt, horizon)
    verdict = {
        "consensus": consensus_reached(ref),
        "diverged": ref.diverged,
        "dt": report.sig15(dt),
        "horizon": report.sig15(horizon),
        "initial_spread": report.sig15(spread(ref.states[:1])[0]),
    }
    payload = json.loads(out)
    final_spread = payload["final_spread"]  # the spread of two states, each within STEP_RTOL
    assert out == report.dumps({**verdict, "final_spread": final_spread})
    assert abs(final_spread - spread(ref.states[-1:])[0]) <= 2 * STEP_RTOL * abs(ref.states).max()
    assert payload["diverged"] is True
    assert_close_trace_csv(trace_path.read_text(), ref)
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


def test_resistance_undirected_accepts_a_connected_wide_weight_path(tmp_path, capsys):
    # connected, but the reduced Laplacian's smallest eigenvalue, 1.5e-5, sits below
    # ZERO_TOL * ||L||_inf = 2e-4, and so does the smallest eigenvalue sum, 3e-5: a
    # connectivity test or a Lyapunov solvability check on that one threshold refuses it
    path = tmp_path / "path.txt"
    path.write_text("3\n1 2 1e5\n2 1 1e5\n2 3 1e-5\n3 2 1e-5\n")
    r_uv = {}
    for mode in ("undirected", "directed"):
        code, out, _ = run(capsys, "resistance", "--graph", str(path), "--pair", "1", "3",
                           "--mode", mode)
        assert code == 0
        r_uv[mode] = json.loads(out)["r_uv"]
    assert r_uv["directed"] == r_uv["undirected"]
    assert r_uv["undirected"] == pytest.approx(1 / 1e5 + 1 / 1e-5, rel=1e-6)


def test_resistance_directed_refuses_two_components_with_large_weights(tmp_path, capsys):
    # two sinks, so Lbar has an exact zero eigenvalue; computed, it is roundoff of about
    # eps * ||Lbar|| = 1e-7, above the 1e-9 floor of a threshold scaled by the zero itself
    path = tmp_path / "two.txt"
    path.write_text("4\n1 2 1e8\n2 1 1e8\n3 4 1e8\n4 3 1e8\n")
    for mode in ("directed", "undirected"):
        code, out, err = run(capsys, "resistance", "--graph", str(path), "--pair", "1", "3",
                             "--mode", mode)
        assert code == 3 and out == ""


@pytest.mark.parametrize("argv", [("analyze",), ("delta-star", "--pair", "1", "2"),
                                  ("simulate",), ("resistance", "--pair", "1", "2")],
                         ids=lambda argv: argv[0])
def test_overflowing_degree_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "huge.txt"  # node 1's degree overflows to inf
    path.write_text("3\n1 2 1.7e308\n2 3 1.7e308\n3 1 1.7e308\n1 3 1.7e308\n")
    # pytest turns a RuntimeWarning into an error, so this also checks that none is raised
    code, out, err = run(capsys, argv[0], "--graph", str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: the weighted out-degree of node 1 overflows float64\n"


@pytest.mark.parametrize("text", ["3\n1 2 1e308\n2 3 1e308\n3 1 1e308\n",
                                  "3\n1 2 1.7e308\n1 3 -1.7e308\n2 3 1\n3 1 1\n",
                                  "2\n1 2 1.7e308\n2 1 -1.7e308\n"],
                         ids=["cycle", "cancelling-row", "nilpotent"])
@pytest.mark.parametrize("argv", [("analyze",), ("delta-star", "--pair", "1", "2"),
                                  ("simulate",), ("resistance", "--pair", "1", "2")],
                         ids=lambda argv: argv[0])
def test_overflowing_row_sum_exit_code(tmp_path, capsys, argv, text):
    # each degree is finite (1e308, or 0 where the signed row cancels), but |d_1| + sum |a_1j|
    # overflows, and every zero threshold scales with it: analyze counted three zeros, simulate
    # refused a dt of 0 and resistance printed 0; on the nilpotent L it printed roundoff, 1.5e-291
    path = tmp_path / "huge.txt"
    path.write_text(text)
    code, out, err = run(capsys, argv[0], "--graph", str(path), *argv[1:])
    assert code == 2 and out == ""
    assert err == "error: the absolute sum of row 1 overflows float64\n"


def test_interrupt_exit_code(capsys, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "Simulation", interrupt)  # Ctrl-C in the middle of the subcommand
    code, out, err = run(capsys, "simulate", "--graph", str(DATA / "triangle.txt"))
    assert (code, out, err) == (130, "", "error: interrupted\n")


@pytest.mark.parametrize("exc, code, message", [
    (KeyboardInterrupt, 130, "error: interrupted\n"),
    (MemoryError, 4, "error: out of memory\n"),
], ids=["interrupt", "out-of-memory"])
def test_failed_streamed_run_leaves_no_out_file(capsys, monkeypatch, tmp_path, exc, code, message):
    trace_path = tmp_path / "trace.csv"

    class Failing(Simulation):
        """A run whose product with the powers of the one-step matrix raises at the second
        product of the second block of rows, after the first block was written."""

        def __init__(self, *args):
            super().__init__(*args)
            powers, products = self._powers, itertools.count(1)
            fail_at = _BLOCK // self._stride + 2

            class Powers:
                def dot(self, x, out):
                    if next(products) == fail_at:
                        assert trace_path.stat().st_size > 0
                        raise exc
                    return powers.dot(x, out)

            self._powers = Powers()

    monkeypatch.setattr(cli, "Simulation", Failing)
    got = run(capsys, "simulate", "--graph", str(DATA / "triangle.txt"), "--out", str(trace_path))
    assert got == (code, "", message)
    assert not trace_path.exists()


@pytest.mark.parametrize("exc, code, message", [
    (KeyboardInterrupt, 130, "error: interrupted\n"),
    (MemoryError, 4, "error: out of memory\n"),
], ids=["interrupt", "out-of-memory"])
def test_failed_sweep_out_leaves_no_file(capsys, monkeypatch, tmp_path, exc, code, message):
    sweep_path, rows, chunks = tmp_path / "sweep.csv", report._rows, itertools.count(1)
    sweep_path.write_text("an older sweep\n")  # removed as well

    def failing(values, ws):
        """The kernel, raising on the second chunk of the 2002-row sweep, after the first
        chunk was written."""
        if next(chunks) == 2:
            assert sweep_path.stat().st_size > 1000
            raise exc
        return rows(values, ws)

    monkeypatch.setattr(report, "_rows", failing)
    got = run(capsys, "delta-star", "--graph", str(DATA / "spoked8.txt"), "--pair", "3", "8",
              "--sweep-out", str(sweep_path))
    assert got == (code, "", message)
    assert not sweep_path.exists()


def test_refused_simulate_writes_no_out_file(capsys, tmp_path):
    graph, trace_path = tmp_path / "path3.txt", tmp_path / "trace.csv"
    graph.write_text("3\n2 1 1\n3 2 1e-6\n")  # 1e10 default steps
    code, out, err = run(capsys, "simulate", "--graph", str(graph), "--out", str(trace_path))
    assert code == 3 and out == "" and "MAX_TRACE_BYTES" in err
    assert not trace_path.exists()


@pytest.mark.parametrize("write", [False, True], ids=["verdict", "out"])
def test_simulate_memory_does_not_grow_with_the_step_count(capsys, tmp_path, write):
    n, rng = 40, np.random.default_rng(40)
    edges = {(i, i % n + 1): 1.0 for i in range(1, n + 1)}  # a ring, then chords
    edges.update({(int(u), int(v)): float(rng.uniform(0.5, 2.0))
                  for u, v in rng.integers(1, n + 1, (3 * n, 2)) if u != v})
    graph = tmp_path / "g40.txt"
    graph.write_text(f"{n}\n" + "".join(f"{u} {v} {w!r}\n" for (u, v), w in edges.items()))
    dt = default_dt(laplacian(SignedDigraph(n, edges)))
    out = ("--out", str(tmp_path / "trace.csv")) if write else ()
    # the stepping buffer of _BLOCK + 1 rows with its per-row spreads, a few n x n matrices
    # building the one-step matrix, and with --out the CSV kernel: fewer than 400 bytes of
    # arrays per value of a chunk, and the chunk's text; the whole 20 001-row trace is 6.4 MB
    bound = 2 * (_BLOCK + 1) * (n + 4) * 8 + 16 * n * n * 8 + 400 * report._CHUNK * write + 2**18
    peaks = []
    for steps in (2000, 20_000):
        argv = ["simulate", "--graph", str(graph), "--horizon", repr(steps * dt), *out]
        assert run(capsys, *argv)[0] == 0  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert max(peaks) < bound, (peaks, bound)
    assert peaks[1] < 1.05 * peaks[0], peaks


def test_resistance_matches_the_api_on_every_data_graph(capsys):
    solvers = {"undirected": signedlap.effective_resistance_undirected,
               "directed": signedlap.effective_resistance_directed}
    accepted = dict.fromkeys(solvers, 0)
    for path in sorted(DATA.glob("*.txt")):
        g = parse_edge_list(path.read_text())
        for (mode, solve), (u, v) in itertools.product(
                solvers.items(), itertools.permutations(range(1, g.n + 1), 2)):
            code, out, _ = run(capsys, "resistance", "--graph", str(path),
                               "--pair", str(u), str(v), "--mode", mode)
            try:
                res = solve(g, u, v)
            except signedlap.PremiseError:
                assert code == 3
                continue
            want = {"method": res.method, "r_uv": report.sig15(res.value)}
            assert code == 0 and out == json.dumps(want, indent=2, sort_keys=True) + "\n"
            accepted[mode] += 1
    assert all(accepted.values())  # triangle.txt takes both modes


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


def test_delta_star_wide_weights_match_the_bisection_oracle(capsys, tmp_path):
    path = tmp_path / "wide8.txt"
    path.write_text(WIDE_WEIGHTS)
    code, out, _ = run(capsys, "delta-star", "--graph", str(path), "--pair", "3", "5")
    assert code == 0
    payload = json.loads(out)
    oracle = bisection_delta_star(parse_edge_list(WIDE_WEIGHTS), EdgePerturbation(3, 5, 1.0, 1.0))
    assert payload["delta_star"] == pytest.approx(oracle, rel=1e-6)
    assert payload["regime"] == "SufficientOnly"
    # a 50-digit mpmath reference of the crossing and of delta*
    assert payload["delta_star"] == pytest.approx(0.00569914719126961, rel=1e-8)
    assert payload["omega_star"] == pytest.approx(4.21939987166767e-4, rel=1e-8)


WIDE_PATH = "3\n1 2 1e5\n2 1 1e5\n2 3 1e-5\n3 2 1e-5\n"
WIDE_PATH_REASON = (
    "ROADMAP item 3: the spectrum condition counts the wide path's eigenvalue 1.5e-5 as a second "
    "zero, as its threshold ZERO_TOL * ||L||_inf is 2e-4")


@pytest.mark.xfail(strict=True, reason=WIDE_PATH_REASON)
def test_analyze_counts_one_zero_on_a_wide_path(capsys, tmp_path):
    path = tmp_path / "wide_path.txt"
    path.write_text(WIDE_PATH)
    code, out, _ = run(capsys, "analyze", "--graph", str(path))
    assert code == 0
    payload = json.loads(out)
    assert (payload["zero_multiplicity"], payload["spectrum_condition"]) == (1, True)


@pytest.mark.xfail(strict=True, reason=WIDE_PATH_REASON)
def test_delta_star_on_a_wide_path_is_the_inverse_resistance(capsys, tmp_path):
    # undirected: delta* R_uv = 1, and R_13 = 1 / 1e5 + 1 / 1e-5 along the path
    path = tmp_path / "wide_path.txt"
    path.write_text(WIDE_PATH)
    code, out, _ = run(capsys, "delta-star", "--graph", str(path), "--pair", "1", "3")
    assert code == 0
    assert json.loads(out)["delta_star"] == pytest.approx(1.0 / (1e5 + 1e-5), rel=1e-6)


@pytest.mark.parametrize("weight", ["1", "1e-10"])
def test_uniformly_scaled_cycle_keeps_its_spectrum_condition(capsys, tmp_path, weight):
    # the spectrum scales with the weights: one zero and two eigenvalues 1.5 w +- 0.87 w j
    path = tmp_path / "cycle.txt"
    path.write_text(f"3\n1 2 {weight}\n2 3 {weight}\n3 1 {weight}\n")
    _, out, _ = run(capsys, "analyze", "--graph", str(path))
    payload = json.loads(out)
    assert (payload["zero_multiplicity"], payload["spectrum_condition"]) == (1, True)
    code, _, _ = run(capsys, "delta-star", "--graph", str(path), "--pair", "1", "3")
    assert code == 0
