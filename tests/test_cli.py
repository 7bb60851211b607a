import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import signedlap
from signedlap import (EdgePerturbation, NumericsError, SignedDigraph, cli, delta_star, laplacian,
                       matrix_scale, parse_edge_list, reach, report)
from signedlap.cli import main
from signedlap.simulate import consensus_reached, default_dt, default_horizon, spread
from signedlap.spectral import ZERO_TOL

from conftest import DEFECTIVE_ZERO, bisection_delta_star
from helpers import (reference_analyze_json, reference_rk4, reference_sensitive_json,
                     reference_trace_csv)

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


def test_cli_import_leaves_out_scipy_optimize():
    src = str(Path(signedlap.__file__).parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import signedlap.cli; "
             "print('scipy.optimize' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "False"


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
    # scipy's SCC search runs only in reach._condense, so this counts the condensations
    search, calls = reach.connected_components, []

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(reach, "connected_components", counted)
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


def test_resistance_directed_non_finite_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.txt"  # node 1's degree overflows to inf
    path.write_text("3\n1 2 1.7e308\n2 3 1.7e308\n3 1 1.7e308\n1 3 1.7e308\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "resistance", "--graph", str(path), "--pair", "1", "2")
    assert code == 4 and out == ""
    assert "non-finite" in err


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


@pytest.mark.parametrize("weight", ["1", pytest.param("1e-10", marks=pytest.mark.xfail(
    strict=True, reason="zero_threshold floors the scale at 1, so the whole spectrum of the "
    "cycle, of modulus about 1.7e-10, counts as zero (ROADMAP item 2)"))])
def test_uniformly_scaled_cycle_keeps_its_spectrum_condition(capsys, tmp_path, weight):
    # the spectrum scales with the weights: one zero and two eigenvalues 1.5 w +- 0.87 w j
    path = tmp_path / "cycle.txt"
    path.write_text(f"3\n1 2 {weight}\n2 3 {weight}\n3 1 {weight}\n")
    _, out, _ = run(capsys, "analyze", "--graph", str(path))
    payload = json.loads(out)
    assert (payload["zero_multiplicity"], payload["spectrum_condition"]) == (1, True)
    code, _, _ = run(capsys, "delta-star", "--graph", str(path), "--pair", "1", "3")
    assert code == 0
