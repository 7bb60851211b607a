"""Exact power-of-two scaling: every answer is homogeneous in the weights.

Multiplying every weight by 2^k is exact in floating point.  The spectrum, delta*, the
crossing frequencies, ``necessary_bound`` and eigenvalues then scale by 2^k, Re G, r_uv,
dt and the default horizon by 2^-k, and nothing discrete may change: exit codes, zero
counts, the premise, reaches, regimes, crossing counts, sensitive pairs and verdicts,
consensus and divergence.  A mismatch is a threshold that does not scale with ||L||_inf.
"""

import collections
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signedlap import (EdgePerturbation, SignedDigraph, block_spectrum, condensation, laplacian,
                       matrix_scale)
from signedlap.cli import main
from signedlap.graph import CANCEL_TOL
from signedlap.simulate import default_dt, default_horizon
from signedlap.spectral import zero_threshold

from conftest import (bisection_delta_star, load_graph, random_multi_reach_graph,
                      random_premise_graph, random_signed_digraph)

DATA = Path(__file__).parent / "data"

#: the range of k.  Low end: ``sensitive --epsilon 1e-4 * 2^k`` must stay at least CANCEL_TOL
#: (1e-12), so 2^k >= 1e-8.  High end: weights of about 1e12 (2^40), where an absolute Re G
#: threshold once refused the complete triangle.  The answers stay scale-free far beyond it;
#: ``test_resistance_scales_past_a_schur_product_overflow`` checks 2^512 and 2^1000
K_MIN, K_MAX = -26, 40
#: sensitive's test weight at scale 1, the CLI default
EPSILON = 1e-4
#: relative agreement demanded of every float with the scale-1 value times 2^(+-k)
SCALE_RTOL = 1e-12
#: simulate runs at most this many default steps; a longer default run gets this horizon
STEP_BUDGET = 5000

#: power of 2^k by which each float scales, by its nearest enclosing JSON key
POWERS = {
    "analyze": {"spectrum": 1, "null_basis": 0},
    "delta-star": {"delta_star": 1, "omega_star": 1, "necessary_bound": 1, "omega": 1, "re": -1},
    "sensitive": {},
    "simulate": {"dt": -1, "horizon": -1, "initial_spread": 0, "final_spread": 0},
    "resistance": {"r_uv": -1},
}


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def scaled(g: SignedDigraph, k: int) -> SignedDigraph:
    return SignedDigraph(g.n, {key: math.ldexp(w, k) for key, w in g.edges.items()})


def write(g: SignedDigraph, path: Path) -> str:
    path.write_text(f"{g.n}\n" + "".join(f"{i} {j} {w!r}\n" for (i, j), w in g.edges.items()))
    return str(path)


def leaves(tree, powers: dict, key=None, where=""):
    """(path, nearest enclosing key of ``powers``, value) of each leaf or empty container."""
    if isinstance(tree, (dict, list)) and tree:
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for name, sub in items:
            yield from leaves(sub, powers, name if name in powers else key, f"{where}/{name}")
    else:
        yield where, key, tree


def assert_scaled(base, moved, k: int, powers: dict) -> None:
    """``moved`` has ``base``'s shape and non-float leaves, and each float times
    2^(powers[key] * k) to within SCALE_RTOL of the largest float under the same key: an
    eigenvalue is accurate to roundoff of the spectrum's scale, not of its own size."""
    a, b = list(leaves(base, powers)), list(leaves(moved, powers))
    assert [where for where, _, _ in a] == [where for where, _, _ in b]
    groups = collections.defaultdict(list)
    for (where, key, x), (_, _, y) in zip(a, b):
        if isinstance(x, float):
            assert key is not None and isinstance(y, float), where
            groups[key].append((math.ldexp(x, powers[key] * k), y))
        else:
            assert x == y, where
    for key, pairs in groups.items():
        want, got = np.array(pairs).T
        assert np.abs(got - want).max() <= SCALE_RTOL * np.abs(want).max(), (key, want, got)


def run_scaled(g: SignedDigraph, pair: tuple[int, int], k: int, tmp: Path) -> None:
    """Each command on g and on g times 2^k: equal exit codes, outputs scaled by 2^(+-k)."""
    L, cond = laplacian(g), condensation(g)
    # with no decaying mode the default horizon is an absolute 100, not scale-free: such a
    # graph, and one whose default run is long, runs STEP_BUDGET default steps instead
    decaying = (block_spectrum(L, cond).real > zero_threshold(matrix_scale(L))).any()
    default = decaying and default_horizon(L, cond) <= STEP_BUDGET * default_dt(L)
    pair_args = ("--pair", str(pair[0]), str(pair[1]))
    outputs = []
    for side, h in ((0, g), (k, scaled(g, k))):
        graph = write(h, tmp / f"g{side}.txt")
        horizon = () if default else (
            "--horizon", repr(STEP_BUDGET * default_dt(laplacian(h))))
        outputs.append({
            "analyze": call("analyze", "--graph", graph),
            "delta-star": call("delta-star", "--graph", graph, *pair_args),
            "sensitive": call("sensitive", "--graph", graph,
                              "--epsilon", repr(math.ldexp(EPSILON, side))),
            "simulate": call("simulate", "--graph", graph, *horizon),
            "resistance": call("resistance", "--graph", graph, *pair_args),
        })
    for command, powers in POWERS.items():
        (code, out, err), (code_k, out_k, err_k) = outputs[0][command], outputs[1][command]
        assert code == code_k, (command, err, err_k)
        if code == 0:
            assert_scaled(json.loads(out), json.loads(out_k), k, powers)


@st.composite
def scaled_cases(draw):
    """A graph from the premise, signed or multi-reach generator, a pair and a k != 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("premise", "signed", "multi-reach")))
    if kind == "premise":
        g = random_premise_graph(rng, draw(st.integers(2, 7)))
    elif kind == "signed":
        g = random_signed_digraph(rng, draw(st.integers(2, 7)))
    else:
        g = random_multi_reach_graph(rng, blocks=draw(st.integers(2, 3)),
                                     block_size=draw(st.integers(1, 3)),
                                     commons=draw(st.integers(1, 2)))
    u, v = draw(st.permutations(range(1, g.n + 1)))[:2]
    k = draw(st.sampled_from([k for k in range(K_MIN, K_MAX + 1) if k]))
    return g, (u, v), k


@settings(max_examples=40, deadline=None)
@given(scaled_cases())
@example((load_graph("mixed5.txt"), (4, 2), 25))
@example((load_graph("reach12.txt"), (1, 3), -26))
@example((SignedDigraph(2, {(1, 2): -1.0, (2, 1): -1.0}), (1, 2), 30))  # no decaying mode
def test_every_command_is_homogeneous_in_the_weights(case):
    g, pair, k = case
    # an edgeless graph is its own scaled copy, and a weight under CANCEL_TOL after scaling
    # would be an absent edge, making another graph
    assume(g.edges and min(abs(w) for w in g.edges.values()) * 2.0**k >= CANCEL_TOL)
    with tempfile.TemporaryDirectory() as tmp:
        run_scaled(g, pair, k, Path(tmp))


def test_delta_star_keeps_a_tiny_re_g_of_large_weights(tmp_path):
    # G(0) = 2 / 3e12 of the complete triangle; an absolute 1e-12 floor on Re G refused it
    path = tmp_path / "triangle12.txt"
    path.write_text("3\n" + "".join(f"{i} {j} 1e12\n" for i in (1, 2, 3) for j in (1, 2, 3)
                                    if i != j))
    code, out, _ = call("delta-star", "--graph", str(path), "--pair", "1", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta_star"] == pytest.approx(1.5e12, rel=1e-12)
    assert payload["regime"] == "NecessaryAndSufficient"


@pytest.mark.parametrize("k", [25, -25])
def test_delta_star_of_scaled_mixed5_matches_the_bisection_oracle(tmp_path, k):
    # the pencil in Lbar1^2 was balanced against b and c only where ||Lbar1|| is about 1:
    # at 2^25 it once gave delta* = 4.13e8 against the exact 1.70e6
    g = scaled(load_graph("mixed5.txt"), k)
    code, out, _ = call("delta-star", "--graph", write(g, tmp_path / "m5.txt"),
                       "--pair", "4", "2")
    assert code == 0
    oracle = bisection_delta_star(g, EdgePerturbation(4, 2, 1.0, 1.0))
    assert json.loads(out)["delta_star"] == pytest.approx(oracle, rel=1e-6)


def test_resistance_of_a_small_weight_triangle(tmp_path):
    g = scaled(load_graph("triangle.txt"), -35)
    code, out, err = call("resistance", "--graph", write(g, tmp_path / "t.txt"),
                         "--pair", "1", "2")
    assert code == 0, err
    assert json.loads(out)["r_uv"] == pytest.approx(math.ldexp(2.0 / 3.0, 35), rel=1e-12)


@pytest.mark.parametrize("k", [512, 1000])
def test_resistance_scales_past_a_schur_product_overflow(tmp_path, k):
    # a complex pair of Lbar sits in a 2 x 2 Schur block [[a, b], [c, a]]; past about 2^507
    # the product bc of these weights overflowed, and resistance refused the solvable
    # equation with 'eigenvalues sum to zero'
    g = SignedDigraph(4, {(1, 4): 2.452487411415408, (2, 1): 2.4683059998622427,
                          (3, 4): 1.2529731687545451, (4, 3): 2.243270548375313,
                          (3, 2): 1.4543070476784126})
    base = call("resistance", "--graph", write(g, tmp_path / "g.txt"), "--pair", "1", "2")
    moved = call("resistance", "--graph", write(scaled(g, k), tmp_path / "gk.txt"),
                 "--pair", "1", "2")
    assert base[0] == moved[0] == 0, moved[2]
    assert_scaled(json.loads(base[1]), json.loads(moved[1]), k, POWERS["resistance"])


def test_resistance_refuses_a_nilpotent_laplacian_of_large_weights(tmp_path):
    # L = [[a, -a], [a, -a]] is nilpotent, so Q L Q^T is 0 but for roundoff of about eps * a
    path = tmp_path / "nil.txt"
    path.write_text("2\n1 2 1e300\n2 1 -1e300\n")
    code, _, err = call("resistance", "--graph", str(path), "--pair", "1", "2")
    assert code == 3
    assert "eigenvalues sum to zero" in err


def test_simulate_of_a_small_weight_triangle_keeps_its_verdict(tmp_path):
    code, out, _ = call("simulate", "--graph", str(DATA / "triangle.txt"))
    assert code == 0
    base = json.loads(out)
    code, out, err = call("simulate", "--graph",
                         write(scaled(load_graph("triangle.txt"), -30), tmp_path / "t.txt"))
    assert code == 0, err
    assert_scaled(base, json.loads(out), -30, POWERS["simulate"])


@pytest.mark.parametrize("text, zeros, condition", [("1\n", 1, True), ("3\n", 3, False)])
def test_analyze_at_zero_scale(tmp_path, text, zeros, condition):
    # ||L||_inf = 0 makes the zero threshold exactly 0: an exact zero still counts
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, _ = call("analyze", "--graph", str(path))
    assert code == 0
    payload = json.loads(out)
    assert (payload["zero_multiplicity"], payload["spectrum_condition"]) == (zeros, condition)


def test_simulate_at_zero_scale(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n")
    code, out, _ = call("simulate", "--graph", str(path))
    assert code == 0
    verdict = json.loads(out)
    assert (verdict["dt"], verdict["horizon"]) == (0.01, 100.0)
    assert verdict["consensus"] is False
