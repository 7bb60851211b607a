"""Seeded inputs and call lists for the four benchmark workloads.

The graph generators mirror the families of the test suite (premise in-tree
plus extra edges, multi-reach cycles plus commons, undirected connected) and
add a signed-premise variant.  They live here so that an edit to the tests
cannot move the benchmark's inputs.  Every random draw comes from one numpy
Generator seeded by ``--seed``.  Each workload has a fixed schedule of input
sizes ("slots"); a seed only changes which graph of that size fills a slot,
so the cost of one pass over the calls barely depends on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import ZERO_TOL, perturbed_laplacian, scale, spectrum_condition

Edge = tuple[int, int]

GAINS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


@dataclass(frozen=True)
class Graph:
    n: int
    edges: dict[Edge, float]

    def laplacian(self) -> np.ndarray:
        L = np.zeros((self.n, self.n))
        for (i, j), w in self.edges.items():
            L[i - 1, j - 1] -= w
            L[i - 1, i - 1] += w
        return L

    def text(self) -> str:
        lines = [str(self.n)] + [f"{i} {j} {w!r}" for (i, j), w in sorted(self.edges.items())]
        return "\n".join(lines) + "\n"


@dataclass
class Call:
    """One CLI invocation and what its oracle needs to judge the output."""

    argv: list[str]
    oracle: str
    info: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)


@dataclass
class Workload:
    """The calls of one pass and the tail percentile reported for them.

    The percentile is fixed per workload, so a faster program reports the
    same order statistic; a run makes at least ``min_calls()`` calls, which
    leaves ten calls beyond it.
    """

    warmup: Call
    calls: list[Call]
    props: dict
    tail_q: float

    def min_calls(self) -> int:
        return math.ceil(10 / (1 - self.tail_q / 100) - 1e-9)


def _w(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.5, 2.5))


def premise_graph(rng: np.random.Generator, n: int, extra: int | None = None) -> Graph:
    """Spanning in-tree toward a random root plus random extra edges.

    Without ``extra`` the number of extra draws is uniform in [0, 2n), as in
    the test suite; a fixed ``extra`` keeps large graphs sparse and near-DAG.
    """
    order = [int(x) for x in rng.permutation(np.arange(1, n + 1))]
    edges: dict[Edge, float] = {}
    for pos in range(1, n):
        edges[(order[pos], order[int(rng.integers(0, pos))])] = _w(rng)
    for _ in range(int(rng.integers(0, 2 * n)) if extra is None else extra):
        i, j = (int(x) for x in rng.integers(1, n + 1, size=2))
        if i != j:
            edges[(i, j)] = _w(rng)
    g = Graph(n, edges)
    if not spectrum_condition(g.laplacian()):
        raise RuntimeError("premise generator produced a graph without the spectrum condition")
    return g


def signed_premise_graph(rng: np.random.Generator, n: int, negatives: int) -> Graph:
    """Premise graph plus a few negative edges, redrawn until the spectrum condition holds."""
    base = premise_graph(rng, n)
    for _ in range(1000):
        edges = dict(base.edges)
        while len(edges) < len(base.edges) + negatives:
            i, j = (int(x) for x in rng.integers(1, n + 1, size=2))
            if i != j and (i, j) not in edges:
                edges[(i, j)] = -_w(rng)
        g = Graph(n, edges)
        if spectrum_condition(g.laplacian()):
            return g
    raise RuntimeError(f"no signed premise graph found for n={n}")


def multi_reach_graph(rng: np.random.Generator, blocks: list[int], commons: int) -> Graph:
    """Directed cycles as reaching sets; each common node senses two blocks.

    Common node k also senses common node k-1 with probability 1/2.  The
    reaches are exactly the blocks, so d == len(blocks) by construction.
    """
    edges: dict[Edge, float] = {}
    block_nodes: list[list[int]] = []
    nxt = 1
    for size in blocks:
        nodes = list(range(nxt, nxt + size))
        nxt += size
        block_nodes.append(nodes)
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            edges[(a, b)] = _w(rng)
    common_ids = list(range(nxt, nxt + commons))
    for c in common_ids:
        for b in rng.choice(len(blocks), size=2, replace=False):
            edges[(c, int(rng.choice(block_nodes[int(b)])))] = _w(rng)
    for prev, c in zip(common_ids, common_ids[1:]):
        if rng.uniform() < 0.5:
            edges[(c, prev)] = _w(rng)
    return Graph(nxt - 1 + commons, edges)


def undirected_connected(rng: np.random.Generator, n: int) -> Graph:
    """Random spanning tree plus up to n extra edges, symmetric positive weights."""
    order = [int(x) for x in rng.permutation(np.arange(1, n + 1))]
    edges: dict[Edge, float] = {}
    for pos in range(1, n):
        a, b = order[pos], order[int(rng.integers(0, pos))]
        edges[(a, b)] = edges[(b, a)] = _w(rng)
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(x) for x in rng.integers(1, n + 1, size=2))
        if i != j and (i, j) not in edges:
            edges[(i, j)] = edges[(j, i)] = _w(rng)
    return Graph(n, edges)


def stability_threshold(g: Graph, u: int, v: int, q_uv: float, q_vu: float) -> float:
    """Bisect delta on the spectrum condition of the perturbed graph."""
    L = g.laplacian()
    lo, hi = 0.0, float(np.trace(L)) + 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if spectrum_condition(perturbed_laplacian(L, u, v, q_uv, q_vu, mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    u, v = (int(x) for x in rng.choice(np.arange(1, n + 1), size=2, replace=False))
    return u, v


def _gains(rng: np.random.Generator) -> tuple[float, float]:
    return GAINS[int(rng.integers(0, len(GAINS)))]


def _fmt(x: float) -> str:
    return f"{x:g}"


class _Files:
    """Names input and output files inside one work directory."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.count = 0

    def graph(self, g: Graph) -> str:
        self.count += 1
        path = self.workdir / f"g{self.count:03d}.txt"
        path.write_text(g.text(), encoding="utf-8")
        return str(path)

    def csv(self) -> str:
        self.count += 1
        return str(self.workdir / f"o{self.count:03d}.csv")


# --- delta-star -------------------------------------------------------------

#: (n, add --sweep-out): mostly n <= 100, one --sweep-out call in four.  Runs of
#: equal slots sit where the median (n = 50) and the tail percentile (the
#: n = 60 sweeps) fall, so those order statistics do not jump between sizes.
DELTA_STAR_SLOTS = (
    (25, False), (25, False), (25, False), (30, False), (30, False), (30, False),
    (35, False), (35, False), (40, False), (40, False),
    (50, False), (50, False), (50, False), (50, False), (50, False),
    (60, False), (75, False), (60, True), (60, True), (60, True), (60, True),
    (75, True), (100, True), (200, False),
)


def _delta_star_call(rng: np.random.Generator, files: _Files, n: int, signed: bool,
                     sweep: bool) -> Call:
    g = signed_premise_graph(rng, n, int(rng.integers(2, 7))) if signed else premise_graph(rng, n)
    u, v = _pair(rng, n)
    q_uv, q_vu = _gains(rng)
    argv = ["delta-star", "--graph", files.graph(g), "--pair", str(u), str(v),
            "--gains", _fmt(q_uv), _fmt(q_vu)]
    out = []
    if sweep:
        out = [files.csv()]
        argv += ["--sweep-out", out[0]]
    return Call(argv, "delta-star", {"graph": g, "pair": (u, v), "gains": (q_uv, q_vu),
                                     "signed": signed}, out)


def delta_star_workload(rng: np.random.Generator, files: _Files) -> Workload:
    calls = [_delta_star_call(rng, files, n, k % 2 == 1, sweep)
             for k, (n, sweep) in enumerate(DELTA_STAR_SLOTS)]
    warmup = _delta_star_call(rng, files, 50, False, False)
    return Workload(warmup, calls, {
        "family": "premise digraphs, every other one with 2-6 negative edges",
        "n": [c.info["graph"].n for c in calls],
        "edges": [len(c.info["graph"].edges) for c in calls],
        "d": 1,
        "signed_calls": sum(c.info["signed"] for c in calls),
        "sweep_calls": sum(bool(c.files) for c in calls),
    }, tail_q=75.0)


# --- sensitive --------------------------------------------------------------

#: (cycle block sizes, common nodes): 2-6 reaches, blocks of 3-8, n = 30-54.
#: The listed pairs, and so the cost, follow from the sizes: two cheap graphs,
#: six equal ones of 456 pairs where the median falls and four of 918-980
#: pairs where the p75 tail falls.
SENSITIVE_SLOTS = (
    ([3, 3], 24), ([8, 8], 16),
    ([4, 4, 4], 30), ([4, 4, 4], 30), ([4, 4, 4], 30),
    ([4, 4, 4], 30), ([4, 4, 4], 30), ([4, 4, 4], 30),
    ([3, 3, 3, 3, 3, 3], 36), ([3, 3, 3, 3, 3, 3], 36), ([5, 5, 5, 5], 34), ([5, 5, 5, 5], 34),
)


def _sensitive_call(rng: np.random.Generator, files: _Files, blocks: list[int],
                    commons: int) -> Call:
    g = multi_reach_graph(rng, blocks, commons)
    return Call(["sensitive", "--graph", files.graph(g)], "sensitive",
                {"graph": g, "blocks": blocks})


def sensitive_workload(rng: np.random.Generator, files: _Files) -> Workload:
    calls = [_sensitive_call(rng, files, list(b), c) for b, c in SENSITIVE_SLOTS]
    warmup = _sensitive_call(rng, files, [4, 4, 4], 20)
    return Workload(warmup, calls, {
        "family": "nonnegative multi-reach graphs (cycle blocks plus commons)",
        "n": [c.info["graph"].n for c in calls],
        "edges": [len(c.info["graph"].edges) for c in calls],
        "d": [len(c.info["blocks"]) for c in calls],
    }, tail_q=75.0)


# --- simulate ---------------------------------------------------------------

#: (n, stable side, add --out): half the calls, those with n <= 10, write the trace
SIMULATE_SLOTS = (
    (8, True, True), (8, False, True), (9, True, True), (10, False, True), (10, True, True),
    (16, False, False), (20, True, False), (24, False, False), (32, True, False),
    (40, False, False),
)
#: default-step counts accepted with and without --out.  Writing a trace row
#: costs about as much as one RK4 step, so the two halves take similar time
#: and the median and tail fall inside one cluster of calls.
SIMULATE_STEPS_OUT = (70_000, 75_000)
SIMULATE_STEPS = (140_000, 150_000)
#: delta as a multiple of the stability threshold on each side
STABLE_FACTOR, UNSTABLE_FACTOR = 0.5, 1.2
#: unstable inputs grow by at most e^MAX_GROWTH over the horizon, far below the
#: CLI's overflow cut-off, so every call integrates all of its default steps
MAX_GROWTH = 100.0


def default_run(L: np.ndarray) -> tuple[int, float]:
    """RK4 steps at the CLI's default dt = 0.01/||L|| and horizon = 50/lambda_min,
    and the exponent by which the fastest unstable mode grows over the horizon."""
    values = np.linalg.eigvals(L)
    positive = values.real[values.real > ZERO_TOL * scale(L)]
    horizon = 50.0 / positive.min() if positive.size else 100.0
    return int(round(horizon / (0.01 / scale(L)))), max(0.0, -values.real.min()) * horizon


def _simulate_call(rng: np.random.Generator, files: _Files, n: int, stable: bool,
                   write: bool) -> Call:
    lo, hi = SIMULATE_STEPS_OUT if write else SIMULATE_STEPS
    for _ in range(20_000):
        g = premise_graph(rng, n)
        if not 0.5 * lo <= default_run(g.laplacian())[0] <= 2 * hi:
            continue  # the perturbation moves the step count by far less than this
        u, v = _pair(rng, n)
        q_uv, q_vu = _gains(rng)
        threshold = stability_threshold(g, u, v, q_uv, q_vu)
        delta = threshold * (STABLE_FACTOR if stable else UNSTABLE_FACTOR)
        L = perturbed_laplacian(g.laplacian(), u, v, q_uv, q_vu, delta)
        expected = spectrum_condition(L)
        steps, growth = default_run(L)
        if expected == stable and lo <= steps <= hi and growth <= MAX_GROWTH:
            break
    else:
        raise RuntimeError(f"no simulate input found for n={n}")
    argv = ["simulate", "--graph", files.graph(g), "--pair", str(u), str(v),
            "--gains", _fmt(q_uv), _fmt(q_vu), "--delta", repr(delta),
            "--seed", str(int(rng.integers(0, 2**31)))]
    out = []
    if write:
        out = [files.csv()]
        argv += ["--out", out[0]]
    return Call(argv, "simulate", {"graph": g, "expected": expected, "steps": steps}, out)


def simulate_workload(rng: np.random.Generator, files: _Files) -> Workload:
    calls = [_simulate_call(rng, files, *slot) for slot in SIMULATE_SLOTS]
    warmup = _simulate_call(rng, files, 12, True, False)
    return Workload(warmup, calls, {
        "family": "premise digraphs with one pair perturbed on either side of the threshold",
        "n": [c.info["graph"].n for c in calls],
        "edges": [len(c.info["graph"].edges) for c in calls],
        "d": 1,
        "steps": [c.info["steps"] for c in calls],
        "stable_calls": sum(c.info["expected"] for c in calls),
        "trace_out_calls": sum(bool(c.files) for c in calls),
        "left_out": "the 3-node path with a 1e-6 edge asks for 1e10 steps (~240 GB); "
                    "it would exhaust the machine, so it is not an input",
    }, tail_q=50.0)


# --- analyze ----------------------------------------------------------------

ANALYZE_PREMISE_N = (400, 500, 600, 800)
#: (cycle block sizes, common nodes) for analyze on multi-reach graphs, n 300-1000
ANALYZE_MULTI = (([5, 5, 5], 285), ([4, 6, 8, 5], 477), ([3, 4, 5, 6, 7], 675),
                 ([8, 8, 8, 8, 8, 8], 952))
#: the three n = 150 directed solves are where the median call of the workload falls
RESISTANCE_DIRECTED_N = (100, 150, 150, 150, 200)
RESISTANCE_UNDIRECTED_N = (60, 120)


def _analyze_call(files: _Files, g: Graph, d: int) -> Call:
    return Call(["analyze", "--graph", files.graph(g)], "analyze", {"graph": g, "d": d})


def _resistance_call(path: str, g: Graph, pair: tuple[int, int], mode: str,
                     symmetric: bool) -> Call:
    u, v = pair
    return Call(["resistance", "--graph", path, "--pair", str(u), str(v), "--mode", mode],
                "resistance", {"graph": g, "pair": (u, v), "symmetric": symmetric})


def analyze_workload(rng: np.random.Generator, files: _Files) -> Workload:
    calls = [_analyze_call(files, premise_graph(rng, n, n // 4), 1) for n in ANALYZE_PREMISE_N]
    calls += [_analyze_call(files, multi_reach_graph(rng, list(b), c), len(b))
              for b, c in ANALYZE_MULTI]
    for n in RESISTANCE_DIRECTED_N:
        g = premise_graph(rng, n, n)
        calls.append(_resistance_call(files.graph(g), g, _pair(rng, n), "directed", False))
    for n in RESISTANCE_UNDIRECTED_N:
        g = undirected_connected(rng, n)
        path, pair = files.graph(g), _pair(rng, n)
        for mode in ("undirected", "directed"):
            calls.append(_resistance_call(path, g, pair, mode, True))
    warmup = _analyze_call(files, premise_graph(rng, 500, 125), 1)
    return Workload(warmup, calls, {
        "family": "sparse premise and multi-reach graphs (analyze), premise and "
                  "undirected graphs (resistance)",
        "n": [c.info["graph"].n for c in calls],
        "edges": [len(c.info["graph"].edges) for c in calls],
        "d": [c.info.get("d", 1) for c in calls],
        "commands": [c.argv[0] for c in calls],
    }, tail_q=90.0)


BUILDERS = {
    "delta-star": delta_star_workload,
    "sensitive": sensitive_workload,
    "simulate": simulate_workload,
    "analyze": analyze_workload,
}


def spread_order(count: int) -> list[int]:
    """Slot order for a pass that puts neighbouring slots far apart.

    Equal slots sit next to each other in the schedules; spread over the
    pass, the calls that set the median and the tail percentile are sampled
    at many moments of a run, not in one burst, which matters on a machine
    whose speed drifts.
    """
    step = max(1, round(count * 0.618))
    while math.gcd(step, count) != 1:
        step += 1
    return sorted(range(count), key=lambda i: i * step % count)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload into ``workdir``."""
    wl = BUILDERS[name](np.random.default_rng(seed), _Files(workdir))
    wl.calls = [wl.calls[i] for i in spread_order(len(wl.calls))]
    return wl
