"""Command-line front end.

Subcommands: analyze, delta-star, sensitive, simulate, resistance.
Exit codes: 0 success, 2 input/parse error, 3 premise violation,
4 numerical failure or out of memory, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import report
from .errors import GraphFormatError, NumericsError, PremiseError
from .graph import (
    CANCEL_TOL,
    EdgePerturbation,
    SignedDigraph,
    laplacian,
    matrix_scale,
    parse_edge_list,
    superpose,
)
from .perturb import sensitive_pairs, verify_sensitive_pairs
from .reach import condensation, reach_decomposition
from .robustness import (
    EffectiveResistance,
    delta_star,
    effective_resistance_directed,
    effective_resistance_undirected,
    nyquist_sweep,
)
from .simulate import Simulation, default_dt, default_horizon
from .spectral import block_spectrum, null_basis, spectrum_condition, zero_multiplicity

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PREMISE = 3
EXIT_NUMERICAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process that Ctrl-C ended


def _load_graph(path: str) -> SignedDigraph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    # before L: arrays made after the n x n L kept the heap from shrinking (+8 MB at n = 1000)
    cond = condensation(g)
    L = laplacian(g)
    values, scale = block_spectrum(L, cond), matrix_scale(L)
    decomp = reach_decomposition(g, args.positive_only, None if args.positive_only else cond)
    basis = null_basis(L, decomp) if g.nonnegative else None
    _emit(report.dumps_analyze(g.n, values, zero_multiplicity(values, scale),
                               spectrum_condition(values, scale), decomp, basis), args.out)
    return EXIT_OK


def _cmd_delta_star(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    pert = EdgePerturbation(*args.pair, q_uv=args.gains[0], q_vu=args.gains[1])
    result = delta_star(g, pert)
    if args.sweep_out is not None:
        report.write_sweep(args.sweep_out, *nyquist_sweep(g, pert))
    _emit(report.dumps(report.delta_star_json(result)), args.out)
    return EXIT_OK


def _cmd_sensitive(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.epsilon) and args.epsilon >= CANCEL_TOL):
        raise ValueError(
            f"--epsilon must be finite and at least {CANCEL_TOL:g}, got {args.epsilon}"
        )
    g = _load_graph(args.graph)
    cond = condensation(g)
    uv, cond1 = sensitive_pairs(g, cond)
    try:
        verified = verify_sensitive_pairs(g, uv, args.epsilon, cond)
    except ValueError as exc:  # the pairs are the graph's own, so eps is at fault
        raise ValueError(f"--epsilon: {exc}") from None
    _emit(report.dumps_sensitive(uv, cond1, verified), args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.rel_tol) and args.rel_tol > 0):
        raise ValueError(f"--rel-tol must be finite and positive, got {args.rel_tol}")
    g = _load_graph(args.graph)
    if args.delta is not None:
        if args.pair is None:
            raise GraphFormatError("--delta requires --pair")
        u, v = args.pair
        pert = EdgePerturbation(u=u, v=v, q_uv=args.gains[0], q_vu=args.gains[1], delta=args.delta)
        g = superpose(g, pert.graph(g.n))
    L = laplacian(g)
    dt = args.dt if args.dt is not None else default_dt(L)
    horizon = args.horizon if args.horizon is not None else default_horizon(L, condensation(g))
    rng = np.random.default_rng(args.seed)
    # refuses an oversized run before a row is stepped or --out is opened
    sim = Simulation(L, rng.uniform(-1.0, 1.0, g.n), dt, horizon)
    if args.out is None:
        for _ in sim:  # the verdict needs only what the run keeps of each block
            pass
    else:
        report.write_trace(args.out, sim)
    verdict = {
        "consensus": sim.consensus(args.rel_tol),
        "diverged": sim.diverged,
        "dt": report.sig15(dt),
        "horizon": report.sig15(horizon),
        "initial_spread": report.sig15(sim.initial_spread),
        "final_spread": report.sig15(sim.final_spread),
    }
    sys.stdout.write(report.dumps(verdict))
    return EXIT_OK


def _cmd_resistance(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    u, v = args.pair
    if args.mode == "undirected":
        res: EffectiveResistance = effective_resistance_undirected(g, u, v)
    else:
        res = effective_resistance_directed(g, u, v)
    _emit(report.dumps({"r_uv": report.sig15(res.value), "method": res.method}), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="signedlap",
        description="Spectral robustness analysis for Laplacians of directed signed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, pair_required: bool = False) -> None:
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")
        if pair_required:
            p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"), required=True)

    p = sub.add_parser("analyze", help="spectrum, reach decomposition, zero-eigenvalue bases")
    add_common(p)
    p.add_argument("--positive-only", action="store_true",
                   help="count only positive edges for reachability")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("delta-star", help="critical negative-weight magnitude for a node pair")
    add_common(p, pair_required=True)
    p.add_argument("--gains", nargs=2, type=float, metavar=("QUV", "QVU"), default=[1.0, 1.0])
    p.add_argument("--sweep-out", default=None, help="write the frequency sweep CSV here")
    p.set_defaults(func=_cmd_delta_star)

    p = sub.add_parser("sensitive", help="pairs whose infinitesimal negative coupling destabilizes")
    add_common(p)
    p.add_argument("--epsilon", type=float, default=1e-4,
                   help=f"magnitude of the test edge's negative weight, >= {CANCEL_TOL:g}")
    p.set_defaults(func=_cmd_sensitive)

    p = sub.add_parser("simulate", help="integrate x' = -Lx and judge consensus")
    add_common(p)
    p.add_argument("--pair", nargs=2, type=int, metavar=("U", "V"), default=None)
    p.add_argument("--gains", nargs=2, type=float, metavar=("QUV", "QVU"), default=[1.0, 1.0])
    p.add_argument("--delta", type=float, default=None,
                   help="negative perturbation magnitude applied to --pair")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("resistance", help="effective resistance between two nodes")
    add_common(p, pair_required=True)
    p.add_argument("--mode", choices=("undirected", "directed"), default="directed")
    p.set_defaults(func=_cmd_resistance)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PremiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PREMISE
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # an allocation that no up-front limit refused
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_NUMERICAL
    except (GraphFormatError, OSError, UnicodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
