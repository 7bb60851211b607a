"""Independent checks of CLI outputs, run outside the timed part.

Each oracle recomputes what it needs with plain numpy/scipy from the
generator's ground truth; none calls into ``signedlap``.  An oracle returns
``None`` when the output is correct and a one-line reason otherwise.
``self_check`` feeds each oracle a deliberately corrupted output and
reports whether the oracle rejected it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

#: relative zero threshold of the spectrum condition (one zero eigenvalue, rest Re > 0)
ZERO_TOL = 1e-9
#: delta* is checked at (1 - RHO) delta* and, when necessary and sufficient, at (1 + RHO) delta*
RHO = 1e-5
#: a listed theta diagonal entry counts as negative below -THETA_TOL
THETA_TOL = 1e-12
#: relative agreement demanded of resistance values and of mus @ gammas.T with I
RESISTANCE_RTOL = 1e-7
BIORTHO_TOL = 1e-8

NECESSARY_AND_SUFFICIENT = "NecessaryAndSufficient"


@dataclass
class Output:
    """What one call produced: exit code, captured stdout, written files."""

    code: int
    stdout: str
    error: str | None = None
    files: dict[str, str] = field(default_factory=dict)


def scale(L: np.ndarray) -> float:
    return max(float(np.abs(L).sum(axis=1).max()), 1.0)


def spectrum_condition(L: np.ndarray) -> bool:
    """Exactly one eigenvalue within the zero threshold, all others with Re above it."""
    values = np.linalg.eigvals(L)
    thr = ZERO_TOL * scale(L)
    near = np.abs(values) < thr
    return int(near.sum()) == 1 and bool(np.all(near | (values.real > thr)))


def perturbed_laplacian(L: np.ndarray, u: int, v: int, q_uv: float, q_vu: float,
                        delta: float) -> np.ndarray:
    """Laplacian after adding weight -delta*q_uv on edge (u, v) and -delta*q_vu on (v, u)."""
    out = L.copy()
    for a, b, q in ((u, v, q_uv), (v, u, q_vu)):
        out[a - 1, a - 1] -= delta * q
        out[a - 1, b - 1] += delta * q
    return out


def _perturbed_laplacian(info: dict, delta: float) -> np.ndarray:
    return perturbed_laplacian(info["graph"].laplacian(), *info["pair"], *info["gains"], delta)


def check_delta_star(info: dict, out: Output) -> str | None:
    result = json.loads(out.stdout)
    ds = result["delta_star"]
    if not isinstance(ds, float) or not ds > 0:
        return f"delta* is {ds!r}, not a positive finite number"
    if not spectrum_condition(_perturbed_laplacian(info, (1 - RHO) * ds)):
        return f"spectrum condition fails below delta* = {ds}"
    if result["regime"] == NECESSARY_AND_SUFFICIENT and spectrum_condition(
            _perturbed_laplacian(info, (1 + RHO) * ds)):
        return f"spectrum condition still holds above necessary-and-sufficient delta* = {ds}"
    for text in out.files.values():
        lines = text.splitlines()
        if len(lines) < 3 or lines[0] != "omega,re,im" or lines[-1] != "inf,0,0":
            return "sweep CSV lacks the omega,re,im header or the inf,0,0 last row"
    return None


def theta_negative_pairs(info: dict) -> set[tuple[int, int]]:
    """Ordered non-edges whose single -1 edge gives Theta a negative diagonal entry.

    The reaches are the generator's cycle blocks.  mu_k is the left kernel
    vector of block k (sum 1), gamma_k is 1 on block k, 0 on the other blocks
    and solves L_CC x = -L_{C,k} 1 on the commons.  For the edge (u, v) with
    weight -1, Theta_kk = mu_k[u] (gamma_k[v] - gamma_k[u]).
    """
    g, blocks = info["graph"], info["blocks"]
    L = g.laplacian()
    starts = np.cumsum([0] + list(blocks))
    common = np.arange(starts[-1], g.n)
    mus = np.zeros((len(blocks), g.n))
    gammas = np.zeros((len(blocks), g.n))
    for k in range(len(blocks)):
        idx = np.arange(starts[k], starts[k + 1])
        kernel = scipy.linalg.null_space(L[np.ix_(idx, idx)].T)[:, 0]
        mus[k, idx] = kernel / kernel.sum()
        gammas[k, idx] = 1.0
        gammas[k, common] = np.linalg.solve(L[np.ix_(common, common)],
                                            -L[np.ix_(common, idx)].sum(axis=1))
    # theta[k, u, v] for every ordered pair at once
    theta = mus[:, :, None] * (gammas[:, None, :] - gammas[:, :, None])
    negative = (theta < -THETA_TOL).any(axis=0)
    return {(u + 1, v + 1) for u, v in zip(*np.nonzero(negative))
            if u != v and (u + 1, v + 1) not in g.edges}


def check_sensitive(info: dict, out: Output) -> str | None:
    listed = json.loads(out.stdout)
    unverified = [(p["u"], p["v"]) for p in listed if p["verified"] is not True]
    if unverified:
        return f"{len(unverified)} listed pairs not verified, first {unverified[0]}"
    got = {(p["u"], p["v"]) for p in listed}
    want = theta_negative_pairs(info)
    if got != want:
        return f"{len(got - want)} pairs listed wrongly, {len(want - got)} missing"
    return None


def check_simulate(info: dict, out: Output) -> str | None:
    verdict = json.loads(out.stdout)
    if verdict["consensus"] is not info["expected"]:
        return f"consensus {verdict['consensus']} but spectrum condition {info['expected']}"
    n = info["graph"].n
    for text in out.files.values():
        lines = text.splitlines()
        if lines[0] != "t," + ",".join(f"x{i}" for i in range(1, n + 1)):
            return "trace CSV header is not t,x1,...,xn"
        if (lines[-1] == "# diverged") != verdict["diverged"]:
            return "trace CSV divergence marker disagrees with the verdict"
        rows = lines[1:-1] if verdict["diverged"] else lines[1:]
        if len(rows) < 2 or len(rows[-1].split(",")) != n + 1:
            return "trace CSV has too few or malformed rows"
    return None


def check_analyze(info: dict, out: Output) -> str | None:
    payload = json.loads(out.stdout)
    d = info["d"]
    if payload["n"] != info["graph"].n or payload["decomposition"]["d"] != d:
        return f"n or reach count wrong: {payload['n']}, {payload['decomposition']['d']} != {d}"
    if payload["zero_multiplicity"] != d:
        return f"zero multiplicity {payload['zero_multiplicity']} != d = {d}"
    if payload["spectrum_condition"] is not (d == 1):
        return f"spectrum condition {payload['spectrum_condition']} with d = {d}"
    basis = payload["null_basis"]
    product = np.array(basis["mus"], dtype=float) @ np.array(basis["gammas"], dtype=float).T
    err = float(np.abs(product - np.eye(d)).max())
    if err > BIORTHO_TOL:
        return f"|mus gammas^T - I| = {err:.3e}"
    return None


def resistance_reference(info: dict) -> float:
    """Closed form on symmetric graphs, Lyapunov in an independent basis otherwise."""
    g, (u, v) = info["graph"], info["pair"]
    L = g.laplacian()
    e = np.zeros(g.n)
    e[u - 1], e[v - 1] = 1.0, -1.0
    if info["symmetric"]:
        return float(e @ np.linalg.pinv(L) @ e)
    Q = scipy.linalg.null_space(np.ones((1, g.n))).T
    sigma = scipy.linalg.solve_continuous_lyapunov(Q @ L @ Q.T, np.eye(g.n - 1))
    c = Q @ e
    return float(2.0 * c @ sigma @ c)


def check_resistance(info: dict, out: Output) -> str | None:
    got = json.loads(out.stdout)["r_uv"]
    want = resistance_reference(info)
    if not isinstance(got, float) or abs(got - want) > RESISTANCE_RTOL * abs(want):
        return f"r_uv = {got!r}, reference {want:.15g}"
    return None


CHECKS = {
    "delta-star": check_delta_star,
    "sensitive": check_sensitive,
    "simulate": check_simulate,
    "analyze": check_analyze,
    "resistance": check_resistance,
}


def check(call, out: Output) -> str | None:
    """Oracle verdict for one call: exit code, exception, then the output itself."""
    if out.error is not None:
        return f"raised {out.error}"
    if out.code != 0:
        return f"exit code {out.code}"
    try:
        return CHECKS[call.oracle](call.info, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


# --- corruption self-check ---------------------------------------------------

def _edit_json(out: Output, edit) -> Output:
    payload = json.loads(out.stdout)
    edit(payload)
    return Output(out.code, json.dumps(payload), out.error, dict(out.files))


def _scale_delta(p: dict) -> None:
    p["delta_star"] *= 1.5


def _drop_last_row(out: Output) -> Output:
    files = {k: v.rsplit("\n", 2)[0] + "\n" for k, v in out.files.items()}
    return Output(out.code, out.stdout, out.error, files)


def _drop_pair(p: list) -> None:
    p.pop(len(p) // 2)


def _unverify(p: list) -> None:
    p[0]["verified"] = False


def _flip_consensus(p: dict) -> None:
    p["consensus"] = not p["consensus"]


def _bump_multiplicity(p: dict) -> None:
    p["zero_multiplicity"] += 1


def _scale_resistance(p: dict) -> None:
    p["r_uv"] *= 1.01


def _is_ns(call, out: Output) -> bool:
    return json.loads(out.stdout)["regime"] == NECESSARY_AND_SUFFICIENT


def _any(call, out: Output) -> bool:
    return True


#: (oracle, name, which outputs qualify, corruption)
CORRUPTIONS = (
    ("delta-star", "delta_star_x1.5", _is_ns, lambda o: _edit_json(o, _scale_delta)),
    ("delta-star", "sweep_last_row_dropped", lambda c, o: bool(o.files), _drop_last_row),
    ("sensitive", "pair_dropped", _any, lambda o: _edit_json(o, _drop_pair)),
    ("sensitive", "pair_unverified", _any, lambda o: _edit_json(o, _unverify)),
    ("simulate", "consensus_flipped", _any, lambda o: _edit_json(o, _flip_consensus)),
    ("analyze", "zero_multiplicity_plus_1", _any,
     lambda o: _edit_json(o, _bump_multiplicity)),
    ("resistance", "r_uv_x1.01", _any, lambda o: _edit_json(o, _scale_resistance)),
)


def self_check(pairs: list) -> dict[str, bool]:
    """Corrupt the first qualifying correct output for each corruption; True if rejected.

    ``pairs`` holds (call, output) with outputs that passed their oracle.
    """
    result = {}
    for oracle, name, qualifies, corrupt in CORRUPTIONS:
        for call, out in pairs:
            if call.oracle == oracle and qualifies(call, out):
                result[name] = check(call, corrupt(copy.deepcopy(out))) is not None
                break
    return result
