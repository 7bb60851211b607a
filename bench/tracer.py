"""Spans around calls into signedlap's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the
package's modules with a timing wrapper, in every module that binds it, so
the names that ``cli``, ``perturb`` and ``robustness`` import from other
modules are covered too.  ``restore`` puts every original back.  Spans stay
in memory as (id, parent id, name, start, end) and are written out once, at
the end; a span's self time is its duration minus that of its children.
Spans of one CLI call share the id of its ``cli.main`` span as request id.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import Counter, defaultdict

#: the package's modules, by the short name used as the span prefix
MODULES = ("cli", "graph", "reach", "spectral", "robustness", "perturb", "simulate", "report")


class Tracer:
    def __init__(self, package) -> None:
        # by import path: the package re-exports a function named ``simulate``
        self.modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                        for short in MODULES}
        self.modules[package.__name__] = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = defaultdict(float)
        self._saved: list[tuple] = []
        self._wrappers: dict = {}
        self._probes = {
            "spectral.eigenvalues": self._probe_eigenvalues,
            "robustness.delta_star": self._probe_delta_star,
            "perturb.verify_sensitivity": self._probe_verify,
            "simulate.simulate": self._probe_simulate,
            "report.dumps": self._probe_bytes,
            "report.sweep_csv": self._probe_bytes,
            "report.trace_csv": self._probe_bytes,
        }
        for short in MODULES:
            mod = self.modules[short]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    self._wrappers[obj] = self._wrap(name, obj, self._probes.get(name))

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])

    def restore(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    def _wrap(self, name: str, fn, probe):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- probes: counts taken at the same boundaries as the spans -------------

    def _inside(self, name: str) -> bool:
        return any(self.spans[s][2] == name for s in self.stack)

    def _probe_eigenvalues(self, args, result) -> None:
        n3 = int(args[0].shape[0]) ** 3
        self.counts["spectral.eigenvalues_n3"] += n3
        if self._inside("perturb.verify_sensitivity"):
            self.counts["perturb.verify_eig_n3"] += n3

    def _probe_delta_star(self, args, result) -> None:
        self.counts["robustness.results"] += 1
        self.counts["robustness.sufficient_only"] += result.regime == "SufficientOnly"

    def _probe_verify(self, args, result) -> None:
        self.counts["perturb.verified_true"] += bool(result)

    def _probe_simulate(self, args, result) -> None:
        self.counts["simulate.steps"] += result.states.shape[0] - 1
        mb = (result.states.nbytes + result.times.nbytes) / 1e6
        self.peaks["simulate.states_mb"] = max(self.peaks["simulate.states_mb"], mb)

    def _probe_bytes(self, args, result) -> None:
        self.counts["report.bytes_out"] += len(result.encode("utf-8"))

    # --- results ------------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's."""
        own = [end - start for _, _, _, start, end in self.spans]
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: number of calls, inclusive seconds and self seconds."""
        calls, incl, self_s = Counter(), Counter(), Counter()
        for (_, _, name, start, end), own in zip(self.spans, self._self_times()):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own
        return calls, incl, self_s

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged per CLI call where they are totals."""
        calls, incl, self_s = self.totals()
        per = max(calls["cli.main"], 1)
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "cli.self_ms": (1e3 * self_s["cli.main"] / per, "ms/call"),
            "graph.parse_s": (incl["graph.parse_edge_list"] / per, "s/call"),
            "graph.laplacian_calls": (calls["graph.laplacian"] / per, "1/call"),
            "graph.laplacian_s": (incl["graph.laplacian"] / per, "s/call"),
            "graph.superpose_calls": (calls["graph.superpose"] / per, "1/call"),
            "reach.decomposition_calls": (calls["reach.reach_decomposition"] / per, "1/call"),
            "reach.decomposition_s": (incl["reach.reach_decomposition"] / per, "s/call"),
            "spectral.eigenvalues_calls": (calls["spectral.eigenvalues"] / per, "1/call"),
            "spectral.eigenvalues_s": (incl["spectral.eigenvalues"] / per, "s/call"),
            "spectral.eigenvalues_n3": (c["spectral.eigenvalues_n3"] / per, "1/call"),
            "spectral.null_basis_s": (incl["spectral.null_basis"] / per, "s/call"),
            "spectral.reduced_laplacian_s": (incl["spectral.reduced_laplacian"] / per, "s/call"),
            "robustness.delta_star_s": (self_s["robustness.delta_star"] / per, "s/call"),
            "robustness.r_value_calls": (calls["robustness.r_value"] / per, "1/call"),
            "robustness.r_value_s": (incl["robustness.r_value"] / per, "s/call"),
            "robustness.spectrum_check_calls": (
                calls["robustness.check_spectrum_condition"] / per, "1/call"),
            "robustness.sweep_s": (incl["robustness.nyquist_sweep"] / per, "s/call"),
            "robustness.lyapunov_s": (incl["robustness.solve_lyapunov"] / per, "s/call"),
            "robustness.sufficient_only_share": (
                ratio(c["robustness.sufficient_only"], c["robustness.results"]), "1"),
            "perturb.sensitive_pairs_s": (incl["perturb.sensitive_pairs"] / per, "s/call"),
            "perturb.verify_calls": (calls["perturb.verify_sensitivity"] / per, "1/call"),
            "perturb.verify_s": (incl["perturb.verify_sensitivity"] / per, "s/call"),
            "perturb.verify_eig_n3": (c["perturb.verify_eig_n3"] / per, "1/call"),
            "perturb.verified_ratio": (
                ratio(c["perturb.verified_true"], calls["perturb.verify_sensitivity"]), "1"),
            "simulate.steps": (c["simulate.steps"] / per, "1/call"),
            "simulate.integrate_s": (incl["simulate.simulate"] / per, "s/call"),
            "simulate.default_horizon_s": (incl["simulate.default_horizon"] / per, "s/call"),
            "simulate.consensus_s": (incl["simulate.consensus_reached"] / per, "s/call"),
            "simulate.states_mb": (self.peaks["simulate.states_mb"], "MB"),
            "report.json_s": (incl["report.dumps"] / per, "s/call"),
            "report.csv_s": ((incl["report.sweep_csv"] + incl["report.trace_csv"]) / per, "s/call"),
            "report.bytes_out": (c["report.bytes_out"] / per, "B/call"),
            "trace.spans": (len(self.spans) / per, "1/call"),
        }

    def write(self, path: str, first: int = 0) -> None:
        """Write the spans from index ``first`` on as JSON lines, with request id and self time.

        ``first`` must start a request, so every parent is written too.
        """
        root: dict[int, int] = {}
        spans = zip(self.spans[first:], self._self_times()[first:])
        with open(path, "w", encoding="utf-8") as fh:
            for (sid, parent, name, start, end), own in spans:
                root[sid] = sid if parent < 0 else root[parent]
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": root[sid], "name": name,
                    "start": start, "end": end, "self": own,
                }) + "\n")
