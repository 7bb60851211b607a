"""signedlap benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload delta-star --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).  The
parent generates the workload's inputs from the seed, times three fresh
worker processes from interpreter start to the end of their first CLI call
(``setup_s`` is the median), lets the last of them run the timed closed loop,
checks every output against an independent oracle, corrupts a few correct
outputs to show that the oracles reject them, and prints one details line
followed by the result line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run and its overhead.
See NOTES.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS/LAPACK threads allowed in each worker (at most nproc); one keeps the load single-threaded
BLAS_THREADS = 1
os.environ.update({k: str(BLAS_THREADS) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402  (after the thread cap)
import scipy  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: fresh interpreters timed for setup_s; the last one also runs the timed loop
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def git_commit() -> str | None:
    """HEAD's commit id read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn_worker(spec_path: Path, result_path: Path, setup_only: bool) -> float:
    """Start a worker, return seconds from spawn to its ``ready`` line, wait for its exit."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            proc.communicate(timeout=WORKER_TIMEOUT_S)
            code = proc.returncode
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}, first line {line.strip()!r})")
    return setup


def judge(wl, result: dict) -> tuple[list[bool], list[str], list]:
    """Oracle verdict per record, the failure reasons, and the (call, output) pairs that passed."""
    verdicts: dict[int, str | None] = {}
    passed = []
    for key, first in result["first"].items():
        idx = int(key)
        call = wl.calls[idx]
        files = {p: Path(p).read_text(encoding="utf-8") for p in call.files if Path(p).exists()}
        out = oracles.Output(first["code"], first["stdout"], first["error"], files)
        verdicts[idx] = oracles.check(call, out)
        if verdicts[idx] is None:
            passed.append((call, out))
    ok, reasons = [], []
    for _, idx, _, _, same in result["records"]:
        reason = verdicts[idx] if same else "output differs from the first pass"
        ok.append(reason is None)
        if reason is not None:
            reasons.append(f"{wl.calls[idx].argv[0]} #{idx}: {reason}")
    return ok, reasons, passed


def end_to_end(records: list, ok: list[bool], setups: list[float], rss: float,
               tail_q: float) -> tuple[dict, dict]:
    latencies = [r[2] for r in records]
    tail_s = float(np.percentile(latencies, tail_q))
    # per-pass rates, so a slow spell of the machine shifts one pass, not the median
    busy: dict[int, float] = {}
    good: dict[int, int] = {}
    for (p, _, latency, _, _), correct in zip(records, ok):
        busy[p] = busy.get(p, 0.0) + latency
        good[p] = good.get(p, 0) + correct
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "calls_per_s": (statistics.median(good[p] / busy[p] for p in busy), "1/s"),
        "call_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "call_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, {"percentile": tail_q, "samples": len(latencies)}


def per_layer(records: list, layers: dict) -> dict:
    untraced = sum(r[2] for r in records if not r[3])
    traced = sum(r[2] for r in records if r[3])
    per_call = sum(1 for r in records if r[3])
    metrics = {k: tuple(v) for k, v in layers.items()}
    metrics["trace.overhead_ms"] = (1e3 * (traced - untraced) / per_call, "ms/call")
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    return metrics


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    wl = workloads.build(args.workload, args.seed, workdir)
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spans_out = BENCH / ".out" / f"spans-{args.workload}.jsonl"
    if args.trace:
        spans_out.parent.mkdir(exist_ok=True)
    spec_path.write_text(json.dumps({
        "src": str(SRC),
        "warmup": wl.warmup.argv,
        "calls": [c.argv for c in wl.calls],
        "files": [c.files for c in wl.calls],
        "seconds": args.seconds,
        "min_calls": wl.min_calls(),
        "trace": args.trace,
        "spans_out": str(spans_out),
    }), encoding="utf-8")
    setups = [spawn_worker(spec_path, result_path, setup_only=k < SETUP_RUNS - 1)
              for k in range(SETUP_RUNS)]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    records = result["records"]
    ok, reasons, passed = judge(wl, result)
    selfcheck = oracles.self_check(passed)
    if args.trace:
        metrics, tail_info = per_layer(records, result["layers"]), None
    else:
        metrics, tail_info = end_to_end(records, ok, setups, result["peak_rss_mb"], wl.tail_q)
    regimes: dict[str, int] = {}
    for call, out in passed:
        if call.oracle == "delta-star":
            regime = json.loads(out.stdout)["regime"]
            regimes[regime] = regimes.get(regime, 0) + 1
    expected_checks = {name for oracle, name, _, _ in oracles.CORRUPTIONS
                       if any(c.oracle == oracle for c in wl.calls)}
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "inputs": dict(wl.props, **({"regimes": regimes} if regimes else {})),
        "passes": result["passes"],
        "tail": tail_info,
        "setup_samples_s": setups,
        "failed_ratio": (len(ok) - sum(ok)) / len(ok),
        "failures": reasons[:5],
        "self_check": selfcheck,
    }
    summary = {
        "correct": not reasons and set(selfcheck) == expected_checks and all(selfcheck.values()),
        "attempted": len(ok),
        "failed": len(ok) - sum(ok),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "signedlap" / "cli.py").is_file():
        print(f"error: {SRC / 'signedlap'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        details, summary = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
