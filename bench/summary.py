"""Run every workload once and print each metric by name and unit.

    python3 bench/summary.py [--seed 1] [--seconds 15] [--trace]

Runs ``run.py`` for the four workloads (with ``--trace`` also the traced
run) and prints one table of metrics per mode, plus the failed-call ratio,
the tail percentile with its sample count, and the oracle self-check.
Exits non-zero if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("delta-star", "sensitive", "simulate", "analyze")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True)
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


def table(results: dict[str, tuple[dict, dict]]) -> None:
    names: dict[str, str] = {}
    for _, result in results.values():
        for name, metric in result["metrics"].items():
            names.setdefault(name, metric["unit"])
    print(f"{'metric':34s} {'unit':8s}" + "".join(f"{w:>14s}" for w in results))
    for name, unit in names.items():
        cells = "".join(f"{r['metrics'][name]['value']:14.5g}" if name in r["metrics"]
                        else f"{'-':>14s}" for _, r in results.values())
        print(f"{name:34s} {unit:8s}{cells}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = parser.parse_args()
    all_correct = True
    for trace in (0, 1) if args.trace else (0,):
        results = {w: run(w, args.seed, args.seconds, trace) for w in WORKLOADS}
        print(f"\n== {'per-layer (traced run)' if trace else 'end to end'}, seed {args.seed} ==")
        table(results)
        for w, (details, result) in results.items():
            all_correct &= result["correct"]
            print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed_ratio={details['failed_ratio']:.4g} tail={details['tail']} "
                  f"self_check={details['self_check']}")
            for reason in details["failures"]:
                print(f"  failure: {reason}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
