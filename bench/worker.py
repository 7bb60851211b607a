"""One fresh process that drives ``signedlap.cli.main`` in-process.

Run by ``run.py``, never by hand:

    python3 bench/worker.py SPEC.json RESULT.json [--setup-only]

The worker imports the CLI, makes the untimed warm-up call and prints
``ready`` on stdout, which is where the parent stops its set-up clock.  With
``--setup-only`` it exits there.  Otherwise one caller runs a closed loop:
whole passes over the call list, each call starting after the previous one
returned, until ``seconds`` have passed and at least ``min_calls`` calls
were made.  With ``trace`` set, each call runs once untraced and once traced,
so the tracing overhead is measured on the same calls in the same process,
and the spans of the last pass are written to ``spans_out``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run(cli, argv: list[str]) -> tuple[int, str, str | None]:
    """One CLI call: exit code, captured stdout, and the exception if it raised."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising call is a failed call, not a crashed benchmark
        code, error = -1, repr(exc)
    return code, out.getvalue(), error


def main() -> int:
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import signedlap
    import signedlap.cli as cli

    _run(cli, spec["warmup"])
    print("ready", flush=True)
    if "--setup-only" in sys.argv[3:]:
        return 0

    calls = spec["calls"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(signedlap)
    # with tracing, every call runs untraced and traced back to back (the order
    # alternating by pass), so a slow spell of the machine hits both sides
    modes = (False, True) if tracer is not None else (False,)
    first: dict[int, dict] = {}
    records: list[list] = []
    start = time.perf_counter()
    passes = 0
    last_pass_span = 0
    while True:
        if tracer is not None:
            last_pass_span = len(tracer.spans)
        for idx, argv in enumerate(calls):
            for traced in modes if passes % 2 == 0 else modes[::-1]:
                if traced:
                    tracer.install()
                try:
                    t0 = time.perf_counter()
                    code, stdout, error = _run(cli, argv)
                    latency = time.perf_counter() - t0
                finally:
                    if traced:
                        tracer.restore()
                sizes = [os.path.getsize(p) if os.path.exists(p) else -1
                         for p in spec["files"][idx]]
                seen = first.setdefault(idx, {"code": code, "stdout": stdout, "error": error,
                                              "sizes": sizes})
                same = (seen["code"], seen["stdout"], seen["error"], seen["sizes"]) == (
                    code, stdout, error, sizes)
                records.append([passes, idx, latency, traced, same])
        passes += 1
        if (time.perf_counter() - start >= spec["seconds"]
                and len(records) >= spec["min_calls"] * len(modes)):
            break

    result = {
        "records": records,
        "first": {str(k): v for k, v in first.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spec["spans_out"], last_pass_span)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
