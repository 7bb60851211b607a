"""Check that two source trees of signedlap give the same CLI results.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1-10]

PARENT_SRC and CHANGE_SRC are ``src`` directories, for example that of a
local ``git worktree add ../parent HEAD~1`` next to this checkout's own
``src``.  Two versions of the package cannot share one interpreter, so each
side runs in a fresh process of its own.  Both sides make the same calls
through ``signedlap.cli.main``, in the same relative layout of a scratch
directory:

* on every graph of ``tests/data``: ``analyze`` (plain and with
  ``--positive-only``), ``sensitive``, ``simulate`` (plain, and with a short
  horizon and ``--out``), and on every ordered pair ``delta-star`` with
  ``--sweep-out`` and ``resistance`` in both modes;
* one ``simulate --out`` on a perturbed ``triangle.txt`` that diverges
  inside a block, so the truncated last row and the ``# diverged`` trailer
  are compared too; a side whose trace lacks the trailer stops the run;
* the calls of the four benchmark workloads that ``bench/workloads.py``
  builds for each seed.

For each call it compares the exit code, stdout, stderr and every file
written through ``--out`` or ``--sweep-out``, prints the counts and each
differing call, and exits 1 on any difference.  Next to the call counts it
prints how many CSV files both sides wrote and how many numbers (rows times
columns) those files hold, so a claim that the CSV bytes did not change
states its coverage, and the peak RSS (``ru_maxrss``) of each side's process,
so a memory change can be checked without the benchmark.  Where both sides
print JSON and stdout differs, it prints the largest relative difference
over the float leaves, each difference taken relative to the largest magnitude
among the float leaves that share its path (as all of ``/crossings/*/re``) in
that call, and names every other leaf that differs (a label, a
boolean, a count, a list length), per call and, at the end, per leaf over
all calls.  For each CSV file that differs it prints the row counts of both
sides, how many numbers moved in their common rows and, per column, the
largest move relative to a scale taken on either side: in a trace the
largest finite |state| of the moved state's row, in any other column (``t``
and the sweep columns) the largest finite magnitude of that column; and, at
the end, the same over all such files.  The output
files stay on disk until both sides are done, so no side holds them all in
memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import multiprocessing
import os
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
BENCH = ROOT / "bench"
WORKLOADS = ("delta-star", "sensitive", "simulate", "analyze")
OUT_FLAGS = ("--out", "--sweep-out")
#: the trace ends at row 4076, the first bad row being 4077, inside the block of rows 3073-4096
DIVERGING = ["simulate", "--graph", "data/triangle.txt", "--pair", "1", "2", "--delta", "10",
             "--dt", "0.005", "--horizon", "100", "--out", "diverged-trace.csv"]


def _data_calls() -> list[list[str]]:
    """The calls on the graphs of ``tests/data``, copied to ``data/`` of the scratch directory."""
    calls = []
    for path in sorted(DATA.glob("*.txt")):
        Path("data").mkdir(exist_ok=True)
        graph, stem, text = f"data/{path.name}", path.stem, path.read_text(encoding="utf-8")
        Path(graph).write_text(text, encoding="utf-8")
        calls += [["analyze", "--graph", graph],
                  ["analyze", "--graph", graph, "--positive-only"],
                  ["sensitive", "--graph", graph],
                  ["simulate", "--graph", graph],
                  ["simulate", "--graph", graph, "--horizon", "1", "--out", f"{stem}-trace.csv"]]
        n = int(next(s for s in (line.split("#", 1)[0] for line in text.splitlines()) if s.strip()))
        for u, v in itertools.permutations(range(1, n + 1), 2):
            pair = ["--pair", str(u), str(v)]
            calls += [["delta-star", "--graph", graph, *pair,
                       "--sweep-out", f"{stem}-sweep-{u}-{v}.csv"],
                      ["resistance", "--graph", graph, *pair],
                      ["resistance", "--graph", graph, *pair, "--mode", "undirected"]]
    return calls + [DIVERGING]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv_numbers(text: str) -> int:
    """Rows times columns of a CSV text: a header, then number rows, then ``#`` lines."""
    columns = text.split("\n", 1)[0].count(",") + 1
    return (text.count("\n") - 1 - text.count("\n#")) * columns


def run_side(src: str, seeds: list[int], workdir: str) -> tuple[list[tuple], float]:
    """Make every call with the package under ``src``: one (argv, outcome, numbers) per call,
    and the peak RSS of this process in MiB.

    The outcome holds the exit code (or the exception that escaped
    ``cli.main``), stdout and stderr in full, and the digest of
    each output file, or None for a file the call did not write; every
    output file stays in ``workdir`` under its own name.  Numbers
    holds the count of CSV numbers in each output file (None for JSON).
    """
    sys.path[:0] = [src, str(BENCH)]
    import signedlap.cli as cli
    import workloads

    os.chdir(workdir)
    calls = _data_calls()
    for name, seed in itertools.product(WORKLOADS, seeds):
        Path(f"{name}-{seed}").mkdir()
        wl = workloads.build(name, seed, Path(f"{name}-{seed}"))
        calls += [c.argv for c in (wl.warmup, *wl.calls)]
    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare, not the end of the run
            code = f"raised {exc!r}"
        files, numbers = [], []
        for flag, path in zip(argv, argv[1:]):
            if flag in OUT_FLAGS:
                written = Path(path)
                text = written.read_text(encoding="utf-8") if written.exists() else None
                if argv == DIVERGING and not (text or "").endswith("\n# diverged\n"):
                    raise RuntimeError(f"{' '.join(argv)} did not write a diverged trace")
                files.append(None if text is None else _digest(text))
                numbers.append(_csv_numbers(text) if text and path.endswith(".csv") else None)
        results.append((argv, (code, out.getvalue(), err.getvalue(), files), numbers))
    return results, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _leaves(tree, path: str = ""):
    """(path, value) of each leaf or empty container of a JSON tree, its keys and list
    indices joined by ``/``."""
    if isinstance(tree, (dict, list)) and tree:
        for key, sub in tree.items() if isinstance(tree, dict) else enumerate(tree):
            yield from _leaves(sub, f"{path}/{key}")
    else:
        yield path, tree


def _json_diff(a: str, b: str) -> tuple[dict[str, float], set[str]] | None:
    """Two JSON texts compared leaf by leaf: the largest difference per float leaf, relative to
    the largest magnitude among the float leaves of its path on either side (so a roundoff
    of 0 next to larger values reads at their scale), and the other leaves that differ or
    that one side lacks, by path with list indices as ``*``; None when either text is not
    JSON."""
    try:
        x, y = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    except ValueError:
        return None
    name = {path: "/".join("*" if part.isdigit() else part for part in path.split("/"))
            for path in x.keys() | y.keys()}
    scale: dict[str, float] = {}
    for side in (x, y):
        for path, value in side.items():
            if type(value) is float:
                scale[name[path]] = max(scale.get(name[path], 0.0), abs(value))
    rel: dict[str, float] = {}
    other: set[str] = set()
    for path in x.keys() | y.keys():
        p, q = x.get(path), y.get(path)
        if type(p) is float and type(q) is float:
            diff = abs(p - q) / scale[name[path]] if p != q else 0.0
            rel[name[path]] = max(rel.get(name[path], 0.0), diff)
        elif p != q or (path in x) != (path in y):
            other.add(name[path])
    return rel, other


def _csv_diff(a: Path, b: Path) -> tuple[int, int, int, dict[str, float]] | None:
    """Two CSV files of numbers compared value by value: the row counts of both, how many
    numbers differ in their common rows, and per column the largest difference relative to a
    scale on either side; None when the headers differ.

    In a trace (header ``t,...``) the scale of a state is the largest finite |state| of its
    row, so a state that is roundoff next to the others of its row reads as roundoff.  Any
    other column, ``t`` and the sweep columns, is scaled by its largest finite magnitude (so
    the ``inf`` of the last sweep row does not hide the moves of the others)."""
    headers = []
    for path in (a, b):
        with path.open(encoding="utf-8") as fh:
            headers.append(fh.readline())
    names = headers[0].strip().split(",")
    if headers[1] != headers[0]:
        return None
    x, y = (np.loadtxt(p, delimiter=",", skiprows=1, comments="#", ndmin=2) for p in (a, b))
    rows = min(len(x), len(y))
    xs, ys = x[:rows], y[:rows]
    moved = (xs != ys) & ~(np.isnan(xs) & np.isnan(ys))
    states = np.abs(np.concatenate([xs[:, 1:], ys[:, 1:]], axis=1))
    row_scale = np.where(np.isfinite(states), states, 0.0).max(axis=1, initial=0.0)
    largest = {}
    for k, name in enumerate(names):
        diff = np.abs(xs[moved[:, k], k] - ys[moved[:, k], k])
        if names[0] == "t" and k > 0:
            scale = row_scale[moved[:, k]]
        else:
            column = np.abs(np.concatenate([x[:, k], y[:, k]]))
            scale = column[np.isfinite(column)].max(initial=0.0)
        with np.errstate(divide="ignore"):  # a move of a value whose scale is 0 reads inf
            largest[name] = float((diff / scale).max(initial=0.0))
    return len(x), len(y), int(moved.sum()), largest


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _compare(parent: list[tuple], change: list[tuple], parent_dir: Path, change_dir: Path,
             parent_rss: float, change_rss: float) -> int:
    """Print how the two sides' calls differ, reading differing CSV files from each side's
    work directory; 1 if any call differs, else 0."""
    if [argv for argv, *_ in parent] != [argv for argv, *_ in change]:
        print("error: the two sides made different calls", file=sys.stderr)
        return 1
    fields = ("exit code", "stdout", "stderr", "output files")
    differ = {field: 0 for field in fields}
    bad = csv_files = csv_numbers = csv_differ = csv_moved = 0
    csv_largest: dict[str, float] = {}  # per CSV column, over the files that differ
    largest: dict[str, float] = {}  # per float leaf, over the calls whose stdout differs
    labels: dict[str, int] = {}  # per other leaf, the calls where it differs
    for (argv, a, numbers), (_, b, _) in zip(parent, change):
        diff = [field for field, x, y in zip(fields, a, b) if x != y]
        for field in diff:
            differ[field] += 1
        if diff:
            bad += 1
            print(f"differ in {', '.join(diff)}: {' '.join(argv)}")
            if "stderr" in diff:
                print(f"  parent stderr: {a[2].strip()}\n  change stderr: {b[2].strip()}")
            moved = _json_diff(a[1], b[1]) if "stdout" in diff else None
            if moved is not None:
                rel, other = moved
                top = max(rel, key=rel.get, default=None)
                if top is not None:
                    print(f"  stdout: largest relative difference {rel[top]:.2g} at {top}")
                if other:
                    print(f"  stdout: other leaves that differ: {', '.join(sorted(other))}")
                for name, value in rel.items():
                    largest[name] = max(largest.get(name, 0.0), value)
                for name in other:
                    labels[name] = labels.get(name, 0) + 1
        paths = [path for flag, path in zip(argv, argv[1:]) if flag in OUT_FLAGS]
        for path, count, x, y in zip(paths, numbers, a[3], b[3]):
            if count is None or None in (x, y):  # not a CSV file that both sides wrote
                continue
            csv_files, csv_numbers = csv_files + 1, csv_numbers + count
            moved = _csv_diff(parent_dir / path, change_dir / path) if x != y else None
            if x != y and moved is None:
                print(f"  {path}: the headers differ")
            if moved is None:
                continue
            rows_a, rows_b, k, rel = moved
            print(f"  {path}: {rows_a} rows on the parent, {rows_b} on the change, {k} numbers "
                  "moved; largest relative move "
                  + ", ".join(f"{name} {value:.2g}" for name, value in rel.items()))
            csv_differ, csv_moved = csv_differ + 1, csv_moved + k
            for name, value in rel.items():
                csv_largest[name] = max(csv_largest.get(name, 0.0), value)
    nonzero = sum(code != 0 for _, (code, *_rest), _ in change)
    print(f"{len(change)} calls ({nonzero} with a nonzero exit code on the change), "
          f"{bad} differ: " + ", ".join(f"{field} {k}" for field, k in differ.items()))
    print(f"{csv_files} CSV files written by both sides compared byte for byte, "
          f"{csv_numbers} CSV numbers (rows times columns) in them")
    if csv_differ:
        print(f"{csv_differ} CSV files differ, {csv_moved} numbers moved in their common rows; "
              "largest relative move per column: "
              + ", ".join(f"{name} {value:.2g}" for name, value in csv_largest.items()))
    print(f"peak RSS (ru_maxrss of each side's process): parent {parent_rss:.1f} MiB, "
          f"change {change_rss:.1f} MiB")
    if largest or labels:
        print("JSON stdout that differs, per leaf over all calls: largest relative difference "
              + ", ".join(f"{name} {value:.2g}" for name, value in sorted(largest.items()))
              + "; other leaves that differ: "
              + (", ".join(f"{name} in {k} calls" for name, k in sorted(labels.items()))
                 or "none"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", help="src directory of the parent tree")
    parser.add_argument("change_src", help="src directory of the changed tree")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="benchmark seeds, N or A-B (default 1-10)")
    args = parser.parse_args()
    # one BLAS thread, so that each side computes every float the same way on every run
    os.environ.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        # a worker makes one side's calls and exits, so each side imports its package afresh
        with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
            sides = ((args.parent_src, parent_dir), (args.change_src, change_dir))
            (parent, parent_rss), (change, change_rss) = pool.starmap(
                run_side, [(str(Path(src).resolve()), args.seeds, workdir)
                           for src, workdir in sides], chunksize=1)
        return _compare(parent, change, Path(parent_dir), Path(change_dir),
                        parent_rss, change_rss)


if __name__ == "__main__":
    sys.exit(main())
