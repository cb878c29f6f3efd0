#!/usr/bin/env python3
"""Compare every benchmark output of this checkout with those of a git revision.

    python scripts/compare_outputs.py --parent REF [--seeds 1,3] [--atol A] [--rtol R]

REF is checked out with `git worktree` into a temporary directory (removed
afterwards).  Every operation that bench/workloads.build lists for the
three workloads and each seed is run as its own `python -m kickecho`
process, once from REF's src/ and once from this checkout's src/, with one
BLAS thread.  Both sides run the operation lists of this checkout's
bench/workloads.py, which is only read.

Each output file is reported "byte-identical", or with the largest
absolute and relative difference per CSV column and per sidecar number.
Exit codes and stderr must match exactly.  The script exits 1 when they do
not, when a file is missing on one side, when non-numeric content differs,
or when a difference exceeds |a - b| <= atol + rtol * max(|a|, |b|)
(both 0 by default, so any difference fails).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tau-min", "delta-scans", "wavepacket")


def run_ops(src: str, ops, outdir: str) -> list[tuple[int, str]]:
    """Run ops in order in outdir from the package in src; (exit, stderr) each."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    results = []
    for op in ops:
        proc = subprocess.run(
            [sys.executable, "-m", "kickecho", *op.argv()], cwd=outdir, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        results.append((proc.returncode, proc.stderr))
    return results


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


class Diff:
    """Largest absolute and relative difference per named field."""

    def __init__(self, atol: float, rtol: float):
        self.atol, self.rtol = atol, rtol
        self.worst: dict[str, tuple[float, float]] = {}
        self.problems: list[str] = []
        self.beyond = False

    def numbers(self, field: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        scale = max(abs(a), abs(b))
        absolute = abs(a - b)
        relative = absolute / scale if scale else 0.0
        if math.isnan(absolute) or not absolute <= self.atol + self.rtol * scale:
            self.beyond = True
        old = self.worst.get(field, (0.0, 0.0))
        self.worst[field] = (max(old[0], absolute), max(old[1], relative))

    def values(self, field: str, a, b) -> None:
        """Compare two cells or JSON values: numbers by size, others exactly."""
        if isinstance(a, float) and isinstance(b, float):
            self.numbers(field, a, b)
        elif a != b:
            self.problems.append(f"{field}: {a!r} != {b!r}")


def compare_csv(a: bytes, b: bytes, diff: Diff) -> None:
    rows_a = list(csv.reader(a.decode().splitlines()))
    rows_b = list(csv.reader(b.decode().splitlines()))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        diff.problems.append("header or row count differs")
        return
    header = rows_a[0]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb) or len(ra) != len(header):
            diff.problems.append("row length differs")
            return
        for name, ca, cb in zip(header, ra, rb):
            xa, xb = _number(ca), _number(cb)
            diff.values(f"column {name}", ca if xa is None else xa, cb if xb is None else xb)


def _flatten(value, path: str = ""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)
    else:
        yield path, value


def compare_json(a: bytes, b: bytes, diff: Diff) -> None:
    flat_a = dict(_flatten(json.loads(a)))
    flat_b = dict(_flatten(json.loads(b)))
    if flat_a.keys() != flat_b.keys():
        diff.problems.append("sidecar keys differ")
        return
    for key, value in flat_a.items():
        diff.values(key, value, flat_b[key])


def compare_dirs(label: str, dir_a: str, dir_b: str, atol: float, rtol: float) -> tuple[int, bool]:
    """Print one line per file of both directories; (files, any failure)."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    failed = False
    for name in names:
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if not (os.path.isfile(path_a) and os.path.isfile(path_b)):
            side = "parent" if not os.path.isfile(path_a) else "change"
            print(f"{label} {name}: missing from the {side}")
            failed = True
            continue
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            print(f"{label} {name}: byte-identical")
            continue
        diff = Diff(atol, rtol)
        if name.endswith(".csv"):
            compare_csv(a, b, diff)
        elif name.endswith(".json"):
            compare_json(a, b, diff)
        else:
            diff.problems.append("bytes differ")
        bad = diff.beyond or bool(diff.problems)
        failed |= bad
        print(f"{label} {name}: {'beyond tolerance' if bad else 'within tolerance'}")
        for field, (absolute, relative) in diff.worst.items():
            print(f"    {field}: max abs {absolute:.3g}, max rel {relative:.3g}")
        for problem in diff.problems:
            print(f"    {problem}")
    return len(names), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--seeds", default="1,3", help="comma-separated workload seeds")
    ap.add_argument("--atol", type=float, default=0.0)
    ap.add_argument("--rtol", type=float, default=0.0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    failed, files = False, 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        parent = os.path.join(tmp, "parent")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet",
                        parent, args.parent], check=True)
        try:
            for workload in WORKLOADS:
                for seed in seeds:
                    ops = workloads.build(workload, seed)
                    label = f"{workload} seed {seed}"
                    out_a = os.path.join(tmp, "out-parent", label.replace(" ", "-"))
                    out_b = os.path.join(tmp, "out-change", label.replace(" ", "-"))
                    runs_a = run_ops(os.path.join(parent, "src"), ops, out_a)
                    runs_b = run_ops(os.path.join(ROOT, "src"), ops, out_b)
                    for op, (code_a, err_a), (code_b, err_b) in zip(ops, runs_a, runs_b):
                        if code_a != code_b or err_a != err_b:
                            failed = True
                            print(f"{label} {op.name}: exit {code_a} -> {code_b}, "
                                  f"stderr {err_a!r} -> {err_b!r}")
                    count, bad = compare_dirs(label, out_a, out_b, args.atol, args.rtol)
                    files += count
                    failed |= bad
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", parent],
                           check=False)
    verdict = "outputs differ beyond tolerance" if failed else "all outputs within tolerance"
    print(f"{files} files compared against {args.parent}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
