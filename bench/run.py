"""Benchmark of kickecho: one workload per run, driven through kickecho.cli.main.

Usage (from the repository root):

    python3 bench/run.py --workload tau-min --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all     # every workload, one process each

The run times fresh interpreter starts (setup_s), then repeats the
workload's fixed list of CLI runs in whole rounds for --seconds, checks
every output after the timed span, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds);
with --trace 1 untraced and traced rounds alternate and the metrics are
the per-layer ones.  Details and the traced breakdown are also written to
.bench_out/BENCH_<workload>_trace<0|1>.json.  See bench/README.md.
"""

import os

# One BLAS thread, set before numpy loads here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Fresh interpreter starts timed per run; their median is setup_s.
SETUP_STARTS = 5


def load_spec() -> dict:
    """BENCHMARK.json: the metrics a run reports, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_program():
    """Import kickecho from this checkout's src/, and nowhere else."""
    package = os.path.join(SRC, "kickecho", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"bench: {package} not found; run from a kickecho checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import kickecho.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(kickecho.__file__))) != SRC:
        sys.exit(f"bench: imported kickecho from {kickecho.__file__}, not from {SRC}")
    return kickecho.cli


def time_setup(first_op) -> list[float]:
    """Wall time of fresh starts that import kickecho.cli and resolve a config."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, first_op.kind,
            json.dumps(first_op.settings)]
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_round(cli, ops, outdir: str) -> dict:
    """Run every op once in outdir; wall and CPU time cover the CLI calls only."""
    os.makedirs(outdir)
    argvs = [op.argv() for op in ops]
    exits, messages = [], []
    marks = [(time.perf_counter(), time.process_time())]
    os.chdir(outdir)
    try:
        for argv in argvs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                exits.append(cli.main(argv))
            marks.append((time.perf_counter(), time.process_time()))
            messages.append(sink.getvalue())
    finally:
        os.chdir(ROOT)
    return {
        "wall_s": marks[-1][0] - marks[0][0],
        "op_wall_s": [b[0] - a[0] for a, b in zip(marks, marks[1:])],
        "op_cpu_s": [b[1] - a[1] for a, b in zip(marks, marks[1:])],
        "exits": exits,
        "messages": messages,
    }


def robust_total(rounds: list, key: str) -> float:
    """Sum over the ops of each op's median over rounds.

    With three or more rounds, an op slowed in one round by load from other
    processes drops out even when another op was slowed in another round.
    """
    return sum(statistics.median(per_op) for per_op in zip(*(r[key] for r in rounds)))


def end_to_end(setup_times: list, untraced: list, peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": robust_total(untraced, "op_wall_s"),
        "cpu_s": robust_total(untraced, "op_cpu_s"),
        "peak_rss_mb": peak_rss_mb,
    }


def _read_outputs(outdir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    import workloads
    from layertrace import Tracer
    from verify import verify_round

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    ops = workloads.build(args.workload, seed)

    setup_times = [] if args.trace else time_setup(ops[0])

    rundir = os.path.join(OUT, f"run-{args.workload}-{seed}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = run_round(cli, ops, os.path.join(rundir, f"round{len(rounds)}"))
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        rounds.append(result)
        elapsed = time.perf_counter() - start
        whole = not tracer or len(rounds) % 2 == 0
        if whole and elapsed + 0.5 * result["wall_s"] >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, after the timed span: the last round in full, and every other
    # round byte for byte against it.
    last_dir = os.path.join(rundir, f"round{len(rounds) - 1}")
    problems = verify_round(ops, last_dir, rounds[-1]["exits"], rounds[-1]["messages"])
    reference = _read_outputs(last_dir)
    output_bytes = sum(len(data) for data in reference.values())
    for index, result in enumerate(rounds[:-1]):
        if result["exits"] != rounds[-1]["exits"] or _read_outputs(os.path.join(rundir, f"round{index}")) != reference:
            problems.append(f"round {index}: outputs differ from the last round")
    shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(ops) * len(rounds)
    failed = sum(code != 0 for result in rounds for code in result["exits"])
    untraced = [r for r in rounds if not r["traced"]]
    if tracer:
        produced = tracer.per_round(
            [r["wall_s"] for r in rounds if r["traced"]], [r["wall_s"] for r in untraced], output_bytes
        )
    else:
        produced = end_to_end(setup_times, untraced, peak_rss_mb)
    listed = load_spec()["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: produced[m["name"]] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_starts_s": setup_times,
        "rounds": [
            {"wall_s": r["wall_s"], "cpu_s": sum(r["op_cpu_s"]), "traced": r["traced"]} for r in rounds
        ],
        "operations": [
            {"name": op.name, "argv": op.argv(), "exit": code, "wall_s": wall,
             "message": message.strip().splitlines()[-1] if code and message.strip() else ""}
            for op, code, message, wall in zip(
                ops, rounds[-1]["exits"], rounds[-1]["messages"], rounds[-1]["op_wall_s"])
        ],
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "result": report,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{args.workload}_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
        fh.write("\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in details["environment"].items()))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(json.dumps(report))
    return 0 if not problems else 1


def run_all(workload_names, args) -> int:
    """Run each workload in its own process and print every metric."""
    argv = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    results = {}
    for workload in workload_names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload] + argv,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
