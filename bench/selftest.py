"""Fast self-test of the benchmark's checks and of BENCHMARK.json.

Runs a short probe list of CLI runs once, traced, and confirms that every
check accepts those outputs and that the trace gives every per-layer
metric BENCHMARK.json lists.  Then it feeds each check a deliberately
wrong output (a width scaled by 1.1 or 1.02, a population off by 1e-6,
one changed CSV byte, another failure than the kept one, ...) and
confirms that it is rejected.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py
"""

import contextlib
import functools
import io
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402
from verify import Output, check_op, verify_round  # noqa: E402
from workloads import Op, jitter, tau_guess_us, window  # noqa: E402

WORKDIR = os.path.join(ROOT, ".bench_out", "selftest")


def probe_ops(rng: random.Random) -> list[Op]:
    """One small run of every operation kind, calling every traced layer."""
    phi = jitter(rng, 1.0, 0.02)
    tau = round(tau_guess_us(10.0, 8) * rng.uniform(0.9, 1.1), 4)
    return [
        Op("probe_echo", "echo", {"n_kicks": 10, "phi_d": phi}),
        Op("probe_history", "momentum-history", {"n_kicks": 10, "phi_d": phi}),
        Op("probe_scan", "scan-eps", {"n_kicks": 10, "phi_d": phi},
           (window(rng, checks.width_eps(10, phi)),)),
        Op("probe_rerun", "scan-eps", config_from="probe_scan"),
        Op("probe_wp_echo", "echo",
           {"n_kicks": 10, "phi_d": 0.5, "sigma_x_um": jitter(rng, 100.0, 0.03, 2)}),
        Op("probe_wp_scan", "scan-accel",
           {"n_kicks": 6, "phi_d": 0.5, "sigma_x_um": jitter(rng, 100.0, 0.03, 2)},
           ("--points", "32")),
        Op("probe_finite", "finite-scan", {"n_kicks": 8, "gamma": 10, "tau_p_us": tau}),
        Op("probe_sweep", "tau-min-sweep", {"gamma": 1, "n_list": rng.choice((8, 9, 10))}),
        Op("probe_shift", "peak-shift", {"n_kicks": 8, "gamma": 10, "tau_p_us": tau}),
    ]


@functools.cache
def probe_outputs() -> tuple:
    """(ops, outputs by op name, per-layer metrics) of one traced probe run."""
    from kickecho.cli import main

    ops = probe_ops(random.Random("selftest"))
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    os.chdir(WORKDIR)
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                if main(op.argv()) != 0:
                    raise AssertionError(f"probe run {op.name} failed")
    finally:
        tracer.uninstall()
        os.chdir(ROOT)
    layers = tracer.per_round([1.0], [1.0], 1)
    return ops, {op.name: Output.load(WORKDIR, op.name) for op in ops}, layers


def _op(name):
    ops, outputs, _ = probe_outputs()
    return next(op for op in ops if op.name == name), outputs


def _with_metric(out: Output, key: str, factor: float) -> Output:
    sidecar = json.loads(json.dumps(out.sidecar))
    sidecar["metrics"][key] = sidecar["metrics"][key] * factor
    return Output(out.csv_bytes, json.dumps(sidecar))


def _with_cell(out: Output, row: int, col: int, change) -> Output:
    lines = out.csv_bytes.decode().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    return Output(("\n".join(lines) + "\n").encode(), json.dumps(out.sidecar))


def _rejects(name: str, out: Output) -> bool:
    op, outputs = _op(name)
    return bool(check_op(op, out, outputs))


def test_probe_outputs_pass():
    ops, _, _ = probe_outputs()
    assert verify_round(ops, WORKDIR, [0] * len(ops), [""] * len(ops)) == []


def test_scaled_widths_rejected():
    _, outputs, _ = probe_outputs()
    assert _rejects("probe_scan", _with_metric(outputs["probe_scan"], "fwhm_s", 1.1))
    assert _rejects("probe_finite", _with_metric(outputs["probe_finite"], "fwhm_s", 1.1))
    assert _rejects("probe_wp_scan", _with_metric(outputs["probe_wp_scan"], "fwhm_m_s2", 1.1))
    assert checks.width_problems("w", 1.1, 1.0)


def test_widths_two_percent_off_rejected():
    # Finite-pulse and wavepacket scans have no closed-form width; the
    # half-level check alone must catch a width 2 % off.
    _, outputs, _ = probe_outputs()
    for factor in (1.02, 1 / 1.02):
        assert _rejects("probe_finite", _with_metric(outputs["probe_finite"], "fwhm_s", factor))
        assert _rejects("probe_wp_scan", _with_metric(outputs["probe_wp_scan"], "fwhm_m_s2", factor))


def test_only_the_kept_failure_is_accepted():
    from kickecho.cli import main

    kept = next(op for op in workloads.build("wavepacket", workloads.DEFAULT_SEED) if op.may_fail)
    sink = io.StringIO()
    os.makedirs(WORKDIR, exist_ok=True)
    os.chdir(WORKDIR)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(kept.argv())
    finally:
        os.chdir(ROOT)
    message = sink.getvalue()
    assert code == workloads.KNOWN_FAILURE_EXIT, (code, message)
    assert verify_round([kept], WORKDIR, [code], [message]) == []
    other = "error: engine: gaussian_output did not converge within max_nodes\n"
    assert verify_round([kept], WORKDIR, [code], [other])
    assert verify_round([kept], WORKDIR, [2], [message])
    assert verify_round([Op(kept.name, kept.kind, kept.settings)], WORKDIR, [code], [message])


def test_sampled_rows_rejected():
    _, outputs, _ = probe_outputs()
    out = outputs["probe_scan"]
    center = int(np.argmin(np.abs(out.data[:, 0] - out.metrics["peak_eps_s"])))
    assert _rejects("probe_scan", _with_cell(out, center, 1, lambda v: v - 1e-6))


def test_population_row_rejected():
    _, outputs, _ = probe_outputs()
    out = outputs["probe_history"]
    assert _rejects("probe_history", _with_cell(out, 3, 1 + out.data.shape[1] // 2, lambda v: v + 1e-6))


def test_changed_csv_byte_rejected():
    _, outputs, _ = probe_outputs()
    out = outputs["probe_rerun"]
    text = out.csv_bytes.decode()
    i = text.index("e-", 40) - 1
    changed = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
    assert _rejects("probe_rerun", Output(changed.encode(), json.dumps(out.sidecar)))


def test_echoes_rejected():
    _, outputs, _ = probe_outputs()
    assert _rejects("probe_echo", _with_cell(outputs["probe_echo"], 0, 3, lambda v: v - 1e-9))
    assert _rejects("probe_wp_echo", _with_cell(outputs["probe_wp_echo"], 0, 3, lambda v: v * 1.01))


def test_tau_min_and_peak_shift_rejected():
    _, outputs, _ = probe_outputs()
    sweep = outputs["probe_sweep"]
    w_col = sweep.header.index("w_min_s")
    assert _rejects("probe_sweep", _with_cell(sweep, 0, w_col, lambda v: v * 1.25))
    assert _rejects("probe_shift", _with_cell(outputs["probe_shift"], 1, 1, lambda v: v * 1.1))


def test_fit_exponent_rejected():
    x = np.array([10.0, 20.0, 40.0, 128.0])
    value = 33e-6 / x**2
    exponent = checks.refit_exponent(x, value)
    assert checks.fit_problems("fit", exponent, x, value) == []
    assert checks.fit_problems("fit", exponent + 0.2, x, value)
    assert checks.fit_problems("fit", -1.8, x, 33e-6 / x**1.8)


def test_wavepacket_ordering_rejected():
    good = ({10: (1.02, 1.0), 20: (1.05, 1.0)}, 32, 1.4, 1.05, 1.0, 1.0)
    assert checks.wavepacket_problems(*good) == []
    assert checks.wavepacket_problems({10: (1.15, 1.0)}, *good[1:])
    assert checks.wavepacket_problems(good[0], 32, 1.2, 1.05, 1.0, 1.0)
    assert checks.wavepacket_problems(good[0], 32, 1.4, 0.99, 1.0, 1.0)


def test_oracle_echo_and_populations():
    amps = checks.oracle_return_amplitudes(12, 0.7, np.array([0.0]), 0.0)
    assert abs(abs(amps[0]) ** 2 - 1.0) < 1e-12
    rows = checks.resonant_populations(5, 0.8, np.arange(-30, 31))
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_benchmark_json_fixed_form():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} for w in spec["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(m["better"] == "lower" and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])


def test_every_listed_metric_is_produced():
    spec = run.load_spec()
    fake_round = {"op_wall_s": [1.0], "op_cpu_s": [1.0]}
    produced = run.end_to_end([0.5], [fake_round], 100.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(produced)
    _, _, layers = probe_outputs()
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    assert not missing, missing


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
