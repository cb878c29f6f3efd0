"""End-to-end command-line behavior: resolution order, outputs, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kickecho
from kickecho import cli, ladder, scans
from kickecho.analytic import fwhm_accel, fwhm_eps, fwhm_p0
from kickecho.cli import _format_cell, _render_csv, main, sidecar_path
from kickecho.config import resolve
from kickecho.errors import TruncationError
from kickecho.finite_pulse import FinitePulseSpec
from kickecho.ladder import (
    SequenceSpec,
    WavepacketSpec,
    batched_return_amplitudes,
    folded_return_amplitudes,
    momentum_history,
    resonant_return_amplitudes,
)
from kickecho.params import ATOMIC_MASS_KG, derive_params, v0_from_gamma
from kickecho.scans import gaussian_accel_scan, scan


def run_cli(*argv):
    return main(list(argv))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_echo_smoke_writes_csv_and_sidecar(tmp_path, capsys):
    cfg = write(
        tmp_path / "run.cfg",
        "# resonant echo\nn_kicks = 10\nphi_d = 0.5\n\neps_ns = 0\n",
    )
    out = str(tmp_path / "echo.csv")
    assert run_cli("echo", "--config", cfg, "--out", out) == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "eps_s,beta,accel_m_s2,output_I"
    assert len(lines) == 2
    side = json.load(open(sidecar_path(out), encoding="utf-8"))
    assert side["format_version"] == 1
    assert side["kind"] == "echo"
    assert side["config"]["n_kicks"] == 10
    assert side["derived"]["talbot_time_s"] == pytest.approx(6.4732e-5, rel=1e-3)
    assert side["metrics"]["I"] == pytest.approx(1.0, abs=1e-10)
    assert "wrote" in capsys.readouterr().out


def test_plane_wave_echo_engines(tmp_path):
    """A plane-wave echo at the resonance period takes the closed form,
    for any beta and acceleration; a detuned one folds at zero
    acceleration, on the even sector at beta = 0, and runs both trains
    under acceleration.  The CSV holds exactly the library's |c_0|^2."""
    params = resolve("echo", {"n_kicks": 1, "phi_d": 1.0}).physical_params()
    t = params.talbot_time
    cases = [
        (("beta=0.13", "accel=0.02"),
         resonant_return_amplitudes(7, 0.6, 0.13, 0.02, params)),
        (("beta=0.13", "eps_ns=2"),
         folded_return_amplitudes(7, 0.6, t + 2e-9, 0.13, params)),
        (("eps_ns=2",), folded_return_amplitudes(7, 0.6, t + 2e-9, 0.0, params)),
        (("beta=0.13", "accel=0.02", "eps_ns=2"),
         batched_return_amplitudes(7, 0.6, t + 2e-9, 0.13, 0.02, params)),
    ]
    for i, (settings, amps) in enumerate(cases):
        out = str(tmp_path / f"echo{i}.csv")
        argv = [arg for value in ("n_kicks=7", "phi_d=0.6", *settings) for arg in ("--set", value)]
        assert run_cli("echo", *argv, "--out", out) == 0
        side = json.load(open(sidecar_path(out), encoding="utf-8"))
        assert side["metrics"]["I"] == float(abs(amps[0]) ** 2)


def test_detuned_echo_folds_where_both_trains_failed_the_edge_gate(tmp_path):
    """N = 100, phi_d = 0.5, eps = 2 ns: both trains on auto_q_max(100,
    0.5) = 85 put 1.019e-12 into the edge band, so the echo exited 3.  The
    fold gates the forward train only and passes; its I agrees with
    run_sequence on a ladder wider than auto_q_max(200, 0.5) to 1e-12."""
    out = str(tmp_path / "echo.csv")
    argv = ["--set", "n_kicks=100", "--set", "phi_d=0.5", "--set", "eps_ns=2"]
    assert run_cli("echo", *argv, "--out", out) == 0
    got = json.load(open(sidecar_path(out), encoding="utf-8"))["metrics"]["I"]
    params = resolve("echo", {"n_kicks": 1, "phi_d": 1.0}).physical_params()
    seq = SequenceSpec(100, 0.5, params.talbot_time + 2e-9)
    _, want = ladder.run_sequence(seq, 0.0, params, q_max=ladder.auto_q_max(200, 0.5) + 20)
    assert abs(got - want) <= 1e-12


def test_sidecar_round_trip_reproduces_bytes(tmp_path):
    cfg = write(tmp_path / "run.cfg", "n_kicks = 10\nphi_d = 0.5\npoints = 33\n")
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert run_cli("scan-eps", "--config", cfg, "--out", out1) == 0
    assert run_cli("scan-eps", "--config", sidecar_path(out1), "--out", out2) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    side1 = json.load(open(sidecar_path(out1), encoding="utf-8"))
    side2 = json.load(open(sidecar_path(out2), encoding="utf-8"))
    assert side1 == side2


def test_resolution_order_defaults_file_set_flags(tmp_path):
    cfg = write(tmp_path / "run.cfg", "n_kicks = 10\nphi_d = 0.5\npoints = 33\n")
    out = str(tmp_path / "scan.csv")

    # File beats the schema default (161).
    assert run_cli("scan-eps", "--config", cfg, "--out", out) == 0
    assert json.load(open(sidecar_path(out)))["config"]["points"] == 33

    # --set beats the file.
    assert (
        run_cli("scan-eps", "--config", cfg, "--set", "points=37", "--out", out)
        == 0
    )
    assert json.load(open(sidecar_path(out)))["config"]["points"] == 37

    # The named flag beats --set.
    assert (
        run_cli(
            "scan-eps",
            "--config",
            cfg,
            "--set",
            "points=37",
            "--points",
            "41",
            "--out",
            out,
        )
        == 0
    )
    side = json.load(open(sidecar_path(out)))
    assert side["config"]["points"] == 41
    assert len(open(out, encoding="utf-8").read().splitlines()) == 42


def test_range_flag_sets_window(tmp_path):
    cfg = write(tmp_path / "run.cfg", "n_kicks = 10\nphi_d = 0.5\npoints = 33\n")
    out = str(tmp_path / "scan.csv")
    # The = form keeps argparse from reading the leading minus as a flag.
    assert (
        run_cli(
            "scan-eps", "--config", cfg, "--range=-3e-7:3e-7", "--out", out
        )
        == 0
    )
    side = json.load(open(sidecar_path(out)))
    assert side["config"]["range_lo"] == -3e-7
    assert side["config"]["range_hi"] == 3e-7
    rows = open(out, encoding="utf-8").read().splitlines()[1:]
    firsts = [float(r.split(",")[0]) for r in rows]
    assert firsts[0] == -3e-7 and firsts[-1] == 3e-7


def test_validation_failure_writes_no_files(tmp_path, capsys):
    out = str(tmp_path / "echo.csv")
    code = run_cli("echo", "--set", "n_kicks=0", "--set", "phi_d=0.5", "--out", out)
    assert code == 2
    assert not os.path.exists(out)
    assert not os.path.exists(sidecar_path(out))
    assert capsys.readouterr().err.startswith("error: config:")
    # Requests of unbounded cost fail the same way, before any engine runs.
    for kind, *junk in (
        ("echo", "n_kicks=100000", "phi_d=0.5"),
        ("echo", "n_kicks=4", "phi_d=100000"),
        ("momentum-history", "n_kicks=2000", "phi_d=100"),
        ("scan-p0", "n_kicks=1000", "phi_d=2.6"),
        ("tau-min-sweep", "gamma=10", "n_list=4,100000"),
        ("tau-min-sweep", "gamma=100000", "n_list=4"),
        ("finite-scan", "n_kicks=4", "gamma=1000", "tau_p_us=2"),
        ("peak-shift", "n_kicks=100000", "gamma=10", "tau_p_us=2"),
    ):
        settings = [arg for value in junk for arg in ("--set", value)]
        assert run_cli(kind, *settings, "--out", out) == 2
        assert "must be at most" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
    # An output path its own sidecar would overwrite is a config error.
    out = str(tmp_path / "echo.json")
    assert run_cli("echo", "--set", "n_kicks=4", "--set", "phi_d=0.5", "--out", out) == 2
    assert "sidecar" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


_N_ARGS = ("--set", "n_kicks=4", "--set", "phi_d=0.5")
_N2_ARGS = ("--set", "n_kicks=2", "--set", "phi_d=0.5")
_FINITE_ARGS = ("--set", "n_kicks=4", "--set", "gamma=10", "--set", "tau_p_us=2")


def _capped(key, *argv):
    return pytest.param(argv, key, id=f"{argv[0]}-{key}-{argv[-1].split('=')[-1][:13]}")


@pytest.mark.parametrize(
    "argv,key",
    [
        _capped("points", "scan-eps", *_N_ARGS, "--points", "1000000000000"),
        _capped("points", "scan-eps", *_N_ARGS, "--set", "points=2001"),
        _capped("period_multiple", "echo", "--set", "n_kicks=20", "--set", "phi_d=1",
                "--set", "period_multiple=1000000000000"),
        _capped("period_multiple", "finite-scan", *_FINITE_ARGS, "--set", "period_multiple=1001"),
        _capped("multiples", "peak-shift", *_FINITE_ARGS, "--set", "multiples=1000000000000"),
        _capped("n_list", "tau-min-sweep", "--set", "gamma=10",
                "--set", "n_list=" + ",".join(["4"] * 41)),
        _capped("lambda_nm", "echo", *_N2_ARGS, "--set", "lambda_nm=1e300"),
        _capped("lambda_nm", "echo", *_N2_ARGS, "--set", "lambda_nm=1e120"),
        _capped("lambda_nm", "echo", *_N2_ARGS, "--set", "lambda_nm=9.99"),
        _capped("mass_u", "echo", *_N2_ARGS, "--set", "mass_u=1e300"),
        _capped("mass_u", "scan-eps", *_N_ARGS, "--set", "mass_u=1e-120"),
        _capped("mass_u", "finite-scan", *_FINITE_ARGS, "--set", "mass_u=10001"),
        _capped("accel", "echo", *_N_ARGS, "--set", "accel=1e308"),
        _capped("accel", "echo", *_N_ARGS, "--set", "accel=1e300"),
        _capped("beta", "echo", *_N_ARGS, "--set", "beta=1e200"),
        _capped("beta", "momentum-history", *_N_ARGS, "--set", "beta=1e300"),
        _capped("eps_ns", "echo", "--set", "n_kicks=20", "--set", "phi_d=1",
                "--set", "eps_ns=1e300"),
        _capped("eps_ns", "echo", "--set", "n_kicks=20", "--set", "phi_d=1",
                "--set", "eps_ns=-1e300"),
        _capped("scale_factor", "fit-scaling", "--set", "data_csv=data.csv",
                "--set", "x_column=n", "--set", "value_column=w",
                "--set", "scale_factor=1e308"),
    ],
)
def test_count_and_species_keys_are_capped(tmp_path, capsys, monkeypatch, argv, key):
    """Counts past their cap, species outside the box and working points
    that gave a nan or a result with no precision left fail as config
    errors that name the key, before any engine runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("n,w\n1,5\n2,6\n5,7\n10,8\n20,9\n")
    start = time.perf_counter()
    assert run_cli(*argv, "--out", "out.csv") == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {key} must ")
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["data.csv"]


@pytest.mark.parametrize("mass_u", [1.0, 1e4])
@pytest.mark.parametrize("lambda_nm", [10.0, 1e5])
def test_species_box_corners_run(tmp_path, mass_u, lambda_nm):
    """At every corner of the species box the echo, a timing scan and a
    finite-pulse scan (pulses of 1 % of T_T) succeed or fail as engine
    errors, with finite outputs."""
    talbot_time = derive_params(mass_u * ATOMIC_MASS_KG, lambda_nm * 1e-9).talbot_time
    species = ("--set", f"mass_u={mass_u!r}", "--set", f"lambda_nm={lambda_nm!r}")
    out = str(tmp_path / "out.csv")
    for argv in (
        ("echo", *_N_ARGS, "--set", "beta=0.1", "--set", "accel=0.001",
         "--set", f"eps_ns={1e6 * talbot_time!r}"),
        ("scan-eps", *_N_ARGS, "--points", "33"),
        ("finite-scan", "--set", "n_kicks=4", "--set", "gamma=10",
         "--set", f"tau_p_us={1e4 * talbot_time!r}", "--points", "33"),
    ):
        code = run_cli(*argv, *species, "--out", out)
        assert code in (0, 3), argv
        if code == 0:
            _, control, output = _read_columns(out)
            assert np.isfinite(control).all() and np.isfinite(output).all()
            side = json.load(open(sidecar_path(out)), parse_constant=float)
            assert all(math.isfinite(v) for v in side["metrics"].values())


def test_non_finite_config_values_are_rejected(tmp_path, capsys):
    out = str(tmp_path / "echo.csv")
    base = ("--set", "n_kicks=4", "--set", "phi_d=0.5", "--out", out)
    for bad in ("beta=nan", "eps_ns=inf", "accel=-inf", "phi_d=nan", "sigma_x_um=inf"):
        assert run_cli("echo", *base, "--set", bad) == 2
        assert "must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unknown_and_malformed_overrides(tmp_path, capsys):
    out = str(tmp_path / "echo.csv")
    base = ("--set", "n_kicks=4", "--set", "phi_d=0.5", "--out", out)
    assert run_cli("echo", "--set", "nonsense=1", *base) == 2
    assert run_cli("echo", "--set", "garbage", *base) == 2
    assert run_cli("scan-eps", "--range", "1,2", *base) == 2
    assert not os.path.exists(out)


def test_consecutive_runs_share_the_parser_not_its_overrides(tmp_path):
    """main builds its parser once per process; the --set list of one call
    (action="append", default=[]) never leaks into the next call."""
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run_cli(
        "echo", "--out", first, "--set", "n_kicks=4", "--set", "phi_d=0.5",
        "--set", "eps_ns=1",
    ) == 0
    assert run_cli("echo", "--out", second, "--set", "n_kicks=6", "--set", "phi_d=0.5") == 0
    config = json.load(open(sidecar_path(second), encoding="utf-8"))["config"]
    assert config["n_kicks"] == 6
    assert config["eps_ns"] == 0.0
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(["echo", "--out", first]).overrides == []


def test_duplicate_config_key_rejected(tmp_path):
    cfg = write(tmp_path / "run.cfg", "n_kicks = 4\nn_kicks = 5\nphi_d = 0.5\n")
    assert run_cli("echo", "--config", cfg, "--out", str(tmp_path / "o.csv")) == 2


def test_engine_failure_exit_code(tmp_path, capsys):
    data = write(
        tmp_path / "data.csv", "n,w\n8,1.0\n16,0.5\n32,0.25\n"
    )
    cfg = write(
        tmp_path / "fit.cfg",
        f"data_csv = {data}\nx_column = n\nvalue_column = w\n",
    )
    out = str(tmp_path / "fit.csv")
    assert run_cli("fit-scaling", "--config", cfg, "--out", out) == 3
    assert capsys.readouterr().err.startswith("error: engine:")
    assert not os.path.exists(out)


def test_huge_scan_window_fails_with_one_line(tmp_path):
    """A window near 1e300 m/s^2 reaches the peak finder with controls
    whose squares overflow; its closed-form parabola falls back quietly,
    so a fresh process prints the one error line and no numpy warning or
    LAPACK message.  The exit code is not pinned."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kickecho.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "kickecho", "scan-accel", "--out", str(tmp_path / "a.csv"),
         "--set", "n_kicks=5", "--set", "phi_d=0.5", "--range=1e300:1e301"],
        env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1


def test_io_failure_exit_code(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "echo.csv")
    code = run_cli("echo", "--set", "n_kicks=4", "--set", "phi_d=0.5", "--out", out)
    assert code == 4
    assert capsys.readouterr().err == (
        f"error: io: [Errno 2] No such file or directory: {out!r}\n"
    )
    # A sidecar that cannot be written takes its CSV with it.
    (tmp_path / "echo.json").mkdir()
    out = str(tmp_path / "echo.csv")
    code = run_cli("echo", "--set", "n_kicks=4", "--set", "phi_d=0.5", "--out", out)
    assert code == 4
    assert capsys.readouterr().err.startswith("error: io:")
    assert sorted(os.listdir(tmp_path)) == ["echo.json"]


def test_gaussian_echo_requires_zero_beta(tmp_path):
    out = str(tmp_path / "echo.csv")
    code = run_cli(
        "echo",
        "--set", "n_kicks=4", "--set", "phi_d=0.5",
        "--set", "sigma_x_um=100", "--set", "beta=0.1",
        "--out", out,
    )
    assert code == 2
    assert not os.path.exists(out)


def test_momentum_history_layout(tmp_path):
    out = str(tmp_path / "hist.csv")
    assert (
        run_cli(
            "momentum-history",
            "--set", "n_kicks=3", "--set", "phi_d=0.5",
            "--out", out,
        )
        == 0
    )
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0].startswith("kick_index,pop_q_-")
    assert len(lines) == 1 + 6  # header + one row per kick, both trains
    side = json.load(open(sidecar_path(out)))
    assert side["metrics"]["n_kicks_total"] == 6
    assert side["metrics"]["I"] == pytest.approx(1.0, abs=1e-10)


def test_momentum_history_csv_matches_cellwise_format(tmp_path):
    """The history, rendered in bulk block by block, is byte for byte the
    CSV that formatting every cell on its own gives."""
    out = str(tmp_path / "hist.csv")
    assert run_cli(
        "momentum-history", "--set", "n_kicks=100", "--set", "phi_d=2", "--set", "beta=0.05",
        "--out", out,
    ) == 0
    params = resolve("momentum-history", {"n_kicks": 100, "phi_d": 2.0}).physical_params()
    spec = SequenceSpec(100, 2.0, params.talbot_time)
    q_values, history = momentum_history(spec, 0.05, params)
    assert history.size > 4 * ladder.HISTORY_BLOCK_CELLS
    header = ["kick_index"] + [f"pop_q_{q}" for q in q_values.tolist()]
    rows = [[k] + row for k, row in enumerate(history.tolist(), 1)]
    assert open(out, "rb").read() == _render_csv(header, rows).encode()


def test_failed_history_leaves_no_file(tmp_path, monkeypatch, capsys):
    """An edge-gate failure after the first block was written exits 3 with
    the gate's message and leaves no CSV, sidecar or temporary file."""
    real_gate = ladder._check_edges
    calls, listed, messages = [0], [], []

    def gate(amps, q_max):
        calls[0] += 1
        if calls[0] > max(1, ladder.HISTORY_BLOCK_CELLS // amps.shape[0]):
            listed.extend((p.name, p.stat().st_size) for p in tmp_path.iterdir())
            try:
                real_gate(np.ones_like(amps), q_max)
            except TruncationError as exc:
                messages.append(str(exc))
                raise
        real_gate(amps, q_max)

    monkeypatch.setattr(ladder, "_check_edges", gate)
    out = str(tmp_path / "hist.csv")
    code = run_cli("momentum-history", "--set", "n_kicks=20", "--set", "phi_d=2", "--out", out)
    assert code == 3
    assert capsys.readouterr().err == f"error: engine: {messages[0]}\n"
    # The first block had been written to a temporary file beside --out.
    [(name, size)] = listed
    assert name.startswith(".hist.csv.") and name.endswith(".tmp") and size > 0
    assert os.listdir(tmp_path) == []


def test_scan_kinds_report_widths(tmp_path):
    base = ("--set", "n_kicks=10", "--set", "phi_d=0.5", "--points", "33")
    for kind, metric in [
        ("scan-eps", "fwhm_s"),
        ("scan-p0", "fwhm_p0_hbar_kappa"),
        ("scan-accel", "fwhm_m_s2"),
    ]:
        out = str(tmp_path / f"{kind}.csv")
        assert run_cli(kind, *base, "--out", out) == 0
        side = json.load(open(sidecar_path(out)))
        assert side["metrics"][metric] > 0.0


def test_finite_scan_smoke(tmp_path):
    out = str(tmp_path / "fin.csv")
    code = run_cli(
        "finite-scan",
        "--set", "n_kicks=4", "--set", "gamma=10", "--set", "tau_p_us=2",
        "--points", "33",
        "--out", out,
    )
    assert code == 0
    side = json.load(open(sidecar_path(out)))
    assert side["metrics"]["fwhm_s"] > 0.0
    assert side["metrics"]["delta_eps_s"] != 0.0
    assert side["derived"]["gamma"] == 10.0


def test_finite_scan_does_not_depend_on_parallel(tmp_path):
    """A finite-pulse scan runs as one chunk whatever --parallel says: its
    BLAS product rounds by batch width, and at N = 32, gamma = 10,
    tau_p = 1.2 us two chunks moved delta_eps_s in its 12th digit.  The
    CSVs are byte-equal at W = 1, 2 and 3, and the sidecars differ only in
    the recorded worker count."""
    argv = ["finite-scan", "--set", "n_kicks=32", "--set", "gamma=10", "--set", "tau_p_us=1.2"]
    csvs, sides = [], []
    for workers in (1, 2, 3):
        out = str(tmp_path / f"fin{workers}.csv")
        assert run_cli(*argv, "--parallel", str(workers), "--out", out) == 0
        csvs.append(open(out, "rb").read())
        side = json.load(open(sidecar_path(out), encoding="utf-8"))
        assert side["config"].pop("workers") == workers
        sides.append(side)
    assert csvs[0] == csvs[1] == csvs[2]
    assert sides[0] == sides[1] == sides[2]
    columns = [_read_columns(str(tmp_path / f"fin{w}.csv"))[2] for w in (1, 2, 3)]
    assert np.array_equal(columns[0], columns[1]) and np.array_equal(columns[0], columns[2])


def test_finite_scan_measures_what_the_width_search_measures(tmp_path):
    """finite-scan and the tau-min width search share one window loop: at
    (gamma, N) = (100, 16) fwhm_s equals scans._finite_width on the same
    97 points, bit for bit.  At tau_p = 0.5576 us the first window does not
    bracket the peak and widens; at 0.675 us a widen-once loop exited 3."""
    params = resolve(
        "finite-scan", {"n_kicks": 16, "gamma": 100.0, "tau_p_us": 0.675}
    ).physical_params()
    v0 = v0_from_gamma(100.0, params)
    for tau_us in ("0.5576", "0.675"):
        out = str(tmp_path / f"fin{tau_us}.csv")
        argv = ["finite-scan", "--set", "n_kicks=16", "--set", "gamma=100",
                "--set", f"tau_p_us={tau_us}", "--out", out]
        assert run_cli(*argv) == 0
        side = json.load(open(sidecar_path(out), encoding="utf-8"))
        assert side["config"]["points"] == 97
        fwhm, _ = scans._finite_width(
            16, v0, float(tau_us) * 1e-6, params, params.talbot_time, n_points=97
        )
        assert side["metrics"]["fwhm_s"] == fwhm


def test_gaussian_accel_scan_widens_until_bracketed(tmp_path, capsys):
    """At N = 100 the wavepacket broadens the acceleration peak past the
    first window, which widens until the peak is bracketed: the curve is
    gaussian_accel_scan on the final window.  At N = 50, phi_d = 2,
    sigma_x = 10 um the third window shows a side maximum above half of
    the peak (I about 2.9e-5 against 5.0e-5), so the width is ambiguous
    and the run exits 3; 33 points see the same side maximum as the
    default 161."""
    out = str(tmp_path / "wp100.csv")
    argv = ["--set", "n_kicks=100", "--set", "phi_d=1", "--set", "sigma_x_um=100"]
    assert run_cli("scan-accel", *argv, "--out", out) == 0
    _, control, output = _read_columns(out)
    side = json.load(open(sidecar_path(out), encoding="utf-8"))
    params = resolve("scan-accel", {"n_kicks": 100, "phi_d": 1.0}).physical_params()
    hi = float(control[-1])
    assert control[0] == -hi and hi > 2.0 * fwhm_accel(100, 1.0, params)
    direct = gaussian_accel_scan(
        100, 1.0, WavepacketSpec(sigma_x=100.0 * 1e-6), params, window=(-hi, hi),
        n_points=side["config"]["points"],
    )
    assert np.array_equal(control, direct.control)
    assert np.array_equal(output, direct.output)
    assert side["metrics"]["fwhm_m_s2"] == direct.fwhm
    capsys.readouterr()
    out = str(tmp_path / "wp50.csv")
    argv = ["--set", "n_kicks=50", "--set", "phi_d=2", "--set", "sigma_x_um=10"]
    assert run_cli("scan-accel", *argv, "--points", "33", "--out", out) == 3
    assert capsys.readouterr().err.startswith("error: engine: secondary maximum")
    assert not os.path.exists(out)


@pytest.mark.parametrize("points", [64, 65])
def test_gaussian_scan_accel_has_an_odd_sample_count(tmp_path, points):
    """The Gaussian acceleration curve mirrors its nonnegative half about
    zero, so it has 2 * (points // 2) + 1 rows; the sidecar keeps the
    requested count."""
    out = str(tmp_path / "g.csv")
    argv = ["--set", "n_kicks=10", "--set", "phi_d=0.5", "--set", "sigma_x_um=100"]
    assert run_cli("scan-accel", *argv, "--points", str(points), "--out", out) == 0
    _, control, output = _read_columns(out)
    assert control.size == output.size == 2 * (points // 2) + 1
    assert json.load(open(sidecar_path(out), encoding="utf-8"))["config"]["points"] == points


def test_convergence_failure_exit_code(tmp_path, monkeypatch, capsys):
    """A quadrature that cannot converge is an engine failure (exit 3)."""
    monkeypatch.setattr(scans, "ACCEL_MAX_DENSITY", 16.0)
    monkeypatch.setattr(scans, "ACCEL_CURVE_TOL", 0.0)
    out = str(tmp_path / "g.csv")
    argv = ["--set", "n_kicks=10", "--set", "phi_d=0.5", "--set", "sigma_x_um=100"]
    assert run_cli("scan-accel", *argv, "--points", "33", "--out", out) == 3
    assert capsys.readouterr().err.startswith("error: engine: wavepacket average not stable")
    assert not os.path.exists(out) and not os.path.exists(sidecar_path(out))


def test_weak_timing_scan_fails_as_an_engine_error(tmp_path, capsys):
    """Two weak kicks make a timing peak wider than one resonance period.
    The window stops widening at that span, so every period stays
    positive, and the run is an engine failure rather than a config one."""
    out = str(tmp_path / "weak.csv")
    argv = ["scan-eps", "--set", "n_kicks=2", "--set", "phi_d=0.5", "--out", out]
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err.startswith("error: engine: peak is wider than")
    assert not os.path.exists(out) and not os.path.exists(sidecar_path(out))


def test_tau_min_sweep_smoke(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = run_cli(
        "tau-min-sweep",
        "--set", "gamma=10", "--set", "n_list=4",
        "--out", out,
    )
    assert code == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == (
        "n_pulses,gamma,tau_min_s,w_min_s,x_w_sqrt_gamma_n,x_tau_gamma_n"
    )
    assert len(lines) == 2
    side = json.load(open(sidecar_path(out)))
    assert side["metrics"]["tau_min_sqrt_gamma_n_us"][0] == pytest.approx(
        21.4, rel=0.2
    )


def test_tau_min_sweep_small_gamma_n(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = run_cli(
        "tau-min-sweep",
        "--set", "gamma=3", "--set", "n_list=6,8",
        "--out", out,
    )
    assert code == 0
    side = json.load(open(sidecar_path(out)))
    for product in side["metrics"]["tau_min_sqrt_gamma_n_us"]:
        assert product == pytest.approx(22.0, rel=0.05)


def test_peak_shift_smoke(tmp_path):
    out = str(tmp_path / "shift.csv")
    code = run_cli(
        "peak-shift",
        "--set", "n_kicks=4", "--set", "gamma=10", "--set", "tau_p_us=2",
        "--out", out,
    )
    assert code == 0
    side = json.load(open(sidecar_path(out)))
    assert side["metrics"]["rel_diff_l2_l1"] < 1e-8


def test_fit_scaling_recovers_synthetic_law(tmp_path):
    rows = "\n".join(f"{n},{33.0 * n**-2.0}" for n in (8, 16, 32, 64, 128))
    data = write(tmp_path / "data.csv", "n,w\n" + rows + "\n")
    cfg = write(
        tmp_path / "fit.cfg",
        f"data_csv = {data}\nx_column = n\nvalue_column = w\n",
    )
    out = str(tmp_path / "fit.csv")
    assert run_cli("fit-scaling", "--config", cfg, "--out", out) == 0
    side = json.load(open(sidecar_path(out)))
    assert side["metrics"]["exponent"] == pytest.approx(-2.0, abs=1e-10)
    assert side["metrics"]["prefactor"] == pytest.approx(33.0, rel=1e-10)


def test_csv_header_quotes_column_names(tmp_path):
    """fit-scaling copies the data's column names into its header; one
    with a comma is quoted, so every line has the header's width."""
    rows = "\n".join(f"{n},{33.0 * n**-2.0}" for n in (8, 16, 32, 64, 128))
    data = write(tmp_path / "data.csv", '"n,pulses",w\n' + rows + "\n")
    out = str(tmp_path / "fit.csv")
    argv = ("--set", f"data_csv={data}", "--set", "x_column=n,pulses", "--set", "value_column=w")
    assert run_cli("fit-scaling", *argv, "--out", out) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["n,pulses", "w", "fitted_value"]
        table = list(reader)
    assert [float(row["n,pulses"]) for row in table] == [8.0, 16.0, 32.0, 64.0, 128.0]
    assert all(None not in row for row in table)


def _read_columns(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    values = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), values[:, 0], values[:, 1]


def test_scan_kinds_match_direct_library_calls(tmp_path):
    """Each scan kind writes exactly the curve, metrics and kick strength of
    the library call it stands for, bit for bit; launch momenta in units of
    hbar kappa."""
    params = resolve("scan-eps", {"n_kicks": 1, "phi_d": 1.0}).physical_params()
    hk = params.recoil_momentum
    delta = ("--set", "n_kicks=12", "--set", "phi_d=0.7", "--points", "33")
    seq = SequenceSpec(12, 0.7, params.talbot_time)
    seq2 = SequenceSpec(12, 0.7, 2 * params.talbot_time)
    finite = FinitePulseSpec(8, v0_from_gamma(10.0, params), 2.0 * 1e-6, 2 * params.talbot_time)
    wp = WavepacketSpec(sigma_x=100.0 * 1e-6)
    accel_keys = ("accel_m_s2", "fwhm_m_s2", "peak_accel_m_s2", "predicted_point_fwhm_m_s2")
    cases = [
        (
            ["scan-eps", *delta, "--parallel", "2", "--set", "period_multiple=2"],
            scan("eps", seq2, params, n_points=33, workers=2),
            seq2,
            1.0,
            ("eps_s", "fwhm_s", "peak_eps_s", "predicted_fwhm_s"),
            fwhm_eps,
        ),
        (
            ["scan-p0", *delta, "--range=-0.01:0.012"],
            scan("p0", seq, params, window=(-0.01 * hk, 0.012 * hk), n_points=33),
            seq,
            hk,
            ("p0_hbar_kappa", "fwhm_p0_hbar_kappa", "peak_p0_hbar_kappa",
             "predicted_fwhm_p0_hbar_kappa"),
            fwhm_p0,
        ),
        (["scan-accel", *delta], scan("accel", seq, params, n_points=33), seq, 1.0,
         accel_keys, fwhm_accel),
        (
            ["scan-accel", *delta, "--set", "sigma_x_um=100"],
            gaussian_accel_scan(12, 0.7, wp, params, n_points=33),
            seq,
            1.0,
            accel_keys,
            fwhm_accel,
        ),
        (
            ["finite-scan", "--set", "n_kicks=8", "--set", "gamma=10", "--set", "tau_p_us=2",
             "--set", "period_multiple=2", "--points", "33"],
            scan("eps", finite, params, n_points=33),
            finite,
            1.0,
            ("eps_s", "fwhm_s", "delta_eps_s", "predicted_delta_kick_fwhm_s"),
            fwhm_eps,
        ),
    ]
    for i, (argv, curve, spec, unit, keys, predicted) in enumerate(cases):
        out = str(tmp_path / f"scan{i}.csv")
        assert run_cli(*argv, "--out", out) == 0
        header, control, output = _read_columns(out)
        column, width, peak, predicted_width = keys
        assert header == [column, "output_I"]
        assert np.array_equal(control, curve.control / unit)
        assert np.array_equal(output, curve.output)
        side = json.load(open(sidecar_path(out)))
        n = spec.n_pulses if isinstance(spec, FinitePulseSpec) else spec.n_kicks
        assert side["metrics"] == {
            width: curve.fwhm / unit,
            peak: curve.peak_center / unit,
            predicted_width: predicted(n, spec.phi_d, params) / unit,
        }
        assert side["derived"]["phi_d"] == spec.phi_d


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, 0.1]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(_EDGE_FLOATS),
            st.integers(min_value=-(10**20), max_value=10**20),
            st.text(alphabet=st.sampled_from('ab,"\r\n -'), max_size=6),
            st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
            st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
        ),
        max_size=40,
    )
)
@example([1] + _EDGE_FLOATS)
@example(_EDGE_FLOATS + [np.float64(0.5), "x,y", 3, -0.0])
def test_render_csv_float_runs_match_cellwise_format(row):
    """Rendered rows equal formatting every cell on its own."""
    header = [f"c{i}" for i in range(len(row))]
    expected = ",".join(_format_cell(cell) for cell in row)
    assert _render_csv(header, [row, row]) == "\n".join(
        [",".join(header), expected, expected]
    ) + "\n"
