"""End-to-end command-line behavior: resolution order, outputs, exit codes."""

import json
import os

import numpy as np
import pytest

from kickecho.analytic import fwhm_accel, fwhm_eps, fwhm_p0
from kickecho.cli import main, sidecar_path
from kickecho.config import resolve
from kickecho.finite_pulse import FinitePulseSpec
from kickecho.ladder import (
    SequenceSpec,
    WavepacketSpec,
    batched_return_amplitudes,
    resonant_return_amplitudes,
)
from kickecho.params import v0_from_gamma
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
    for any beta and acceleration; a detuned one runs both trains.  The
    CSV holds exactly the library's |c_0|^2."""
    params = resolve("echo", {"n_kicks": 1, "phi_d": 1.0}).physical_params()
    t = params.talbot_time
    cases = [
        (("beta=0.13", "accel=0.02"),
         resonant_return_amplitudes(7, 0.6, 0.13, 0.02, params)),
        (("beta=0.13", "accel=0.02", "eps_ns=2"),
         batched_return_amplitudes(7, 0.6, t + 2e-9, 0.13, 0.02, params)),
    ]
    for i, (settings, amps) in enumerate(cases):
        out = str(tmp_path / f"echo{i}.csv")
        argv = [arg for value in ("n_kicks=7", "phi_d=0.6", *settings) for arg in ("--set", value)]
        assert run_cli("echo", *argv, "--out", out) == 0
        side = json.load(open(sidecar_path(out), encoding="utf-8"))
        assert side["metrics"]["I"] == float(abs(amps[0]) ** 2)


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


def test_io_failure_exit_code(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "echo.csv")
    code = run_cli("echo", "--set", "n_kicks=4", "--set", "phi_d=0.5", "--out", out)
    assert code == 4
    assert capsys.readouterr().err.startswith("error: io:")
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
