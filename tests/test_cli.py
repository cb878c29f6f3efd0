"""End-to-end command-line behavior: resolution order, outputs, exit codes."""

import json
import os

import pytest

from kickecho.cli import main, sidecar_path


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
