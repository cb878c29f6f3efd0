"""Command-line front end: one subcommand per experiment kind.

Every run resolves its configuration (defaults < config file < --set
overrides < named flags), validates it fully, computes, and only then
writes two files: the CSV named by --out and a JSON sidecar next to it
(same path, .json extension) holding the resolved config, derived
constants, and extracted metrics.  Re-feeding the sidecar via --config
reproduces the CSV byte for byte; nothing here is stochastic.

Exit codes: 0 success, 2 invalid configuration, 3 engine failure
(truncation, non-convergence, peak extraction), 4 file-system error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np

from .analytic import fwhm_accel, fwhm_eps, fwhm_p0
from .config import (
    FORMAT_VERSION,
    KINDS,
    ConfigError,
    RunConfig,
    load_config_file,
    resolve,
)
from .errors import EngineError, InsufficientSpanError
from .finite_pulse import FinitePulseSpec
from .ladder import (
    SequenceSpec,
    WavepacketSpec,
    batched_return_amplitudes,
    gaussian_output,
    momentum_history,
    resonant_return_amplitudes,
)
from .params import HBAR, PhysicalParams, v0_from_gamma
from .scans import (
    find_tau_min,
    fit_scaling,
    gaussian_accel_scan,
    measure_peak_shift,
    scan,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ENGINE = 3
EXIT_IO = 4

_KIND_HELP = {
    "echo": "single echo-sequence output I at one working point",
    "momentum-history": "per-kick momentum populations over the sequence",
    "scan-eps": "output vs timing offset from resonance (delta kicks)",
    "scan-p0": "output vs launch momentum at resonance (delta kicks)",
    "scan-accel": "output vs acceleration at resonance (delta kicks)",
    "finite-scan": "output vs timing offset for square pulses",
    "tau-min-sweep": "width-minimizing pulse duration across pulse numbers",
    "fit-scaling": "power-law fit through columns of an existing CSV",
    "peak-shift": "timing-peak offset from integer resonance multiples",
}


class _ScanKind(NamedTuple):
    """How one scan kind maps onto scans.scan and its CSV and metrics."""

    axis: str
    column: str
    # Metric keys of the measured width, the peak center and the width
    # predicted by `predicted` (a function of n_kicks, phi_d, params).
    metrics: tuple[str, str, str]
    predicted: Callable[[int, float, PhysicalParams], float]
    # Control-axis unit of the CSV, the window and the metrics, in SI.
    unit: Callable[[PhysicalParams], float] = lambda params: 1.0


_SCAN_TABLE = {
    "scan-eps": _ScanKind(
        "eps", "eps_s", ("fwhm_s", "peak_eps_s", "predicted_fwhm_s"), fwhm_eps
    ),
    "scan-p0": _ScanKind(
        "p0",
        "p0_hbar_kappa",
        ("fwhm_p0_hbar_kappa", "peak_p0_hbar_kappa", "predicted_fwhm_p0_hbar_kappa"),
        fwhm_p0,
        lambda params: params.recoil_momentum,
    ),
    "scan-accel": _ScanKind(
        "accel",
        "accel_m_s2",
        ("fwhm_m_s2", "peak_accel_m_s2", "predicted_point_fwhm_m_s2"),
        fwhm_accel,
    ),
    "finite-scan": _ScanKind(
        "eps",
        "eps_s",
        ("fwhm_s", "delta_eps_s", "predicted_delta_kick_fwhm_s"),
        fwhm_eps,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickecho",
        description="Kicked-rotor echo interferometer simulations.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="KIND")
    for kind in KINDS:
        p = sub.add_parser(kind, help=_KIND_HELP[kind])
        p.add_argument(
            "--config",
            metavar="PATH",
            help="config file: flat key = value text, or a JSON sidecar",
        )
        p.add_argument(
            "--out",
            metavar="PATH",
            required=True,
            help="output CSV path; the JSON sidecar lands next to it",
        )
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        if kind in _SCAN_TABLE:
            p.add_argument(
                "--points", type=int, help="samples across the scan window"
            )
            p.add_argument(
                "--range",
                dest="range_",
                metavar="LO:HI",
                help="scan window on the control axis (overrides range_lo/range_hi)",
            )
            p.add_argument(
                "--parallel", type=int, help="worker threads for the sweep"
            )
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    source: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        source[key] = value
    return source


def _flag_source(args: argparse.Namespace) -> dict[str, Any]:
    source: dict[str, Any] = {}
    if getattr(args, "points", None) is not None:
        source["points"] = args.points
    if getattr(args, "parallel", None) is not None:
        source["workers"] = args.parallel
    window = getattr(args, "range_", None)
    if window is not None:
        lo, sep, hi = window.partition(":")
        if not sep or not lo.strip() or not hi.strip():
            raise ConfigError(f"--range expects LO:HI, got {window!r}")
        source["range_lo"] = lo.strip()
        source["range_hi"] = hi.strip()
    return source


def _format_cell(value: Any) -> str:
    """One CSV cell: shortest round-trip float text, quoted strings."""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _render_csv(header: list[str], rows: list[list[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise AssertionError("row width does not match header")
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def sidecar_path(out_path: str) -> str:
    return os.path.splitext(out_path)[0] + ".json"


def _write_outputs(
    out_path: str,
    header: list[str],
    rows: list[list[Any]],
    sidecar: dict[str, Any],
) -> str:
    """Serialize fully, then write; nothing is left written if rendering or
    either write fails."""
    csv_text = _render_csv(header, rows)
    json_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    json_path = sidecar_path(out_path)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)
    try:
        with open(json_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json_text)
    except OSError:
        os.remove(out_path)
        raise
    return json_path


def _derived(params: PhysicalParams, **extra: float) -> dict[str, float]:
    """Sidecar constants of the medium, plus the run's own."""
    return {
        "talbot_time_s": params.talbot_time,
        "omega_r_rad_s": params.omega_r,
        "kappa_per_m": params.kappa,
        **extra,
    }


def _sequence_spec(config: RunConfig, params: PhysicalParams) -> SequenceSpec:
    period = config.get("period_multiple", 1) * params.talbot_time
    period += config.get("eps_ns", 0.0) * 1e-9
    return SequenceSpec(
        n_kicks=config["n_kicks"],
        phi_d=config["phi_d"],
        period=period,
        accel=config.get("accel", 0.0),
    )


def _run_echo(config: RunConfig):
    params = config.physical_params()
    spec = _sequence_spec(config, params)
    sigma_um = config.get("sigma_x_um")
    if sigma_um is not None:
        if config["beta"] != 0.0:
            raise ConfigError(
                "beta must stay 0 when sigma_x_um is given; the wavepacket "
                "carries the momentum distribution"
            )
        output = gaussian_output(
            spec, WavepacketSpec(sigma_x=sigma_um * 1e-6), params
        )
    elif spec.period == params.talbot_time:
        amp = resonant_return_amplitudes(
            spec.n_kicks, spec.phi_d, config["beta"], spec.accel, params
        )[0]
        output = float(abs(amp) ** 2)
    else:
        amp = batched_return_amplitudes(
            spec.n_kicks, spec.phi_d, spec.period, config["beta"], spec.accel, params
        )[0]
        output = float(abs(amp) ** 2)
    header = ["eps_s", "beta", "accel_m_s2", "output_I"]
    rows = [[config["eps_ns"] * 1e-9, config["beta"], config["accel"], output]]
    return header, rows, _derived(params, phi_d=config["phi_d"]), {"I": output}


def _run_momentum_history(config: RunConfig):
    params = config.physical_params()
    spec = _sequence_spec(config, params)
    q_values, history = momentum_history(spec, config["beta"], params)
    header = ["kick_index"] + [f"pop_q_{q}" for q in q_values.tolist()]
    rows = [
        [kick + 1] + history[kick].tolist() for kick in range(history.shape[0])
    ]
    q0 = int(np.nonzero(q_values == 0)[0][0])
    metrics = {
        "I": float(history[-1, q0]),
        "n_kicks_total": history.shape[0],
        "n_sites": int(q_values.size),
    }
    return header, rows, _derived(params, phi_d=config["phi_d"]), metrics


def _run_scan(config: RunConfig):
    kind = _SCAN_TABLE[config.kind]
    params = config.physical_params()
    unit = kind.unit(params)
    lo, hi = config.get("range_lo"), config.get("range_hi")
    window = None if lo is None else (lo * unit, hi * unit)
    if config.kind == "finite-scan":
        v0 = v0_from_gamma(config["gamma"], params)
        spec = FinitePulseSpec(
            n_pulses=config["n_kicks"],
            v0=v0,
            tau_p=config["tau_p_us"] * 1e-6,
            period=config["period_multiple"] * params.talbot_time,
        )
        derived = _derived(params, gamma=config["gamma"], v0_j=v0, phi_d=spec.phi_d)
    else:
        spec = _sequence_spec(config, params)
        derived = _derived(params, phi_d=spec.phi_d)
    sigma_um = config.get("sigma_x_um")
    if sigma_um is not None:
        curve = gaussian_accel_scan(
            config["n_kicks"],
            spec.phi_d,
            WavepacketSpec(sigma_x=sigma_um * 1e-6),
            params,
            window=window,
            n_points=config["points"],
        )
    else:
        curve = scan(
            kind.axis,
            spec,
            params,
            window=window,
            n_points=config["points"],
            workers=config["workers"],
        )
    header = [kind.column, "output_I"]
    rows = [
        list(pair)
        for pair in zip((curve.control / unit).tolist(), curve.output.tolist())
    ]
    width, peak, predicted = kind.metrics
    metrics = {
        width: curve.fwhm / unit,
        peak: curve.peak_center / unit,
        predicted: kind.predicted(config["n_kicks"], spec.phi_d, params) / unit,
    }
    return header, rows, derived, metrics


def _run_tau_min_sweep(config: RunConfig):
    params = config.physical_params()
    gamma = config["gamma"]
    n_values = sorted(set(config.n_values()))
    for n in n_values:
        if gamma * n <= 1.0:
            raise ConfigError(
                f"gamma*n must exceed 1 for the width minimum; got "
                f"gamma={gamma!r}, n={n}"
            )
    header = [
        "n_pulses",
        "gamma",
        "tau_min_s",
        "w_min_s",
        "x_w_sqrt_gamma_n",
        "x_tau_gamma_n",
    ]
    rows: list[list[Any]] = []
    for n in n_values:
        tau_min, w_min = find_tau_min(n, gamma, params)
        rows.append(
            [n, gamma, tau_min, w_min, math.sqrt(gamma) * n, gamma * n]
        )
    derived = _derived(params, gamma=gamma, v0_j=v0_from_gamma(gamma, params))
    metrics = {
        "n_pulses": [row[0] for row in rows],
        "tau_min_s": [row[2] for row in rows],
        "w_min_s": [row[3] for row in rows],
        "tau_min_sqrt_gamma_n_us": [
            row[2] * math.sqrt(gamma * row[0]) * 1e6 for row in rows
        ],
        "w_min_gamma_n2_us": [
            row[3] * gamma * row[0] ** 2 * 1e6 for row in rows
        ],
    }
    return header, rows, derived, metrics


def _run_fit_scaling(config: RunConfig):
    x_col, v_col = config["x_column"], config["value_column"]
    points: list[tuple[float, float]] = []
    with open(config["data_csv"], "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        columns = reader.fieldnames or []
        for col in (x_col, v_col):
            if col not in columns:
                raise ConfigError(
                    f"column {col!r} not in {config['data_csv']}; "
                    f"available: {', '.join(columns) or '(none)'}"
                )
        for index, row in enumerate(reader, start=2):
            try:
                points.append((float(row[x_col]), float(row[v_col])))
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{config['data_csv']} line {index}: non-numeric value in "
                    f"{x_col!r}/{v_col!r}"
                ) from None
    fit = fit_scaling(points, scale_factor=config["scale_factor"])
    header = [x_col, v_col, "fitted_value"]
    rows = [
        [x, v, fit.prefactor * x**fit.exponent / config["scale_factor"]]
        for x, v in sorted(points)
    ]
    params = config.physical_params()
    metrics = {
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "residual": fit.residual,
        "n_points": len(points),
    }
    return header, rows, _derived(params), metrics


def _run_peak_shift(config: RunConfig):
    params = config.physical_params()
    gamma = config["gamma"]
    tau_p = config["tau_p_us"] * 1e-6
    shifts = [
        measure_peak_shift(config["n_kicks"], gamma, tau_p, multiple, params)
        for multiple in range(1, config["multiples"] + 1)
    ]
    header = ["multiple_l", "delta_eps_s"]
    rows = [[l + 1, shift] for l, shift in enumerate(shifts)]
    v0 = v0_from_gamma(gamma, params)
    derived = _derived(params, gamma=gamma, v0_j=v0, phi_d=v0 * tau_p / (2.0 * HBAR))
    metrics: dict[str, Any] = {"delta_eps_s": shifts}
    if len(shifts) >= 2 and shifts[0] != 0.0:
        metrics["rel_diff_l2_l1"] = abs(shifts[1] - shifts[0]) / abs(shifts[0])
    return header, rows, derived, metrics


_RUNNERS = {
    "echo": _run_echo,
    "momentum-history": _run_momentum_history,
    **{kind: _run_scan for kind in _SCAN_TABLE},
    "tau-min-sweep": _run_tau_min_sweep,
    "fit-scaling": _run_fit_scaling,
    "peak-shift": _run_peak_shift,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if sidecar_path(args.out) == args.out:
            raise ConfigError(f"--out {args.out!r} would be overwritten by its JSON sidecar")
        sources: list[dict[str, Any]] = []
        if args.config:
            sources.append(load_config_file(args.config))
        sources.append(_parse_overrides(args.overrides))
        sources.append(_flag_source(args))
        config = resolve(args.kind, *sources)
        header, rows, derived, metrics = _RUNNERS[args.kind](config)
        sidecar = {
            "format_version": FORMAT_VERSION,
            "kind": config.kind,
            "config": config.as_json_dict(),
            "derived": derived,
            "metrics": metrics,
        }
        json_path = _write_outputs(args.out, header, rows, sidecar)
    except (EngineError, InsufficientSpanError) as exc:
        print(f"error: engine: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except ValueError as exc:
        # ConfigError, and the parameter combinations the engines reject,
        # which are config mistakes too.
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out} and {json_path}")
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, (int, float)):
            print(f"{key} = {value}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
