"""Checks of one round's output files, run after the timed span.

``verify_round`` reads what each operation wrote and applies the checks
of ``checks.py`` to it; the scalar propagators of kickecho are the only
program code it calls.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy import special

import checks
from kickecho.finite_pulse import FinitePulseSpec, run_finite_sequence
from kickecho.ladder import SequenceSpec, auto_q_max, run_sequence
from kickecho.params import rb85_params, v0_from_gamma
from workloads import KNOWN_FAILURE_EXIT, KNOWN_FAILURE_MESSAGE, Op

PARAMS = rb85_params()

# Sidecar metric names of the measured peak, per scan kind.
_PEAK_KEYS = {
    "scan-eps": ("fwhm_s", "peak_eps_s"),
    "scan-p0": ("fwhm_p0_hbar_kappa", "peak_p0_hbar_kappa"),
    "scan-accel": ("fwhm_m_s2", "peak_accel_m_s2"),
    "finite-scan": ("fwhm_s", "delta_eps_s"),
}


class Output:
    """What one CLI run wrote: raw CSV bytes, parsed rows, sidecar."""

    def __init__(self, csv_bytes: bytes, sidecar_text: str):
        self.csv_bytes = csv_bytes
        self.header, self.data = checks.parse_csv(csv_bytes.decode("utf-8"))
        self.sidecar = json.loads(sidecar_text)

    @classmethod
    def load(cls, outdir: str, name: str) -> "Output":
        with open(os.path.join(outdir, name + ".csv"), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(outdir, name + ".json"), encoding="utf-8") as fh:
            return cls(csv_bytes, fh.read())

    @property
    def config(self) -> dict:
        return self.sidecar["config"]

    @property
    def metrics(self) -> dict:
        return self.sidecar["metrics"]


def _delta_response(kind: str, config: dict):
    """Scalar-path output I as a function of the scan control value."""
    n, phi = config["n_kicks"], config["phi_d"]
    t = config.get("period_multiple", 1) * PARAMS.talbot_time
    if kind == "scan-eps":
        return lambda x: run_sequence(SequenceSpec(n, phi, t + x), 0.0, PARAMS)[1]
    if kind == "scan-p0":
        return lambda x: run_sequence(SequenceSpec(n, phi, t), x, PARAMS)[1]
    return lambda x: run_sequence(SequenceSpec(n, phi, t, accel=x), 0.0, PARAMS)[1]


def _finite_response(config: dict):
    v0 = v0_from_gamma(config["gamma"], PARAMS)
    t = config.get("period_multiple", 1) * PARAMS.talbot_time
    tau = config["tau_p_us"] * 1e-6
    return lambda x: run_finite_sequence(
        FinitePulseSpec(config["n_kicks"], v0, tau, t + x), 0.0, PARAMS
    )[1]


def _ensemble_response(config: dict):
    n, phi, sigma = config["n_kicks"], config["phi_d"], config["sigma_x_um"] * 1e-6
    return lambda x: checks.oracle_ensemble_output(n, phi, sigma, x)


def check_scan(label: str, kind: str, out: Output) -> list[str]:
    """Half level around the center, re-evaluated sample rows, closed-form width."""
    config = out.config
    fwhm_key, peak_key = _PEAK_KEYS[kind]
    fwhm, center = out.metrics[fwhm_key], out.metrics[peak_key]
    control, output = out.data[:, 0], out.data[:, 1]
    problems = []
    if kind == "finite-scan":
        response, row_tol = _finite_response(config), checks.SCALAR_ROW_TOL
        # Finite pulses skew the peak, so the level at center -+ fwhm/2 is
        # not half on each side; the crossings themselves are located instead.
        problems += checks.crossing_problems(label, fwhm, *checks.half_crossings(response, center, fwhm))
    else:
        if "sigma_x_um" in config:
            response, row_tol = _ensemble_response(config), checks.ENSEMBLE_ROW_TOL
        else:
            response, row_tol = _delta_response(kind, config), checks.SCALAR_ROW_TOL
            n, phi = config["n_kicks"], config["phi_d"]
            predicted = {
                "scan-eps": lambda: checks.width_eps(n, phi),
                "scan-p0": lambda: checks.width_p0(n, phi),
                "scan-accel": lambda: checks.width_accel(n, phi),
            }[kind]()
            problems += checks.width_problems(label, fwhm, predicted)
        problems += checks.half_level_problems(
            label, response(center), response(center - 0.5 * fwhm), response(center + 0.5 * fwhm)
        )
    rows = checks.spot_indices(control, center, fwhm)
    problems += checks.row_problems(
        label, output[rows], [response(float(control[i])) for i in rows], row_tol
    )
    return problems


def gauss_hermite_echo(config: dict) -> float:
    """Wavepacket echo from run_sequence fibres on a doubled ladder."""
    n, phi = config["n_kicks"], config["phi_d"]
    spec = SequenceSpec(n, phi, PARAMS.talbot_time)
    sigma_beta = 1.0 / (2.0 * config["sigma_x_um"] * 1e-6 * checks.KAPPA)
    x, w = special.roots_hermite(checks.GH_NODES)
    q_max = 2 * auto_q_max(n, phi)
    amps = [
        run_sequence(spec, math.sqrt(2.0) * sigma_beta * xi, PARAMS, q_max)[0].amplitude(0)
        for xi in x
    ]
    return float(abs(np.dot(w / math.sqrt(math.pi), amps)) ** 2)


def check_echo(label: str, out: Output) -> list[str]:
    value = float(out.data[0, -1])
    if "sigma_x_um" in out.config:
        reference = gauss_hermite_echo(out.config)
        if not abs(value - reference) <= checks.ENSEMBLE_ECHO_RTOL * reference:
            return [f"{label}: wavepacket echo {value!r} differs from the fibre average {reference!r}"]
        return []
    if not abs(value - 1.0) < checks.ECHO_TOL:
        return [f"{label}: resonant echo |I - 1| = {abs(value - 1.0):.3e}"]
    return []


def check_op(op: Op, out: Output, outputs: dict) -> list[str]:
    label = op.name
    if op.config_from:
        return checks.bytes_problems(label, out.csv_bytes, outputs[op.config_from].csv_bytes)
    if op.kind in _PEAK_KEYS:
        return check_scan(label, op.kind, out)
    if op.kind == "echo":
        return check_echo(label, out)
    if op.kind == "momentum-history":
        return checks.history_problems(label, out.header, out.data, out.config["n_kicks"], out.config["phi_d"])
    if op.kind == "tau-min-sweep":
        return checks.tau_min_problems(label, out.header, out.data)
    if op.kind == "fit-scaling":
        source = outputs[os.path.splitext(os.path.basename(op.settings["data_csv"]))[0]]
        col = {name: i for i, name in enumerate(source.header)}
        return checks.fit_problems(
            label, out.metrics["exponent"],
            source.data[:, col[out.config["x_column"]]], source.data[:, col[out.config["value_column"]]],
        )
    if op.kind == "peak-shift":
        return checks.peak_shift_problems(label, list(out.data[:, 1]))
    raise AssertionError(f"no check for kind {op.kind!r}")


def check_wavepacket_widths(outputs: dict) -> list[str]:
    """Criterion-4 ordering of the widths, when the round has those scans."""
    names = ("plane_n10", "narrow_n10", "plane_n20", "narrow_n20", "plane_n32", "narrow_n32", "wide_n32")
    if not all(name in outputs for name in names):
        return []
    width = {name: outputs[name].metrics["fwhm_m_s2"] for name in names}
    return checks.wavepacket_problems(
        {n: (width[f"narrow_n{n}"], width[f"plane_n{n}"]) for n in (10, 20)},
        32, width["narrow_n32"], width["wide_n32"], width["plane_n32"],
        checks.width_accel(32, 0.5),
    )


def known_failure(op: Op, code: int, message: str) -> bool:
    """The kept failure: its op, its exit code and its edge-band message."""
    return op.may_fail and code == KNOWN_FAILURE_EXIT and bool(KNOWN_FAILURE_MESSAGE.search(message))


def verify_round(ops: list[Op], outdir: str, exits: list[int], messages: list[str]) -> list[str]:
    """Problems found in one round's outputs; empty when all checks pass.

    ``messages`` holds what each op printed; a failed op is accepted only
    as the kept failure.
    """
    problems = []
    outputs = {}
    for op, code, message in zip(ops, exits, messages):
        if code != 0:
            if not known_failure(op, code, message):
                problems.append(f"{op.name}: exit code {code}: {message.strip()}")
            continue
        outputs[op.name] = out = Output.load(outdir, op.name)
        problems += check_op(op, out, outputs)
    return problems + check_wavepacket_widths(outputs)
