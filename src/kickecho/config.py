"""Run configuration for the command-line tools.

Configs are flat key = value text files (# comments and blank lines
ignored) or, equivalently, the JSON sidecar written next to every CSV:
re-feeding a sidecar reproduces the run byte for byte.  Every key is
validated against the experiment kind before any computation starts, so
a bad config never produces output files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, NamedTuple

from .params import RB85_MASS_U, PhysicalParams, derive_params, ATOMIC_MASS_KG

FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration; nothing has been computed or written."""


# Caps on the work one run may request: kicks or pulses per train (also
# each n_list entry), the strength of one kick (phi_d, or the finite-pulse
# area V0 tau_p / (2 hbar) that gamma and tau_p_us give), the depth gamma,
# which sizes the finite-pulse ladder of tau-min-sweep, the strength
# n_kicks * phi_d of one delta-kick train, which sizes the delta-kick ladder
# (auto_q_max), the samples of one scan window (points), the finite-pulse
# scans of peak-shift (multiples) and the width searches of tau-min-sweep
# (n_list entries).  Each is at least ten times the largest value that the
# benchmark, the acceptance tests and the scripts use (200 kicks,
# phi_d = 2, area 5.6, gamma = 100, train strength 204, 161 points,
# 3 multiples, 4 n_list entries).
MAX_KICKS = 2000
MAX_PULSE_AREA = 100.0
MAX_GAMMA = 1000.0
MAX_TRAIN_STRENGTH = 2500.0
MAX_POINTS = 2000
MAX_MULTIPLES = 30
MAX_N_LIST = 40
# The period is period_multiple * T_T, and the flight phase is built from
# it, about period_multiple * q^2 radians, so its rounding grows with the
# multiple: the N = 20, phi_d = 1 echo at l T_T, exactly 1, is off by
# 4.9e-15 at l = 1e3, 1.0e-12 at l = 1e6 and 0.93 at l = 1e12.  The cap is
# more than ten times the largest multiple in use (2), and keeps that echo
# within 1e-12 of 1.
MAX_PERIOD_MULTIPLE = 1000
# The species box: mass_u from hydrogen (1 u) to heavy molecules (1e4 u),
# lambda_nm from the extreme ultraviolet (10 nm) to the far infrared
# (1e5 nm).  Far outside it the recoil rate or the Talbot time leaves the
# double range (lambda_nm = 1e300 gives omega_r = 0, mass_u = 1e300 a T_T
# whose square overflows), and mass_u = 1e-120 makes the width fits fail.
MASS_U_RANGE = (1.0, 1e4)
LAMBDA_NM_RANGE = (10.0, 1e5)
# The launch momentum beta (units of hbar kappa) and the acceleration accel
# (m/s^2).  At every multiple l T_T the echo is the same at beta and
# beta + 1, but the rounding of the flight phase (q + beta)^2 grows with
# beta: the N = 20, phi_d = 1 echo at beta = 0.13 moves by 1.6e-13 at
# beta = 10.13 (l = 1) and by 5.1e-9 at beta = 1000.13 (l = 2).  The
# acceleration adds the flight phase kappa accel T_T^2 k^2 / 2 by period k,
# 0.034 k^2 rad per m/s^2 for Rb-85 at 780 nm: 5.4e7 rad at 100 m/s^2 and
# k = 2 MAX_KICKS.  The ranges are twenty times the largest |beta| in use
# (0.5) and, leaving room for gravimetry at g, 200 times the largest
# |accel| (0.5).  beta = 1e200 and accel = 1e308 gave a NaN echo.
BETA_RANGE = (-10.0, 10.0)
ACCEL_RANGE = (-100.0, 100.0)


# The least positive double: a key whose lowest value it is must be positive.
_POSITIVE = math.ulp(0.0)


class _Key(NamedTuple):
    """One config key: its type and its lowest and highest allowed value."""

    type: type
    lo: float = -math.inf
    hi: float = math.inf


_KEYS: dict[str, _Key] = {
    "mass_u": _Key(float, *MASS_U_RANGE),
    "lambda_nm": _Key(float, *LAMBDA_NM_RANGE),
    "n_kicks": _Key(int, 1, MAX_KICKS),
    "phi_d": _Key(float, 0.0, MAX_PULSE_AREA),
    "gamma": _Key(float, _POSITIVE, MAX_GAMMA),
    "tau_p_us": _Key(float, 0.0),
    "eps_ns": _Key(float),
    "beta": _Key(float, *BETA_RANGE),
    "accel": _Key(float, *ACCEL_RANGE),
    "period_multiple": _Key(int, 1, MAX_PERIOD_MULTIPLE),
    "sigma_x_um": _Key(float, _POSITIVE),
    "points": _Key(int, 32, MAX_POINTS),
    "range_lo": _Key(float),
    "range_hi": _Key(float),
    "workers": _Key(int, 1),
    "n_list": _Key(str),
    "data_csv": _Key(str),
    "x_column": _Key(str),
    "value_column": _Key(str),
    "scale_factor": _Key(float, _POSITIVE),
    "multiples": _Key(int, 1, MAX_MULTIPLES),
}

# Physical-medium keys shared by every kind.
_COMMON_DEFAULTS: dict[str, Any] = {"mass_u": RB85_MASS_U, "lambda_nm": 780.0}

# The required keys of the delta-kick and the finite-pulse trains, the
# working point of one delta-kick run, and the window of one scan.
_DELTA_TRAIN = ("n_kicks", "phi_d")
_FINITE_TRAIN = ("n_kicks", "gamma", "tau_p_us")
_WORKING_POINT = {"eps_ns": 0.0, "beta": 0.0, "accel": 0.0, "period_multiple": 1}
_SCAN_WINDOW = {"points": 161, "range_lo": None, "range_hi": None, "workers": 1}

# kind -> (required keys, optional keys with defaults).  None means the
# key is accepted without a default (absent unless given).
_KIND_SCHEMAS: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "echo": (_DELTA_TRAIN, {**_WORKING_POINT, "sigma_x_um": None}),
    "momentum-history": (_DELTA_TRAIN, _WORKING_POINT),
    "scan-eps": (_DELTA_TRAIN, {**_SCAN_WINDOW, "period_multiple": 1}),
    "scan-p0": (_DELTA_TRAIN, _SCAN_WINDOW),
    "scan-accel": (_DELTA_TRAIN, {**_SCAN_WINDOW, "sigma_x_um": None}),
    "finite-scan": (_FINITE_TRAIN, {**_SCAN_WINDOW, "period_multiple": 1, "points": 97}),
    "tau-min-sweep": (("gamma",), {"n_list": "16,32,64,128"}),
    "fit-scaling": (
        ("data_csv", "x_column", "value_column"),
        {"scale_factor": 1.0},
    ),
    "peak-shift": (_FINITE_TRAIN, {"multiples": 2}),
}
KINDS = tuple(_KIND_SCHEMAS)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat key = value lines; # starts a comment, blanks skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config_file(path: str) -> dict[str, Any]:
    """Read a config file: flat key = value text, or a JSON sidecar.

    A JSON document may be either a bare object of config keys or a full
    sidecar, in which case its "config" object is used.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: JSON config must be an object")
        if isinstance(obj.get("config"), dict):
            obj = obj["config"]
        return dict(obj)
    return dict(parse_kv_text(text))


def _coerce(key: str, value: Any) -> Any:
    """Convert a raw config value (string or JSON scalar) to its type."""
    want = _KEYS[key].type
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if want is int:
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            if value != int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            return int(value)
        try:
            return int(str(value).strip())
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if want is float:
        if isinstance(value, (int, float)):
            return float(value)
        try:
            return float(str(value).strip())
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}") from None
    raise AssertionError(f"unhandled config type for {key}")


def _check_bounds(values: dict[str, Any]) -> None:
    for key, value in values.items():
        want, lo, hi = _KEYS[key]
        if value is None or want is str:
            continue
        if want is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if value < lo:
            bound = "positive" if lo == _POSITIVE else f"at least {lo:g}"
            raise ConfigError(f"{key} must be {bound}, got {value!r}")
        if value > hi:
            raise ConfigError(f"{key} must be at most {hi:g}, got {value!r}")
    if values.get("phi_d") is not None and values.get("n_kicks") is not None:
        strength = values["n_kicks"] * values["phi_d"]
        if not strength <= MAX_TRAIN_STRENGTH:
            raise ConfigError(
                f"train strength n_kicks * phi_d = {strength:.4g} must be at most "
                f"{MAX_TRAIN_STRENGTH:g}"
            )
    if values.get("gamma") is not None and values.get("tau_p_us") is not None:
        area = _pulse_area(values)
        if not area <= MAX_PULSE_AREA:
            raise ConfigError(
                f"pulse area {area:.4g} of gamma = {values['gamma']!r} and "
                f"tau_p_us = {values['tau_p_us']!r} must be at most {MAX_PULSE_AREA:g}"
            )
    # Within half a Talbot time of the config's atom, the period l T_T + eps
    # stays nearest its multiple l and positive; eps_ns = 1e300 gave a
    # meaningless echo.
    if values.get("eps_ns"):
        half_talbot_ns = 0.5e9 * _physical_params(values).talbot_time
        if not abs(values["eps_ns"]) <= half_talbot_ns:
            raise ConfigError(
                f"eps_ns must be at most half a Talbot time in magnitude, "
                f"{half_talbot_ns:.6g} ns here, got {values['eps_ns']!r}"
            )
    lo, hi = values.get("range_lo"), values.get("range_hi")
    if (lo is None) != (hi is None):
        raise ConfigError("range_lo and range_hi must be given together")
    if lo is not None and not hi > lo:
        raise ConfigError(f"range_hi must exceed range_lo, got ({lo!r}, {hi!r})")
    if "n_list" in values and values["n_list"] is not None:
        values["n_list"] = _normalize_n_list(values["n_list"])


def _physical_params(values: dict[str, Any]) -> PhysicalParams:
    """The atom and beam of the config's mass_u and lambda_nm."""
    try:
        return derive_params(values["mass_u"] * ATOMIC_MASS_KG, values["lambda_nm"] * 1e-9)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _pulse_area(values: dict[str, Any]) -> float:
    """phi_d = V0 tau_p / (2 hbar) = gamma tau_p hbar kappa^2 / (2 m) of the
    square pulse that gamma and tau_p_us give, for the config's atom."""
    return values["gamma"] * values["tau_p_us"] * 1e-6 * _physical_params(values).ladder_phase_rate


def _normalize_n_list(text: str) -> str:
    try:
        items = [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"n_list must be comma-separated integers, got {text!r}")
    if not items or any(n < 1 for n in items):
        raise ConfigError(f"n_list must hold positive integers, got {text!r}")
    if len(items) > MAX_N_LIST:
        raise ConfigError(f"n_list must hold at most {MAX_N_LIST} entries, got {len(items)}")
    if max(items) > MAX_KICKS:
        raise ConfigError(f"n_list entries must be at most {MAX_KICKS}, got {text!r}")
    return ",".join(str(n) for n in items)


@dataclass(frozen=True)
class RunConfig:
    """A validated, fully resolved run configuration."""

    kind: str
    values: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def physical_params(self) -> PhysicalParams:
        return _physical_params(self.values)

    def n_values(self) -> list[int]:
        return [int(part) for part in self["n_list"].split(",")]

    def as_json_dict(self) -> dict[str, Any]:
        """Config content for the sidecar; re-feedable via --config."""
        return {k: v for k, v in sorted(self.values.items()) if v is not None}


def resolve(kind: str, *sources: dict[str, Any]) -> RunConfig:
    """Merge config sources (later overrides earlier) and validate.

    Sources hold raw values (strings from files/flags or JSON scalars).
    Unknown keys, keys not applicable to the kind, missing required
    keys, type errors, and bound violations all raise ConfigError.
    """
    if kind not in _KIND_SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    required, optional = _KIND_SCHEMAS[kind]
    allowed = set(_COMMON_DEFAULTS) | set(required) | set(optional)

    merged: dict[str, Any] = {}
    for source in sources:
        for key, value in source.items():
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if key not in allowed:
                raise ConfigError(f"key {key!r} does not apply to kind {kind!r}")
            merged[key] = value

    values: dict[str, Any] = dict(_COMMON_DEFAULTS)
    for key, default in optional.items():
        values[key] = default
    for key, value in merged.items():
        values[key] = _coerce(key, value)
    missing = [key for key in required if values.get(key) is None]
    if missing:
        raise ConfigError(
            f"kind {kind!r} requires config keys: {', '.join(sorted(missing))}"
        )
    _check_bounds(values)
    return RunConfig(kind=kind, values=values)
