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
from typing import Any

from .params import RB85_MASS_U, PhysicalParams, derive_params, ATOMIC_MASS_KG

FORMAT_VERSION = 1

KINDS = (
    "echo",
    "momentum-history",
    "scan-eps",
    "scan-p0",
    "scan-accel",
    "finite-scan",
    "tau-min-sweep",
    "fit-scaling",
    "peak-shift",
)


class ConfigError(ValueError):
    """Invalid run configuration; nothing has been computed or written."""


# Caps on the work one run may request: kicks or pulses per train (also
# each n_list entry), the strength of one kick (phi_d, or the finite-pulse
# area V0 tau_p / (2 hbar) that gamma and tau_p_us give), the depth gamma,
# which sizes the finite-pulse ladder of tau-min-sweep, and the strength
# n_kicks * phi_d of one delta-kick train, which sizes the delta-kick ladder
# (auto_q_max).  Each is at least ten times the largest value that the
# benchmark, the acceptance tests and the scripts use (200 kicks,
# phi_d = 2, area 5.6, gamma = 100, train strength 204).
MAX_KICKS = 2000
MAX_PULSE_AREA = 100.0
MAX_GAMMA = 1000.0
MAX_TRAIN_STRENGTH = 2500.0


_KEY_TYPES: dict[str, type] = {
    "mass_u": float,
    "lambda_nm": float,
    "n_kicks": int,
    "phi_d": float,
    "gamma": float,
    "tau_p_us": float,
    "eps_ns": float,
    "beta": float,
    "accel": float,
    "period_multiple": int,
    "sigma_x_um": float,
    "points": int,
    "range_lo": float,
    "range_hi": float,
    "workers": int,
    "n_list": str,
    "data_csv": str,
    "x_column": str,
    "value_column": str,
    "scale_factor": float,
    "multiples": int,
}

# Physical-medium keys shared by every kind.
_COMMON_DEFAULTS: dict[str, Any] = {"mass_u": RB85_MASS_U, "lambda_nm": 780.0}

# kind -> (required keys, optional keys with defaults).  None means the
# key is accepted without a default (absent unless given).
_KIND_SCHEMAS: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {
    "echo": (
        ("n_kicks", "phi_d"),
        {
            "eps_ns": 0.0,
            "beta": 0.0,
            "accel": 0.0,
            "period_multiple": 1,
            "sigma_x_um": None,
        },
    ),
    "momentum-history": (
        ("n_kicks", "phi_d"),
        {"eps_ns": 0.0, "beta": 0.0, "accel": 0.0, "period_multiple": 1},
    ),
    "scan-eps": (
        ("n_kicks", "phi_d"),
        {
            "period_multiple": 1,
            "points": 161,
            "range_lo": None,
            "range_hi": None,
            "workers": 1,
        },
    ),
    "scan-p0": (
        ("n_kicks", "phi_d"),
        {"points": 161, "range_lo": None, "range_hi": None, "workers": 1},
    ),
    "scan-accel": (
        ("n_kicks", "phi_d"),
        {
            "points": 161,
            "range_lo": None,
            "range_hi": None,
            "workers": 1,
            "sigma_x_um": None,
        },
    ),
    "finite-scan": (
        ("n_kicks", "gamma", "tau_p_us"),
        {
            "period_multiple": 1,
            "points": 97,
            "range_lo": None,
            "range_hi": None,
            "workers": 1,
        },
    ),
    "tau-min-sweep": (("gamma",), {"n_list": "16,32,64,128"}),
    "fit-scaling": (
        ("data_csv", "x_column", "value_column"),
        {"scale_factor": 1.0},
    ),
    "peak-shift": (("n_kicks", "gamma", "tau_p_us"), {"multiples": 2}),
}


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
    want = _KEY_TYPES[key]
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
    def positive(key: str) -> None:
        if key in values and values[key] is not None and not values[key] > 0:
            raise ConfigError(f"{key} must be positive, got {values[key]!r}")

    def at_most(key: str, bound: float) -> None:
        if key in values and values[key] is not None and not values[key] <= bound:
            raise ConfigError(f"{key} must be at most {bound:g}, got {values[key]!r}")

    def at_least(key: str, bound: int) -> None:
        if key in values and values[key] is not None and values[key] < bound:
            raise ConfigError(
                f"{key} must be at least {bound}, got {values[key]!r}"
            )

    for key, value in values.items():
        if _KEY_TYPES.get(key) is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    positive("mass_u")
    positive("lambda_nm")
    positive("gamma")
    positive("sigma_x_um")
    positive("scale_factor")
    at_least("n_kicks", 1)
    at_least("period_multiple", 1)
    at_least("points", 32)
    at_least("workers", 1)
    at_least("multiples", 1)
    at_most("n_kicks", MAX_KICKS)
    at_most("phi_d", MAX_PULSE_AREA)
    at_most("gamma", MAX_GAMMA)
    if values.get("phi_d") is not None and values["phi_d"] < 0.0:
        raise ConfigError(f"phi_d must be nonnegative, got {values['phi_d']!r}")
    if values.get("phi_d") is not None and values.get("n_kicks") is not None:
        strength = values["n_kicks"] * values["phi_d"]
        if not strength <= MAX_TRAIN_STRENGTH:
            raise ConfigError(
                f"train strength n_kicks * phi_d = {strength:.4g} must be at most "
                f"{MAX_TRAIN_STRENGTH:g}"
            )
    if values.get("tau_p_us") is not None and values["tau_p_us"] < 0.0:
        raise ConfigError(
            f"tau_p_us must be nonnegative, got {values['tau_p_us']!r}"
        )
    if values.get("gamma") is not None and values.get("tau_p_us") is not None:
        area = _pulse_area(values)
        if not area <= MAX_PULSE_AREA:
            raise ConfigError(
                f"pulse area {area:.4g} of gamma = {values['gamma']!r} and "
                f"tau_p_us = {values['tau_p_us']!r} must be at most {MAX_PULSE_AREA:g}"
            )
    lo, hi = values.get("range_lo"), values.get("range_hi")
    if (lo is None) != (hi is None):
        raise ConfigError("range_lo and range_hi must be given together")
    if lo is not None and not hi > lo:
        raise ConfigError(f"range_hi must exceed range_lo, got ({lo!r}, {hi!r})")
    if "n_list" in values and values["n_list"] is not None:
        values["n_list"] = _normalize_n_list(values["n_list"])


def _pulse_area(values: dict[str, Any]) -> float:
    """phi_d = V0 tau_p / (2 hbar) = gamma tau_p hbar kappa^2 / (2 m) of the
    square pulse that gamma and tau_p_us give, for the config's atom."""
    try:
        params = derive_params(values["mass_u"] * ATOMIC_MASS_KG, values["lambda_nm"] * 1e-9)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return values["gamma"] * values["tau_p_us"] * 1e-6 * params.ladder_phase_rate


def _normalize_n_list(text: str) -> str:
    try:
        items = [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"n_list must be comma-separated integers, got {text!r}")
    if not items or any(n < 1 for n in items):
        raise ConfigError(f"n_list must hold positive integers, got {text!r}")
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
        return derive_params(
            mass=self["mass_u"] * ATOMIC_MASS_KG,
            wavelength=self["lambda_nm"] * 1e-9,
        )

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
            if key not in _KEY_TYPES:
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
